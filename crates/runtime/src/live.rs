//! The live core: the one [`crate::Cluster`] of the thread and socket
//! deployments.
//!
//! Both live backends host every client in the parent process — the
//! interactive sessions and the closed-loop workload clients — and differ
//! only in how envelopes reach the servers, how the servers are observed
//! and which faults can be injected: the router's channels, snapshot
//! requests to in-process loops and a chaos thread on its link controls,
//! or TCP frames, control-plane requests and process kills against child
//! processes. That difference is a [`LiveNet`]. Everything above it is
//! written once here, on [`Live`]: the interactive sessions with their
//! inboxes, the blocking round trip, the closed-loop workload and the
//! observers: `stats` and `check_convergence` over one
//! [`LiveNet::snapshots`], `min_ust` over the UST each server loop
//! publishes ([`LiveNet::min_ust`]), and `stabilize`. The workload runs
//! one thread per [`crate::workload_client::WorkloadClient`]
//! ([`crate::driver::run_client`]) until a stop flag, counts what
//! finishes after the warm-up instant, and reports after a 300 ms settle.
//!
//! A backend is `Live` over its net: [`crate::ThreadCluster`] is
//! `Live<ThreadNet>` and [`crate::SocketCluster`] is `Live<SocketNet>`.
//! Each backend module keeps its transport, its bring-up and its
//! teardown (the net's `Drop`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paris_clock::PhysicalClock;
use paris_core::{ClientEvent, ClientSession, Topology, Violation};
use paris_proto::{Envelope, ServerSnapshot};
use paris_types::{ClientId, ClusterConfig, DcId, Error, FaultPlan, Mode, Timestamp};

use crate::driver::{run_client, Finished};
use crate::facade::Sessions;
use crate::measure::{ClusterStats, RunReport};
use crate::workload_client::{Tally, WorkloadClient};
use crate::{
    open_session, replica_convergence, BackendConfig, Cluster, Interactive, INTERACTIVE_SEQ_BASE,
    OP_TIMEOUT,
};

/// The longest a blocking wait sleeps before it probes liveness again.
const SLICE: Duration = Duration::from_millis(100);

/// How a live parent reaches, observes and faults its servers. Public
/// inside a private module, like [`Live`]: the backends' type aliases
/// expose both, and nothing outside this crate can name either.
pub trait LiveNet {
    /// The backend's name ([`Cluster::backend_name`]).
    const NAME: &'static str;

    /// Routes the envelopes addressed to `client` into the returned inbox
    /// (replacing any earlier registration of the same id).
    fn register(&self, client: ClientId) -> Result<Receiver<Envelope>, Error>;

    /// Sends an interactive operation's envelope.
    fn send(&self, env: Envelope) -> Result<(), Error>;

    /// A sender for a workload client thread; it drops what it cannot
    /// send, and the client's wait notices the stop flag instead.
    fn lossy_sender(&self) -> impl Fn(Envelope) + Send + 'static;

    /// One snapshot per server, with every key's version orders when
    /// `chains` is set.
    fn snapshots(&self, chains: bool) -> Result<Vec<ServerSnapshot>, Error>;

    /// The least UST the server loops published, read without waking one.
    fn min_ust(&self) -> Result<Timestamp, Error>;

    /// Adds the wire totals the servers' snapshots do not carry.
    fn add_wire_totals(&self, stats: &mut ClusterStats);

    /// Fails once a server can no longer answer, so no wait runs out its
    /// timeout on a dead one.
    fn alive(&self) -> Result<(), Error> {
        Ok(())
    }

    /// One stabilization round of `cluster` in wall-clock microseconds.
    fn round_micros(&self, cluster: &ClusterConfig) -> u64;

    /// [`Cluster::kill_server`].
    fn kill_server(&mut self, index: usize) -> Result<(), Error>;

    /// [`Cluster::restart_server`].
    fn restart_server(&mut self, index: usize) -> Result<(), Error>;

    /// [`Cluster::install_fault_plan`] on a deployment of `dcs` DCs. A
    /// net without a controllable network keeps this default.
    fn install_fault_plan(&mut self, plan: FaultPlan, dcs: u16) -> Result<(), Error> {
        let _ = (plan, dcs);
        Err(Error::Unsupported(
            "fault plans need a backend with a controllable network (sim or thread)",
        ))
    }
}

/// A live deployment: the clients and observers over its [`LiveNet`].
pub struct Live<N> {
    pub(crate) net: N,
    config: BackendConfig,
    topo: Arc<Topology>,
    /// Stamps the workload clients' latencies.
    clock: Arc<dyn PhysicalClock + Send + Sync>,
    interactive: HashMap<ClientId, Interactive<Receiver<Envelope>>>,
    next_interactive: HashMap<DcId, u32>,
    /// What the interactive sessions' refreshes are timed from.
    epoch: Instant,
}

impl<N: LiveNet> Live<N> {
    pub(crate) fn new(
        net: N,
        config: BackendConfig,
        topo: Arc<Topology>,
        clock: Arc<dyn PhysicalClock + Send + Sync>,
    ) -> Self {
        Live {
            net,
            config,
            topo,
            clock,
            interactive: HashMap::new(),
            next_interactive: HashMap::new(),
            epoch: Instant::now(),
        }
    }

    /// The topology, for inspecting placement.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    fn open(&mut self, dc: u16, via_coordinator: bool) -> Result<ClientId, Error> {
        if dc >= self.config.cluster.dcs {
            return Err(paris_types::ConfigError::new("client DC out of range").into());
        }
        let dc = DcId(dc);
        let offset = self.next_interactive.entry(dc).or_insert(0);
        let id = ClientId::new(dc, INTERACTIVE_SEQ_BASE + *offset);
        *offset += 1;
        let inbox = self.net.register(id)?;
        let mode = self.config.cluster.mode;
        let session = open_session(id, &self.topo, mode, true, via_coordinator);
        self.interactive
            .insert(id, Interactive::new(session, inbox));
        Ok(id)
    }

    fn spawn_clients(
        &self,
        stop: &Arc<AtomicBool>,
        measure_after: Instant,
        clients: &mut Vec<(ClientId, JoinHandle<Finished>)>,
    ) -> Result<(), Error> {
        let cluster = &self.config.cluster;
        for dc in 0..cluster.dcs {
            for seq in 0..self.config.clients_per_dc {
                let id = ClientId::new(DcId(dc), seq);
                let session = open_session(id, &self.topo, cluster.mode, true, false);
                let (workload, seed) = (&self.config.workload, self.config.seed);
                let client = WorkloadClient::new(id, &self.topo, workload, seed);
                let inbox = self.net.register(id)?;
                let send = self.net.lossy_sender();
                let stop = Arc::clone(stop);
                let clock = Arc::clone(&self.clock);
                let handle = std::thread::Builder::new()
                    .name(format!("client-{id}"))
                    .spawn(move || {
                        run_client(session, client, inbox, send, stop, clock, measure_after)
                    })
                    .map_err(|_| Error::Transport("could not spawn a client thread"))?;
                clients.push((id, handle));
            }
        }
        Ok(())
    }

    /// The cluster view of the servers' snapshots plus the parent's wire
    /// totals.
    fn totals(&self, snaps: &[ServerSnapshot]) -> ClusterStats {
        let mut out = ClusterStats::of_snapshots(snaps);
        self.net.add_wire_totals(&mut out);
        out
    }
}

impl<N: LiveNet> Sessions for Live<N> {
    fn session(&mut self, client: ClientId) -> Result<&mut ClientSession, Error> {
        self.interactive
            .get_mut(&client)
            .map(|c| &mut c.session)
            .ok_or(Error::UnknownTransaction)
    }

    /// Sends `envs` and waits for the event that completes the operation,
    /// probing liveness on every empty slice: a dead server surfaces as a
    /// transport error instead of hanging out the full timeout.
    fn round_trip(&mut self, client: ClientId, envs: Vec<Envelope>) -> Result<ClientEvent, Error> {
        let waiting = self
            .interactive
            .get_mut(&client)
            .ok_or(Error::UnknownTransaction)?;
        for env in envs {
            self.net.send(env)?;
        }
        let deadline = Instant::now() + OP_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(Error::Transport("interactive operation timed out"));
            }
            match waiting.inbox.recv_timeout(left.min(SLICE)) {
                Ok(env) => {
                    let now = self.epoch.elapsed().as_micros() as u64;
                    if let Some(event) = waiting.handle(&env, now) {
                        return Ok(event);
                    }
                }
                Err(RecvTimeoutError::Timeout) => self.net.alive()?,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(Error::Transport("client inbox disconnected"));
                }
            }
        }
    }

    /// On the parent's monotonic clock.
    fn fresh(&mut self, client: ClientId) -> Result<bool, Error> {
        let waiting = self.interactive.get(&client);
        let waiting = waiting.ok_or(Error::UnknownTransaction)?;
        let now = self.epoch.elapsed().as_micros() as u64;
        Ok(waiting.fresh(now, self.config.cluster.intervals.gc_micros))
    }
}

impl<N: LiveNet> Cluster for Live<N> {
    fn backend_name(&self) -> &'static str {
        N::NAME
    }

    fn mode(&self) -> Mode {
        self.config.cluster.mode
    }

    fn open_client(&mut self, dc: u16) -> Result<ClientId, Error> {
        self.open(dc, false)
    }

    fn open_client_via_coordinator(&mut self, dc: u16) -> Result<ClientId, Error> {
        self.open(dc, true)
    }

    fn stabilize(&mut self, rounds: usize) {
        let round = self.net.round_micros(&self.config.cluster);
        std::thread::sleep(Duration::from_micros(round * rounds as u64));
        self.interactive
            .values_mut()
            .for_each(Interactive::mark_stale);
    }

    fn min_ust(&self) -> Timestamp {
        self.net.min_ust().unwrap_or(Timestamp::ZERO)
    }

    /// Runs `clients_per_dc` closed-loop clients per DC for the warmup and
    /// the window, then reports on the settled deployment.
    fn run_workload(&mut self, warmup_micros: u64, window_micros: u64) -> Result<RunReport, Error> {
        let stop = Arc::new(AtomicBool::new(false));
        let measure_after = Instant::now() + Duration::from_micros(warmup_micros);
        let mut clients = Vec::new();
        let mut status = self.spawn_clients(&stop, measure_after, &mut clients);
        // Sleep out the run in slices, probing liveness: a dead server
        // stops the run promptly instead of wedging every client.
        let run_until = Instant::now() + Duration::from_micros(warmup_micros + window_micros);
        while status.is_ok() {
            let left = run_until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            std::thread::sleep(left.min(SLICE));
            status = self.net.alive();
        }
        stop.store(true, Ordering::Relaxed);
        let mut tally = Tally::new(window_micros, self.config.record_history);
        for (id, client) in clients {
            let finished = client.join();
            let finished = finished.map_err(|_| Error::Transport("a client thread panicked"))?;
            for (step, in_window) in finished {
                tally.finish(id, step, in_window);
            }
        }
        status?;
        // Let replication/stabilization settle before snapshotting.
        std::thread::sleep(Duration::from_millis(300));
        let snaps = self.net.snapshots(self.config.record_history)?;
        let totals = self.totals(&snaps);
        Ok(RunReport {
            net_messages: totals.net_messages,
            net_bytes: totals.net_bytes,
            ..tally.report(self.config.cluster.mode, &snaps)
        })
    }

    fn stats(&mut self) -> Result<ClusterStats, Error> {
        Ok(self.totals(&self.net.snapshots(false)?))
    }

    fn check_convergence(&mut self) -> Result<Vec<Violation>, Error> {
        Ok(replica_convergence(&self.topo, &self.net.snapshots(true)?))
    }

    fn kill_server(&mut self, index: usize) -> Result<(), Error> {
        self.net.kill_server(index)
    }

    fn restart_server(&mut self, index: usize) -> Result<(), Error> {
        self.net.restart_server(index)
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<(), Error> {
        self.net.install_fault_plan(plan, self.config.cluster.dcs)
    }
}
