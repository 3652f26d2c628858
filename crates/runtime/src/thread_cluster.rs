//! The real multi-threaded in-process backend.
//!
//! One OS thread per server, real channels with WAN-shaped (scaled)
//! latencies between them. This backend exists to subject the exact same
//! protocol state machines to genuine concurrency — real interleavings,
//! real races in message arrival — and to validate that the consistency
//! checker still finds nothing.
//!
//! Unlike the original one-shot runner, a [`ThreadCluster`] is a live
//! deployment: servers keep running between operations, so it serves both
//! interactive transactions (via [`Cluster::begin`](crate::Cluster::begin))
//! and closed-loop workloads
//! ([`Cluster::run_workload`](crate::Cluster::run_workload)). Build one
//! with [`crate::Paris::builder`] and
//! [`Backend::Thread`](crate::Backend::Thread).
//!
//! Each server thread owns its [`Server`]: the cluster keeps no handle on
//! the state machine, only a bounded snapshot-request channel to its loop
//! (see [`crate::driver`]). `stats()`, `min_ust()`, the checker's ground
//! truth and `check_convergence()` all read the servers' answers, one
//! snapshot per server, through the same helpers as the socket backend.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paris_clock::{SkewCell, SteppableClock, SystemClock};
use paris_core::{
    ClientEvent, ClientRead, ClientSession, ReadStep, Server, ServerOptions, Topology, Violation,
};
use paris_net::threaded::{NetHandle, Router, ThreadedNetConfig};
use paris_proto::{Envelope, ServerSnapshot};
use paris_types::{
    ClientId, ClusterConfig, DcId, Error, FaultKind, FaultPlan, Key, Mode, Timestamp, Value,
};
use paris_workload::WorkloadConfig;

use crate::driver::{
    live_report, request_snapshots, run_client, server_loop, ClientOutcome, SnapshotReq,
};
use crate::measure::{ClusterStats, RunReport};
use crate::{replica_convergence, Cluster, INTERACTIVE_SEQ_BASE, OP_TIMEOUT};

/// Configuration of a threaded deployment (assembled by the builder).
#[derive(Debug, Clone)]
pub(crate) struct ThreadClusterConfig {
    pub(crate) cluster: ClusterConfig,
    pub(crate) net: ThreadedNetConfig,
    pub(crate) clients_per_dc: u32,
    pub(crate) workload: WorkloadConfig,
    pub(crate) seed: u64,
    pub(crate) record_history: bool,
    /// Durable storage engine (WAL + checkpoints) for every server; off
    /// (`None`, purely in-memory) by default.
    pub(crate) durability: Option<crate::Durability>,
}

struct InteractiveClient {
    session: ClientSession,
    inbox: Receiver<Envelope>,
}

/// The threaded cluster backend. See the module docs.
pub struct ThreadCluster {
    config: ThreadClusterConfig,
    topo: Arc<Topology>,
    router: Router,
    net: NetHandle,
    clock: Arc<SystemClock>,
    stop_servers: Arc<AtomicBool>,
    server_handles: Vec<JoinHandle<()>>,
    /// One snapshot-request channel per server loop.
    servers: Vec<SyncSender<SnapshotReq>>,
    interactive: HashMap<ClientId, InteractiveClient>,
    next_interactive: HashMap<DcId, u32>,
    /// One shared skew cell per server, grouped by DC, so a scripted
    /// `SkewClock` event can step every HLC clock in that DC at once.
    skew_cells: HashMap<DcId, Vec<SkewCell>>,
    chaos_stop: Arc<AtomicBool>,
    chaos_handles: Vec<JoinHandle<()>>,
}

impl ThreadCluster {
    /// Spawns the server threads and returns the live deployment.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] when durability is requested and a
    /// server's data directory cannot be opened or recovered.
    pub(crate) fn start(config: ThreadClusterConfig) -> Result<Self, Error> {
        let topo = Arc::new(Topology::new(config.cluster.clone()));
        let router = Router::start(config.net.clone());
        let net = router.handle();
        let clock = Arc::new(SystemClock::new());
        let stop_servers = Arc::new(AtomicBool::new(false));

        let mut servers = Vec::new();
        let mut server_handles = Vec::new();
        let mut skew_cells: HashMap<DcId, Vec<SkewCell>> = HashMap::new();
        for id in topo.all_servers() {
            // Each server's HLC reads wall time through a steppable shim so
            // a scripted SkewClock fault can shift one DC's clocks at runtime.
            let (server_clock, cell) = SteppableClock::new(Arc::clone(&clock), 0);
            skew_cells.entry(id.dc).or_default().push(cell);
            let server = Server::try_with_tuning(
                ServerOptions {
                    id,
                    topology: Arc::clone(&topo),
                    clock: Box::new(server_clock),
                    mode: config.cluster.mode,
                    record_events: false,
                },
                crate::tuning::server_tuning(config.durability.as_ref(), id),
            )?;
            // One request in flight per loop: every caller awaits its
            // answers before it asks again.
            let (snapshot_tx, snapshots) = sync_channel(1);
            servers.push(snapshot_tx);
            let inbox = router.register(id);
            let net = router.handle();
            let topo = Arc::clone(&topo);
            let clock = Arc::clone(&clock);
            let stop = Arc::clone(&stop_servers);
            let intervals = config.cluster.intervals;
            server_handles.push(
                std::thread::Builder::new()
                    .name(format!("server-{id}"))
                    .spawn(move || {
                        server_loop(
                            server,
                            inbox,
                            snapshots,
                            move |e| net.send(e),
                            topo,
                            clock,
                            stop,
                            intervals,
                        )
                    })
                    .expect("spawn server thread"),
            );
        }

        Ok(ThreadCluster {
            config,
            topo,
            router,
            net,
            clock,
            stop_servers,
            server_handles,
            servers,
            interactive: HashMap::new(),
            next_interactive: HashMap::new(),
            skew_cells,
            chaos_stop: Arc::new(AtomicBool::new(false)),
            chaos_handles: Vec::new(),
        })
    }

    /// The topology, for inspecting placement.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    fn session(&mut self, client: ClientId) -> Result<&mut InteractiveClient, Error> {
        self.interactive
            .get_mut(&client)
            .ok_or(Error::UnknownTransaction)
    }

    /// Sends `env` and waits for the event that completes the operation.
    fn round_trip(&mut self, client: ClientId, env: Envelope) -> Result<ClientEvent, Error> {
        self.net.send(env);
        let ic = self.session(client)?;
        let deadline = Instant::now() + OP_TIMEOUT;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(Error::Transport("interactive operation timed out"));
            }
            match ic.inbox.recv_timeout(left.min(Duration::from_millis(100))) {
                Ok(env) => {
                    if let Some(ev) = ic.session.handle(&env) {
                        return Ok(ev);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(Error::Transport("network router shut down"));
                }
            }
        }
    }

    /// The cluster view of the servers' snapshots. The router meters the
    /// whole network, client traffic included.
    fn cluster_stats(&self, snapshots: &[ServerSnapshot]) -> ClusterStats {
        let mut out = ClusterStats::of_snapshots(snapshots);
        let net = self.router.net_stats();
        out.net_messages = net.messages;
        out.net_bytes = net.bytes;
        out.set_flush_mix(&net.coalescer);
        out
    }

    /// One stabilization round in wall-clock microseconds.
    fn round_micros(&self) -> u64 {
        crate::gossip_round_micros(
            &self.config.cluster.intervals,
            &self.config.net.matrix,
            self.config.cluster.dcs,
            self.config.net.scale,
            &self.config.cluster.batch,
            2_000,
        )
    }
}

impl Cluster for ThreadCluster {
    fn backend_name(&self) -> &'static str {
        "thread"
    }

    fn mode(&self) -> Mode {
        self.config.cluster.mode
    }

    fn kill_server(&mut self, index: usize) -> Result<(), Error> {
        if index >= self.servers.len() {
            return Err(paris_types::ConfigError::new("server index out of range").into());
        }
        Err(Error::Unsupported(
            "kill_server is not available on the thread backend (no server processes); \
             crash a whole DC with a FaultPlan instead",
        ))
    }

    fn restart_server(&mut self, index: usize) -> Result<(), Error> {
        if index >= self.servers.len() {
            return Err(paris_types::ConfigError::new("server index out of range").into());
        }
        Err(Error::Unsupported(
            "restart_server is not available on the thread backend (no server processes); \
             rejoin a crashed DC with a FaultPlan instead",
        ))
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<(), Error> {
        plan.validate(self.config.cluster.dcs)?;
        if plan.is_empty() {
            return Ok(());
        }
        let control = self.router.link_control();
        let cells = self.skew_cells.clone();
        let dcs = self.config.cluster.dcs;
        let stop = Arc::clone(&self.chaos_stop);
        let events = plan.sorted_events();
        let started = Instant::now();
        let handle = std::thread::Builder::new()
            .name("chaos-plan".into())
            .spawn(move || {
                for event in events {
                    // Sleep toward the event's wall-clock due time in short
                    // slices so a dropped cluster never blocks on us.
                    let due = started + Duration::from_micros(event.at_micros);
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            return;
                        }
                        let left = due.saturating_duration_since(Instant::now());
                        if left.is_zero() {
                            break;
                        }
                        std::thread::sleep(left.min(Duration::from_millis(20)));
                    }
                    match event.kind {
                        FaultKind::CrashDc(dc) => control.isolate_dc(dc, dcs),
                        FaultKind::RejoinDc(dc) => control.rejoin_dc(dc, dcs),
                        FaultKind::PartitionLink(a, b) => control.partition_link(a, b),
                        FaultKind::HealLink(a, b) => control.heal_link(a, b),
                        FaultKind::SlowLink { a, b, factor } => {
                            control.set_link_scale(a, b, factor)
                        }
                        FaultKind::RestoreLink(a, b) => control.set_link_scale(a, b, 1.0),
                        FaultKind::SkewClock { dc, delta_micros } => {
                            for cell in cells.get(&dc).into_iter().flatten() {
                                cell.step(delta_micros);
                            }
                        }
                        _ => {}
                    }
                }
            })
            .expect("spawn chaos thread");
        self.chaos_handles.push(handle);
        Ok(())
    }

    fn open_client(&mut self, dc: u16) -> Result<ClientId, Error> {
        if dc >= self.config.cluster.dcs {
            return Err(paris_types::ConfigError::new("client DC out of range").into());
        }
        let dc = DcId(dc);
        let offset = self.next_interactive.entry(dc).or_insert(0);
        let id = ClientId::new(dc, INTERACTIVE_SEQ_BASE + *offset);
        *offset += 1;
        let inbox = self.router.register(id);
        let coordinator = self.topo.coordinator_for(dc, id.seq);
        let session = ClientSession::new(id, coordinator, self.config.cluster.mode);
        self.interactive
            .insert(id, InteractiveClient { session, inbox });
        Ok(id)
    }

    fn txn_begin(&mut self, client: ClientId) -> Result<Timestamp, Error> {
        let env = self.session(client)?.session.begin()?;
        match self.round_trip(client, env)? {
            ClientEvent::Started { snapshot, .. } => Ok(snapshot),
            ClientEvent::Aborted { .. } => Err(Error::PartitionUnreachable),
            _ => Err(Error::UnknownTransaction),
        }
    }

    fn txn_read(&mut self, client: ClientId, keys: &[Key]) -> Result<Vec<ClientRead>, Error> {
        let step = self.session(client)?.session.read(keys)?;
        match step {
            ReadStep::Done(reads) => Ok(reads),
            ReadStep::Send(env) => match self.round_trip(client, env)? {
                ClientEvent::ReadDone { reads, .. } => Ok(reads),
                ClientEvent::Aborted { .. } => Err(Error::PartitionUnreachable),
                _ => Err(Error::UnknownTransaction),
            },
        }
    }

    fn txn_write(&mut self, client: ClientId, entries: &[(Key, Value)]) -> Result<(), Error> {
        self.session(client)?.session.write(entries)
    }

    fn txn_commit(&mut self, client: ClientId) -> Result<Timestamp, Error> {
        let env = self.session(client)?.session.commit()?;
        match self.round_trip(client, env)? {
            ClientEvent::Committed { ct, .. } => Ok(ct),
            ClientEvent::Aborted { .. } => Err(Error::PartitionUnreachable),
            _ => Err(Error::UnknownTransaction),
        }
    }

    fn reset_client(&mut self, client: ClientId) -> Result<(), Error> {
        // Deliberately no inbox drain: the session itself discards every
        // reply owed to the abandoned operation (tx-id checks for
        // reads/commits, a FIFO discard count for starts). Draining here
        // would race with in-flight replies and desynchronize that count.
        self.session(client)?.session.reset();
        Ok(())
    }

    fn stabilize(&mut self, rounds: usize) {
        std::thread::sleep(Duration::from_micros(self.round_micros() * rounds as u64));
    }

    fn min_ust(&self) -> Timestamp {
        request_snapshots(&self.servers, false)
            .map(|snaps| ClusterStats::of_snapshots(&snaps).min_ust)
            .unwrap_or(Timestamp::ZERO)
    }

    fn run_workload(&mut self, warmup_micros: u64, window_micros: u64) -> Result<RunReport, Error> {
        let stop_clients = Arc::new(AtomicBool::new(false));
        let measure_after = Instant::now() + Duration::from_micros(warmup_micros);
        let mut handles: Vec<JoinHandle<ClientOutcome>> = Vec::new();
        for dc in 0..self.config.cluster.dcs {
            let dc = DcId(dc);
            let local_partitions = self.topo.partitions_in_dc(dc);
            for seq in 0..self.config.clients_per_dc {
                let id = ClientId::new(dc, seq);
                let inbox = self.router.register(id);
                let net = self.router.handle();
                let coordinator = self.topo.coordinator_for(dc, seq);
                let mode = self.config.cluster.mode;
                let stop = Arc::clone(&stop_clients);
                let clock = Arc::clone(&self.clock);
                let workload = self.config.workload.clone();
                let n_partitions = self.config.cluster.partitions;
                let local = local_partitions.clone();
                let seed = self.config.seed ^ (u64::from(dc.0) << 32) ^ u64::from(seq);
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("client-{id}"))
                        .spawn(move || {
                            run_client(
                                id,
                                coordinator,
                                mode,
                                workload,
                                n_partitions,
                                local,
                                seed,
                                inbox,
                                move |e| net.send(e),
                                stop,
                                clock,
                                measure_after,
                            )
                        })
                        .expect("spawn client thread"),
                );
            }
        }

        std::thread::sleep(Duration::from_micros(warmup_micros + window_micros));
        stop_clients.store(true, Ordering::Relaxed);
        let mut outcomes = Vec::new();
        for h in handles {
            outcomes.push(h.join().expect("client thread panicked"));
        }
        // Let replication/stabilization settle before snapshotting.
        std::thread::sleep(Duration::from_millis(300));

        let (mode, history) = (self.config.cluster.mode, self.config.record_history);
        let snaps = request_snapshots(&self.servers, history)?;
        let totals = self.cluster_stats(&snaps);
        let truth = history.then_some(&snaps[..]);
        Ok(live_report(mode, window_micros, outcomes, &totals, truth))
    }

    fn stats(&mut self) -> Result<ClusterStats, Error> {
        Ok(self.cluster_stats(&request_snapshots(&self.servers, false)?))
    }

    fn begin(&mut self, client: ClientId) -> Result<crate::Txn<'_>, Error> {
        crate::Txn::begin_on(self, client)
    }

    fn check_convergence(&mut self) -> Result<Vec<Violation>, Error> {
        Ok(replica_convergence(
            &self.topo,
            &request_snapshots(&self.servers, true)?,
        ))
    }
}

impl Drop for ThreadCluster {
    fn drop(&mut self) {
        self.chaos_stop.store(true, Ordering::Relaxed);
        for h in self.chaos_handles.drain(..) {
            let _ = h.join();
        }
        self.stop_servers.store(true, Ordering::Relaxed);
        for h in self.server_handles.drain(..) {
            let _ = h.join();
        }
    }
}
