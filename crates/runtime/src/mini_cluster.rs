//! The miniature synchronous in-process backend.
//!
//! [`MiniCluster`] wires the real PaRiS server and client state machines
//! together with a zero-latency FIFO message pump — no simulator, no
//! threads. It is the cheapest [`Cluster`](crate::Cluster) backend:
//! examples, unit tests and interactive exploration all fit in a few
//! lines, and every operation completes synchronously. The background
//! protocols (replication, UST stabilization) advance when
//! [`Cluster::stabilize`](crate::Cluster::stabilize) is called.
//!
//! `run_workload` runs its [`WorkloadClient`]s round-robin, one whole
//! transaction each, with a stabilization round per lap. The clock steps
//! 10 µs before every begin and commit. The clients are opened by the
//! first call and kept for later ones.
//!
//! Build one with [`crate::Paris::builder`] and
//! [`Backend::Mini`](crate::Backend::Mini); for performance work use the
//! [`crate::SimCluster`] backend (WAN latency, CPU model), for
//! concurrency testing the [`crate::ThreadCluster`] backend.

use std::collections::{HashMap, VecDeque};
use std::ops::RangeInclusive;
use std::sync::Arc;

use paris_clock::SimClock;
use paris_core::{ClientEvent, ClientSession, Server, ServerOptions, Topology, Violation};
use paris_net::batch::{Coalescer, Offer};
use paris_proto::{Endpoint, Envelope, Msg};
use paris_types::{ClientId, DcId, Error, Mode, ServerId, Timestamp};

use crate::facade::Sessions;
use crate::measure::{ClusterStats, RunReport};
use crate::workload_client::{Step, Tally, WorkloadClient};
use crate::{replica_convergence, BackendConfig, Cluster, Interactive};

/// A synchronous in-process PaRiS cluster. See the module docs.
pub struct MiniCluster {
    topo: Arc<Topology>,
    clock: SimClock,
    servers: HashMap<ServerId, Server>,
    clients: HashMap<ClientId, Interactive<VecDeque<Envelope>>>,
    queue: VecDeque<Envelope>,
    /// Coalesces background traffic from the periodic ticks; flushed
    /// before every pump (the mini backend's synchronous quantum), so
    /// batching never delays a stabilization round.
    coalescer: Coalescer,
    next_client: HashMap<DcId, u32>,
    /// `run_workload`'s clients, opened by its first call.
    workers: Vec<(ClientId, WorkloadClient)>,
    /// Whether sessions get a value cache (always, outside tests).
    value_cache: bool,
    now: u64,
    config: BackendConfig,
}

impl MiniCluster {
    /// Builds the deployment; called by [`crate::ClusterBuilder`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] when durability is requested and a
    /// server's data directory cannot be opened or recovered.
    pub(crate) fn from_parts(config: BackendConfig) -> Result<Self, Error> {
        let topo = Arc::new(Topology::new(config.cluster.clone()));
        let clock = SimClock::new();
        clock.advance_to(1_000);
        let mut servers = HashMap::new();
        for id in topo.all_servers() {
            servers.insert(
                id,
                Server::try_with_tuning(
                    ServerOptions {
                        id,
                        topology: Arc::clone(&topo),
                        clock: Box::new(clock.clone()),
                        mode: config.cluster.mode,
                        record_events: false,
                    },
                    crate::tuning::server_tuning(config.durability.as_ref(), id),
                )?,
            );
        }
        Ok(MiniCluster {
            topo,
            clock,
            servers,
            clients: HashMap::new(),
            queue: VecDeque::new(),
            coalescer: Coalescer::new(config.cluster.batch, config.cluster.wire),
            next_client: HashMap::new(),
            workers: Vec::new(),
            value_cache: true,
            now: 1_000,
            config,
        })
    }

    /// Opens every client session from now on without a value cache, so
    /// all of its reads are shipped in full — the reference behaviour the
    /// equivalence tests compare version-validated reads against.
    /// Deployments have no such switch.
    #[doc(hidden)]
    pub fn open_clients_without_value_cache(&mut self) {
        self.value_cache = false;
    }

    /// The topology, for inspecting placement.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Direct read-only access to a server (stores, stats).
    pub fn server(&self, id: ServerId) -> Option<&Server> {
        self.servers.get(&id)
    }

    fn pump(&mut self) {
        while let Some(env) = self.queue.pop_front() {
            match env.dst {
                Endpoint::Server(sid) => {
                    if let Some(server) = self.servers.get_mut(&sid) {
                        let out = server.handle(&env, self.now);
                        self.queue.extend(out);
                    }
                }
                Endpoint::Client(cid) => {
                    if let Some(client) = self.clients.get_mut(&cid) {
                        client.inbox.push_back(env);
                    }
                }
            }
        }
    }

    /// Routes tick output through the coalescer: background frames merge
    /// per link, anything else (or with batching off) goes straight to the
    /// queue.
    fn enqueue_background(&mut self, envs: Vec<Envelope>) {
        for env in envs {
            match self.coalescer.offer(env, self.now) {
                Offer::Pass(env) => self.queue.push_back(env),
                Offer::Flush(flushed) => self.queue.extend(flushed),
                Offer::Queued { .. } => {}
            }
        }
    }

    /// Flushes every coalesced frame onto the queue; the mini backend is
    /// synchronous, so each pump is a flush boundary.
    fn flush_coalesced(&mut self) {
        let flushed = self.coalescer.flush_all();
        self.queue.extend(flushed);
    }

    fn stabilize_rounds(&mut self, rounds: usize) {
        // Two GST aggregation passes so child reports reach the roots.
        let ticks: [fn(&mut Server, u64) -> Vec<Envelope>; 4] = [
            Server::on_replicate_tick,
            Server::on_gst_tick,
            Server::on_gst_tick,
            Server::on_ust_tick,
        ];
        let mut ids: Vec<ServerId> = self.servers.keys().copied().collect();
        ids.sort_unstable();
        for _ in 0..rounds {
            self.now += 1_000;
            self.clock.advance_to(self.now);
            for tick in ticks {
                for id in &ids {
                    let out = tick(self.servers.get_mut(id).expect("known"), self.now);
                    self.enqueue_background(out);
                }
                self.flush_coalesced();
                self.pump();
            }
        }
    }

    /// Opens a transaction whose first operation carries its start (see
    /// [`ClientSession::begin_deferred`]) — how `run_workload` begins.
    /// Exposed for the tests that compare it with the eager
    /// [`Cluster::txn_begin`]; the facade stays eager.
    ///
    /// # Errors
    ///
    /// Propagates session errors (unknown client, transaction already
    /// open).
    #[doc(hidden)]
    pub fn txn_begin_deferred(&mut self, client: ClientId) -> Result<(), Error> {
        self.now += 10;
        self.clock.advance_to(self.now);
        self.session(client)?.begin_deferred()
    }

    /// `run_workload`'s closed loop until the window ends: one whole
    /// transaction per client in turn, then a stabilization round, so the
    /// UST keeps pace with the writers.
    fn run_laps(
        &mut self,
        workers: &mut [(ClientId, WorkloadClient)],
        tally: &mut Tally,
        window: RangeInclusive<u64>,
    ) -> Result<(), Error> {
        while self.now < *window.end() {
            for (id, client) in workers.iter_mut() {
                let begun = self.now;
                self.now += 10;
                self.clock.advance_to(self.now);
                let mut step = Step::Send(client.start(self.session(*id)?, begun));
                while let Step::Send(env) = step {
                    let event = self.round_trip(*id, vec![env])?;
                    let now = self.now;
                    step = client.on_event(self.session(*id)?, event, now);
                }
                tally.finish(*id, step, window.contains(&self.now));
            }
            self.stabilize_rounds(1);
        }
        Ok(())
    }

    /// [`Cluster::open_client`], or with `via_coordinator`
    /// [`Cluster::open_client_via_coordinator`].
    fn open(&mut self, dc: u16, via_coordinator: bool) -> Result<ClientId, Error> {
        if dc >= self.topo.dcs() {
            return Err(paris_types::ConfigError::new("client DC out of range").into());
        }
        let dc = DcId(dc);
        let seq = self.next_client.entry(dc).or_insert(0);
        let id = ClientId::new(dc, *seq);
        *seq += 1;
        let (mode, cache) = (self.config.cluster.mode, self.value_cache);
        let session = crate::open_session(id, &self.topo, mode, cache, via_coordinator);
        self.clients.insert(id, Interactive::new(session));
        Ok(id)
    }

    /// The open transaction's snapshot, once the coordinator assigned it.
    #[doc(hidden)]
    pub fn txn_snapshot(&self, client: ClientId) -> Option<Timestamp> {
        self.clients.get(&client)?.session.open_snapshot()
    }
}

impl Sessions for MiniCluster {
    fn session(&mut self, client: ClientId) -> Result<&mut ClientSession, Error> {
        self.clients
            .get_mut(&client)
            .map(|c| &mut c.session)
            .ok_or(Error::UnknownTransaction)
    }

    /// The pump is synchronous, so the reply is usually in once it
    /// returns. The clock steps 10 µs before every begin and commit, never
    /// before a read.
    fn round_trip(&mut self, client: ClientId, envs: Vec<Envelope>) -> Result<ClientEvent, Error> {
        let read =
            |env: &Envelope| matches!(env.msg, Msg::ReadReq { .. } | Msg::ReadSliceReq { .. });
        if !envs.iter().any(read) {
            self.now += 10;
            self.clock.advance_to(self.now);
        }
        self.queue.extend(envs);
        self.pump();
        // Under BPR a fresh-snapshot read blocks server-side until the
        // snapshot is installed; advance background rounds until this
        // client's reply is in (PaRiS never takes a round here).
        let mut rounds = 0;
        loop {
            let waiting = self
                .clients
                .get_mut(&client)
                .ok_or(Error::UnknownTransaction)?;
            if let Some(event) = waiting.next_event() {
                return Ok(event);
            }
            if rounds == 64 {
                return Err(Error::UnknownTransaction);
            }
            self.stabilize_rounds(1);
            rounds += 1;
        }
    }
}

impl Cluster for MiniCluster {
    fn backend_name(&self) -> &'static str {
        "mini"
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
        self.stabilize_rounds(rounds);
    }

    fn min_ust(&self) -> Timestamp {
        self.servers
            .values()
            .map(Server::ust)
            .min()
            .unwrap_or(Timestamp::ZERO)
    }

    fn run_workload(&mut self, warmup_micros: u64, window_micros: u64) -> Result<RunReport, Error> {
        let window_start = self.now + warmup_micros;
        let end = window_start + window_micros;
        if self.workers.is_empty() {
            for dc in 0..self.topo.dcs() {
                for _ in 0..self.config.clients_per_dc {
                    let id = self.open_client(dc)?;
                    let (workload, seed) = (&self.config.workload, self.config.seed);
                    let client = WorkloadClient::new(id, &self.topo, workload, seed);
                    self.workers.push((id, client));
                }
            }
        }
        let mut tally = Tally::new(window_micros, self.config.record_history);
        let mut workers = std::mem::take(&mut self.workers);
        let ran = self.run_laps(&mut workers, &mut tally, window_start..=end);
        self.workers = workers;
        ran?;
        let snaps = crate::server_snapshots(self.servers.values(), self.config.record_history);
        Ok(tally.report(self.config.cluster.mode, &snaps))
    }

    fn stats(&mut self) -> Result<ClusterStats, Error> {
        let snaps = crate::server_snapshots(self.servers.values(), false);
        let mut out = ClusterStats::of_snapshots(&snaps);
        out.set_flush_mix(&self.coalescer.stats());
        Ok(out)
    }

    fn kill_server(&mut self, index: usize) -> Result<(), Error> {
        crate::no_server_processes(
            index,
            self.servers.len(),
            "kill_server is not available on the mini backend (no server processes); use the socket backend",
        )
    }

    fn restart_server(&mut self, index: usize) -> Result<(), Error> {
        crate::no_server_processes(
            index,
            self.servers.len(),
            "restart_server is not available on the mini backend (no server processes); use the socket backend",
        )
    }

    fn check_convergence(&mut self) -> Result<Vec<Violation>, Error> {
        let snaps = crate::server_snapshots(self.servers.values(), true);
        Ok(replica_convergence(&self.topo, &snaps))
    }
}
