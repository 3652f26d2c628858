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
//! Build one with [`crate::Paris::builder`] and
//! [`Backend::Mini`](crate::Backend::Mini); for performance work use the
//! [`crate::SimCluster`] backend (WAN latency, CPU model), for
//! concurrency testing the [`crate::ThreadCluster`] backend.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use paris_clock::SimClock;
use paris_core::checker::{HistoryChecker, RecordedTx};
use paris_core::{
    ClientEvent, ClientRead, ClientSession, ReadStep, Server, ServerOptions, Topology, Violation,
};
use paris_net::batch::{Coalescer, Offer};
use paris_proto::{Endpoint, Envelope};
use paris_types::{
    ClientId, ClusterConfig, DcId, Error, Key, Mode, ServerId, Timestamp, TxId, Value,
};
use paris_workload::stats::RunStats;
use paris_workload::{WorkloadConfig, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::measure::{BlockingStats, ClusterStats, RunReport};
use crate::{replica_convergence, Cluster};

/// A synchronous in-process PaRiS cluster. See the module docs.
pub struct MiniCluster {
    topo: Arc<Topology>,
    clock: SimClock,
    servers: HashMap<ServerId, Server>,
    clients: HashMap<ClientId, ClientSession>,
    queue: VecDeque<Envelope>,
    /// Coalesces background traffic from the periodic ticks; flushed
    /// before every pump (the mini backend's synchronous quantum), so
    /// batching never delays a stabilization round.
    coalescer: Coalescer,
    events: VecDeque<(ClientId, ClientEvent)>,
    next_client: HashMap<DcId, u32>,
    /// Whether sessions get a value cache (always, outside tests).
    value_cache: bool,
    mode: Mode,
    now: u64,
    workload: WorkloadConfig,
    clients_per_dc: u32,
    seed: u64,
    record_history: bool,
}

impl MiniCluster {
    /// Builds the deployment; called by [`crate::ClusterBuilder`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] when durability is requested and a
    /// server's data directory cannot be opened or recovered.
    pub(crate) fn from_parts(
        cfg: ClusterConfig,
        workload: WorkloadConfig,
        clients_per_dc: u32,
        seed: u64,
        record_history: bool,
        durability: Option<crate::Durability>,
    ) -> Result<Self, Error> {
        let mode = cfg.mode;
        let batch = cfg.batch;
        let wire = cfg.wire;
        let topo = Arc::new(Topology::new(cfg));
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
                        mode,
                        record_events: false,
                    },
                    crate::tuning::server_tuning(durability.as_ref(), id),
                )?,
            );
        }
        Ok(MiniCluster {
            topo,
            clock,
            servers,
            clients: HashMap::new(),
            queue: VecDeque::new(),
            coalescer: Coalescer::new(batch, wire),
            events: VecDeque::new(),
            next_client: HashMap::new(),
            value_cache: true,
            mode,
            now: 1_000,
            workload,
            clients_per_dc,
            seed,
            record_history,
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
                    if let Some(session) = self.clients.get_mut(&cid) {
                        if let Some(ev) = session.handle(&env) {
                            self.events.push_back((cid, ev));
                        }
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
        let ids: Vec<ServerId> = {
            let mut v: Vec<ServerId> = self.servers.keys().copied().collect();
            v.sort_unstable();
            v
        };
        for _ in 0..rounds {
            self.now += 1_000;
            self.clock.advance_to(self.now);
            for id in &ids {
                let out = self
                    .servers
                    .get_mut(id)
                    .expect("known")
                    .on_replicate_tick(self.now);
                self.enqueue_background(out);
            }
            self.flush_coalesced();
            self.pump();
            // Two aggregation passes so child reports reach the roots.
            for _ in 0..2 {
                for id in &ids {
                    let out = self
                        .servers
                        .get_mut(id)
                        .expect("known")
                        .on_gst_tick(self.now);
                    self.enqueue_background(out);
                }
                self.flush_coalesced();
                self.pump();
            }
            for id in &ids {
                let out = self
                    .servers
                    .get_mut(id)
                    .expect("known")
                    .on_ust_tick(self.now);
                self.enqueue_background(out);
            }
            self.flush_coalesced();
            self.pump();
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
        self.clients
            .get_mut(&client)
            .ok_or(Error::UnknownTransaction)?
            .begin_deferred()
    }

    /// The open transaction's snapshot, once the coordinator assigned it.
    #[doc(hidden)]
    pub fn txn_snapshot(&self, client: ClientId) -> Option<Timestamp> {
        self.clients.get(&client)?.open_snapshot()
    }

    /// Commits `client`'s open transaction: its id, snapshot and commit
    /// time.
    fn commit(&mut self, client: ClientId) -> Result<(TxId, Timestamp, Timestamp), Error> {
        self.now += 10;
        self.clock.advance_to(self.now);
        let env = self
            .clients
            .get_mut(&client)
            .ok_or(Error::UnknownTransaction)?
            .commit()?;
        self.queue.push_back(env);
        self.pump();
        match self.expect_event(client)? {
            ClientEvent::Committed { tx, snapshot, ct } => Ok((tx, snapshot, ct)),
            _ => Err(Error::UnknownTransaction),
        }
    }

    fn expect_event(&mut self, cid: ClientId) -> Result<ClientEvent, Error> {
        // The pump is synchronous: the response is already queued.
        match self.events.pop_front() {
            Some((id, ev)) if id == cid => Ok(ev),
            _ => Err(Error::UnknownTransaction),
        }
    }

    fn blocking_stats(&self) -> BlockingStats {
        let mut out = BlockingStats::default();
        for server in self.servers.values() {
            out.accumulate(&server.stats());
        }
        out
    }
}

impl Cluster for MiniCluster {
    fn backend_name(&self) -> &'static str {
        "mini"
    }

    fn mode(&self) -> Mode {
        self.mode
    }

    fn open_client(&mut self, dc: u16) -> Result<ClientId, Error> {
        if dc >= self.topo.dcs() {
            return Err(paris_types::ConfigError::new("client DC out of range").into());
        }
        let dc = DcId(dc);
        let seq = self.next_client.entry(dc).or_insert(0);
        let id = ClientId::new(dc, *seq);
        *seq += 1;
        let coordinator = self.topo.coordinator_for(dc, id.seq);
        let session = crate::interactive_session(id, coordinator, self.mode, self.value_cache);
        self.clients.insert(id, session);
        Ok(id)
    }

    fn txn_begin(&mut self, client: ClientId) -> Result<Timestamp, Error> {
        self.now += 10;
        self.clock.advance_to(self.now);
        let env = self
            .clients
            .get_mut(&client)
            .ok_or(Error::UnknownTransaction)?
            .begin()?;
        self.queue.push_back(env);
        self.pump();
        match self.expect_event(client)? {
            ClientEvent::Started { snapshot, .. } => Ok(snapshot),
            _ => Err(Error::UnknownTransaction),
        }
    }

    fn txn_read(&mut self, client: ClientId, keys: &[Key]) -> Result<Vec<ClientRead>, Error> {
        let step = self
            .clients
            .get_mut(&client)
            .ok_or(Error::UnknownTransaction)?
            .read(keys)?;
        match step {
            ReadStep::Done(reads) => Ok(reads),
            ReadStep::Send(env) => {
                self.queue.push_back(env);
                self.pump();
                // Under BPR a fresh-snapshot read blocks server-side until
                // the snapshot is installed; advance background rounds
                // until it completes (PaRiS never takes this path).
                let mut rounds = 0;
                while self.events.is_empty() && rounds < 64 {
                    self.stabilize_rounds(1);
                    rounds += 1;
                }
                match self.expect_event(client)? {
                    ClientEvent::ReadDone { reads, .. } => Ok(reads),
                    _ => Err(Error::UnknownTransaction),
                }
            }
        }
    }

    fn txn_write(&mut self, client: ClientId, entries: &[(Key, Value)]) -> Result<(), Error> {
        self.clients
            .get_mut(&client)
            .ok_or(Error::UnknownTransaction)?
            .write(entries)
    }

    fn txn_commit(&mut self, client: ClientId) -> Result<Timestamp, Error> {
        self.commit(client).map(|(_, _, ct)| ct)
    }

    fn reset_client(&mut self, client: ClientId) -> Result<(), Error> {
        self.clients
            .get_mut(&client)
            .ok_or(Error::UnknownTransaction)?
            .reset();
        self.events.retain(|(cid, _)| *cid != client);
        Ok(())
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
        let mut stats = RunStats::new(window_micros);
        let mut checker = self.record_history.then(HistoryChecker::new);

        let mut workers = Vec::new();
        for dc in 0..self.topo.dcs() {
            let local = self.topo.partitions_in_dc(DcId(dc));
            for _ in 0..self.clients_per_dc {
                let id = self.open_client(dc)?;
                let generator = WorkloadGenerator::new(
                    self.workload.clone(),
                    self.topo.partitions(),
                    local.clone(),
                );
                let rng =
                    StdRng::seed_from_u64(self.seed ^ (u64::from(dc) << 32) ^ u64::from(id.seq));
                workers.push((id, generator, rng));
            }
        }

        // Closed loop, round-robin over clients, with a stabilization
        // round between laps so the UST keeps pace with the writers. The
        // begin is deferred: the first operation carries it.
        while self.now < end {
            for (id, generator, rng) in &mut workers {
                let begun_at = self.now;
                self.txn_begin_deferred(*id)?;
                let spec = generator.next_tx(rng);
                let mut reads = Vec::new();
                if !spec.read_keys.is_empty() {
                    let got = self.txn_read(*id, &spec.read_keys)?;
                    if checker.is_some() {
                        reads.extend(got.iter().map(HistoryChecker::recorded_read));
                    }
                }
                if !spec.writes.is_empty() {
                    self.txn_write(*id, &spec.writes)?;
                }
                let (tx, snapshot, ct) = self.commit(*id)?;
                if self.now >= window_start && self.now <= end {
                    stats.committed += 1;
                    stats.latency.record(self.now.saturating_sub(begun_at));
                }
                if let Some(checker) = checker.as_mut() {
                    checker.record_tx(
                        *id,
                        RecordedTx {
                            tx,
                            snapshot,
                            reads,
                            writes: spec.writes.iter().map(|(k, _)| *k).collect(),
                            ct: Some(ct),
                        },
                    );
                }
            }
            self.stabilize_rounds(1);
        }

        let violations = match checker.as_mut() {
            Some(checker) => {
                for server in self.servers.values() {
                    crate::record_store_versions(checker, server.store());
                }
                checker.check()
            }
            None => Vec::new(),
        };
        Ok(RunReport {
            mode: self.mode,
            stats,
            blocking: self.blocking_stats(),
            visibility: None,
            violations,
            net_messages: 0,
            net_bytes: 0,
        })
    }

    fn stats(&mut self) -> Result<ClusterStats, Error> {
        let mut out = ClusterStats::default();
        for server in self.servers.values() {
            out.fold_server(&server.stats());
        }
        out.set_flush_mix(&self.coalescer.stats());
        out.min_ust = self.min_ust();
        Ok(out)
    }

    fn kill_server(&mut self, index: usize) -> Result<(), Error> {
        if index >= self.servers.len() {
            return Err(paris_types::ConfigError::new("server index out of range").into());
        }
        Err(Error::Unsupported(
            "kill_server is not available on the mini backend (no server processes); use the socket backend",
        ))
    }

    fn restart_server(&mut self, index: usize) -> Result<(), Error> {
        if index >= self.servers.len() {
            return Err(paris_types::ConfigError::new("server index out of range").into());
        }
        Err(Error::Unsupported(
            "restart_server is not available on the mini backend (no server processes); use the socket backend",
        ))
    }

    fn begin(&mut self, client: ClientId) -> Result<crate::Txn<'_>, Error> {
        crate::Txn::begin_on(self, client)
    }

    fn check_convergence(&mut self) -> Result<Vec<Violation>, Error> {
        let topo = Arc::clone(&self.topo);
        Ok(replica_convergence(&topo, |id| {
            crate::latest_orders(self.servers[&id].store())
        }))
    }
}
