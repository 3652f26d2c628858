//! The deterministic discrete-event cluster runtime.
//!
//! Substitutes for the paper's AWS deployment: every server is a state
//! machine behind a single-queue CPU (service-time model), the network is
//! the AWS RTT matrix with per-link FIFO, clients are closed-loop sessions
//! collocated with their coordinator (paper §V-A), and the whole run is
//! reproducible from a seed.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use paris_clock::{SimClock, SkewCell, SteppableClock};
use paris_core::checker::{HistoryChecker, RecordedTx};
use paris_core::ClientRead;
use paris_core::{
    ClientEvent, ClientSession, ReadStep, Server, ServerOptions, Topology, Violation,
};
use paris_net::batch::{Coalescer, Offer};
use paris_net::sim::{EventQueue, RegionMatrix, ServiceModel, SimNetwork};
use paris_proto::{Endpoint, Envelope};
use paris_types::{
    ClientId, ClusterConfig, DcId, Error, FaultKind, FaultPlan, Key, Mode, ServerId, Timestamp,
    Value,
};
use paris_workload::stats::RunStats;
use paris_workload::{TxSpec, WorkloadConfig, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::measure::{visibility_histogram, ClusterStats, RunReport};
use crate::{replica_convergence, Cluster, INTERACTIVE_SEQ_BASE};

/// Configuration of a simulated deployment (assembled by the builder).
#[derive(Debug, Clone)]
pub(crate) struct SimConfig {
    /// Cluster shape (DCs, partitions, replication factor, intervals…).
    pub(crate) cluster: ClusterConfig,
    /// Inter-DC latency matrix.
    pub(crate) matrix: RegionMatrix,
    /// Network jitter fraction.
    pub(crate) jitter: f64,
    /// Per-message CPU costs.
    pub(crate) service: ServiceModel,
    /// Master RNG seed: same seed ⇒ identical run.
    pub(crate) seed: u64,
    /// Closed-loop client sessions per DC (the paper's "threads ×
    /// processes"; each session runs transactions back to back).
    pub(crate) clients_per_dc: u32,
    /// Workload shape.
    pub(crate) workload: WorkloadConfig,
    /// Record server event logs (visibility latency, Fig. 4).
    pub(crate) record_events: bool,
    /// Record client histories and run the consistency checker.
    pub(crate) record_history: bool,
    /// Stabilization-tree branching factor (`0` = flat tree rooted at the
    /// lowest partition per DC, the default; the tree-shape ablation sets
    /// small fanouts).
    pub(crate) stab_branching: usize,
    /// Durable storage engine (WAL + checkpoints) for every server; off
    /// (`None`, purely in-memory) by default. Does not affect simulated
    /// time — gated metrics stay bit-identical — but real files are
    /// written, so a restarted deployment over the same directory
    /// recovers the committed prefix.
    pub(crate) durability: Option<crate::Durability>,
    /// Scripted fault schedule, validated by the builder; events fire at
    /// their virtual times from simulation start. `None` (the default)
    /// adds no events and no RNG draws, keeping fault-free runs
    /// bit-identical to a simulator without the chaos subsystem.
    pub(crate) fault_plan: Option<FaultPlan>,
}

#[derive(Debug, Clone, Copy)]
enum TickKind {
    Replicate,
    Gst,
    Ust,
    Gc,
}

#[derive(Debug)]
enum SimEvent {
    Deliver(Envelope),
    Tick(ServerId, TickKind),
    ClientKick(ClientId),
    /// Deadline-triggered flush of the batching coalescer.
    NetFlush,
    /// A scripted fault from the installed [`FaultPlan`] fires.
    Fault(FaultKind),
}

struct ServerSlot {
    server: Server,
    busy_until: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Idle,
    Reading,
    Committing,
}

struct ClientSlot {
    session: ClientSession,
    generator: WorkloadGenerator,
    rng: StdRng,
    phase: Phase,
    spec: Option<TxSpec>,
    tx_begin: u64,
    /// The open transaction's reads, for the checker.
    cur_reads: Vec<paris_core::RecordedRead>,
}

/// The simulated cluster. See the module docs.
pub struct SimCluster {
    config: SimConfig,
    topo: Arc<Topology>,
    clock: SimClock,
    net: SimNetwork,
    /// Per-link batching of background traffic (pass-through when
    /// batching is disabled).
    coalescer: Coalescer,
    /// Time of the earliest scheduled [`SimEvent::NetFlush`], so queueing
    /// more frames does not pile up redundant flush events.
    flush_scheduled: Option<u64>,
    rng: StdRng,
    queue: EventQueue<SimEvent>,
    servers: HashMap<ServerId, ServerSlot>,
    clients: HashMap<ClientId, ClientSlot>,
    now: u64,
    /// Clients stop beginning new transactions at this time.
    client_stop: u64,
    /// Measurement window for throughput/latency.
    window_start: u64,
    window_end: u64,
    stats: RunStats,
    checker: Option<HistoryChecker>,
    failure_detection: bool,
    /// Per-DC skew cells of the servers' steppable clocks, for the
    /// clock-skew-step fault (one cell per server, grouped by DC).
    skew_cells: HashMap<DcId, Vec<SkewCell>>,
    interactive: HashMap<ClientId, ClientSession>,
    interactive_events: VecDeque<(ClientId, ClientEvent)>,
    next_interactive: HashMap<DcId, u32>,
    /// Whether interactive sessions get a value cache (always, outside
    /// tests).
    value_cache: bool,
}

impl SimCluster {
    /// Builds the deployment: all servers with skewed clocks, all client
    /// sessions, background ticks scheduled with random phase offsets.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Storage`] when durability is requested and a
    /// server's data directory cannot be opened or recovered.
    pub(crate) fn new(config: SimConfig) -> Result<Self, Error> {
        let topo = Arc::new(Topology::with_branching(
            config.cluster.clone(),
            config.stab_branching,
        ));
        let clock = SimClock::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let net = SimNetwork::new(config.matrix.clone(), config.jitter);
        let mut queue = EventQueue::new();

        let mut servers = HashMap::new();
        let mut skew_cells: HashMap<DcId, Vec<SkewCell>> = HashMap::new();
        let skew = config.cluster.max_clock_skew_micros as i64;
        for id in topo.all_servers() {
            let offset = if skew > 0 {
                rng.gen_range(-skew..=skew)
            } else {
                0
            };
            // Steppable skew: reading-identical to a fixed SkewedClock
            // until a fault plan steps the cell, so fault-free runs stay
            // bit-reproducible across the chaos subsystem's introduction.
            let (server_clock, cell) = SteppableClock::new(clock.clone(), offset);
            skew_cells.entry(id.dc).or_default().push(cell);
            let server = Server::try_with_tuning(
                ServerOptions {
                    id,
                    topology: Arc::clone(&topo),
                    clock: Box::new(server_clock),
                    mode: config.cluster.mode,
                    record_events: config.record_events,
                },
                crate::tuning::server_tuning(config.durability.as_ref(), id),
            )?;
            servers.insert(
                id,
                ServerSlot {
                    server,
                    busy_until: 0,
                },
            );
            // Stagger the periodic protocols per server.
            let iv = &config.cluster.intervals;
            queue.push(
                rng.gen_range(0..iv.replication_micros),
                SimEvent::Tick(id, TickKind::Replicate),
            );
            queue.push(
                rng.gen_range(0..iv.gst_micros),
                SimEvent::Tick(id, TickKind::Gst),
            );
            if topo.tree_parent(id).is_none() {
                queue.push(
                    rng.gen_range(0..iv.ust_micros),
                    SimEvent::Tick(id, TickKind::Ust),
                );
            }
            queue.push(
                rng.gen_range(0..iv.gc_micros),
                SimEvent::Tick(id, TickKind::Gc),
            );
        }

        let mut clients = HashMap::new();
        for dc in 0..config.cluster.dcs {
            let dc = DcId(dc);
            let local_partitions = topo.partitions_in_dc(dc);
            for seq in 0..config.clients_per_dc {
                let id = ClientId::new(dc, seq);
                let coordinator = topo.coordinator_for(dc, seq);
                let session = ClientSession::new(id, coordinator, config.cluster.mode);
                let generator = WorkloadGenerator::new(
                    config.workload.clone(),
                    config.cluster.partitions,
                    local_partitions.clone(),
                );
                let client_rng =
                    StdRng::seed_from_u64(config.seed ^ (u64::from(dc.0) << 32) ^ u64::from(seq));
                clients.insert(
                    id,
                    ClientSlot {
                        session,
                        generator,
                        rng: client_rng,
                        phase: Phase::Idle,
                        spec: None,
                        tx_begin: 0,
                        cur_reads: Vec::new(),
                    },
                );
            }
        }

        let checker = config.record_history.then(HistoryChecker::new);
        let coalescer = Coalescer::new(config.cluster.batch, config.cluster.wire);
        // Schedule the fault plan last: with no plan this is a no-op, so
        // fault-free runs push exactly the same events in exactly the same
        // order as before the chaos subsystem existed.
        if let Some(plan) = config.fault_plan.as_ref() {
            for event in plan.sorted_events() {
                queue.push(event.at_micros, SimEvent::Fault(event.kind));
            }
        }
        Ok(SimCluster {
            config,
            topo,
            clock,
            net,
            coalescer,
            flush_scheduled: None,
            rng,
            queue,
            servers,
            clients,
            now: 0,
            client_stop: 0,
            window_start: 0,
            window_end: 0,
            stats: RunStats::new(0),
            checker,
            failure_detection: false,
            skew_cells,
            interactive: HashMap::new(),
            interactive_events: VecDeque::new(),
            next_interactive: HashMap::new(),
            value_cache: true,
        })
    }

    /// Current simulated time (microseconds).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Opens every client session from now on without a value cache, so
    /// all of its reads are shipped in full — the reference behaviour the
    /// equivalence tests compare version-validated reads against.
    /// Deployments have no such switch.
    #[doc(hidden)]
    pub fn open_clients_without_value_cache(&mut self) {
        self.value_cache = false;
    }

    /// The topology in use.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The minimum UST across all servers.
    pub fn min_ust(&self) -> Timestamp {
        self.servers
            .values()
            .map(|s| s.server.ust())
            .min()
            .unwrap_or(Timestamp::ZERO)
    }

    /// A server, for inspection.
    ///
    /// # Panics
    ///
    /// Panics if the server does not exist in the deployment.
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[&id].server
    }

    /// Enables or disables the failure detector: when enabled, fault
    /// injection (isolate/partition) immediately informs every server of
    /// the lost links, so coordinators route around unreachable replicas
    /// (§III-C availability) instead of waiting on held traffic. Disabled
    /// by default, modelling the window before detection.
    pub fn set_failure_detection(&mut self, enabled: bool) {
        self.failure_detection = enabled;
    }

    fn notify_link(&mut self, a: DcId, b: DcId, reachable: bool) {
        if !self.failure_detection {
            return;
        }
        for slot in self.servers.values_mut() {
            if slot.server.id().dc == a {
                slot.server.set_dc_reachability(b, reachable);
            } else if slot.server.id().dc == b {
                slot.server.set_dc_reachability(a, reachable);
            }
        }
    }

    /// Partitions the given DC away from every other DC (§III-C fault
    /// scenario). Traffic is held, not lost, until [`Self::heal_dc`].
    pub fn isolate_dc(&mut self, dc: DcId) {
        self.net.isolate(dc);
        for other in 0..self.config.cluster.dcs {
            let other = DcId(other);
            if other != dc {
                self.notify_link(dc, other, false);
            }
        }
    }

    /// Heals all partitions involving `dc`, re-injecting held traffic.
    pub fn heal_dc(&mut self, dc: DcId) {
        let held = self.net.heal_all(dc);
        self.reinject(held);
        for other in 0..self.config.cluster.dcs {
            let other = DcId(other);
            if other != dc {
                self.notify_link(dc, other, true);
            }
        }
    }

    /// Cuts the single link between two DCs (both directions). Traffic is
    /// held, not lost, until [`Self::heal_link`].
    pub fn partition_link(&mut self, a: DcId, b: DcId) {
        self.net.partition(a, b);
        self.notify_link(a, b, false);
    }

    /// Heals one link, re-injecting held traffic.
    pub fn heal_link(&mut self, a: DcId, b: DcId) {
        let held = self.net.heal(a, b);
        self.reinject(held);
        self.notify_link(a, b, true);
    }

    /// Applies one scripted fault (the execution half of a [`FaultPlan`]).
    fn apply_fault(&mut self, kind: FaultKind) {
        match kind {
            // The simulator has no processes to kill: a DC "crash" is its
            // disappearance from the network (§III-C), with state intact —
            // the rejoin-behind-UST scenario.
            FaultKind::CrashDc(dc) => self.isolate_dc(dc),
            FaultKind::RejoinDc(dc) => self.heal_dc(dc),
            FaultKind::PartitionLink(a, b) => self.partition_link(a, b),
            FaultKind::HealLink(a, b) => self.heal_link(a, b),
            FaultKind::SlowLink { a, b, factor } => self.net.set_link_scale(a, b, factor),
            FaultKind::RestoreLink(a, b) => self.net.set_link_scale(a, b, 1.0),
            FaultKind::SkewClock { dc, delta_micros } => {
                for cell in self.skew_cells.get(&dc).into_iter().flatten() {
                    cell.step(delta_micros);
                }
            }
            // Non-exhaustive upstream: unknown future fault kinds are
            // no-ops rather than panics mid-simulation.
            _ => {}
        }
    }

    fn reinject(&mut self, held: Vec<Envelope>) {
        for env in held {
            if let Some(at) = self.net.send(self.now, env.clone(), &mut self.rng) {
                self.queue.push(at, SimEvent::Deliver(env));
            }
        }
    }

    /// Runs the workload: clients start (staggered), the measurement
    /// window is `[warmup, warmup + window]`, then clients stop and
    /// in-flight transactions drain.
    fn drive_workload(&mut self, warmup_micros: u64, window_micros: u64) {
        self.window_start = self.now + warmup_micros;
        self.window_end = self.window_start + window_micros;
        self.client_stop = self.window_end;
        self.stats = RunStats::new(window_micros);
        let mut ids: Vec<ClientId> = self.clients.keys().copied().collect();
        ids.sort_unstable(); // HashMap order must not leak into the schedule
        for id in ids {
            let offset = self.rng.gen_range(0..1_000u64);
            self.queue.push(self.now + offset, SimEvent::ClientKick(id));
        }
        // Drain budget: a multi-DC transaction needs a few WAN round trips.
        let drain = 2_000_000;
        self.run_until(self.window_end + drain);
    }

    /// Runs background protocols only (no new client transactions) for
    /// `micros` — lets replication and stabilization quiesce.
    pub fn settle(&mut self, micros: u64) {
        self.client_stop = self.now; // no new transactions
        let horizon = self.now + micros;
        self.run_until(horizon);
    }

    fn run_until(&mut self, horizon: u64) {
        while self.queue.peek_time().is_some_and(|t| t <= horizon) {
            self.step();
        }
        self.now = self.now.max(horizon);
        self.clock.advance_to(self.now);
    }

    /// Executes the next scheduled event; returns `false` if none remain.
    fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        self.now = self.now.max(ev.time);
        self.clock.advance_to(self.now);
        match ev.event {
            SimEvent::Deliver(env) => self.deliver(env),
            SimEvent::Tick(id, kind) => self.tick(id, kind),
            SimEvent::ClientKick(id) => self.kick_client(id),
            SimEvent::NetFlush => self.net_flush(),
            SimEvent::Fault(kind) => self.apply_fault(kind),
        }
        true
    }

    /// Advances the simulation until `client`'s next event arrives.
    fn await_interactive(&mut self, client: ClientId) -> Result<ClientEvent, Error> {
        let deadline = self.now + 120_000_000; // 120 simulated seconds
        loop {
            if let Some(pos) = self
                .interactive_events
                .iter()
                .position(|(c, _)| *c == client)
            {
                return Ok(self.interactive_events.remove(pos).expect("present").1);
            }
            if self.now > deadline {
                return Err(Error::Transport("simulated operation timed out"));
            }
            if !self.step() {
                return Err(Error::Transport("simulation ran out of events"));
            }
        }
    }

    /// One stabilization round in simulated microseconds.
    fn stabilize_round_micros(&self) -> u64 {
        crate::gossip_round_micros(
            &self.config.cluster.intervals,
            &self.config.matrix,
            self.config.cluster.dcs,
            1.0,
            &self.config.cluster.batch,
            5_000,
        )
    }

    /// Hands an envelope to the network (past the coalescer), scheduling
    /// its delivery.
    fn transmit(&mut self, at: u64, env: Envelope) {
        if let Some(deliver_at) = self.net.send(at, env.clone(), &mut self.rng) {
            self.queue.push(deliver_at, SimEvent::Deliver(env));
        }
    }

    fn send_all(&mut self, at: u64, envs: Vec<Envelope>) {
        for env in envs {
            match self.coalescer.offer(env, at) {
                Offer::Pass(env) => self.transmit(at, env),
                Offer::Flush(flushed) => {
                    for env in flushed {
                        self.transmit(at, env);
                    }
                }
                Offer::Queued { next_due } => self.schedule_flush(next_due),
            }
        }
    }

    /// Ensures a [`SimEvent::NetFlush`] is scheduled no later than `due`.
    /// Superseded flush events are left in the queue; they fire as cheap
    /// no-ops (nothing due) rather than being cancelled.
    fn schedule_flush(&mut self, due: u64) {
        if self.flush_scheduled.is_none_or(|at| at > due) {
            self.queue.push(due, SimEvent::NetFlush);
            self.flush_scheduled = Some(due);
        }
    }

    /// Flushes every link whose deadline has passed and re-arms the timer
    /// for whatever is still queued.
    fn net_flush(&mut self) {
        self.flush_scheduled = None;
        let flushed = self.coalescer.poll(self.now);
        for env in flushed {
            self.transmit(self.now, env);
        }
        if let Some(due) = self.coalescer.next_due() {
            let at = due.max(self.now + 1);
            self.schedule_flush(at);
        }
    }

    fn deliver(&mut self, env: Envelope) {
        match env.dst {
            Endpoint::Server(sid) => {
                let Some(slot) = self.servers.get_mut(&sid) else {
                    debug_assert!(false, "message to unknown server {sid}");
                    return;
                };
                let start = self.now.max(slot.busy_until);
                let cost = self.config.service.cost(&env.msg);
                let blocked_before = slot.server.blocked_reads_now() as u64;
                let blocks_before = slot.server.stats().blocked_reads;
                let finish = start + cost;
                // The coordinator's own share, run in place, costs its CPU.
                let mut local = 0;
                let service = self.config.service;
                let out = slot
                    .server
                    .handle_and(&env, finish, |m| local += service.cost(m));
                slot.busy_until = finish + local;
                // BPR pays to park a read and to wake it back up — the
                // "synchronization overhead to block and unblock reads" the
                // paper charges BPR's throughput loss to (§V-B).
                let newly_blocked = slot.server.stats().blocked_reads - blocks_before;
                let drained = (blocked_before + newly_blocked)
                    .saturating_sub(slot.server.blocked_reads_now() as u64);
                slot.busy_until += self.config.service.block_overhead * (newly_blocked + drained);
                self.send_all(finish, out);
            }
            Endpoint::Client(cid) => {
                if let Some(session) = self.interactive.get_mut(&cid) {
                    if let Some(ev) = session.handle(&env) {
                        self.interactive_events.push_back((cid, ev));
                    }
                    return;
                }
                let Some(event) = self
                    .clients
                    .get_mut(&cid)
                    .and_then(|slot| slot.session.handle(&env))
                else {
                    return;
                };
                self.client_event(cid, event);
            }
        }
    }

    fn tick(&mut self, id: ServerId, kind: TickKind) {
        let iv = &self.config.cluster.intervals;
        let (interval, cost) = match kind {
            TickKind::Replicate => (iv.replication_micros, self.config.service.gossip),
            TickKind::Gst => (iv.gst_micros, self.config.service.gossip),
            TickKind::Ust => (iv.ust_micros, self.config.service.gossip),
            TickKind::Gc => (iv.gc_micros, self.config.service.gossip),
        };
        let slot = self.servers.get_mut(&id).expect("tick for unknown server");
        let start = self.now.max(slot.busy_until);
        let finish = start + cost;
        slot.busy_until = finish;
        let blocked_before = slot.server.blocked_reads_now() as u64;
        let out = match kind {
            TickKind::Replicate => slot.server.on_replicate_tick(finish),
            TickKind::Gst => slot.server.on_gst_tick(finish),
            TickKind::Ust => slot.server.on_ust_tick(finish),
            TickKind::Gc => {
                slot.server.on_gc_tick(finish);
                Vec::new()
            }
        };
        let drained = blocked_before.saturating_sub(slot.server.blocked_reads_now() as u64);
        slot.busy_until += self.config.service.block_overhead * drained;
        self.send_all(finish, out);
        self.queue
            .push(self.now + interval, SimEvent::Tick(id, kind));
    }

    // ------------------------------------------------------ client driving

    /// Starts the client's next transaction. The begin is deferred: the
    /// first read (or a write-only transaction's commit) carries it.
    fn kick_client(&mut self, cid: ClientId) {
        if self.now >= self.client_stop {
            return;
        }
        let slot = self.clients.get_mut(&cid).expect("unknown client");
        if slot.phase != Phase::Idle {
            // Still mid-transaction (e.g. waiting on traffic held behind a
            // network partition); it re-enters the loop on completion.
            return;
        }
        slot.tx_begin = self.now;
        slot.session.begin_deferred().expect("session is idle");
        slot.cur_reads.clear();
        let spec = slot.generator.next_tx(&mut slot.rng);
        let read_keys = spec.read_keys.clone();
        slot.spec = Some(spec);
        if read_keys.is_empty() {
            self.client_commit(cid);
            return;
        }
        slot.phase = Phase::Reading;
        match slot.session.read(&read_keys).expect("tx is open") {
            ReadStep::Done(reads) => {
                if self.checker.is_some() {
                    slot.cur_reads
                        .extend(reads.iter().map(HistoryChecker::recorded_read));
                }
                self.client_commit(cid);
            }
            ReadStep::Send(env) => self.send_all(self.now, vec![env]),
        }
    }

    fn client_event(&mut self, cid: ClientId, event: ClientEvent) {
        match event {
            ClientEvent::Started { .. } => {
                debug_assert!(false, "workload clients begin deferred");
            }
            ClientEvent::ReadDone { reads, .. } => {
                {
                    let slot = self.clients.get_mut(&cid).expect("unknown client");
                    debug_assert_eq!(slot.phase, Phase::Reading);
                    if self.checker.is_some() {
                        slot.cur_reads
                            .extend(reads.iter().map(HistoryChecker::recorded_read));
                    }
                }
                self.client_commit(cid);
            }
            ClientEvent::Committed { tx, snapshot, ct } => {
                let slot = self.clients.get_mut(&cid).expect("unknown client");
                debug_assert_eq!(slot.phase, Phase::Committing);
                slot.phase = Phase::Idle;
                let latency = self.now.saturating_sub(slot.tx_begin);
                if self.now >= self.window_start && self.now <= self.window_end {
                    self.stats.committed += 1;
                    self.stats.latency.record(latency);
                }
                if let Some(checker) = self.checker.as_mut() {
                    let spec = slot.spec.take().expect("spec present");
                    checker.record_tx(
                        cid,
                        RecordedTx {
                            tx,
                            snapshot,
                            reads: std::mem::take(&mut slot.cur_reads),
                            writes: spec.writes.iter().map(|(k, _)| *k).collect(),
                            ct: Some(ct),
                        },
                    );
                } else {
                    slot.spec = None;
                }
                // Closed loop: next transaction immediately.
                self.queue.push(self.now + 1, SimEvent::ClientKick(cid));
            }
            ClientEvent::Aborted { .. } => {
                // No reachable replica for some partition (§III-C): the
                // transaction is gone; record and retry after a beat.
                let slot = self.clients.get_mut(&cid).expect("unknown client");
                slot.phase = Phase::Idle;
                slot.spec = None;
                slot.cur_reads.clear();
                if self.now >= self.window_start && self.now <= self.window_end {
                    self.stats.aborted += 1;
                }
                self.queue
                    .push(self.now + 10_000, SimEvent::ClientKick(cid));
            }
        }
    }

    fn client_commit(&mut self, cid: ClientId) {
        let slot = self.clients.get_mut(&cid).expect("unknown client");
        let writes = slot.spec.as_ref().expect("spec present").writes.clone();
        if !writes.is_empty() {
            slot.session.write(&writes).expect("tx is open");
        }
        slot.phase = Phase::Committing;
        let env = slot.session.commit().expect("tx is open");
        self.send_all(self.now, vec![env]);
    }

    // -------------------------------------------------------- reporting

    /// Builds the run report: throughput/latency stats, blocking,
    /// visibility (if events recorded) and checker verdict (if history
    /// recorded).
    pub fn report(&mut self) -> RunReport {
        let visibility = self.config.record_events.then(|| {
            visibility_histogram(
                self.config.cluster.mode,
                self.servers.values().filter_map(|s| s.server.events()),
            )
        });
        let servers = self.servers.values().map(|slot| &slot.server);
        let snaps = crate::server_snapshots(servers, self.checker.is_some());
        let violations = match self.checker.as_mut() {
            Some(checker) => {
                crate::record_ground_truth(checker, &snaps);
                checker.check()
            }
            None => Vec::new(),
        };
        RunReport {
            mode: self.config.cluster.mode,
            stats: self.stats.clone(),
            blocking: ClusterStats::of_snapshots(&snaps).blocking,
            visibility,
            violations,
            net_messages: self.net.messages_sent(),
            net_bytes: self.net.bytes_sent(),
        }
    }

    /// Wire bytes carried by background traffic (replication, heartbeats,
    /// stabilization gossip) so far, sized in the configured encoding.
    pub fn net_background_bytes(&self) -> u64 {
        self.net.background_bytes_sent()
    }

    /// Number of transactions the checker has recorded.
    pub fn recorded_transactions(&self) -> usize {
        self.checker
            .as_ref()
            .map_or(0, HistoryChecker::transactions)
    }
}

impl Cluster for SimCluster {
    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn mode(&self) -> Mode {
        self.config.cluster.mode
    }

    fn open_client(&mut self, dc: u16) -> Result<ClientId, Error> {
        if dc >= self.config.cluster.dcs {
            return Err(paris_types::ConfigError::new("client DC out of range").into());
        }
        let dc = DcId(dc);
        let offset = self.next_interactive.entry(dc).or_insert(0);
        let id = ClientId::new(dc, INTERACTIVE_SEQ_BASE + *offset);
        *offset += 1;
        let coordinator = self.topo.coordinator_for(dc, id.seq);
        let mode = self.config.cluster.mode;
        let session = crate::interactive_session(id, coordinator, mode, self.value_cache);
        self.interactive.insert(id, session);
        Ok(id)
    }

    fn txn_begin(&mut self, client: ClientId) -> Result<Timestamp, Error> {
        let env = self
            .interactive
            .get_mut(&client)
            .ok_or(Error::UnknownTransaction)?
            .begin()?;
        let at = self.now;
        self.send_all(at, vec![env]);
        match self.await_interactive(client)? {
            ClientEvent::Started { snapshot, .. } => Ok(snapshot),
            ClientEvent::Aborted { .. } => Err(Error::PartitionUnreachable),
            _ => Err(Error::UnknownTransaction),
        }
    }

    fn txn_read(&mut self, client: ClientId, keys: &[Key]) -> Result<Vec<ClientRead>, Error> {
        let step = self
            .interactive
            .get_mut(&client)
            .ok_or(Error::UnknownTransaction)?
            .read(keys)?;
        match step {
            ReadStep::Done(reads) => Ok(reads),
            ReadStep::Send(env) => {
                let at = self.now;
                self.send_all(at, vec![env]);
                match self.await_interactive(client)? {
                    ClientEvent::ReadDone { reads, .. } => Ok(reads),
                    ClientEvent::Aborted { .. } => Err(Error::PartitionUnreachable),
                    _ => Err(Error::UnknownTransaction),
                }
            }
        }
    }

    fn txn_write(&mut self, client: ClientId, entries: &[(Key, Value)]) -> Result<(), Error> {
        self.interactive
            .get_mut(&client)
            .ok_or(Error::UnknownTransaction)?
            .write(entries)
    }

    fn txn_commit(&mut self, client: ClientId) -> Result<Timestamp, Error> {
        let env = self
            .interactive
            .get_mut(&client)
            .ok_or(Error::UnknownTransaction)?
            .commit()?;
        let at = self.now;
        self.send_all(at, vec![env]);
        match self.await_interactive(client)? {
            ClientEvent::Committed { ct, .. } => Ok(ct),
            ClientEvent::Aborted { .. } => Err(Error::PartitionUnreachable),
            _ => Err(Error::UnknownTransaction),
        }
    }

    fn reset_client(&mut self, client: ClientId) -> Result<(), Error> {
        self.interactive
            .get_mut(&client)
            .ok_or(Error::UnknownTransaction)?
            .reset();
        self.interactive_events.retain(|(cid, _)| *cid != client);
        Ok(())
    }

    fn stabilize(&mut self, rounds: usize) {
        self.settle(self.stabilize_round_micros() * rounds as u64);
    }

    fn min_ust(&self) -> Timestamp {
        SimCluster::min_ust(self)
    }

    fn run_workload(&mut self, warmup_micros: u64, window_micros: u64) -> Result<RunReport, Error> {
        self.drive_workload(warmup_micros, window_micros);
        Ok(self.report())
    }

    fn stats(&mut self) -> Result<ClusterStats, Error> {
        let snaps = crate::server_snapshots(self.servers.values().map(|slot| &slot.server), false);
        let mut out = ClusterStats::of_snapshots(&snaps);
        out.net_messages = self.net.messages_sent();
        out.net_bytes = self.net.bytes_sent();
        out.set_flush_mix(&self.coalescer.stats());
        Ok(out)
    }

    fn kill_server(&mut self, index: usize) -> Result<(), Error> {
        if index >= self.servers.len() {
            return Err(paris_types::ConfigError::new("server index out of range").into());
        }
        Err(Error::Unsupported(
            "kill_server is not available on the sim backend (no server processes); crash a whole DC with a FaultPlan instead",
        ))
    }

    fn restart_server(&mut self, index: usize) -> Result<(), Error> {
        if index >= self.servers.len() {
            return Err(paris_types::ConfigError::new("server index out of range").into());
        }
        Err(Error::Unsupported(
            "restart_server is not available on the sim backend (no server processes); rejoin a crashed DC with a FaultPlan instead",
        ))
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<(), Error> {
        plan.validate(self.config.cluster.dcs)?;
        for event in plan.sorted_events() {
            self.queue
                .push(self.now + event.at_micros, SimEvent::Fault(event.kind));
        }
        Ok(())
    }

    fn begin(&mut self, client: ClientId) -> Result<crate::Txn<'_>, Error> {
        crate::Txn::begin_on(self, client)
    }

    fn check_convergence(&mut self) -> Result<Vec<Violation>, Error> {
        let snaps = crate::server_snapshots(self.servers.values().map(|slot| &slot.server), true);
        Ok(replica_convergence(&self.topo, &snaps))
    }
}
