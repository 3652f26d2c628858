//! The deterministic discrete-event cluster runtime.
//!
//! Substitutes for the paper's AWS deployment: every server is a state
//! machine behind a single-queue CPU (service-time model), the network is
//! the AWS RTT matrix with per-link FIFO, clients are closed-loop sessions
//! collocated with their coordinator (paper §V-A), and the whole run is
//! reproducible from a seed.
//!
//! The workload clients are [`WorkloadClient`]s driven by events: a kick
//! starts a transaction, each reply delivered advances it, and a finished
//! one kicks the next 1 µs later, or 10 ms after an abort.
//!
//! Each server is a [`ServerHost`] whose ticks are armed at seeded random
//! phases: one `SimEvent::Tick` per kind, re-armed one period after the
//! event, whose handler runs the host's [`ServerHost::fire`] once the
//! server's CPU is free, at a cost of one gossip service time.

use std::collections::{HashMap, VecDeque};
use std::ops::RangeInclusive;
use std::sync::Arc;

use paris_clock::{SimClock, SkewCell, SteppableClock};
use paris_core::{ClientEvent, ClientSession, Server, Topology, Violation};
use paris_net::batch::{Coalescer, Offer};
use paris_net::sim::{EventQueue, RegionMatrix, ServiceModel, SimNetwork};
use paris_proto::{Endpoint, Envelope, ServerSnapshot};
use paris_types::{ClientId, DcId, Error, FaultKind, FaultPlan, Mode, ServerId, Timestamp};
use paris_workload::stats::RunStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::facade::Sessions;
use crate::host::{ServerHost, TickKind};
use crate::measure::{visibility_histogram, ClusterStats, RunReport};
use crate::workload_client::{Step, Tally, WorkloadClient};
use crate::{
    open_session, replica_convergence, BackendConfig, Cluster, Interactive, INTERACTIVE_SEQ_BASE,
};

/// Configuration of a simulated deployment (assembled by the builder).
#[derive(Debug, Clone)]
pub(crate) struct SimConfig {
    /// The deployment and workload, as every backend takes them. Its
    /// `durability` does not affect simulated time — gated metrics stay
    /// bit-identical — but real files are written, so a restarted
    /// deployment over the same directory recovers the committed prefix.
    pub(crate) base: BackendConfig,
    /// Inter-DC latency matrix.
    pub(crate) matrix: RegionMatrix,
    /// Network jitter fraction.
    pub(crate) jitter: f64,
    /// Per-message CPU costs.
    pub(crate) service: ServiceModel,
    /// Record server event logs (visibility latency, Fig. 4).
    pub(crate) record_events: bool,
    /// Stabilization-tree branching factor (`0` = flat tree rooted at the
    /// lowest partition per DC, the default; the tree-shape ablation sets
    /// small fanouts).
    pub(crate) stab_branching: usize,
    /// Scripted fault schedule, validated by the builder; events fire at
    /// their virtual times from simulation start. `None` (the default)
    /// adds no events and no RNG draws, keeping fault-free runs
    /// bit-identical to a simulator without the chaos subsystem.
    pub(crate) fault_plan: Option<FaultPlan>,
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
    host: ServerHost,
    busy_until: u64,
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
    clients: HashMap<ClientId, (ClientSession, WorkloadClient)>,
    now: u64,
    /// Clients stop beginning new transactions at this time.
    client_stop: u64,
    /// Measurement window for throughput/latency.
    window: RangeInclusive<u64>,
    tally: Tally,
    failure_detection: bool,
    /// Per-DC skew cells of the servers' steppable clocks, for the
    /// clock-skew-step fault (one cell per server, grouped by DC).
    skew_cells: HashMap<DcId, Vec<SkewCell>>,
    interactive: HashMap<ClientId, Interactive<VecDeque<Envelope>>>,
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
        let base = &config.base;
        let topo = Arc::new(Topology::with_branching(
            base.cluster.clone(),
            config.stab_branching,
        ));
        let clock = SimClock::new();
        let mut rng = StdRng::seed_from_u64(base.seed);
        let net = SimNetwork::new(config.matrix.clone(), config.jitter);
        let mut queue = EventQueue::new();

        let mut servers = HashMap::new();
        let mut skew_cells: HashMap<DcId, Vec<SkewCell>> = HashMap::new();
        let skew = base.cluster.max_clock_skew_micros as i64;
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
            let tuning = crate::tuning::server_tuning(base.durability.as_ref(), id);
            let record = config.record_events;
            let mut host = ServerHost::new(id, &topo, Box::new(server_clock), record, tuning)?;
            // Stagger the periodic protocols per server.
            host.arm(|kind, every| {
                let at = rng.gen_range(0..every);
                queue.push(at, SimEvent::Tick(id, kind));
                at
            });
            let busy_until = 0;
            servers.insert(id, ServerSlot { host, busy_until });
        }

        let mut clients = HashMap::new();
        for dc in 0..base.cluster.dcs {
            let dc = DcId(dc);
            for seq in 0..base.clients_per_dc {
                let id = ClientId::new(dc, seq);
                let session = open_session(id, &topo, base.cluster.mode, true, false);
                let client = WorkloadClient::new(id, &topo, &base.workload, base.seed);
                clients.insert(id, (session, client));
            }
        }

        let tally = Tally::new(0, base.record_history);
        let coalescer = Coalescer::new(base.cluster.batch, base.cluster.wire);
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
            window: 0..=0,
            tally,
            failure_detection: false,
            skew_cells,
            interactive: HashMap::new(),
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
        self.servers()
            .map(Server::ust)
            .min()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Every server, in no particular order.
    fn servers(&self) -> impl Iterator<Item = &Server> {
        self.servers.values().map(|slot| &slot.host.server)
    }

    /// Every server as a [`ServerSnapshot`] — how the sim feeds the same
    /// helpers as the live backends.
    fn snapshots(&self, chains: bool) -> Vec<ServerSnapshot> {
        let servers = self.servers();
        servers.map(|s| crate::server_snapshot(s, chains)).collect()
    }

    /// A server, for inspection.
    ///
    /// # Panics
    ///
    /// Panics if the server does not exist in the deployment.
    pub fn server(&self, id: ServerId) -> &Server {
        &self.servers[&id].host.server
    }

    /// Enables or disables the failure detector: when enabled, fault
    /// injection (isolate/partition) immediately informs every server of
    /// the lost links, so coordinators route around unreachable replicas
    /// (§III-C availability) instead of waiting on held traffic. Disabled
    /// by default, modelling the window before detection.
    pub fn set_failure_detection(&mut self, enabled: bool) {
        self.failure_detection = enabled;
    }

    /// Tells the servers and client sessions on either side of the link
    /// between `a` and `b` whether it is up, when the detector is on: a
    /// session then routes its reads around a cut DC exactly as its
    /// coordinator does.
    fn notify_link(&mut self, a: DcId, b: DcId, reachable: bool) {
        if !self.failure_detection {
            return;
        }
        let other = |dc: DcId| (dc == a).then_some(b).or((dc == b).then_some(a));
        for slot in self.servers.values_mut() {
            if let Some(peer) = other(slot.host.server.id().dc) {
                slot.host.server.set_dc_reachability(peer, reachable);
            }
        }
        let workload = self.clients.values_mut().map(|(session, _)| session);
        let interactive = self.interactive.values_mut().map(|c| &mut c.session);
        for session in workload.chain(interactive) {
            if let Some(peer) = other(session.id().dc) {
                session.set_dc_reachability(peer, reachable);
            }
        }
    }

    /// Partitions the given DC away from every other DC (§III-C fault
    /// scenario). Traffic is held, not lost, until [`Self::heal_dc`].
    pub fn isolate_dc(&mut self, dc: DcId) {
        self.apply_fault(FaultKind::CrashDc(dc));
    }

    /// Heals all partitions involving `dc`, releasing held traffic.
    pub fn heal_dc(&mut self, dc: DcId) {
        self.apply_fault(FaultKind::RejoinDc(dc));
    }

    /// Cuts the single link between two DCs (both directions). Traffic is
    /// held, not lost, until [`Self::heal_link`].
    pub fn partition_link(&mut self, a: DcId, b: DcId) {
        self.apply_fault(FaultKind::PartitionLink(a, b));
    }

    /// Heals one link, releasing held traffic.
    pub fn heal_link(&mut self, a: DcId, b: DcId) {
        self.apply_fault(FaultKind::HealLink(a, b));
    }

    /// Applies one scripted fault (the execution half of a [`FaultPlan`]).
    /// The network maps it onto its links; what stays here is the
    /// failure detector's view of those links and the clock-skew step.
    fn apply_fault(&mut self, kind: FaultKind) {
        // The simulator has no processes to kill: a DC "crash" is its
        // disappearance from the network (§III-C), with state intact —
        // the rejoin-behind-UST scenario.
        for (at, env) in self.net.apply(self.now, kind, &mut self.rng) {
            self.queue.push(at, SimEvent::Deliver(env));
        }
        match kind {
            FaultKind::CrashDc(dc) | FaultKind::RejoinDc(dc) => {
                let reachable = matches!(kind, FaultKind::RejoinDc(_));
                for other in 0..self.config.base.cluster.dcs {
                    if DcId(other) != dc {
                        self.notify_link(dc, DcId(other), reachable);
                    }
                }
            }
            FaultKind::PartitionLink(a, b) => self.notify_link(a, b, false),
            FaultKind::HealLink(a, b) => self.notify_link(a, b, true),
            FaultKind::SkewClock { dc, delta_micros } => {
                for cell in self.skew_cells.get(&dc).into_iter().flatten() {
                    cell.step(delta_micros);
                }
            }
            // Link slowdowns have no detector signal; unknown future kinds
            // (non-exhaustive upstream) are no-ops rather than panics.
            _ => {}
        }
    }

    /// Runs the workload: clients start (staggered), the measurement
    /// window is `[warmup, warmup + window]`, then clients stop and
    /// in-flight transactions drain.
    fn drive_workload(&mut self, warmup_micros: u64, window_micros: u64) {
        let window_start = self.now + warmup_micros;
        self.client_stop = window_start + window_micros;
        self.window = window_start..=self.client_stop;
        self.tally.stats = RunStats::new(window_micros);
        let mut ids: Vec<ClientId> = self.clients.keys().copied().collect();
        ids.sort_unstable(); // HashMap order must not leak into the schedule
        for id in ids {
            let offset = self.rng.gen_range(0..1_000u64);
            self.queue.push(self.now + offset, SimEvent::ClientKick(id));
        }
        // Drain budget: a multi-DC transaction needs a few WAN round trips.
        let drain = 2_000_000;
        self.run_until(self.client_stop + drain);
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

    /// One stabilization round in simulated microseconds.
    fn stabilize_round_micros(&self) -> u64 {
        crate::gossip_round_micros(
            &self.config.base.cluster.intervals,
            &self.config.matrix,
            self.config.base.cluster.dcs,
            1.0,
            &self.config.base.cluster.batch,
            5_000,
        )
    }

    /// Hands an envelope to the network (past the coalescer), scheduling
    /// its delivery.
    fn transmit(&mut self, at: u64, env: Envelope) {
        if let Some(deliver_at) = self.net.send(at, &env, &mut self.rng) {
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
                let (cost, service) = (self.config.service.cost(&env.msg), self.config.service);
                self.serve(sid, cost, |host, finish, local| {
                    host.server
                        .handle_and(&env, finish, |m| *local += service.cost(m))
                });
            }
            Endpoint::Client(cid) => {
                if let Some(client) = self.interactive.get_mut(&cid) {
                    client.inbox.push_back(env);
                    return;
                }
                let Some((session, client)) = self.clients.get_mut(&cid) else {
                    return;
                };
                if let Some(event) = session.handle(&env) {
                    let step = client.on_event(session, event, self.now);
                    self.client_step(cid, step);
                }
            }
        }
    }

    /// Runs one of the server's ticks at its seeded phase. Every kind
    /// costs one gossip service time, and re-arms from the event's time.
    fn tick(&mut self, id: ServerId, kind: TickKind) {
        let cost = self.config.service.gossip;
        self.serve(id, cost, |host, finish, _| host.fire(kind, finish));
        let every = kind.every(&self.config.base.cluster.intervals);
        self.queue.push(self.now + every, SimEvent::Tick(id, kind));
    }

    /// Runs `work` on server `id` once its CPU is free and sends what it
    /// returns `cost` later. The CPU also pays for what `work` runs in
    /// place (it adds that to the counter it is handed) and for every read
    /// parked or woken: the "synchronization overhead to block and unblock
    /// reads" the paper charges BPR's throughput loss to (§V-B).
    fn serve(
        &mut self,
        id: ServerId,
        cost: u64,
        work: impl FnOnce(&mut ServerHost, u64, &mut u64) -> Vec<Envelope>,
    ) {
        let Some(slot) = self.servers.get_mut(&id) else {
            debug_assert!(false, "message to unknown server {id}");
            return;
        };
        let finish = self.now.max(slot.busy_until) + cost;
        let server = &slot.host.server;
        let blocked_before = server.blocked_reads_now() as u64;
        let blocks_before = server.stats().blocked_reads;
        let mut local = 0;
        let out = work(&mut slot.host, finish, &mut local);
        let server = &slot.host.server;
        let newly_blocked = server.stats().blocked_reads - blocks_before;
        let drained =
            (blocked_before + newly_blocked).saturating_sub(server.blocked_reads_now() as u64);
        let blocking = self.config.service.block_overhead * (newly_blocked + drained);
        slot.busy_until = finish + local + blocking;
        self.send_all(finish, out);
    }

    // ------------------------------------------------------ client driving

    /// Starts the client's next transaction, unless the window is over.
    fn kick_client(&mut self, cid: ClientId) {
        if self.now >= self.client_stop {
            return;
        }
        let (session, client) = self.clients.get_mut(&cid).expect("unknown client");
        if client.is_busy() {
            // Still mid-transaction (e.g. waiting on traffic held behind a
            // network partition); it re-enters the loop on completion.
            return;
        }
        let envs = client.start(session, self.now);
        self.send_all(self.now, envs);
    }

    /// Sends the client's next envelope, or tallies its finished
    /// transaction and kicks the next one: at once in the closed loop, or
    /// after a beat when no replica of some partition was reachable
    /// (§III-C).
    fn client_step(&mut self, cid: ClientId, step: Step) {
        let pause = match step {
            Step::Send(envs) => return self.send_all(self.now, envs),
            Step::Committed { .. } => 1,
            Step::Aborted => 10_000,
        };
        self.tally
            .finish(cid, step, self.window.contains(&self.now));
        self.queue.push(self.now + pause, SimEvent::ClientKick(cid));
    }

    // -------------------------------------------------------- reporting

    /// Builds the run report: throughput/latency stats, blocking,
    /// visibility (if events recorded) and checker verdict (if history
    /// recorded).
    pub fn report(&mut self) -> RunReport {
        let visibility = self.config.record_events.then(|| {
            visibility_histogram(
                self.config.base.cluster.mode,
                self.servers().filter_map(Server::events),
            )
        });
        let snaps = self.snapshots(self.config.base.record_history);
        RunReport {
            visibility,
            net_messages: self.net.messages_sent(),
            net_bytes: self.net.bytes_sent(),
            ..self.tally.report(self.config.base.cluster.mode, &snaps)
        }
    }

    /// [`Cluster::open_client`], or with `via_coordinator`
    /// [`Cluster::open_client_via_coordinator`].
    fn open(&mut self, dc: u16, via_coordinator: bool) -> Result<ClientId, Error> {
        if dc >= self.config.base.cluster.dcs {
            return Err(paris_types::ConfigError::new("client DC out of range").into());
        }
        let dc = DcId(dc);
        let offset = self.next_interactive.entry(dc).or_insert(0);
        let id = ClientId::new(dc, INTERACTIVE_SEQ_BASE + *offset);
        *offset += 1;
        let (mode, cache) = (self.config.base.cluster.mode, self.value_cache);
        let mut session = open_session(id, &self.topo, mode, cache, via_coordinator);
        // The failure detector's view so far, as the coordinator has it.
        let coordinator = &self.servers[&session.coordinator()].host.server;
        for &cut in coordinator.unreachable_dcs() {
            session.set_dc_reachability(cut, false);
        }
        self.interactive.insert(id, Interactive::new(session));
        Ok(id)
    }

    /// Wire bytes carried by background traffic (replication, heartbeats,
    /// stabilization gossip) so far, sized in the configured encoding.
    pub fn net_background_bytes(&self) -> u64 {
        self.net.background_bytes_sent()
    }

    /// Number of transactions the checker has recorded.
    pub fn recorded_transactions(&self) -> usize {
        let history = self.tally.history.as_ref();
        history.map_or(0, paris_core::HistoryChecker::transactions)
    }
}

impl Sessions for SimCluster {
    fn session(&mut self, client: ClientId) -> Result<&mut ClientSession, Error> {
        self.interactive
            .get_mut(&client)
            .map(|c| &mut c.session)
            .ok_or(Error::UnknownTransaction)
    }

    /// Advances the simulation until `client`'s reply arrives.
    fn round_trip(&mut self, client: ClientId, envs: Vec<Envelope>) -> Result<ClientEvent, Error> {
        let at = self.now;
        self.send_all(at, envs);
        let deadline = self.now + 120_000_000; // 120 simulated seconds
        loop {
            let waiting = self
                .interactive
                .get_mut(&client)
                .ok_or(Error::UnknownTransaction)?;
            if let Some(event) = waiting.next_event() {
                return Ok(event);
            }
            if self.now > deadline {
                return Err(Error::Transport("simulated operation timed out"));
            }
            if !self.step() {
                return Err(Error::Transport("simulation ran out of events"));
            }
        }
    }
}

impl Cluster for SimCluster {
    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn mode(&self) -> Mode {
        self.config.base.cluster.mode
    }

    fn open_client(&mut self, dc: u16) -> Result<ClientId, Error> {
        self.open(dc, false)
    }

    fn open_client_via_coordinator(&mut self, dc: u16) -> Result<ClientId, Error> {
        self.open(dc, true)
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
        let snaps = self.snapshots(false);
        let mut out = ClusterStats::of_snapshots(&snaps);
        out.net_messages = self.net.messages_sent();
        out.net_bytes = self.net.bytes_sent();
        out.set_flush_mix(&self.coalescer.stats());
        Ok(out)
    }

    fn kill_server(&mut self, index: usize) -> Result<(), Error> {
        crate::no_server_processes(
            index,
            self.servers.len(),
            "kill_server is not available on the sim backend (no server processes); crash a whole DC with a FaultPlan instead",
        )
    }

    fn restart_server(&mut self, index: usize) -> Result<(), Error> {
        crate::no_server_processes(
            index,
            self.servers.len(),
            "restart_server is not available on the sim backend (no server processes); rejoin a crashed DC with a FaultPlan instead",
        )
    }

    fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<(), Error> {
        plan.validate(self.config.base.cluster.dcs)?;
        for event in plan.sorted_events() {
            self.queue
                .push(self.now + event.at_micros, SimEvent::Fault(event.kind));
        }
        Ok(())
    }

    fn check_convergence(&mut self) -> Result<Vec<Violation>, Error> {
        let snaps = self.snapshots(true);
        Ok(replica_convergence(&self.topo, &snaps))
    }
}
