//! End-to-end protocol tests on a hand-pumped miniature cluster.
//!
//! These tests drive the real server/client state machines through a
//! zero-latency synchronous message pump — no network substrate — so any
//! failure is a protocol bug, not a harness artifact. The clock moves only
//! where a test advances it, which is what lets one seeded stream run
//! twice, with eager and with deferred begins, and compare every read.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;

use paris_clock::SimClock;
use paris_core::checker::{HistoryChecker, RecordedTx};
use paris_core::{
    ClientEvent, ClientRead, ClientSession, Mode, ReadStep, Server, ServerOptions, ServerStats,
    Topology, STALE_CONTEXT_MICROS,
};
use paris_proto::{Endpoint, Envelope};
use paris_types::{
    ClientId, ClusterConfig, DcId, Key, PartitionId, ServerId, Timestamp, TxId, Value, VersionOrd,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A tiny synchronous cluster: all messages delivered in FIFO order with
/// zero latency; ticks run on demand.
struct PumpedCluster {
    topo: Arc<Topology>,
    clock: SimClock,
    servers: HashMap<ServerId, Server>,
    clients: HashMap<ClientId, ClientSession>,
    queue: VecDeque<Envelope>,
    events: Vec<(ClientId, ClientEvent)>,
    now: u64,
    /// Reads re-sent in the start form after a replica refused the pick.
    retries: u64,
    /// Every message delivered, in order: source, destination and kind.
    wire: Vec<(Endpoint, Endpoint, &'static str)>,
}

impl PumpedCluster {
    fn new(dcs: u16, partitions: u32, r: u16, mode: Mode) -> Self {
        let cfg = ClusterConfig::builder()
            .dcs(dcs)
            .partitions(partitions)
            .replication_factor(r)
            .max_clock_skew_micros(0)
            .build()
            .unwrap();
        let topo = Arc::new(Topology::new(cfg));
        let clock = SimClock::new();
        let servers = topo
            .all_servers()
            .into_iter()
            .map(|id| {
                (
                    id,
                    Server::new(ServerOptions {
                        id,
                        topology: Arc::clone(&topo),
                        clock: Box::new(clock.clone()),
                        mode,
                        record_events: false,
                    }),
                )
            })
            .collect();
        PumpedCluster {
            topo,
            clock,
            servers,
            clients: HashMap::new(),
            queue: VecDeque::new(),
            events: Vec::new(),
            now: 0,
            retries: 0,
            wire: Vec::new(),
        }
    }

    fn add_client(&mut self, dc: u16, seq: u32, mode: Mode) -> ClientId {
        let id = ClientId::new(DcId(dc), seq);
        let coord = self.topo.coordinator_for(id.dc, id.seq);
        self.clients.insert(id, ClientSession::new(id, coord, mode));
        id
    }

    /// A client that, once its transaction knows its snapshot, reads
    /// straight from the replicas (as every runtime session does).
    fn add_routed_client(&mut self, dc: u16, seq: u32, mode: Mode) -> ClientId {
        let id = self.add_client(dc, seq, mode);
        let session = self.clients.remove(&id).unwrap();
        let routed = session.with_topology(Arc::clone(&self.topo));
        self.clients.insert(id, routed);
        id
    }

    fn advance(&mut self, micros: u64) {
        self.now += micros;
        self.clock.advance_to(self.now);
    }

    /// Delivers all queued messages until quiescent.
    fn pump(&mut self) {
        while let Some(env) = self.queue.pop_front() {
            let out = self.deliver(&env);
            self.queue.extend(out);
        }
    }

    /// Delivers one message, and returns what its receiver sends.
    fn deliver(&mut self, env: &Envelope) -> Vec<Envelope> {
        self.wire.push((env.src, env.dst, env.msg.kind()));
        match env.dst {
            Endpoint::Server(sid) => self
                .servers
                .get_mut(&sid)
                .unwrap_or_else(|| panic!("no server {sid}"))
                .handle(env, self.now),
            Endpoint::Client(cid) => {
                if let Some(ev) = self.clients.get_mut(&cid).unwrap().handle(env) {
                    self.events.push((cid, ev));
                }
                Vec::new()
            }
        }
    }

    /// One round of background ticks on every server, then pump.
    fn tick_all(&mut self) {
        self.advance(1_000);
        let mut ids: Vec<ServerId> = self.servers.keys().copied().collect();
        // One order for every cluster, so two runs of a stream tick alike.
        ids.sort_unstable();
        for id in &ids {
            let out = self
                .servers
                .get_mut(id)
                .unwrap()
                .on_replicate_tick(self.now);
            self.queue.extend(out);
        }
        self.pump();
        for id in &ids {
            let out = self.servers.get_mut(id).unwrap().on_gst_tick(self.now);
            self.queue.extend(out);
        }
        self.pump();
        // Children reported: roots need a second aggregation pass before
        // their GSV reflects this round's version vectors.
        for id in &ids {
            let out = self.servers.get_mut(id).unwrap().on_gst_tick(self.now);
            self.queue.extend(out);
        }
        self.pump();
        for id in &ids {
            let out = self.servers.get_mut(id).unwrap().on_ust_tick(self.now);
            self.queue.extend(out);
        }
        self.pump();
    }

    fn begin(&mut self, c: ClientId) {
        let env = self.clients.get_mut(&c).unwrap().begin().unwrap();
        self.queue.push_back(env);
        self.pump();
    }

    /// Opens a transaction whose first operation will carry its start.
    fn begin_deferred(&mut self, c: ClientId) {
        self.clients.get_mut(&c).unwrap().begin_deferred().unwrap();
    }

    /// Runs every server's GC tick at the current time.
    fn gc_all(&mut self) {
        for server in self.servers.values_mut() {
            server.on_gc_tick(self.now);
        }
    }

    fn read(&mut self, c: ClientId, keys: &[Key]) -> Vec<(Key, Option<Value>)> {
        let reads = self.read_full(c, keys);
        reads.into_iter().map(|r| (r.key, r.value)).collect()
    }

    fn read_full(&mut self, c: ClientId, keys: &[Key]) -> Vec<ClientRead> {
        let step = self.clients.get_mut(&c).unwrap().read(keys).unwrap();
        match step {
            ReadStep::Done(reads) => reads,
            ReadStep::Send(env) => self.read_round_trip(c, vec![env]),
            ReadStep::Slices(slices) => self.read_round_trip(c, slices),
        }
    }

    /// Sends a read's envelopes and returns the reads they complete — after
    /// re-sending the read in the start form, if a replica refused the
    /// snapshot the client picked.
    fn read_round_trip(&mut self, c: ClientId, sent: Vec<Envelope>) -> Vec<ClientRead> {
        self.queue.extend(sent);
        self.pump();
        match self.events.pop() {
            Some((cid, ClientEvent::ReadDone { reads, .. })) => {
                assert_eq!(cid, c);
                reads
            }
            Some((cid, ClientEvent::Retry(env))) => {
                assert_eq!(cid, c);
                self.retries += 1;
                self.read_round_trip(c, vec![env])
            }
            other => panic!("expected ReadDone, got {other:?}"),
        }
    }

    fn write(&mut self, c: ClientId, key: Key, value: &str) {
        self.clients
            .get_mut(&c)
            .unwrap()
            .write(&[(key, Value::from(value))])
            .unwrap();
    }

    fn commit(&mut self, c: ClientId) -> Timestamp {
        let env = self.clients.get_mut(&c).unwrap().commit().unwrap();
        self.queue.push_back(env);
        self.pump();
        match self.events.pop() {
            Some((cid, ClientEvent::Committed { ct, .. })) => {
                assert_eq!(cid, c);
                ct
            }
            other => panic!("expected Committed, got {other:?}"),
        }
    }

    fn value_of(&mut self, c: ClientId, key: Key) -> Option<String> {
        self.read(c, &[key])
            .into_iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| v)
            .map(|v| String::from_utf8_lossy(v.as_bytes()).into_owned())
    }

    fn min_ust(&self) -> Timestamp {
        self.servers.values().map(|s| s.ust()).min().unwrap()
    }

    /// One counter, summed over every server.
    fn total(&self, counter: impl Fn(&ServerStats) -> u64) -> u64 {
        self.servers.values().map(|s| counter(&s.stats())).sum()
    }

    /// Every key whose latest version differs between the replicas of its
    /// partition.
    fn check_convergence(&self) -> Vec<String> {
        let mut violations = Vec::new();
        for p in 0..self.topo.partitions() {
            let p = PartitionId(p);
            let replicas: Vec<HashMap<Key, Option<VersionOrd>>> = self
                .topo
                .replicas(p)
                .into_iter()
                .map(|dc| {
                    let mut latest = HashMap::new();
                    let store = self.servers[&ServerId::new(dc, p)].store();
                    store.for_each_chain(&mut |key, chain| {
                        latest.insert(key, chain.iter().next().map(|v| v.order()));
                    });
                    latest
                })
                .collect();
            let found = HistoryChecker::check_convergence(&replicas);
            violations.extend(found.iter().map(ToString::to_string));
        }
        violations
    }
}

#[test]
fn update_transaction_commits_and_is_readable_after_stabilization() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    let alice = c.add_client(0, 0, Mode::Paris);
    c.advance(10_000);

    c.begin(alice);
    let key = Key(0); // partition 0, replicated at DC0 & DC1
    c.write(alice, key, "hello");
    let ct = c.commit(alice);
    assert!(ct > Timestamp::ZERO);

    // Before stabilization, another client's snapshot cannot include it...
    let bob = c.add_client(1, 0, Mode::Paris);
    c.begin(bob);
    assert_eq!(c.value_of(bob, key), None, "snapshot is stable, so stale");
    c.commit(bob);

    // ... after enough rounds (apply + gossip), the UST covers ct and every
    // client everywhere reads it — without blocking.
    for _ in 0..5 {
        c.tick_all();
    }
    assert!(c.min_ust() >= ct, "UST must cover the committed write");
    c.begin(bob);
    assert_eq!(c.value_of(bob, key), Some("hello".into()));
    c.commit(bob);

    // A client in a DC that does NOT replicate partition 0 (DC2) reads it
    // transparently through a remote slice read.
    let carol = c.add_client(2, 0, Mode::Paris);
    c.begin(carol);
    assert_eq!(c.value_of(carol, key), Some("hello".into()));
}

#[test]
fn read_your_own_writes_via_cache_before_stabilization() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    let alice = c.add_client(0, 0, Mode::Paris);
    c.advance(10_000);

    c.begin(alice);
    c.write(alice, Key(1), "mine");
    c.commit(alice);

    // No stabilization has run: the snapshot cannot include the write, yet
    // the cache must serve it.
    c.begin(alice);
    assert_eq!(c.value_of(alice, Key(1)), Some("mine".into()));
    let session = &c.clients[&alice];
    assert!(session.cache_len() > 0, "cache still holds the write");
    c.commit(alice);

    // After stabilization the cache prunes and the server serves the key.
    for _ in 0..5 {
        c.tick_all();
    }
    c.begin(alice);
    assert_eq!(c.value_of(alice, Key(1)), Some("mine".into()));
    assert_eq!(c.clients[&alice].cache_len(), 0, "pruned by ust_c");
}

#[test]
fn atomicity_multi_partition_writes_visible_together() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    let alice = c.add_client(0, 0, Mode::Paris);
    c.advance(10_000);

    // Keys on different partitions (0 and 1) and different replica sets.
    c.begin(alice);
    c.write(alice, Key(0), "x");
    c.write(alice, Key(1), "y");
    let ct = c.commit(alice);

    for _ in 0..5 {
        c.tick_all();
    }
    assert!(c.min_ust() >= ct);

    // Any other client sees both or neither — here, both.
    let bob = c.add_client(1, 0, Mode::Paris);
    c.begin(bob);
    let reads = c.read(bob, &[Key(0), Key(1)]);
    let vals: Vec<Option<String>> = reads
        .into_iter()
        .map(|(_, v)| v.map(|v| String::from_utf8_lossy(v.as_bytes()).into_owned()))
        .collect();
    assert_eq!(vals.len(), 2);
    assert!(vals.contains(&Some("x".into())) && vals.contains(&Some("y".into())));
}

#[test]
fn causal_order_write_then_dependent_write_has_larger_ct() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    let alice = c.add_client(0, 0, Mode::Paris);
    let bob = c.add_client(1, 0, Mode::Paris);
    c.advance(10_000);

    c.begin(alice);
    c.write(alice, Key(2), "first");
    let ct1 = c.commit(alice);

    for _ in 0..5 {
        c.tick_all();
    }

    // Bob reads Alice's write, then writes a dependent value.
    c.begin(bob);
    assert_eq!(c.value_of(bob, Key(2)), Some("first".into()));
    c.write(bob, Key(3), "second");
    let ct2 = c.commit(bob);
    assert!(
        ct2 > ct1,
        "Proposition 1: dependent update must have larger timestamp"
    );
}

#[test]
fn session_order_is_reflected_in_commit_timestamps() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    let alice = c.add_client(0, 0, Mode::Paris);
    c.advance(10_000);

    let mut last = Timestamp::ZERO;
    for i in 0..5 {
        c.begin(alice);
        c.write(alice, Key(i % 3), "v");
        let ct = c.commit(alice);
        assert!(ct > last, "hwt piggyback must order session commits");
        last = ct;
    }
}

#[test]
fn ust_advances_without_any_writes_via_heartbeats() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    c.advance(50_000);
    for _ in 0..4 {
        c.tick_all();
    }
    let ust = c.min_ust();
    assert!(
        ust > Timestamp::ZERO,
        "heartbeats alone must advance the UST (got {ust})"
    );
}

#[test]
fn snapshots_are_monotonic_per_client_across_coordinator_staleness() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    let alice = c.add_client(0, 0, Mode::Paris);
    c.advance(10_000);
    for _ in 0..3 {
        c.tick_all();
    }

    let mut prev = Timestamp::ZERO;
    for _ in 0..5 {
        c.begin(alice);
        let snap = c.clients[&alice].open_snapshot().unwrap();
        assert!(snap >= prev, "snapshot regressed");
        prev = snap;
        c.commit(alice);
        c.tick_all();
    }
    assert!(prev > Timestamp::ZERO);
}

#[test]
fn bpr_serves_fresh_data_without_waiting_for_ust() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Bpr);
    let alice = c.add_client(0, 0, Mode::Bpr);
    let bob = c.add_client(1, 0, Mode::Bpr);
    c.advance(10_000);

    c.begin(alice);
    c.write(alice, Key(0), "fresh");
    let ct = c.commit(alice);

    // One replicate round applies the write locally and ships it to the
    // peer replica — no UST progress needed for BPR visibility.
    c.tick_all();
    assert!(c.min_ust() < ct || c.min_ust() >= ct); // ust irrelevant for BPR

    c.begin(bob);
    // Bob's snapshot (coordinator clock) is above ct: the blocking read
    // waits for the apply, which has already happened after tick_all.
    assert_eq!(c.value_of(bob, Key(0)), Some("fresh".into()));
}

#[test]
fn bpr_read_blocks_until_snapshot_installed() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Bpr);
    let alice = c.add_client(0, 0, Mode::Bpr);
    c.advance(10_000);

    // Client with a fresh snapshot reads a partition that has not applied
    // anything yet: the read must park, then complete after ticks.
    c.begin(alice);
    let step = c.clients.get_mut(&alice).unwrap().read(&[Key(0)]).unwrap();
    let env = match step {
        ReadStep::Send(env) => env,
        other => panic!("expected a ReadReq to the coordinator, got {other:?}"),
    };
    c.events.clear(); // drop the Started event
    c.queue.push_back(env);
    c.pump();
    // No ReadDone yet: the slice read is blocked server-side.
    assert!(c.events.is_empty(), "read must block, got {:?}", c.events);
    let blocked: usize = c.servers.values().map(|s| s.blocked_reads_now()).sum();
    assert_eq!(blocked, 1);

    // Version clocks advance past the snapshot via replicate ticks.
    c.tick_all();
    c.tick_all();
    let done = c
        .events
        .iter()
        .any(|(_, e)| matches!(e, ClientEvent::ReadDone { .. }));
    assert!(done, "blocked read must complete once installed");
    let stats_blocked: u64 = c.servers.values().map(|s| s.stats().blocked_reads).sum();
    assert_eq!(stats_blocked, 1);
}

#[test]
fn paris_reads_never_block() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    let alice = c.add_client(0, 0, Mode::Paris);
    c.advance(10_000);
    for _ in 0..3 {
        c.tick_all();
    }
    c.begin(alice);
    // Spread reads over all partitions, local and remote.
    let keys: Vec<Key> = (0..6).map(Key).collect();
    let reads = c.read(alice, &keys);
    assert_eq!(reads.len(), 6);
    let blocked: u64 = c.servers.values().map(|s| s.stats().blocked_reads).sum();
    assert_eq!(blocked, 0, "PaRiS reads must never block");
}

#[test]
fn concurrent_conflicting_writes_converge_last_writer_wins() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    let alice = c.add_client(0, 0, Mode::Paris);
    let bob = c.add_client(1, 0, Mode::Paris);
    c.advance(10_000);

    // Both write key 0 concurrently (no causal order between them).
    c.begin(alice);
    c.begin(bob);
    c.write(alice, Key(0), "from-alice");
    c.write(bob, Key(0), "from-bob");
    let ct_a = c.commit(alice);
    let ct_b = c.commit(bob);

    for _ in 0..6 {
        c.tick_all();
    }

    // All replicas of partition 0 agree on the LWW winner. Ties on the
    // commit timestamp are settled by (tx id, source DC) — §IV-B — so the
    // winner is determined by the full version order, not ct alone.
    let order_a = (ct_a, c.clients[&alice].coordinator().dc);
    let order_b = (ct_b, c.clients[&bob].coordinator().dc);
    let winner = if order_b > order_a {
        "from-bob"
    } else {
        "from-alice"
    };
    for dc in [0u16, 1] {
        let sid = ServerId::new(DcId(dc), PartitionId(0));
        let latest = c.servers[&sid].store().latest(Key(0)).unwrap();
        assert_eq!(
            String::from_utf8_lossy(latest.value.as_bytes()),
            winner,
            "replica {sid} disagreed"
        );
    }

    // And readers see the winner.
    let carol = c.add_client(2, 0, Mode::Paris);
    c.begin(carol);
    assert_eq!(c.value_of(carol, Key(0)), Some(winner.into()));
}

#[test]
fn garbage_collection_trims_old_versions_but_preserves_reads() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    let alice = c.add_client(0, 0, Mode::Paris);
    c.advance(10_000);

    for i in 0..5 {
        c.begin(alice);
        c.write(alice, Key(0), &format!("v{i}"));
        c.commit(alice);
        c.tick_all();
    }
    for _ in 0..4 {
        c.tick_all();
    }

    let sid = ServerId::new(DcId(0), PartitionId(0));
    let before = c.servers[&sid].store().chain(Key(0)).unwrap().len();
    assert!(before >= 5);

    let s_old = c.servers[&sid].s_old();
    assert!(s_old > Timestamp::ZERO, "GC horizon must advance");
    // GC trims to the horizon of the previous tick: the first tick learns
    // `S_old`, the second trims to it.
    let removed: usize = {
        let server = c.servers.get_mut(&sid).unwrap();
        server.on_gc_tick(0);
        server.on_gc_tick(0)
    };
    assert!(removed > 0, "old versions must be collected");

    // The latest value is still served.
    let bob = c.add_client(1, 0, Mode::Paris);
    c.begin(bob);
    assert_eq!(c.value_of(bob, Key(0)), Some("v4".into()));
}

#[test]
fn stale_context_cleanup_removes_abandoned_transactions() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    let alice = c.add_client(0, 0, Mode::Paris);
    c.advance(10_000);
    c.begin(alice); // never committed (client "fails")
    let coord = c.clients[&alice].coordinator();
    assert_eq!(c.servers[&coord].open_transactions(), 1);
    c.advance(60_000_000); // one minute later
    let dropped = c
        .servers
        .get_mut(&coord)
        .unwrap()
        .cleanup_stale_contexts(c.now, 30_000_000);
    assert_eq!(dropped, 1);
    assert_eq!(c.servers[&coord].open_transactions(), 0);
}

#[test]
fn an_abandoned_context_is_reclaimed_on_the_gc_tick_and_releases_the_gc_horizon() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    let alice = c.add_client(0, 0, Mode::Paris);
    c.advance(10_000);
    for _ in 0..3 {
        c.tick_all();
    }
    c.begin(alice);
    let pinned = c.clients[&alice].open_snapshot().unwrap();
    let abandoned = c.clients[&alice].open_tx().unwrap();
    // The client gives up mid-transaction (a transport timeout, say); its
    // coordinator context stays behind.
    c.clients.get_mut(&alice).unwrap().reset();
    let coord = c.clients[&alice].coordinator();
    for _ in 0..5 {
        c.tick_all();
    }
    c.gc_all();
    assert!(c.min_ust() > pinned, "the UST moves on");
    assert_eq!(c.servers[&coord].open_transactions(), 1);
    assert!(
        c.servers.values().all(|s| s.s_old() <= pinned),
        "an open context pins S_old, so GC everywhere"
    );
    // Past the timeout, the GC tick reclaims it — and GC resumes.
    c.advance(STALE_CONTEXT_MICROS);
    c.gc_all();
    assert_eq!(c.servers[&coord].open_transactions(), 0);
    for _ in 0..3 {
        c.tick_all();
    }
    assert!(c.servers.values().all(|s| s.s_old() > pinned));
    // A client that comes back to the reclaimed transaction is told so.
    let late = Envelope::new(
        alice,
        coord,
        paris_proto::Msg::CommitReq {
            tx: paris_proto::TxRef::Known(abandoned),
            hwt: Timestamp::ZERO,
            writes: vec![],
        },
    );
    let out = c.servers.get_mut(&coord).unwrap().handle(&late, c.now);
    assert!(matches!(out[0].msg, paris_proto::Msg::OpFailed { tx, .. } if tx == abandoned));
}

#[test]
fn deferred_begins_read_their_own_writes_and_then_the_stable_snapshot() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    let alice = c.add_client(0, 0, Mode::Paris);
    c.advance(10_000);
    // A write-only transaction: its commit carries its start.
    c.begin_deferred(alice);
    c.write(alice, Key(1), "mine");
    let ct = c.commit(alice);
    let coord = c.clients[&alice].coordinator();
    assert_eq!(c.servers[&coord].open_transactions(), 0);
    assert_eq!(
        c.servers[&coord].stats().msgs_handled,
        2,
        "the CommitReq and its PrepareResp: no StartTxReq"
    );

    // Not stable yet: the first read carries the start and the own write,
    // and the coordinator answers it without a slice read.
    c.begin_deferred(alice);
    assert_eq!(c.value_of(alice, Key(1)), Some("mine".into()));
    assert!(c.clients[&alice].open_snapshot().unwrap() < ct);
    let slice_reads: u64 = c.servers.values().map(|s| s.stats().slice_reads).sum();
    assert_eq!(slice_reads, 0);
    c.commit(alice);

    // Stable: the snapshot holds the write, the server serves it, and the
    // start prunes it from WC_c.
    for _ in 0..5 {
        c.tick_all();
    }
    c.begin_deferred(alice);
    assert_eq!(c.value_of(alice, Key(1)), Some("mine".into()));
    assert!(c.clients[&alice].open_snapshot().unwrap() >= ct);
    assert_eq!(c.clients[&alice].cache_len(), 0, "pruned by ust_c");
    c.commit(alice);
    assert_eq!(c.servers[&coord].open_transactions(), 0);
}

#[test]
fn read_only_commit_releases_coordinator_context() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    let alice = c.add_client(0, 0, Mode::Paris);
    c.advance(10_000);
    c.begin(alice);
    c.read(alice, &[Key(0)]);
    let coord = c.clients[&alice].coordinator();
    assert_eq!(c.servers[&coord].open_transactions(), 1);
    let ct = c.commit(alice);
    assert_eq!(ct, Timestamp::ZERO, "read-only commit carries no timestamp");
    assert_eq!(c.servers[&coord].open_transactions(), 0);
}

#[test]
fn replication_is_idempotent_under_duplicate_delivery() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    let alice = c.add_client(0, 0, Mode::Paris);
    c.advance(10_000);
    c.begin(alice);
    c.write(alice, Key(0), "once");
    c.commit(alice);

    // Capture the replicate batch from DC0's partition-0 replica and
    // deliver it twice to the peer.
    c.advance(1_000);
    let src = ServerId::new(DcId(0), PartitionId(0));
    let out = c.servers.get_mut(&src).unwrap().on_replicate_tick(c.now);
    let replicate: Vec<Envelope> = out
        .iter()
        .filter(|e| matches!(e.msg, paris_proto::Msg::Replicate { .. }))
        .cloned()
        .collect();
    assert_eq!(replicate.len(), 1);
    for env in out {
        c.queue.push_back(env);
    }
    c.pump();
    // Duplicate delivery.
    c.queue.push_back(replicate[0].clone());
    c.pump();

    let peer = ServerId::new(DcId(1), PartitionId(0));
    let chain = c.servers[&peer].store().chain(Key(0)).unwrap();
    assert_eq!(
        chain.len(),
        1,
        "duplicate replication must not fork versions"
    );
}

// ------------------------------------------------------ where commits go

type Wire = Vec<(Endpoint, Endpoint, &'static str)>;

/// Commits `client`'s open transaction after writing one key on each of
/// `partitions`, and returns the id it committed under, every message the
/// commit put on the wire, from the `CommitReq` to the last, and the hops
/// the client waited: the messages on the causal path from its
/// `CommitReq` to the reply.
fn commit_writing(
    c: &mut PumpedCluster,
    client: ClientId,
    partitions: &[u32],
) -> (TxId, Wire, usize) {
    let writes: Vec<(Key, Value)> = partitions
        .iter()
        .map(|&p| (c.topo.key_at(PartitionId(p), 0), Value::from("w")))
        .collect();
    let session = c.clients.get_mut(&client).unwrap();
    session.write(&writes).unwrap();
    c.wire.clear();
    c.advance(10);
    let env = c.clients.get_mut(&client).unwrap().commit().unwrap();
    // The pump, each message tagged with its hop on its causal path.
    let (mut queue, mut waited) = (VecDeque::from([(env, 1)]), None);
    while let Some((env, hop)) = queue.pop_front() {
        if env.dst == Endpoint::Client(client) {
            waited = Some(hop);
        }
        let out = c.deliver(&env);
        queue.extend(out.into_iter().map(|env| (env, hop + 1)));
    }
    match c.events.pop() {
        Some((cid, ClientEvent::Committed { tx, ct, .. })) => {
            assert_eq!(cid, client);
            assert!(ct > Timestamp::ZERO, "the writes committed");
            let waited = waited.expect("the client was answered");
            (tx, std::mem::take(&mut c.wire), waited)
        }
        other => panic!("expected Committed, got {other:?}"),
    }
}

fn kinds(wire: &[(Endpoint, Endpoint, &'static str)]) -> Vec<&'static str> {
    wire.iter().map(|(_, _, kind)| *kind).collect()
}

/// On 3 DCs × 6 partitions, R = 2, DC 0 hosts partitions 0, 2, 3 and 5,
/// and the client of sequence 1 there has its coordinator on partition 2.
/// A picked commit writing a partition hosted in DC 0 goes to the local
/// server of the written partition first after partition 2 (cyclically),
/// which holds a share: one partition costs `CommitReq` and `CommitResp`
/// only, two commit last-agent, and three are decided by the first other
/// participant after that server, to which the third votes. Every other
/// commit goes to the coordinator: writes on no partition DC 0 hosts, a
/// start form, an eagerly begun id and BPR.
#[test]
fn picked_commits_go_to_a_written_partition_and_the_rest_to_the_coordinator() {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    c.advance(10_000);
    let alice = c.add_routed_client(0, 1, Mode::Paris);
    let home = c.clients[&alice].coordinator();
    assert_eq!(home, ServerId::new(DcId(0), PartitionId(2)));
    let at = |p: u32| ServerId::new(DcId(0), PartitionId(p));
    let (client, server) = (Endpoint::Client(alice), |p: u32| Endpoint::Server(at(p)));
    let went_home = |tx: TxId, wire: &[(Endpoint, Endpoint, &str)]| {
        assert_eq!(wire[0], (client, Endpoint::Server(home), "CommitReq"));
        assert_eq!(tx.coordinator(), home, "the coordinator assigned the id");
    };
    c.tick_all();

    // A fresh session carries its start, to the coordinator.
    c.begin_deferred(alice);
    let (tx, wire, _) = commit_writing(&mut c, alice, &[3]);
    went_home(tx, &wire);
    assert!(c.clients[&alice].ust() > Timestamp::ZERO);

    // One local partition, not the coordinator's: 2 messages, 2 hops.
    c.begin_deferred(alice);
    let (tx, wire, _) = commit_writing(&mut c, alice, &[3]);
    assert_eq!(
        wire,
        [
            (client, server(3), "CommitReq"),
            (server(3), client, "CommitResp")
        ]
    );
    assert_eq!(
        tx.coordinator(),
        at(3),
        "the id names the server it reached"
    );

    // Two local partitions, neither the coordinator's: partition 3 comes
    // first after 2 and decides last-agent with 5, with no 2PC.
    c.begin_deferred(alice);
    let (tx, wire, _) = commit_writing(&mut c, alice, &[5, 3]);
    assert_eq!(
        wire,
        [
            (client, server(3), "CommitReq"),
            (server(3), server(5), "CommitOne"),
            (server(5), client, "CommitResp"),
            (server(5), server(3), "CommitTx"),
        ]
    );
    assert_eq!(tx.coordinator(), at(3));
    // Cyclically, partition 5 comes before 0.
    c.begin_deferred(alice);
    let (tx, wire, _) = commit_writing(&mut c, alice, &[0, 5]);
    assert_eq!(tx.coordinator(), at(5));
    assert_eq!(
        kinds(&wire),
        ["CommitReq", "CommitOne", "CommitResp", "CommitTx"]
    );
    // A remote partition beside a local one: the local one, last-agent.
    c.begin_deferred(alice);
    let (tx, wire, _) = commit_writing(&mut c, alice, &[4, 0]);
    assert_eq!(tx.coordinator(), at(0));
    assert_eq!(
        kinds(&wire),
        ["CommitReq", "CommitOne", "CommitResp", "CommitTx"]
    );
    // The coordinator's own partition written: the coordinator.
    c.begin_deferred(alice);
    let (tx, wire, _) = commit_writing(&mut c, alice, &[0, 2]);
    went_home(tx, &wire);
    assert_eq!(
        kinds(&wire),
        ["CommitReq", "CommitOne", "CommitResp", "CommitTx"]
    );

    // Three local partitions: partition 3 prepares its share and sends 0,
    // the middle, a `PrepareReq` that names 5 the decider and carries 5's
    // share; 0 votes to 5 by passing the share on, and 5 decides. 6
    // messages where 2PC costs 8, in 2PC's four hops.
    c.begin_deferred(alice);
    let (tx, wire, hops) = commit_writing(&mut c, alice, &[3, 5, 0]);
    assert_eq!(tx.coordinator(), at(3));
    assert_eq!(
        wire,
        [
            (client, server(3), "CommitReq"),
            (server(3), server(0), "PrepareReq"),
            (server(0), server(5), "CommitOne"),
            (server(5), client, "CommitResp"),
            (server(5), server(3), "CommitTx"),
            (server(5), server(0), "CommitTx"),
        ]
    );
    assert_eq!(hops, 4);

    // Still to the coordinator: no written partition hosted in DC 0 ...
    c.begin_deferred(alice);
    let (tx, wire, _) = commit_writing(&mut c, alice, &[1]);
    went_home(tx, &wire);
    assert_eq!(kinds(&wire), ["CommitReq", "CommitOne", "CommitResp"]);
    // ... which holds no share. A participant would decide all the same,
    // but partition 1's replica is in DC 2 and 4's in DC 1: either one
    // deciding would put a WAN hop between the other's vote and the
    // client's reply, so this commit keeps 2PC.
    c.begin_deferred(alice);
    let (tx, wire, hops) = commit_writing(&mut c, alice, &[1, 4]);
    went_home(tx, &wire);
    assert_eq!(
        kinds(&wire),
        [
            "CommitReq",
            "PrepareReq",
            "PrepareReq",
            "PrepareResp",
            "PrepareResp",
            "CommitTx",
            "CommitTx",
            "CommitResp"
        ]
    );
    assert_eq!(hops, 4);
    // ... and an eagerly begun id.
    c.begin(alice);
    let (tx, wire, _) = commit_writing(&mut c, alice, &[3]);
    went_home(tx, &wire);
    assert_eq!(kinds(&wire), ["CommitReq", "CommitOne", "CommitResp"]);

    c.tick_all();
    assert_eq!(c.check_convergence(), Vec::<String>::new());
    assert_eq!(c.total(|s| s.orphan_commits), 0);

    // BPR never picks: its commits go to the coordinator, started or
    // carried.
    let mut b = PumpedCluster::new(3, 6, 2, Mode::Bpr);
    b.advance(10_000);
    let bob = b.add_routed_client(0, 1, Mode::Bpr);
    b.tick_all();
    for eager in [false, true, false] {
        if eager {
            b.begin(bob);
        } else {
            b.begin_deferred(bob);
        }
        let (tx, wire, _) = commit_writing(&mut b, bob, &[3]);
        assert_eq!(
            wire[0],
            (Endpoint::Client(bob), Endpoint::Server(home), "CommitReq")
        );
        assert_eq!(tx.coordinator(), home);
    }
}

/// A commit's messages by kind.
fn tally(wire: &[(Endpoint, Endpoint, &'static str)]) -> BTreeMap<&'static str, usize> {
    let mut tally = BTreeMap::new();
    for kind in kinds(wire) {
        *tally.entry(kind).or_default() += 1;
    }
    tally
}

/// How a commit is run, as the coordinator docs tell.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    /// One phase on one partition, or a participant decides.
    Decided,
    /// The coordinator's 2PC.
    TwoPhase,
}

/// The exact messages of each kind a commit of `n` partitions costs on
/// `path`, counting `CommitReq` and `CommitResp`, when the server its
/// `CommitReq` reaches holds a share (`own`) or none. Decided: 2 on one
/// partition with a share, 4 on two, 3n − 3 on more; 3 on one partition
/// without, 3n − 1 on more. 2PC: 3n − 1 with a share, 3n + 2 without.
fn cost(n: usize, own: bool, path: Path) -> BTreeMap<&'static str, usize> {
    let others = n - usize::from(own);
    let mut cost = BTreeMap::from([("CommitReq", 1), ("CommitResp", 1)]);
    let mut add = |kind, count| {
        if count > 0 {
            cost.insert(kind, count);
        }
    };
    match path {
        Path::Decided => {
            // The decider gets its share from the coordinator or a middle;
            // every middle but that one votes with a `PrepareResp`.
            let middles = others.saturating_sub(1);
            add("PrepareReq", middles);
            add("PrepareResp", middles.saturating_sub(1));
            add("CommitOne", usize::from(others > 0));
            add("CommitTx", n - 1);
        }
        Path::TwoPhase => {
            add("PrepareReq", others);
            add("PrepareResp", others);
            add("CommitTx", others);
        }
    }
    cost
}

/// The hops the client waits for that commit: 2PC's are its four, or two
/// on a share in place; a decided one adds no hop to them — it saves one
/// where the coordinator hands the decider its share directly.
fn hops(n: usize, own: bool, path: Path) -> usize {
    let others = n - usize::from(own);
    match (path, others) {
        (_, 0) => 2,
        (Path::Decided, 1) => 3,
        _ => 4,
    }
}

/// Every commit form on 1 to 5 written partitions costs exactly the
/// messages the coordinator docs count, by kind — so one `CommitTx` or
/// `PrepareResp` too many fails it — and keeps 2PC's hops: a picked commit
/// with a local share and without, a known one whose coordinator holds a
/// share and one whose coordinator holds none, a start form, and BPR,
/// which keeps 2PC but for its one-phase and last-agent shapes. So does a
/// commit whose decider could sit only in another DC than some middle,
/// which would add a WAN hop.
#[test]
fn every_commit_costs_exactly_its_counted_messages() {
    // 3 DCs × 15 partitions, R = 1: partition p lives in DC p mod 3, and
    // the client of sequence 1 in DC 0 has its coordinator on partition 3.
    let dc_of = |p: &u32| p % 3;
    for mode in [Mode::Paris, Mode::Bpr] {
        let mut c = PumpedCluster::new(3, 15, 1, mode);
        c.advance(10_000);
        let alice = c.add_routed_client(0, 1, mode);
        let home = c.clients[&alice].coordinator();
        assert_eq!(home, ServerId::new(DcId(0), PartitionId(3)));
        c.tick_all();
        // The first commit carries the start; once it learned a UST, a
        // PaRiS session picks.
        c.begin_deferred(alice);
        commit_writing(&mut c, alice, &[3]);
        for n in 1..=5 {
            // Each case's written partitions, the first `n` of its list.
            let cases: [(&str, [u32; 5]); 9] = [
                ("known, coordinator's share", [3, 1, 4, 7, 10]),
                (
                    "known, coordinator's share, others across DCs",
                    [3, 1, 2, 4, 5],
                ),
                ("known, no share", [1, 4, 7, 10, 13]),
                ("known, no share, across DCs", [1, 2, 4, 5, 7]),
                ("picked, local share", [6, 9, 12, 0, 1]),
                ("picked, none local", [1, 4, 7, 10, 13]),
                ("picked, none local, across DCs", [1, 2, 4, 5, 7]),
                ("start, coordinator's share", [3, 1, 4, 7, 10]),
                ("start, no share", [1, 4, 7, 10, 13]),
            ];
            for (case, written) in cases {
                let written = &written[..n];
                let form = case.split(',').next().unwrap();
                if mode == Mode::Bpr && form == "picked" {
                    continue; // BPR never picks
                }
                // The local written partition first after 3 holds a share.
                let reached = match case {
                    "picked, local share" => ServerId::new(DcId(0), PartitionId(6)),
                    _ => home,
                };
                let own = written.contains(&reached.partition.0);
                let others: BTreeSet<u32> = written
                    .iter()
                    .filter(|p| **p != reached.partition.0)
                    .map(dc_of)
                    .collect();
                let adds_a_hop = !others.contains(&0) && others.len() > 1;
                let path = match (form, mode) {
                    ("start", _) => Path::TwoPhase,
                    _ if n == 1 => Path::Decided,
                    (_, Mode::Bpr) if own && n == 2 => Path::Decided,
                    (_, Mode::Paris) if !adds_a_hop => Path::Decided,
                    _ => Path::TwoPhase,
                };
                match form {
                    "known" => c.begin(alice),
                    "picked" => c.begin_deferred(alice),
                    _ => c.clients.get_mut(&alice).unwrap().begin_carried().unwrap(),
                }
                let (tx, wire, hops) = commit_writing(&mut c, alice, written);
                let what = format!("{mode:?}, {case}, {written:?}");
                assert_eq!(tally(&wire), cost(n, own, path), "{what}: {wire:?}");
                assert_eq!(wire[0].1, Endpoint::Server(reached), "{what}");
                assert_eq!(tx.coordinator(), reached, "{what}");
                assert_eq!(hops, self::hops(n, own, path), "{what}");
            }
        }
        c.tick_all();
        assert_eq!(c.check_convergence(), Vec::<String>::new());
        assert_eq!(c.total(|s| s.orphan_commits), 0);
        assert!(c.servers.values().all(|s| s.open_vote_sets() == 0));
    }
}

// ------------------------------------------------ eager vs deferred begins

/// 8 keys per partition.
const STREAM_KEYS: u64 = 48;
/// The keys above this one are written once, up front, and only read
/// afterwards.
const QUIET_FROM: u64 = 40;
const VALUE_LEN: usize = 64;

/// One transaction of a stream, with its writer's id still to be learned
/// (a version read later carries its writer's).
struct Observed {
    client: ClientId,
    snapshot: Timestamp,
    reads: Vec<ClientRead>,
    writes: Vec<Key>,
    ct: Timestamp,
}

/// Everything one run of the stream produced.
struct Outcome {
    /// Every read batch, in issue order, sorted by key, with the snapshot
    /// it was read at; each version's writer named by its history index
    /// (see [`by_writer`]).
    reads: Vec<(Timestamp, Vec<ClientRead>)>,
    violations: Vec<String>,
    txs_coordinated: u64,
    coordinator_reads: u64,
    /// Clients that ran a transaction of the stream.
    ran: u64,
    retries: u64,
}

/// Which transaction of `history` wrote each `(key, ct)`.
fn writers(history: &[Observed]) -> HashMap<(Key, Timestamp), usize> {
    let mut writer_of = HashMap::new();
    for (index, tx) in history.iter().enumerate() {
        for key in &tx.writes {
            writer_of.insert((*key, tx.ct), index);
        }
    }
    writer_of
}

/// The id no deployment assigns, naming `history[index]`.
fn writer_id(index: usize) -> TxId {
    TxId::new(
        ServerId::new(DcId(u16::MAX), PartitionId(u32::MAX)),
        index as u64,
    )
}

/// `reads` with every version's writer named by its index in `history`,
/// as [`check`] names it, instead of by the id and commit time its run
/// gave it. The server a commit reaches decides both: a picked commit
/// goes to a written partition's server rather than the session's
/// coordinator, so the id names that server, and the commit time is the
/// deciding server's HLC, whose logical part may differ where the physical
/// part cannot (one clock, no skew). Every other field is kept, the
/// commit time's physical part included.
fn by_writer(history: &[Observed], reads: &mut [(Timestamp, Vec<ClientRead>)]) {
    let writer_of = writers(history);
    let versions = reads.iter_mut().flat_map(|(_, batch)| batch.iter_mut());
    for version in versions.filter_map(|r| r.version.as_mut()) {
        let writer = writer_of[&(version.key, version.ut)];
        version.tx = writer_id(writer);
        version.ut = version.ut.with_logical(0);
    }
}

/// The checker's verdict on a stream's history.
fn check(history: &[Observed]) -> Vec<String> {
    let writer_of = writers(history);
    let mut learned: HashMap<usize, TxId> = HashMap::new();
    for version in history
        .iter()
        .flat_map(|tx| tx.reads.iter().filter_map(|r| r.version.as_ref()))
    {
        if let Some(&writer) = writer_of.get(&(version.key, version.ut)) {
            learned.insert(writer, version.tx);
        }
    }
    let mut checker = HistoryChecker::new();
    for (index, tx) in history.iter().enumerate() {
        // A writer nobody read keeps an id no deployment can produce.
        let id = learned
            .get(&index)
            .copied()
            .unwrap_or_else(|| writer_id(index));
        for key in &tx.writes {
            let order = VersionOrd {
                ut: tx.ct,
                tx: id,
                src: tx.client.dc,
            };
            checker.record_versions(*key, [order]);
        }
        checker.record_tx(
            tx.client,
            RecordedTx {
                tx: id,
                snapshot: tx.snapshot,
                reads: tx.reads.iter().map(HistoryChecker::recorded_read).collect(),
                writes: tx.writes.clone(),
                ct: Some(tx.ct),
            },
        );
    }
    checker.check().iter().map(ToString::to_string).collect()
}

/// Runs `steps` seeded transactions — readers and writers in DC 0,
/// concurrent writers in DC 1 — on 3 DCs × 6 partitions, R = 2, with
/// every begin eager or every begin deferred: to the first read, or —
/// once the client has learned a UST — picked at the client. The clock
/// steps 10 µs before every begin and commit and never before a read.
/// After each round of ticks, every client that ran opens and closes an
/// empty transaction, begun as the run begins the others: the reply that
/// closes it teaches the client the new UST — in the deferred run, the
/// reply to a picked commit.
fn drive(seed: u64, steps: usize, deferred: bool) -> Outcome {
    let mut c = PumpedCluster::new(3, 6, 2, Mode::Paris);
    c.advance(1_000);
    let mut rng = StdRng::seed_from_u64(seed);
    let clients: Vec<ClientId> = [(0, 0), (0, 1), (1, 0), (1, 1)]
        .iter()
        .map(|&(dc, seq)| c.add_routed_client(dc, seq, Mode::Paris))
        .collect();
    let begin = |c: &mut PumpedCluster, client: ClientId, deferred: bool| {
        c.advance(10);
        if deferred {
            c.begin_deferred(client);
        } else {
            c.begin(client);
        }
    };
    let commit = |c: &mut PumpedCluster, client: ClientId| {
        c.advance(10);
        c.commit(client)
    };

    // Every key gets a first version; the quiet keys never get another.
    let preload: Vec<(Key, Value)> = (0..STREAM_KEYS)
        .map(|k| (Key(k), Value::filled(VALUE_LEN, k)))
        .collect();
    begin(&mut c, clients[2], false);
    let snapshot = c.clients[&clients[2]].open_snapshot().unwrap();
    c.clients
        .get_mut(&clients[2])
        .unwrap()
        .write(&preload)
        .unwrap();
    let ct = commit(&mut c, clients[2]);
    let mut history = vec![Observed {
        client: clients[2],
        snapshot,
        reads: Vec::new(),
        writes: preload.iter().map(|(k, _)| *k).collect(),
        ct,
    }];
    for _ in 0..4 {
        c.tick_all();
    }

    let mut reads = Vec::new();
    let mut ran = BTreeSet::new();
    for step in 0..steps {
        let client = clients[rng.gen_range(0..clients.len())];
        ran.insert(client);
        begin(&mut c, client, deferred);
        // Skewed towards the low keys, with a couple of quiet keys in most
        // batches; duplicates are welcome.
        let mut keys: Vec<Key> = (0..rng.gen_range(1..6))
            .map(|_| {
                Key(rng
                    .gen_range(0..QUIET_FROM)
                    .min(rng.gen_range(0..QUIET_FROM)))
            })
            .collect();
        for _ in 0..rng.gen_range(0..3) {
            keys.push(Key(rng.gen_range(QUIET_FROM..STREAM_KEYS)));
        }
        let mut got = c.read_full(client, &keys);
        got.sort_by_key(|r| r.key);
        let snapshot = c.clients[&client].open_snapshot().unwrap();
        let mut writes = Vec::new();
        if rng.gen::<f64>() < 0.5 {
            for _ in 0..rng.gen_range(1..4) {
                let key = Key(rng.gen_range(0..QUIET_FROM));
                writes.push((key, Value::filled(VALUE_LEN, step as u64)));
            }
            c.clients.get_mut(&client).unwrap().write(&writes).unwrap();
        }
        let ct = commit(&mut c, client);
        reads.push((snapshot, got.clone()));
        history.push(Observed {
            client,
            snapshot,
            reads: got,
            writes: writes.iter().map(|(k, _)| *k).collect(),
            ct,
        });
        if step % 3 == 0 {
            c.tick_all();
            // The clients that ran learn the new UST, as a closed-loop
            // client does from its next reply.
            for client in &ran {
                begin(&mut c, *client, deferred);
                commit(&mut c, *client);
            }
        }
    }
    for _ in 0..4 {
        c.tick_all();
    }
    let mut violations = check(&history);
    violations.extend(c.check_convergence());
    by_writer(&history, &mut reads);
    Outcome {
        reads,
        violations,
        txs_coordinated: c.total(|s| s.txs_coordinated),
        coordinator_reads: c.total(|s| s.coordinator_reads),
        ran: ran.len() as u64,
        retries: c.retries,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn prop_reads_are_identical_with_eager_and_deferred_begins(seed in 0u64..10_000) {
        let eager = drive(seed, 160, false);
        let deferred = drive(seed, 160, true);
        prop_assert_eq!(&eager.violations, &Vec::<String>::new());
        prop_assert_eq!(&deferred.violations, &Vec::<String>::new());
        prop_assert_eq!(eager.reads.len(), deferred.reads.len());
        // A picked snapshot is the client's `ust_c`. Every client that ran
        // learns the UST after each round of ticks — in the deferred run
        // from its picked commit's reply — and between two rounds its
        // replies name no other, so each pick is the snapshot the eager
        // begin was assigned: every batch is compared, each version's
        // writer named by its place in the stream (`by_writer`).
        for (step, (a, b)) in eager.reads.iter().zip(&deferred.reads).enumerate() {
            prop_assert_eq!(a.0, b.0, "snapshot of read batch {}", step);
            prop_assert_eq!(&a.1, &b.1, "read batch {} differs", step);
        }
        // The same transactions committed. An eager begin knows its
        // snapshot, so its reads went straight to the replicas. A deferred
        // begin picks its client's `ust_c` once the client has one, and
        // reads straight from the replicas too: only the first transaction
        // of each client carries its start in the read — all four; the
        // preload's writer learned only the UST of zero its eager begin
        // was assigned before any tick — and no read is refused and
        // re-sent, as the stream runs no GC tick.
        prop_assert_eq!(eager.txs_coordinated, deferred.txs_coordinated);
        prop_assert_eq!((eager.coordinator_reads, eager.retries), (0, 0));
        prop_assert_eq!((deferred.ran, deferred.retries), (4, 0));
        prop_assert_eq!(deferred.coordinator_reads, 4);
    }
}
