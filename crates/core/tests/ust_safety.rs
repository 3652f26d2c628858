//! Property tests of the UST safety invariant under randomized schedules.
//!
//! The paper's Proposition 2 plus the UST definition give the key safety
//! property: `ust ≤ min over all servers of their installed watermark` —
//! a server never believes a snapshot is universally installed while some
//! replica has not applied it. We drive a small cluster with *randomized*
//! interleavings of client operations, replicate/gossip ticks and message
//! deliveries (FIFO per link, as the network guarantees) and assert the
//! invariant at every step, plus the derived guarantee that every version
//! with `ut ≤ ust` is present at every replica of its partition.
//!
//! The same harness pins push-on-arrival stabilisation (see
//! `server::stabilization`): behind batched links a commit is universally
//! stable after *one replicate tick everywhere* — no ∆G or ∆U tick fires —
//! in any per-link-FIFO delivery order; with batching off the same
//! arrivals return nothing and the ticks are the whole schedule, as in the
//! paper.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use paris_clock::SimClock;
use paris_core::{ClientSession, Mode, ReadStep, Server, ServerOptions, Topology};
use paris_proto::{Endpoint, Envelope};
use paris_types::{BatchConfig, ClientId, ClusterConfig, DcId, Key, ServerId, Timestamp, Value};
use proptest::prelude::*;

struct RandomizedCluster {
    topo: Arc<Topology>,
    clock: SimClock,
    servers: HashMap<ServerId, Server>,
    clients: HashMap<ClientId, ClientSession>,
    /// Per ordered (src, dst) link: FIFO queues (the network guarantee).
    links: HashMap<(Endpoint, Endpoint), VecDeque<Envelope>>,
    now: u64,
}

#[derive(Debug, Clone)]
enum Step {
    /// Deliver the head of the k-th non-empty link.
    Deliver(usize),
    /// Replicate tick on the k-th server.
    Replicate(usize),
    /// GST tick on the k-th server.
    Gst(usize),
    /// UST tick on the k-th server.
    Ust(usize),
    /// Client op: begin/write/commit cycle step for the k-th client.
    Client(usize),
    /// Advance the shared clock.
    Advance(u64),
}

impl RandomizedCluster {
    fn new(mode: Mode) -> Self {
        RandomizedCluster::of_shape(mode, 3, None)
    }

    /// `n` DCs × `n` partitions, R = 2, one client per DC, on the default
    /// batching policy or an explicit one.
    fn of_shape(mode: Mode, n: u16, batch: Option<BatchConfig>) -> Self {
        let mut cfg = ClusterConfig::builder()
            .dcs(n)
            .partitions(u32::from(n))
            .replication_factor(2)
            .max_clock_skew_micros(0);
        if let Some(batch) = batch {
            cfg = cfg.batch(batch);
        }
        let topo = Arc::new(Topology::new(cfg.build().unwrap()));
        let clock = SimClock::new();
        clock.advance_to(1_000);
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
                        record_events: true,
                    }),
                )
            })
            .collect();
        let mut clients = HashMap::new();
        for dc in 0..n {
            let id = ClientId::new(DcId(dc), 0);
            let coord = topo.coordinator_for(DcId(dc), 0);
            clients.insert(id, ClientSession::new(id, coord, mode));
        }
        RandomizedCluster {
            topo,
            clock,
            servers,
            clients,
            links: HashMap::new(),
            now: 1_000,
        }
    }

    fn enqueue(&mut self, envs: Vec<Envelope>) {
        for env in envs {
            self.links
                .entry((env.src, env.dst))
                .or_default()
                .push_back(env);
        }
    }

    fn non_empty_links(&self) -> Vec<(Endpoint, Endpoint)> {
        let mut keys: Vec<_> = self
            .links
            .iter()
            .filter(|(_, q)| !q.is_empty())
            .map(|(k, _)| *k)
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Delivers until every link is empty; returns how many deliveries
    /// that took.
    fn drain(&mut self) -> usize {
        let mut delivered = 0;
        while !self.non_empty_links().is_empty() {
            self.apply(&Step::Deliver(0));
            delivered += 1;
        }
        delivered
    }

    /// 2 DCs × 2 partitions holding one committed write and, a millisecond
    /// later, one replicate tick on every server — whose frames are still
    /// on the links. Returns the commit time too.
    fn committed_and_replicated(batch: Option<BatchConfig>) -> (Self, Timestamp) {
        let mut c = RandomizedCluster::of_shape(Mode::Paris, 2, batch);
        c.apply(&Step::Client(0));
        c.drain();
        c.apply(&Step::Advance(1_000));
        for k in 0..c.servers.len() {
            c.apply(&Step::Replicate(k));
        }
        // The tick applied the write at its origin: the version's update
        // time is the commit time.
        let mut ct = Timestamp::ZERO;
        for server in c.servers.values() {
            server.store().for_each_chain(&mut |_, chain| {
                ct = chain.iter().map(|v| v.ut).fold(ct, Timestamp::max);
            });
        }
        assert!(ct > Timestamp::ZERO, "the write committed and applied");
        (c, ct)
    }

    fn sorted_servers(&self) -> Vec<ServerId> {
        let mut v: Vec<_> = self.servers.keys().copied().collect();
        v.sort_unstable();
        v
    }

    fn apply(&mut self, step: &Step) {
        match step {
            Step::Advance(d) => {
                self.now += d;
                self.clock.advance_to(self.now);
            }
            Step::Deliver(k) => {
                let links = self.non_empty_links();
                if links.is_empty() {
                    return;
                }
                let link = links[k % links.len()];
                let env = self
                    .links
                    .get_mut(&link)
                    .and_then(VecDeque::pop_front)
                    .expect("non-empty");
                match env.dst {
                    Endpoint::Server(sid) => {
                        let out = self.servers.get_mut(&sid).unwrap().handle(&env, self.now);
                        self.enqueue(out);
                    }
                    Endpoint::Client(cid) => {
                        // Drive the client forward on events.
                        let mut follow_ups = Vec::new();
                        if let Some(session) = self.clients.get_mut(&cid) {
                            if let Some(ev) = session.handle(&env) {
                                match ev {
                                    paris_core::ClientEvent::Started { .. } => {
                                        let key = Key(u64::from(cid.dc.0)); // partition = dc
                                        session
                                            .write(&[(key, Value::filled(8, self.now))])
                                            .unwrap();
                                        follow_ups.push(session.commit().unwrap());
                                    }
                                    paris_core::ClientEvent::ReadDone { .. }
                                    | paris_core::ClientEvent::Committed { .. }
                                    | paris_core::ClientEvent::Aborted { .. } => {}
                                }
                            }
                        }
                        self.enqueue(follow_ups);
                    }
                }
            }
            Step::Replicate(k) => {
                let ids = self.sorted_servers();
                let id = ids[k % ids.len()];
                let out = self
                    .servers
                    .get_mut(&id)
                    .unwrap()
                    .on_replicate_tick(self.now);
                self.enqueue(out);
            }
            Step::Gst(k) => {
                let ids = self.sorted_servers();
                let id = ids[k % ids.len()];
                let out = self.servers.get_mut(&id).unwrap().on_gst_tick(self.now);
                self.enqueue(out);
            }
            Step::Ust(k) => {
                let ids = self.sorted_servers();
                let id = ids[k % ids.len()];
                let out = self.servers.get_mut(&id).unwrap().on_ust_tick(self.now);
                self.enqueue(out);
            }
            Step::Client(k) => {
                let mut ids: Vec<_> = self.clients.keys().copied().collect();
                ids.sort_unstable();
                let cid = ids[*k % ids.len()];
                let session = self.clients.get_mut(&cid).unwrap();
                if session.open_tx().is_none() {
                    if let Ok(env) = session.begin() {
                        self.enqueue(vec![env]);
                    }
                }
            }
        }
    }

    /// The invariant: every server's UST is ≤ every server's installed
    /// watermark (min over its version vector).
    fn assert_ust_safety(&self) {
        let min_watermark = self
            .servers
            .values()
            .map(|s| {
                s.version_vector()
                    .values()
                    .copied()
                    .min()
                    .unwrap_or(Timestamp::ZERO)
            })
            .min()
            .unwrap();
        for server in self.servers.values() {
            assert!(
                server.ust() <= min_watermark,
                "{}: ust {:?} exceeds global installed watermark {:?}",
                server.id(),
                server.ust(),
                min_watermark
            );
        }
    }

    /// The Proposition-2 guarantee both modes rely on: a replica whose
    /// installed watermark (min over its version vector) is `w` holds
    /// every version of its partition with `ut ≤ w` — checked against the
    /// union of versions across the replica group. BPR's blocking reads
    /// are correct exactly because of this.
    fn assert_installed_watermark_complete(&self) {
        for p in 0..self.topo.partitions() {
            let p = paris_types::PartitionId(p);
            let replicas = self.topo.replicas(p);
            let mut all: Vec<(paris_types::VersionOrd, Key)> = Vec::new();
            for dc in &replicas {
                self.servers[&ServerId::new(*dc, p)]
                    .store()
                    .for_each_chain(&mut |k, chain| {
                        all.extend(chain.iter().map(|v| (v.order(), k)));
                    });
            }
            for dc in &replicas {
                let server = &self.servers[&ServerId::new(*dc, p)];
                let watermark = server
                    .version_vector()
                    .values()
                    .copied()
                    .min()
                    .unwrap_or(Timestamp::ZERO);
                for (v, key) in &all {
                    if v.ut > watermark {
                        continue;
                    }
                    let present = server
                        .store()
                        .chain(*key)
                        .is_some_and(|c| c.iter().any(|w| w.order() == *v));
                    assert!(
                        present,
                        "{}: claims watermark {watermark:?} but misses {v:?} of {key}",
                        server.id()
                    );
                }
            }
        }
    }

    /// Derived guarantee: every version with `ut ≤ global ust` exists at
    /// every replica of its partition.
    fn assert_stable_versions_everywhere(&self) {
        let ust = self.servers.values().map(Server::ust).max().unwrap();
        for p in 0..self.topo.partitions() {
            let p = paris_types::PartitionId(p);
            let replicas = self.topo.replicas(p);
            // Union of stable versions across replicas…
            let mut stable: Vec<paris_types::VersionOrd> = Vec::new();
            for dc in &replicas {
                let server = &self.servers[&ServerId::new(*dc, p)];
                server.store().for_each_chain(&mut |_, chain| {
                    stable.extend(chain.iter().filter(|v| v.ut <= ust).map(|v| v.order()));
                });
            }
            // …must be present at every replica.
            for dc in &replicas {
                let server = &self.servers[&ServerId::new(*dc, p)];
                for v in &stable {
                    let mut found = false;
                    server.store().for_each_chain(&mut |_, chain| {
                        if !found {
                            found = chain.iter().any(|w| w.order() == *v);
                        }
                    });
                    assert!(
                        found,
                        "version {v:?} (≤ ust {ust:?}) missing at replica {dc} of {p}"
                    );
                }
            }
        }
    }
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => any::<usize>().prop_map(Step::Deliver),
        2 => any::<usize>().prop_map(Step::Replicate),
        2 => any::<usize>().prop_map(Step::Gst),
        1 => any::<usize>().prop_map(Step::Ust),
        2 => any::<usize>().prop_map(Step::Client),
        2 => (1u64..5_000).prop_map(Step::Advance),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn prop_ust_never_exceeds_installed_watermark(
        steps in proptest::collection::vec(arb_step(), 50..400)
    ) {
        let mut cluster = RandomizedCluster::new(Mode::Paris);
        for step in &steps {
            cluster.apply(step);
            cluster.assert_ust_safety();
        }
        cluster.assert_stable_versions_everywhere();
    }

    #[test]
    fn prop_bpr_version_vectors_never_over_claim(
        steps in proptest::collection::vec(arb_step(), 50..300)
    ) {
        // BPR's blocking reads are correct because a replica's installed
        // watermark never over-claims: everything at or below it has been
        // applied (Proposition 2). Check after every step.
        let mut cluster = RandomizedCluster::new(Mode::Bpr);
        for step in &steps {
            cluster.apply(step);
        }
        cluster.assert_installed_watermark_complete();
    }

    #[test]
    fn prop_paris_watermarks_never_over_claim(
        steps in proptest::collection::vec(arb_step(), 50..300)
    ) {
        let mut cluster = RandomizedCluster::new(Mode::Paris);
        for step in &steps {
            cluster.apply(step);
        }
        cluster.assert_installed_watermark_complete();
    }
}

#[test]
fn reads_at_or_below_ust_always_succeed_everywhere() {
    // Deterministic companion: after any prefix of activity, start a
    // transaction anywhere — its snapshot is ≤ ust, and by the safety
    // property every replica can serve it without blocking.
    let mut cluster = RandomizedCluster::new(Mode::Paris);
    let steps: Vec<Step> = (0..300)
        .flat_map(|i| {
            vec![
                Step::Client(i),
                Step::Advance(1_000),
                Step::Replicate(i),
                Step::Deliver(i),
                Step::Deliver(i + 1),
                Step::Gst(i),
                Step::Deliver(i),
                Step::Gst(i + 1),
                Step::Deliver(i),
                Step::Ust(i),
                Step::Deliver(i),
                Step::Deliver(i + 2),
            ]
        })
        .collect();
    for step in &steps {
        cluster.apply(step);
    }
    // Drain, then run full stabilization rounds on every server so each
    // DC root recomputes and broadcasts its UST.
    cluster.drain();
    for round in 0..3 {
        let n = cluster.servers.len();
        for k in 0..n {
            cluster.apply(&Step::Replicate(k));
        }
        cluster.drain();
        for _ in 0..2 {
            for k in 0..n {
                cluster.apply(&Step::Gst(k));
            }
            cluster.drain();
        }
        for k in 0..n {
            cluster.apply(&Step::Ust(k));
        }
        cluster.drain();
        let _ = round;
    }
    cluster.assert_ust_safety();
    let ust = cluster.servers.values().map(Server::ust).min().unwrap();
    assert!(ust > Timestamp::ZERO, "activity must advance the UST");

    // A PaRiS read at the stable snapshot is served immediately by every
    // replica (the non-blocking property).
    let mut session = ClientSession::new(
        ClientId::new(DcId(0), 9),
        cluster.topo.coordinator_for(DcId(0), 9),
        Mode::Paris,
    );
    let begin = session.begin().unwrap();
    let coord = begin.dst.as_server().unwrap();
    let out = cluster
        .servers
        .get_mut(&coord)
        .unwrap()
        .handle(&begin, cluster.now);
    for env in &out {
        session.handle(env);
    }
    let step = session.read(&[Key(0), Key(1), Key(2)]).unwrap();
    if let ReadStep::Send(env) = step {
        let out = cluster
            .servers
            .get_mut(&coord)
            .unwrap()
            .handle(&env, cluster.now);
        // Every slice must be answerable; pump until the client has its
        // reads, never requiring a replicate tick (non-blocking).
        let mut queue: VecDeque<Envelope> = out.into();
        let mut done = false;
        let mut guard = 0;
        while let Some(env) = queue.pop_front() {
            guard += 1;
            assert!(guard < 1_000, "read did not complete");
            match env.dst {
                Endpoint::Server(sid) => {
                    queue.extend(
                        cluster
                            .servers
                            .get_mut(&sid)
                            .unwrap()
                            .handle(&env, cluster.now),
                    );
                }
                Endpoint::Client(_) => {
                    if let Some(paris_core::ClientEvent::ReadDone { .. }) = session.handle(&env) {
                        done = true;
                    }
                }
            }
        }
        assert!(done, "PaRiS read must complete without background ticks");
    }
}

#[test]
fn one_replicate_tick_everywhere_makes_a_commit_universally_stable() {
    let (mut c, ct) = RandomizedCluster::committed_and_replicated(None);
    c.drain();
    for (id, server) in &c.servers {
        assert!(
            server.ust() >= ct,
            "{id}: UST {:?} does not cover the commit at {ct:?} — and no ∆G/∆U tick fired",
            server.ust()
        );
        // fig4's visibility is computed from this log: the push path must
        // stamp it like the ticks do.
        let log = &server.events().expect("events recorded").ust_advances;
        assert!(
            log.iter().any(|(ust, at)| *ust >= ct && *at == c.now),
            "{id}: the advance was not stamped into the event log: {log:?}"
        );
    }
}

#[test]
fn on_unpaced_links_the_same_arrivals_return_no_stabilisation_frames() {
    // Batching off: without pacing, pushing would cost wire messages.
    let (mut c, _) = RandomizedCluster::committed_and_replicated(Some(BatchConfig::DISABLED));
    assert_eq!(
        c.drain(),
        4,
        "one replication frame per server and nothing in return"
    );
    for server in c.servers.values() {
        assert_eq!(server.ust(), Timestamp::ZERO, "only the ticks move the UST");
    }
    // The paper's schedule still gets there: ∆G, ∆G (the roots see
    // their children's reports), ∆U.
    for tick in [Step::Gst, Step::Gst, Step::Ust] {
        for k in 0..c.servers.len() {
            c.apply(&tick(k));
        }
        c.drain();
    }
    assert!(c.servers.values().all(|s| s.ust() > Timestamp::ZERO));
}

proptest! {
    /// Whatever per-link-FIFO order the frames of that round arrive in,
    /// every server's UST is monotone, never passes what every DC has
    /// installed, and ends up covering the commit.
    #[test]
    fn prop_pushed_ust_is_safe_and_live_under_any_fifo_delivery_order(
        picks in proptest::collection::vec(any::<usize>(), 64),
    ) {
        let (mut c, ct) = RandomizedCluster::committed_and_replicated(None);
        let mut seen: HashMap<ServerId, Timestamp> = HashMap::new();
        let mut picks = picks.into_iter().cycle();
        while !c.non_empty_links().is_empty() {
            c.apply(&Step::Deliver(picks.next().unwrap()));
            c.assert_ust_safety();
            for (id, server) in &c.servers {
                let before = seen.insert(*id, server.ust()).unwrap_or(Timestamp::ZERO);
                prop_assert!(server.ust() >= before, "{}: UST went backwards", id);
            }
        }
        for (id, server) in &c.servers {
            prop_assert!(server.ust() >= ct, "{}: UST never covered the commit", id);
        }
    }
}
