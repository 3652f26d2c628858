//! Version-validated reads change what crosses the wire and nothing else:
//! the same seeded operation stream — readers and writers in one DC,
//! concurrent writers in another — is run against two identical simulated
//! deployments, one whose sessions stamp their reads from a value cache and
//! one whose sessions have none, once with eager begins and once with
//! transactions that begin with their first read. Every read must return
//! the same `ClientRead`, the checker must find nothing, and the cached run
//! must ship strictly less. (Eager against deferred begins on one stream
//! needs a clock that only steps where the stream says so; that property
//! lives on the hand-pumped cluster of `paris-core`'s protocol tests.)

use std::collections::HashMap;

use paris_core::checker::{HistoryChecker, RecordedTx};
use paris_core::ClientRead;
use paris_runtime::{Cluster, ClusterBuilder, ClusterStats, Paris, SimCluster};
use paris_types::{ClientId, DcId, Key, PartitionId, ServerId, Timestamp, TxId, Value, VersionOrd};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Partial replication (3 DCs × 6 partitions, R = 2), so some slices are
/// served by a remote DC, over a keyspace small enough to be re-read.
fn deployment(seed: u64) -> ClusterBuilder {
    Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .keys_per_partition(8)
        .uniform_latency_micros(2_000)
        .jitter(0.02)
        .clients_per_dc(0)
        .seed(seed)
}

const KEYS: u64 = 48;
/// The keys above this one are written once, up front, and only read
/// afterwards: whatever the generated contention does to the others, these
/// re-reads validate.
const QUIET_FROM: u64 = 40;
const VALUE_LEN: usize = 64;

/// One transaction of the test's own history, with the writer's id still to
/// be learned (the facade does not reveal transaction ids; a version read
/// later carries its writer's).
struct Observed {
    client: ClientId,
    snapshot: Timestamp,
    reads: Vec<ClientRead>,
    writes: Vec<Key>,
    ct: Timestamp,
}

/// Everything one run produced.
struct Outcome {
    /// Every read batch, in issue order, sorted by key.
    reads: Vec<Vec<ClientRead>>,
    violations: Vec<String>,
    stats: ClusterStats,
}

fn check(history: &[Observed]) -> Vec<String> {
    let mut writer_of: HashMap<(Key, Timestamp), usize> = HashMap::new();
    for (index, tx) in history.iter().enumerate() {
        for key in &tx.writes {
            writer_of.insert((*key, tx.ct), index);
        }
    }
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
        let id = learned.get(&index).copied().unwrap_or_else(|| {
            TxId::new(
                ServerId::new(DcId(u16::MAX), PartitionId(u32::MAX)),
                index as u64,
            )
        });
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

/// How the stream's transactions begin.
trait Begins {
    fn cluster(&mut self) -> &mut dyn Cluster;
    /// Begins `client`'s transaction: its snapshot, if already assigned.
    fn begin(&mut self, client: ClientId) -> Option<Timestamp>;
    /// The open transaction's snapshot, once its first read assigned it.
    fn snapshot(&mut self, client: ClientId) -> Timestamp;
}

/// Through the facade: a `StartTxReq` round trip.
struct Eager<C>(C);

impl<C: Cluster> Begins for Eager<C> {
    fn cluster(&mut self) -> &mut dyn Cluster {
        &mut self.0
    }

    fn begin(&mut self, client: ClientId) -> Option<Timestamp> {
        Some(self.0.txn_begin(client).expect("begin"))
    }

    fn snapshot(&mut self, _: ClientId) -> Timestamp {
        unreachable!("eager begins know their snapshot")
    }
}

/// As a `run_workload` session's first transaction begins: the first
/// read carries the start.
struct Deferred<C>(C);

impl<C: Cluster> Begins for Deferred<C> {
    fn cluster(&mut self) -> &mut dyn Cluster {
        &mut self.0
    }

    fn begin(&mut self, client: ClientId) -> Option<Timestamp> {
        self.0.txn_begin_deferred(client).expect("begin");
        None
    }

    fn snapshot(&mut self, client: ClientId) -> Timestamp {
        self.0
            .txn_snapshot(client)
            .expect("the first read assigned it")
    }
}

/// Drives the seeded stream.
fn drive(begins: &mut impl Begins, seed: u64, steps: usize) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let cluster = begins.cluster();
    // Two sessions in DC 0, two concurrent writers in DC 1.
    let clients: Vec<ClientId> = [0, 0, 1, 1]
        .iter()
        .map(|dc| cluster.open_client(*dc).expect("valid DC"))
        .collect();
    let mut history = Vec::new();
    let mut reads = Vec::new();

    // Every key gets a first version; the quiet keys never get another.
    let preload: Vec<(Key, Value)> = (0..KEYS)
        .map(|k| (Key(k), Value::filled(VALUE_LEN, k)))
        .collect();
    let snapshot = cluster.txn_begin(clients[2]).expect("begin");
    cluster.txn_write(clients[2], &preload).expect("write");
    let ct = cluster.txn_commit(clients[2]).expect("commit");
    history.push(Observed {
        client: clients[2],
        snapshot,
        reads: Vec::new(),
        writes: preload.iter().map(|(k, _)| *k).collect(),
        ct,
    });
    cluster.stabilize(4);

    for step in 0..steps {
        let client = clients[rng.gen_range(0..clients.len())];
        let early = begins.begin(client);
        let cluster = begins.cluster();
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
            keys.push(Key(rng.gen_range(QUIET_FROM..KEYS)));
        }
        let mut got = cluster.txn_read(client, &keys).expect("read");
        got.sort_by_key(|r| r.key);
        let snapshot = early.unwrap_or_else(|| begins.snapshot(client));
        let cluster = begins.cluster();
        let mut writes = Vec::new();
        if rng.gen::<f64>() < 0.5 {
            for _ in 0..rng.gen_range(1..4) {
                let key = Key(rng.gen_range(0..QUIET_FROM));
                let value = Value::filled(VALUE_LEN, step as u64);
                writes.push((key, value));
            }
            cluster.txn_write(client, &writes).expect("write");
        }
        let ct = cluster.txn_commit(client).expect("commit");
        reads.push(got.clone());
        history.push(Observed {
            client,
            snapshot,
            reads: got,
            writes: writes.iter().map(|(k, _)| *k).collect(),
            ct,
        });
        if step % 3 == 0 {
            cluster.stabilize(1);
        }
    }
    let cluster = begins.cluster();
    cluster.stabilize(4);
    let convergence = cluster.check_convergence().expect("convergence check");
    let mut violations = check(&history);
    violations.extend(convergence.iter().map(ToString::to_string));
    Outcome {
        reads,
        violations,
        stats: cluster.stats().expect("stats"),
    }
}

/// Both runs are correct and returned the same reads.
fn assert_same_reads(what: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(a.violations, Vec::<String>::new(), "{what}");
    assert_eq!(b.violations, Vec::<String>::new(), "{what}");
    assert_eq!(a.reads.len(), b.reads.len());
    for (step, (a, b)) in a.reads.iter().zip(&b.reads).enumerate() {
        assert_eq!(a, b, "{what}: read batch {step} differs");
    }
}

/// The sim with its clients opened with or without a value cache.
fn sim(seed: u64, cache: bool) -> SimCluster {
    let mut sim = deployment(seed).build_sim().expect("valid shape");
    if !cache {
        sim.open_clients_without_value_cache();
    }
    sim
}

/// The same eager-begin stream on the sim, with and without a value cache.
fn eager_runs(seed: u64) -> (Outcome, Outcome) {
    let run = |cache: bool| drive(&mut Eager(sim(seed, cache)), seed, 160);
    (run(true), run(false))
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn prop_sim_cached_reads_ship_fewer_versions(seed in 0u64..10_000) {
        let (cached, plain) = eager_runs(seed);
        assert_same_reads("sim", &cached, &plain);
        let (on, off) = (&cached.stats, &plain.stats);
        prop_assert_eq!(off.reads_unchanged, 0, "nothing stamps without a cache");
        prop_assert!(on.reads_unchanged > 0, "no read was validated");
        // The servers did the same work for the same keys either way…
        prop_assert_eq!(on.keys_read, off.keys_read);
        prop_assert_eq!(
            on.reads_unchanged + on.reads_shipped,
            off.reads_shipped,
            "every validated read is one the plain run shipped"
        );
        // …and shipped fewer versions for it.
        prop_assert!(on.reads_shipped < off.reads_shipped);
    }

    #[test]
    fn prop_sim_reads_are_identical_with_and_without_the_value_cache(seed in 0u64..10_000) {
        let (cached, plain) = eager_runs(seed);
        assert_same_reads("sim", &cached, &plain);
        let (on, off) = (&cached.stats, &plain.stats);
        // A validated read is still one request and one reply…
        prop_assert_eq!(on.net_messages, off.net_messages);
        // …that carries less.
        prop_assert!(
            on.net_bytes < off.net_bytes,
            "{} vs {} wire bytes", on.net_bytes, off.net_bytes
        );
    }

    #[test]
    fn prop_sim_deferred_reads_are_identical_with_and_without_the_value_cache(
        seed in 0u64..10_000,
    ) {
        // Where start-form own-write stamps and the value cache meet.
        let run = |cache: bool| drive(&mut Deferred(sim(seed, cache)), seed, 160);
        let (cached, plain) = (run(true), run(false));
        assert_same_reads("sim, deferred begins", &cached, &plain);
        // A start form stamps its own writes with or without a cache, so
        // the plain run validates some reads too — fewer.
        let (on, off) = (&cached.stats, &plain.stats);
        prop_assert_eq!(on.keys_read, off.keys_read);
        prop_assert_eq!(
            on.reads_unchanged + on.reads_shipped,
            off.reads_unchanged + off.reads_shipped
        );
        prop_assert!(on.reads_shipped < off.reads_shipped);
    }
}
