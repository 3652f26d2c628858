//! Version-validated reads change what crosses the wire and nothing else:
//! the same seeded operation stream — readers and writers in one DC,
//! concurrent writers in another — is run against two identical
//! deployments, one whose sessions stamp their reads from a value cache and
//! one whose sessions have none, on the mini and the simulated backend.
//! Every read must return the same `ClientRead`, the checker must find
//! nothing, and the cached run must ship strictly less.

use std::collections::HashMap;

use paris_core::checker::{HistoryChecker, RecordedTx};
use paris_core::ClientRead;
use paris_runtime::{Cluster, ClusterBuilder, ClusterStats, MiniCluster, Paris, SimCluster};
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

/// Drives the seeded stream through the facade.
fn drive(cluster: &mut dyn Cluster, seed: u64, steps: usize) -> Outcome {
    let mut rng = StdRng::seed_from_u64(seed);
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
        let snapshot = cluster.txn_begin(client).expect("begin");
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

/// What both backends must show, given the cached and the uncached run.
fn assert_equivalent(backend: &str, cached: &Outcome, plain: &Outcome) {
    assert_eq!(
        cached.violations,
        Vec::<String>::new(),
        "{backend}, value cache on"
    );
    assert_eq!(
        plain.violations,
        Vec::<String>::new(),
        "{backend}, value cache off"
    );
    assert_eq!(cached.reads.len(), plain.reads.len());
    for (step, (a, b)) in cached.reads.iter().zip(&plain.reads).enumerate() {
        assert_eq!(a, b, "{backend}: read batch {step} differs");
    }
    let (on, off) = (&cached.stats, &plain.stats);
    assert_eq!(
        off.reads_unchanged, 0,
        "{backend}: nothing stamps without a cache"
    );
    assert!(on.reads_unchanged > 0, "{backend}: no read was validated");
    // The servers did the same work for the same keys either way…
    assert_eq!(on.keys_read, off.keys_read, "{backend}");
    assert_eq!(
        on.reads_unchanged + on.reads_shipped,
        off.reads_shipped,
        "{backend}: every validated read is one the plain run shipped"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn prop_mini_reads_are_identical_with_and_without_the_value_cache(seed in 0u64..10_000) {
        let run = |cache: bool| {
            let mut mini: MiniCluster = deployment(seed).build_mini().expect("valid shape");
            if !cache {
                mini.open_clients_without_value_cache();
            }
            drive(&mut mini, seed, 160)
        };
        let (cached, plain) = (run(true), run(false));
        assert_equivalent("mini", &cached, &plain);
        // The mini pump has no wire to meter: what it ships is versions.
        prop_assert!(cached.stats.reads_shipped < plain.stats.reads_shipped);
    }

    #[test]
    fn prop_sim_reads_are_identical_with_and_without_the_value_cache(seed in 0u64..10_000) {
        let run = |cache: bool| {
            let mut sim: SimCluster = deployment(seed).build_sim().expect("valid shape");
            if !cache {
                sim.open_clients_without_value_cache();
            }
            drive(&mut sim, seed, 160)
        };
        let (cached, plain) = (run(true), run(false));
        assert_equivalent("sim", &cached, &plain);
        // A validated read is still one request and one reply…
        prop_assert_eq!(cached.stats.net_messages, plain.stats.net_messages);
        // …that carries less.
        prop_assert!(
            cached.stats.net_bytes < plain.stats.net_bytes,
            "{} vs {} wire bytes", cached.stats.net_bytes, plain.stats.net_bytes
        );
    }
}
