//! Reads straight to the replicas return what the coordinator's detour
//! returns, at an assigned snapshot and at one the client picked. One
//! seeded interactive stream — writers in two DCs, readers in all three —
//! runs on the simulated and the threaded backend; each read transaction
//! of the stream runs three times, back to back: through a session that
//! begins eagerly and sends its slices itself, through one that sends
//! every read to its coordinator, and through one that picks its `ust_c`
//! as the snapshot, as a `run_workload` session does — right after a reply
//! refreshed it. Whenever no commit of the stream falls between two of the
//! snapshots, the two saw the same cut, so every read batch must be the
//! same `ClientRead`s.

use paris_core::ClientRead;
use paris_runtime::{Backend, Cluster, Paris};
use paris_types::{ClientId, Key, Timestamp, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KEYS: u64 = 48;

/// One read-only transaction of `client`: its snapshot and the batches it
/// read for `reads`, each sorted by key.
fn read_only(
    cluster: &mut dyn Cluster,
    client: ClientId,
    reads: &[Vec<Key>],
) -> (Timestamp, Vec<Vec<ClientRead>>) {
    let snapshot = cluster.txn_begin(client).expect("begin");
    let batches = reads
        .iter()
        .map(|keys| {
            let mut got = cluster.txn_read(client, keys).expect("read");
            got.sort_by_key(|r| r.key);
            got
        })
        .collect();
    assert_eq!(cluster.txn_commit(client).expect("close"), Timestamp::ZERO);
    (snapshot, batches)
}

/// [`read_only`] at the snapshot `client` picks right after an empty
/// transaction taught it the UST: the pick, and the snapshot it read at,
/// which differs from the pick when a replica GC had passed it refused the
/// first read and the read went out again in the start form.
fn picked_read_only(
    cluster: &mut dyn Cluster,
    client: ClientId,
    reads: &[Vec<Key>],
) -> (Timestamp, Timestamp, Vec<Vec<ClientRead>>) {
    cluster.txn_begin(client).expect("begin");
    assert_eq!(cluster.txn_commit(client).expect("close"), Timestamp::ZERO);
    let picked = cluster.txn_begin_picked(client).expect("begin");
    let picked = picked.expect("a session that learned a UST picks it");
    let batches = reads
        .iter()
        .map(|keys| {
            let mut got = cluster.txn_read(client, keys).expect("read");
            got.sort_by_key(|r| r.key);
            got
        })
        .collect();
    let snapshot = cluster.txn_snapshot(client).expect("known after a read");
    assert_eq!(cluster.txn_commit(client).expect("close"), Timestamp::ZERO);
    (picked, snapshot, batches)
}

/// How many read pairs of a stream saw the same cut.
#[derive(Debug, Default)]
struct Compared {
    /// Straight to the replicas against the coordinator's detour.
    relayed: usize,
    /// At a picked snapshot against at an assigned one.
    picked: usize,
    /// Transactions whose first read a replica refused, as GC had passed
    /// the pick, and which read at an assigned snapshot instead.
    retried: usize,
}

/// Whether no commit time in `cts` falls in `(lo, hi]`.
fn same_cut(cts: &[Timestamp], a: Timestamp, b: Timestamp) -> bool {
    let (lo, hi) = (a.min(b), a.max(b));
    cts.iter().all(|ct| *ct <= lo || *ct > hi)
}

fn some_keys(rng: &mut StdRng) -> Vec<Key> {
    (0..rng.gen_range(1..6))
        .map(|_| Key(rng.gen_range(0..KEYS)))
        .collect()
}

/// Runs the stream; returns how many of its `steps` read pairs saw the
/// same cut (and so were compared).
fn compare(backend: Backend, seed: u64, steps: usize) -> Compared {
    let mut cluster = Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .keys_per_partition(8)
        .uniform_latency_micros(2_000)
        .clients_per_dc(0)
        .seed(seed)
        .backend(backend)
        .build()
        .expect("valid shape");
    let mut rng = StdRng::seed_from_u64(seed);
    let writers: Vec<ClientId> = [0, 1]
        .iter()
        .map(|dc| cluster.open_client(*dc).expect("valid DC"))
        .collect();
    let readers: Vec<(ClientId, ClientId, ClientId)> = (0..3)
        .map(|dc| {
            let routed = cluster.open_client(dc).expect("valid DC");
            let detour = cluster.open_client_via_coordinator(dc).expect("valid DC");
            let picker = cluster.open_client(dc).expect("valid DC");
            (routed, detour, picker)
        })
        .collect();
    let mut cts = Vec::new();
    let preload: Vec<(Key, Value)> = (0..KEYS).map(|k| (Key(k), Value::filled(8, k))).collect();
    cluster.txn_begin(writers[0]).expect("begin");
    cluster.txn_write(writers[0], &preload).expect("write");
    cts.push(cluster.txn_commit(writers[0]).expect("commit"));
    cluster.stabilize(4);

    let mut compared = Compared::default();
    for step in 0..steps {
        if rng.gen_bool(0.6) {
            let writer = writers[rng.gen_range(0..writers.len())];
            let writes: Vec<(Key, Value)> = some_keys(&mut rng)
                .into_iter()
                .map(|k| (k, Value::filled(8, step as u64)))
                .collect();
            cluster.txn_begin(writer).expect("begin");
            cluster.txn_write(writer, &writes).expect("write");
            cts.push(cluster.txn_commit(writer).expect("commit"));
        }
        if step % 3 == 0 {
            cluster.stabilize(1);
        }
        // Two reads: the second repeats part of the first, so the read
        // set answers some of it.
        let first = some_keys(&mut rng);
        let mut second = some_keys(&mut rng);
        second.extend(first.iter().take(2));
        let reads = [first, second];
        let (routed, detour, picker) = readers[rng.gen_range(0..readers.len())];
        let (a, direct) = read_only(&mut *cluster, routed, &reads);
        let (b, relayed) = read_only(&mut *cluster, detour, &reads);
        let (picked, c, at_pick) = picked_read_only(&mut *cluster, picker, &reads);
        if same_cut(&cts, a, b) {
            assert_eq!(
                direct, relayed,
                "{backend:?}, step {step}: snapshots {a:?} and {b:?}"
            );
            compared.relayed += 1;
        }
        compared.retried += usize::from(picked != c);
        if same_cut(&cts, a, c) {
            assert_eq!(
                direct, at_pick,
                "{backend:?}, step {step}: assigned {a:?}, read at {c:?} (picked {picked:?})"
            );
            compared.picked += 1;
        }
    }
    cluster.stabilize(4);
    assert!(cluster.check_convergence().expect("convergence").is_empty());
    compared
}

#[test]
fn sim_direct_and_coordinator_reads_return_the_same_batches() {
    for seed in [1, 2, 3] {
        let compared = compare(Backend::Sim, seed, 120);
        assert!(compared.relayed >= 60, "seed {seed}: {compared:?}");
        assert!(compared.picked >= 80, "seed {seed}: {compared:?}");
        // No replica's GC passed a pick a reply refreshed just before:
        // every picked transaction read at its pick.
        assert_eq!(compared.retried, 0, "seed {seed}: {compared:?}");
    }
}

#[test]
fn thread_direct_and_coordinator_reads_return_the_same_batches() {
    let compared = compare(Backend::Thread, 5, 120);
    assert!(compared.relayed >= 60, "{compared:?}");
    assert!(compared.picked >= 80, "{compared:?}");
}
