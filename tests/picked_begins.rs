//! Facade transactions pick their snapshot: `txn_begin` takes the
//! session's `ust_c` with no message while a reply refreshed it less than
//! half a GC period ago, and not before the last `stabilize`; otherwise it
//! pays Alg. 1's START round trip. The snapshot it returns is final: a
//! replica that GC took past it aborts the transaction, never moves it.
//! A picked commit goes to the local server of a partition it writes; on
//! three or more partitions another participant decides, and the rest vote
//! to it (a decider commit).

use std::collections::HashMap;

use paris::core::checker::RecordedTx;
use paris::core::ClientRead;
use paris::types::{ClientId, DcId, Intervals, Key, PartitionId, ServerId, Timestamp, TxId, Value};
use paris::{Backend, Cluster, Error, HistoryChecker, Paris};

/// 3 DCs × 6 partitions, R = 2, on `backend`. `gc_micros` is long, so a
/// session goes stale only where a test says so.
fn deployment(backend: Backend) -> Box<dyn Cluster> {
    Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .keys_per_partition(100)
        .clients_per_dc(0)
        .uniform_latency_micros(2_000)
        .intervals(Intervals {
            gc_micros: 10_000_000,
            ..Intervals::default()
        })
        .seed(17)
        .backend(backend)
        .build()
        .expect("valid deployment")
}

/// Messages the servers handled so far.
fn handled(cluster: &mut dyn Cluster) -> u64 {
    cluster.stats().expect("stats").msgs_handled
}

/// `txn_begin` of `client`, which must pick its `ust_c`. On the sim,
/// whose clock moves only when a message does, no server may handle a
/// message meanwhile.
fn begin_picked(cluster: &mut dyn Cluster, client: ClientId) -> Timestamp {
    let ust = cluster.client_ust(client).expect("a known client");
    let before = handled(cluster);
    let snapshot = cluster.txn_begin(client).expect("begin");
    if cluster.backend_name() == "sim" {
        assert_eq!(
            handled(cluster),
            before,
            "sim: a picked begin sends nothing"
        );
    }
    assert_eq!(
        snapshot,
        ust,
        "{}: the pick is ust_c",
        cluster.backend_name()
    );
    assert_eq!(cluster.txn_snapshot(client), Some(snapshot));
    snapshot
}

#[test]
fn a_freshly_refreshed_session_begins_at_its_ust_with_no_message_on_every_backend() {
    for backend in [Backend::Sim, Backend::Thread, Backend::Socket] {
        let mut cluster = deployment(backend);
        cluster.stabilize(4);
        let a = cluster.open_client(0).expect("valid DC");
        // A new session has heard no reply: its begin is assigned, and
        // the `StartTxResp` refreshes it.
        let before = cluster.client_ust(a).expect("a known client");
        let first = cluster.txn_begin(a).expect("begin");
        assert!(first > before, "{backend:?}: assigned at the UST");
        cluster
            .txn_write(a, &[(Key(0), Value::from("one"))])
            .unwrap();
        let one = cluster.txn_commit(a).expect("commit");
        // Picked from the start reply; its commit reply refreshes again.
        let second = begin_picked(&mut *cluster, a);
        assert_eq!(second, first, "{backend:?}: nothing else refreshed it");
        let read = cluster.txn_read(a, &[Key(0)]).expect("read");
        assert_eq!(read[0].value, Some(Value::from("one")), "{backend:?}");
        cluster
            .txn_write(a, &[(Key(1), Value::from("two"))])
            .unwrap();
        let two = cluster.txn_commit(a).expect("commit");
        assert!(two > one, "{backend:?}");
        // Picked from the commit reply, which named the UST there.
        let third = begin_picked(&mut *cluster, a);
        assert!(third >= second, "{backend:?}");
        let mut reads = cluster.txn_read(a, &[Key(0), Key(1)]).expect("read");
        // Own writes above the pick are served locally, ahead of the rest.
        reads.sort_by_key(|r| r.key);
        let values: Vec<_> = reads.into_iter().map(|r| r.value).collect();
        assert_eq!(
            values,
            [Some(Value::from("one")), Some(Value::from("two"))],
            "{backend:?}: read-your-writes at the pick"
        );
        assert_eq!(cluster.txn_commit(a).expect("close"), Timestamp::ZERO);
    }
}

#[test]
fn after_stabilize_the_next_begin_is_assigned_and_sees_what_was_stabilized() {
    for backend in [Backend::Sim, Backend::Thread, Backend::Socket] {
        let mut cluster = deployment(backend);
        cluster.stabilize(4);
        let (reader, writer) = (
            cluster.open_client(0).unwrap(),
            cluster.open_client(1).unwrap(),
        );
        // The reader is fresh: an empty transaction's replies refreshed it.
        cluster.txn_begin(reader).expect("begin");
        assert_eq!(cluster.txn_commit(reader).expect("close"), Timestamp::ZERO);
        cluster.txn_begin(writer).expect("begin");
        cluster
            .txn_write(writer, &[(Key(7), Value::from("seen"))])
            .unwrap();
        let ct = cluster.txn_commit(writer).expect("commit");
        for _ in 0..100 {
            cluster.stabilize(1);
            if cluster.min_ust() >= ct {
                break;
            }
        }
        assert!(
            cluster.min_ust() >= ct,
            "{backend:?}: the UST covers the write"
        );
        // Well inside half a GC period, but stabilized: assigned.
        let before = handled(&mut *cluster);
        let snapshot = cluster.txn_begin(reader).expect("begin");
        if backend == Backend::Sim {
            assert!(handled(&mut *cluster) > before, "sim: a START round trip");
        }
        assert!(snapshot >= ct, "{backend:?}: {snapshot:?} below {ct:?}");
        let read = cluster.txn_read(reader, &[Key(7)]).expect("read");
        assert_eq!(read[0].value, Some(Value::from("seen")), "{backend:?}");
        assert_eq!(cluster.txn_commit(reader).expect("close"), Timestamp::ZERO);
    }
}

#[test]
fn a_sim_session_idle_for_half_a_gc_period_begins_assigned() {
    let gc = Intervals::default().gc_micros;
    let mut sim = Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .clients_per_dc(0)
        .uniform_latency_micros(2_000)
        .build_sim()
        .expect("valid deployment");
    sim.stabilize(4);
    let a = sim.open_client(0).unwrap();
    sim.txn_begin(a).expect("begin");
    sim.txn_commit(a).expect("close");
    // Idle for just under half a period: still picks.
    sim.settle(gc / 2 - 10_000);
    begin_picked(&mut sim, a);
    sim.txn_commit(a).expect("close");
    // Idle for half a period: assigned, at the UST the idle time moved.
    sim.settle(gc / 2);
    let ust = sim.client_ust(a).unwrap();
    let before = handled(&mut sim);
    let snapshot = sim.txn_begin(a).expect("begin");
    assert!(handled(&mut sim) > before, "a START round trip");
    assert!(snapshot > ust, "assigned {snapshot:?}, ust_c {ust:?}");
    sim.txn_commit(a).expect("close");
}

#[test]
fn three_and_four_partition_picked_commits_hold_over_threads_and_processes() {
    for backend in [Backend::Thread, Backend::Socket] {
        for partitions in [3, 4] {
            // Every DC hosts 4 partitions, and every transaction writes
            // exactly `partitions` of its own DC's: a picked commit goes to
            // one of them, which prepares its share, and a decider decides.
            let workload = paris::workload::WorkloadConfig {
                reads_per_tx: 2,
                writes_per_tx: partitions,
                partitions_per_tx: partitions,
                local_tx_ratio: 1.0,
                ..paris::workload::WorkloadConfig::read_heavy()
            };
            let mut cluster = Paris::builder()
                .dcs(3)
                .partitions(6)
                .replication(2)
                .keys_per_partition(100)
                .workload(workload)
                .clients_per_dc(2)
                .uniform_latency_micros(2_000)
                .record_history(true)
                .seed(23)
                .backend(backend)
                .build()
                .expect("valid deployment");
            let report = cluster.run_workload(50_000, 300_000).unwrap();
            let what = format!("{backend:?}, {partitions} partitions");
            assert!(report.stats.committed > 0, "{what}: no progress");
            assert!(
                report.violations.is_empty(),
                "{what} violated TCC: {:#?}",
                report.violations
            );

            // A facade transaction on as many partitions, picked.
            let a = cluster.open_client(0).expect("valid DC");
            cluster.txn_begin(a).expect("begin");
            assert_eq!(cluster.txn_commit(a).expect("close"), Timestamp::ZERO);
            begin_picked(&mut *cluster, a);
            // Keys of DC 0's partitions 0, 2, 3 and 5 (key = partition + 6 × rank).
            let keys: Vec<Key> = [0, 2, 3, 5][..partitions]
                .iter()
                .map(|p| Key(p + 42))
                .collect();
            let writes: Vec<(Key, Value)> = keys.iter().map(|k| (*k, Value::from("d"))).collect();
            cluster.txn_write(a, &writes).unwrap();
            let ct = cluster.txn_commit(a).expect("commit");
            for _ in 0..100 {
                cluster.stabilize(1);
                if cluster.min_ust() >= ct {
                    break;
                }
            }
            cluster.txn_begin(a).expect("begin");
            let read = cluster.txn_read(a, &keys).expect("read");
            assert!(
                read.iter().all(|r| r.value == Some(Value::from("d"))),
                "{what}"
            );
            assert!(
                read.iter().all(|r| r.version.as_ref().unwrap().ut == ct),
                "{what}"
            );
            cluster.txn_commit(a).expect("close");

            let stats = cluster.stats().unwrap();
            assert!(stats.txs_coordinated > 0, "{what}: no update committed");
            assert_eq!(
                stats.prepares,
                partitions as u64 * stats.txs_coordinated,
                "{what}: a proposal per participant, one decision per commit"
            );
            assert_eq!(stats.orphan_commits, 0, "{what}");
            assert_eq!(stats.abandoned_votes, 0, "{what}");
            assert!(cluster.check_convergence().unwrap().is_empty(), "{what}");
        }
    }
}

/// Keys 0..8 of the refused-pick test, one per partition or so.
const KEYS: u64 = 8;

#[test]
fn a_sim_pick_gc_passed_mid_transaction_aborts_and_never_moves() {
    // Default GC period: the reader goes idle only where the test settles.
    let gc = Intervals::default().gc_micros;
    let mut sim = Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .keys_per_partition(100)
        .clients_per_dc(0)
        .uniform_latency_micros(2_000)
        .build_sim()
        .expect("valid deployment");
    let keys: Vec<Key> = (0..KEYS).map(Key).collect();
    let (writer, reader) = (sim.open_client(1).unwrap(), sim.open_client(0).unwrap());
    let mut writes = Vec::new();
    for round in ["v1", "v2"] {
        let snapshot = sim.txn_begin(writer).expect("begin");
        let entries: Vec<(Key, Value)> = keys.iter().map(|k| (*k, Value::from(round))).collect();
        sim.txn_write(writer, &entries).unwrap();
        writes.push((snapshot, sim.txn_commit(writer).expect("commit")));
        if round == "v1" {
            sim.stabilize(4);
            // An empty transaction refreshes the reader: its next begin
            // picks.
            let empty = sim.txn_begin(reader).expect("begin");
            sim.txn_commit(reader).expect("close");
            assert!(empty >= writes[0].1, "v1 is stable");
        }
    }
    let mut history = vec![];
    let snapshot = begin_picked(&mut sim, reader);
    let first = sim.txn_read(reader, &keys[..4]).expect("read at the pick");
    assert!(first.iter().all(|r| r.value == Some(Value::from("v1"))));
    history.push((snapshot, first));

    // GC ticks pass the pick: no context pins it, so `S_old` moves past it
    // and two ticks later every replica trims there.
    let refused = sim.stats().unwrap().refused_slices;
    sim.settle(3 * gc);
    assert_eq!(
        sim.txn_snapshot(reader),
        Some(snapshot),
        "still open at the pick"
    );
    assert_eq!(
        sim.txn_read(reader, &keys[4..]),
        Err(Error::PartitionUnreachable),
        "a read below the replicas' horizon aborts"
    );
    assert!(sim.stats().unwrap().refused_slices > refused);
    // Closed, never reopened at another snapshot.
    assert_eq!(sim.txn_snapshot(reader), None);
    assert_eq!(sim.txn_commit(reader), Err(Error::NoOpenTransaction));

    // Idle past half a period: the next begin is assigned and sees v2.
    let later = sim.txn_begin(reader).expect("begin");
    assert!(later > snapshot);
    let last = sim.txn_read(reader, &keys).expect("read");
    assert!(last.iter().all(|r| r.value == Some(Value::from("v2"))));
    sim.txn_commit(reader).expect("close");
    history.push((later, last));
    // A pick GC passed before its first read aborts too: the read is not
    // sent again at another snapshot.
    let started = sim.txn_begin(reader).expect("begin");
    sim.txn_commit(reader).expect("close");
    let pick = begin_picked(&mut sim, reader);
    assert!(pick >= started);
    sim.settle(3 * gc);
    assert_eq!(
        sim.txn_read(reader, &keys),
        Err(Error::PartitionUnreachable)
    );
    assert_eq!(sim.txn_snapshot(reader), None);
    assert_eq!(
        check(reader, &history, writer, &writes),
        Vec::<String>::new()
    );
}

/// The checker's verdict on the reader's transactions — the aborted one
/// with what it read before the abort — against the writer's two.
fn check(
    reader: ClientId,
    reads: &[(Timestamp, Vec<ClientRead>)],
    writer: ClientId,
    writes: &[(Timestamp, Timestamp)],
) -> Vec<String> {
    // The writer's ids, as the versions the reader was shipped name them.
    let mut ids: HashMap<Timestamp, TxId> = HashMap::new();
    for read in reads.iter().flat_map(|(_, batch)| batch) {
        let version = read.version.as_ref().expect("every key was written");
        ids.insert(version.ut, version.tx);
    }
    let mut checker = HistoryChecker::new();
    for (snapshot, ct) in writes {
        let tx = ids[ct];
        for k in 0..KEYS {
            let order = paris::types::VersionOrd {
                ut: *ct,
                tx,
                src: writer.dc,
            };
            checker.record_versions(Key(k), [order]);
        }
        let writes = (0..KEYS).map(Key).collect();
        let record = RecordedTx {
            tx,
            snapshot: *snapshot,
            reads: Vec::new(),
            writes,
            ct: Some(*ct),
        };
        checker.record_tx(writer, record);
    }
    for (seq, (snapshot, batch)) in reads.iter().enumerate() {
        // The facade hides the reader's ids: any id no server hands out.
        let nowhere = ServerId::new(DcId(u16::MAX), PartitionId(u32::MAX));
        let record = RecordedTx {
            tx: TxId::new(nowhere, seq as u64),
            snapshot: *snapshot,
            reads: batch.iter().map(HistoryChecker::recorded_read).collect(),
            writes: Vec::new(),
            ct: None,
        };
        checker.record_tx(reader, record);
    }
    checker.check().iter().map(ToString::to_string).collect()
}
