//! Availability tests (paper §III-C): with failure detection on, a DC
//! keeps serving every operation as long as one replica per partition is
//! reachable; only total replica loss makes operations fail — and then
//! explicitly, with aborts, never by hanging or by violating TCC.

use paris_runtime::{Cluster, ClusterBuilder, Paris};
use paris_types::{DcId, Error, Key, Mode, PartitionId, ServerId, Value};
use paris_workload::WorkloadConfig;

fn small(seed: u64, local_tx_ratio: f64) -> ClusterBuilder {
    Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .keys_per_partition(200)
        .uniform_latency_micros(10_000)
        .jitter(0.02)
        .clients_per_dc(4)
        .mode(Mode::Paris)
        .seed(seed)
        .record_events(true)
        .record_history(true)
        .workload(WorkloadConfig {
            local_tx_ratio,
            ..WorkloadConfig::read_heavy()
        })
}

#[test]
fn reads_fail_over_to_surviving_replica() {
    // 3 DCs, 6 partitions, R = 2 (ring placement): from DC0's viewpoint,
    // partitions {1, 4} live at DCs 1 and 2 only. Cutting DC0 ↔ DC1 makes
    // DC1 unreachable; the coordinator must route those partitions' reads
    // to DC2 instead of failing.
    let mut sim = small(71, 0.0).build_sim().unwrap(); // constant remote traffic
    sim.set_failure_detection(true);
    let before = sim
        .run_workload(500_000, 1_000_000)
        .unwrap()
        .stats
        .committed;
    assert!(before > 0);

    sim.partition_link(DcId(0), DcId(1));
    let report = sim.run_workload(0, 2_000_000).unwrap();
    assert!(
        report.stats.committed > before,
        "transactions must keep completing via the surviving replicas"
    );
    assert_eq!(
        report.stats.aborted, 0,
        "R=2 with one cut link leaves a reachable replica for every partition"
    );
    assert!(report.violations.is_empty(), "{:#?}", report.violations);

    // After healing, everything converges.
    sim.heal_link(DcId(0), DcId(1));
    sim.settle(4_000_000);
    assert!(sim.check_convergence().unwrap().is_empty());
}

#[test]
fn total_replica_loss_aborts_explicitly_instead_of_hanging() {
    // Isolate DC2 entirely with detection on: clients inside DC2 cannot
    // reach partitions with no replica in DC2 → those operations abort
    // (visibly), while purely local transactions keep committing.
    let mut sim = small(73, 0.5).build_sim().unwrap(); // mix of local and remote
    sim.set_failure_detection(true);
    sim.run_workload(500_000, 1_000_000).unwrap();

    sim.isolate_dc(DcId(2));
    let report = sim.run_workload(0, 2_000_000).unwrap();
    assert!(
        report.stats.aborted > 0,
        "multi-DC operations from the isolated DC must abort explicitly"
    );
    assert!(
        report.stats.committed > 0,
        "local transactions keep committing during the partition"
    );
    assert!(report.violations.is_empty(), "{:#?}", report.violations);

    // Heal: aborts stop (each run_workload measures a fresh window),
    // convergence resumes.
    sim.heal_dc(DcId(2));
    let report = sim.run_workload(0, 1_000_000).unwrap();
    sim.settle(4_000_000);
    assert_eq!(report.stats.aborted, 0, "no new aborts after healing");
    assert!(report.stats.committed > 0);
    assert!(sim.check_convergence().unwrap().is_empty());
}

#[test]
fn failure_detection_off_preserves_held_traffic_semantics() {
    // Without detection (default), the same cut merely delays operations:
    // nothing aborts, traffic is held and delivered on heal.
    let mut sim = small(79, 0.95).build_sim().unwrap();
    sim.run_workload(500_000, 1_000_000).unwrap();
    sim.partition_link(DcId(0), DcId(1));
    let report = sim.run_workload(0, 1_000_000).unwrap();
    assert_eq!(report.stats.aborted, 0, "no detector → no aborts");
    sim.heal_link(DcId(0), DcId(1));
    sim.settle(4_000_000);
    let report = sim.report();
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    assert!(sim.check_convergence().unwrap().is_empty());
}

#[test]
fn a_direct_read_routes_around_an_isolated_dc_or_aborts_never_hangs() {
    // An eager begin knows its snapshot, so a facade read sends its slices
    // straight to the replicas. From DC 0, partitions 1 and 4 live in DCs
    // 1 and 2 only, and partition 4's preferred replica is DC 1's.
    let mut sim = small(83, 0.5).clients_per_dc(0).build_sim().unwrap();
    sim.set_failure_detection(true);
    let writer = sim.open_client(0).unwrap();
    let mut txn = sim.begin(writer).unwrap();
    txn.write(Key(1), Value::from("one"));
    txn.write(Key(4), Value::from("four"));
    txn.commit().unwrap();
    sim.stabilize(4);
    let keys = [Key(1), Key(4)];
    let served = |sim: &paris_runtime::SimCluster, dc: u16| {
        let replica = ServerId::new(DcId(dc), PartitionId(4));
        sim.server(replica).stats().slice_reads
    };
    let read = |sim: &mut paris_runtime::SimCluster, client| {
        sim.txn_begin(client).unwrap();
        let reads = sim.txn_read(client, &keys);
        if reads.is_ok() {
            sim.txn_commit(client).unwrap();
        }
        reads.map(|reads| reads.into_iter().map(|r| r.value).collect::<Vec<_>>())
    };
    let values = vec![Some(Value::from("one")), Some(Value::from("four"))];
    let reader = sim.open_client(0).unwrap();
    assert_eq!(read(&mut sim, reader), Ok(values.clone()));
    assert_eq!((served(&sim, 1), served(&sim, 2)), (1, 0), "DC 1 preferred");

    // DC 1 is cut: DC 2 serves partition 4 — for the session open since
    // before the cut, and for one opened during it.
    sim.isolate_dc(DcId(1));
    let late = sim.open_client(0).unwrap();
    for client in [reader, late] {
        assert_eq!(read(&mut sim, client), Ok(values.clone()));
    }
    assert_eq!((served(&sim, 1), served(&sim, 2)), (1, 2), "around DC 1");

    // DC 2 too: no replica of partitions 1 and 4 is reachable. The read
    // goes to the coordinator, which fails it and frees its context.
    sim.isolate_dc(DcId(2));
    assert_eq!(read(&mut sim, reader), Err(Error::PartitionUnreachable));
    let coordinator = sim.topology().coordinator_for(reader.dc, reader.seq);
    assert_eq!(sim.server(coordinator).open_transactions(), 0);

    // Healed: DC 1 serves again, and the data converges.
    sim.heal_dc(DcId(1));
    sim.heal_dc(DcId(2));
    assert_eq!(read(&mut sim, reader), Ok(values));
    assert_eq!(served(&sim, 1), 2);
    sim.settle(4_000_000);
    assert!(sim.check_convergence().unwrap().is_empty());
}
