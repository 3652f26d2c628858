//! Fault-injection tests on the simulated cluster (paper §III-C,
//! "Fault tolerance" and "Availability"), built through the facade; the
//! fault hooks themselves are `SimCluster` powers.

use paris_runtime::{Cluster, ClusterBuilder, Paris};
use paris_types::{DcId, FaultPlan, Mode, PartitionId, Timestamp, Value};

fn small(seed: u64) -> ClusterBuilder {
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
}

#[test]
fn single_link_partition_freezes_ust_when_replica_groups_span_it() {
    // Ring placement: partition n lives at DCs (n, n+1) mod M — DC0 and
    // DC1 share replica groups, so cutting that one link stalls their
    // replication and, transitively, the global UST minimum.
    let mut sim = small(41).build_sim().unwrap();
    sim.run_workload(500_000, 1_000_000).unwrap();
    let before = sim.min_ust();
    assert!(before > Timestamp::ZERO);

    // Cut only DC0 ↔ DC1 (not full isolation): the other links stay up.
    sim.partition_link(DcId(0), DcId(1));
    sim.settle(3_000_000);
    let frozen = sim.min_ust();
    let lag = sim.now().saturating_sub(frozen.physical_micros());
    assert!(
        lag > 2_000_000,
        "UST must stall while a replica-group link is cut (lag {lag} µs)"
    );

    sim.heal_link(DcId(0), DcId(1));
    sim.settle(3_000_000);
    let healed = sim.min_ust();
    let lag = sim.now().saturating_sub(healed.physical_micros());
    assert!(
        lag < 1_000_000,
        "UST must recover after heal (lag {lag} µs)"
    );
}

#[test]
fn no_committed_data_lost_across_partition_and_heal() {
    let mut sim = small(43).build_sim().unwrap();
    // Commit traffic, cut a DC mid-run, keep committing, heal, settle:
    // replication must deliver everything (TCP-like held links) and
    // replicas must converge with zero checker violations.
    sim.run_workload(300_000, 700_000).unwrap();
    sim.isolate_dc(DcId(1));
    sim.run_workload(0, 700_000).unwrap(); // clients keep going during the cut
    sim.heal_dc(DcId(1));
    let report = sim.run_workload(0, 700_000).unwrap();
    sim.settle(4_000_000);

    assert!(report.stats.committed > 0);
    let report = sim.report();
    assert!(
        report.violations.is_empty(),
        "partition+heal must not violate TCC: {:#?}",
        report.violations
    );
    let convergence = sim.check_convergence().unwrap();
    assert!(
        convergence.is_empty(),
        "all replicas must converge after heal: {convergence:#?}"
    );
}

#[test]
fn staleness_grows_during_partition_but_reads_stay_available() {
    // §III-C: during a partition "transactions see increasingly stale
    // snapshots" — but local operations never block.
    let mut sim = small(47).build_sim().unwrap();
    sim.run_workload(500_000, 1_000_000).unwrap();
    let committed_before = sim.report().stats.committed;
    assert!(committed_before > 0);

    sim.isolate_dc(DcId(2));
    // Clients in all DCs keep running against frozen snapshots.
    let report = sim.run_workload(0, 1_500_000).unwrap();
    assert!(
        report.stats.committed > 0,
        "transactions must keep committing during the partition"
    );
    assert_eq!(
        report.blocking.blocked_reads, 0,
        "PaRiS reads stay non-blocking even while partitioned"
    );
    assert!(
        report.violations.is_empty(),
        "stale but still causal: {:#?}",
        report.violations
    );
}

#[test]
fn a_participant_cut_off_after_a_one_phase_forward_holds_the_commit_until_heal() {
    // A write to one remote partition commits in one phase: the
    // coordinator forwards it and forgets it, and the participant answers
    // the client. Cut the participant's DC off while the forward is in
    // flight: the forward lands (it left before the cut), the reply is
    // held, and the commit completes on the heal — it neither hangs nor
    // commits twice, and the checker stays clean.
    let mut sim = small(53).build_sim().unwrap();
    sim.run_workload(300_000, 500_000).unwrap();
    let partition = PartitionId(1); // replicated at DCs 1 and 2 only
    let key = sim.topology().key_at(partition, 0);
    let participant = sim.topology().target_dc(partition, DcId(0));
    assert_ne!(participant, DcId(0));

    let client = sim.open_client(0).unwrap();
    sim.txn_begin(client).unwrap();
    sim.txn_write(client, &[(key, Value::from("one-phase"))])
        .unwrap();
    // Half a WAN hop after the commit leaves: the forward is in flight.
    let plan = FaultPlan::new()
        .crash_dc(5_000, participant)
        .rejoin_dc(1_000_000, participant);
    sim.install_fault_plan(plan).unwrap();
    let sent_at = sim.now();
    let ct = sim.txn_commit(client).unwrap();
    assert!(
        sim.now() >= sent_at + 1_000_000,
        "the reply was held until the heal"
    );
    assert!(ct > Timestamp::ZERO);

    sim.stabilize(20);
    let mut txn = sim.begin(client).unwrap();
    assert_eq!(txn.read_one(key).unwrap(), Some(Value::from("one-phase")));
    txn.commit().unwrap();
    let report = sim.run_workload(0, 500_000).unwrap();
    sim.settle(4_000_000);
    assert!(report.stats.committed > 0);
    assert!(sim.report().violations.is_empty());
    assert!(sim.check_convergence().unwrap().is_empty());
}
