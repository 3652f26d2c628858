//! Integration tests on the simulated cluster: whole-system runs under
//! load with the consistency checker as the oracle, all built through the
//! `Paris::builder()` facade.

use paris_runtime::{Cluster, ClusterBuilder, Paris, RunReport, SimCluster};
use paris_types::{DcId, Mode, Timestamp};

/// The small checked deployment every test starts from: 3 DCs × 6
/// partitions, R = 2, uniform 10 ms one-way WAN latency, checker on.
fn small(dcs: u16, partitions: u32, mode: Mode, seed: u64) -> ClusterBuilder {
    Paris::builder()
        .dcs(dcs)
        .partitions(partitions)
        .replication(2)
        .keys_per_partition(200)
        .uniform_latency_micros(10_000)
        .jitter(0.02)
        .clients_per_dc(4)
        .mode(mode)
        .seed(seed)
        .record_events(true)
        .record_history(true)
}

fn run_checked(mode: Mode, seed: u64) -> (SimCluster, RunReport) {
    let mut sim = small(3, 6, mode, seed).build_sim().unwrap();
    let report = sim.run_workload(500_000, 3_000_000).unwrap(); // 0.5 s warmup, 3 s window
    sim.settle(2_000_000);
    let report = RunReport {
        violations: sim.report().violations,
        ..report
    };
    (sim, report)
}

#[test]
fn paris_run_is_causally_consistent_and_converges() {
    let (mut sim, report) = run_checked(Mode::Paris, 1);
    assert!(
        report.stats.committed > 100,
        "made progress: {}",
        report.stats.committed
    );
    assert!(
        report.violations.is_empty(),
        "consistency violations: {:#?}",
        report.violations
    );
    let convergence = sim.check_convergence().unwrap();
    assert!(convergence.is_empty(), "divergence: {convergence:#?}");
    assert!(sim.recorded_transactions() > 100);
}

#[test]
fn bpr_run_is_causally_consistent_and_converges() {
    let (mut sim, report) = run_checked(Mode::Bpr, 2);
    assert!(report.stats.committed > 100);
    assert!(
        report.violations.is_empty(),
        "consistency violations: {:#?}",
        report.violations
    );
    let convergence = sim.check_convergence().unwrap();
    assert!(convergence.is_empty(), "divergence: {convergence:#?}");
}

#[test]
fn paris_reads_never_block_bpr_reads_do() {
    let (paris, paris_report) = run_checked(Mode::Paris, 3);
    let (_bpr, bpr_report) = run_checked(Mode::Bpr, 3);
    assert_eq!(
        paris.blocking_stats().blocked_reads,
        0,
        "PaRiS must never block a read"
    );
    assert!(
        bpr_report.blocking.blocked_reads > 0,
        "BPR under WAN latency must block some reads"
    );
    assert!(paris_report.blocking.blocked_reads == 0);
}

#[test]
fn paris_latency_beats_bpr() {
    let (_p, paris) = run_checked(Mode::Paris, 4);
    let (_b, bpr) = run_checked(Mode::Bpr, 4);
    // The headline result (Fig. 1): non-blocking reads give PaRiS lower
    // mean transaction latency than the blocking baseline.
    assert!(
        paris.stats.mean_latency_ms() < bpr.stats.mean_latency_ms(),
        "PaRiS {:.2} ms vs BPR {:.2} ms",
        paris.stats.mean_latency_ms(),
        bpr.stats.mean_latency_ms()
    );
}

#[test]
fn visibility_latency_paris_higher_than_bpr() {
    let (_p, paris) = run_checked(Mode::Paris, 5);
    let (_b, bpr) = run_checked(Mode::Bpr, 5);
    let pv = paris.visibility.expect("events recorded");
    let bv = bpr.visibility.expect("events recorded");
    assert!(pv.count() > 50 && bv.count() > 50);
    // Fig. 4: PaRiS trades freshness for non-blocking reads — its update
    // visibility latency is strictly higher.
    assert!(
        pv.percentile(50.0) > bv.percentile(50.0),
        "PaRiS p50 {} µs vs BPR p50 {} µs",
        pv.percentile(50.0),
        bv.percentile(50.0)
    );
}

#[test]
fn determinism_same_seed_same_outcome() {
    let (_s1, r1) = run_checked(Mode::Paris, 99);
    let (_s2, r2) = run_checked(Mode::Paris, 99);
    assert_eq!(r1.stats.committed, r2.stats.committed);
    assert_eq!(r1.net_messages, r2.net_messages);
    assert_eq!(
        r1.stats.latency.percentile(50.0),
        r2.stats.latency.percentile(50.0)
    );
}

#[test]
fn different_seeds_differ() {
    let (_s1, r1) = run_checked(Mode::Paris, 7);
    let (_s2, r2) = run_checked(Mode::Paris, 8);
    assert_ne!(
        (r1.stats.committed, r1.net_messages),
        (r2.stats.committed, r2.net_messages)
    );
}

#[test]
fn ust_advances_during_run_and_bounds_snapshots() {
    let mut sim = small(3, 6, Mode::Paris, 11).build_sim().unwrap();
    sim.run_workload(500_000, 2_000_000).unwrap();
    let ust = sim.min_ust();
    assert!(ust > Timestamp::ZERO, "UST must advance under load");
    // UST never exceeds any server's installed watermark (safety): every
    // version at ts ≤ ust must be applied at every replica — checked
    // indirectly by zero checker violations in other tests; here check
    // UST ≤ now (cannot run ahead of time) with slack for clock skew.
    assert!(ust.physical_micros() <= sim.now() + 1_000);
}

#[test]
fn dc_partition_freezes_ust_and_heals() {
    let mut sim = small(3, 6, Mode::Paris, 13).build_sim().unwrap();
    sim.run_workload(500_000, 1_000_000).unwrap();
    let ust_before = sim.min_ust();
    assert!(ust_before > Timestamp::ZERO);

    // Isolate DC2: the UST freezes system-wide (§III-C) because it is a
    // global minimum.
    sim.isolate_dc(DcId(2));
    sim.settle(3_000_000);
    let ust_frozen = sim.min_ust();
    // It may advance a little (in-flight gossip) but must stall well below
    // wall time.
    let lag_frozen = sim.now().saturating_sub(ust_frozen.physical_micros());
    assert!(
        lag_frozen > 2_000_000,
        "UST should freeze during the partition (lag {lag_frozen} µs)"
    );

    // Heal: the UST catches up.
    sim.heal_dc(DcId(2));
    sim.settle(3_000_000);
    let ust_after = sim.min_ust();
    let lag_after = sim.now().saturating_sub(ust_after.physical_micros());
    assert!(
        lag_after < 1_000_000,
        "UST must catch up after healing (lag {lag_after} µs)"
    );
    assert!(ust_after > ust_frozen);
}

#[test]
fn garbage_collection_reclaims_versions_under_load() {
    // Tiny keyspace → heavy overwrites; frequent GC.
    let mut sim = small(3, 6, Mode::Paris, 17)
        .keys_per_partition(10)
        .intervals(paris_types::Intervals {
            gc_micros: 200_000,
            ..paris_types::Intervals::default()
        })
        .build_sim()
        .unwrap();
    let report = sim.run_workload(500_000, 3_000_000).unwrap();
    sim.settle(1_000_000);
    let gc_removed: u64 = sim
        .topology()
        .all_servers()
        .iter()
        .map(|id| sim.server(*id).stats().gc_removed)
        .sum();
    assert!(gc_removed > 0, "GC must reclaim overwritten versions");
    assert!(
        report.violations.is_empty(),
        "GC must not break consistency: {:#?}",
        report.violations
    );
}

#[test]
fn remote_dc_reads_work_without_local_replica() {
    // 3 DCs, R=2: every DC misses a third of the partitions, so the 0.0
    // locality workload constantly reads remote partitions.
    let mut sim = small(3, 6, Mode::Paris, 19)
        .workload(paris_workload::WorkloadConfig {
            local_tx_ratio: 0.0,
            ..paris_workload::WorkloadConfig::read_heavy()
        })
        .build_sim()
        .unwrap();
    sim.run_workload(500_000, 2_000_000).unwrap();
    sim.settle(2_000_000);
    let report = sim.report();
    assert!(report.stats.committed > 50);
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
}

#[test]
fn larger_deployment_five_dcs_smoke() {
    let mut sim = small(5, 10, Mode::Paris, 23)
        .clients_per_dc(2)
        .build_sim()
        .unwrap();
    sim.run_workload(500_000, 2_000_000).unwrap();
    sim.settle(2_000_000);
    let report = sim.report();
    assert!(report.stats.committed > 50);
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    assert!(sim.check_convergence().unwrap().is_empty());
}
