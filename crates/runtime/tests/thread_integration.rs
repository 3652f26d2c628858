//! Integration tests on the real multi-threaded cluster: the same
//! protocol code under genuine concurrency, with the consistency checker
//! as the oracle — built through the facade like every other backend.

use paris_runtime::{Cluster, ClusterBuilder, Paris, ThreadCluster};
use paris_types::{Intervals, Mode};
use paris_workload::WorkloadConfig;

fn small(dcs: u16, partitions: u32, mode: Mode) -> ClusterBuilder {
    Paris::builder()
        .dcs(dcs)
        .partitions(partitions)
        .replication(2)
        .keys_per_partition(100)
        .clients_per_dc(2)
        .seed(7)
        .record_history(true)
        .mode(mode)
        .intervals(Intervals {
            replication_micros: 2_000,
            gst_micros: 2_000,
            ust_micros: 2_000,
            gc_micros: 500_000,
        })
    // WAN latencies compressed 100× (the builder's default latency_scale).
}

fn run(mut cluster: ThreadCluster, millis: u64) -> (paris_runtime::RunReport, usize) {
    let report = cluster.run_workload(0, millis * 1_000).unwrap();
    let convergence = cluster.check_convergence().unwrap();
    assert!(
        convergence.is_empty(),
        "replicas diverged: {convergence:#?}"
    );
    let recorded = report.stats.committed as usize;
    (report, recorded)
}

#[test]
fn threaded_paris_run_is_consistent_and_converges() {
    let cluster = small(3, 6, Mode::Paris).build_thread().unwrap();
    let (report, recorded) = run(cluster, 1_500);
    assert!(
        report.stats.committed > 20,
        "progress: {} txs",
        report.stats.committed
    );
    assert!(
        report.violations.is_empty(),
        "violations under real concurrency: {:#?}",
        report.violations
    );
    assert_eq!(report.blocking.blocked_reads, 0, "PaRiS never blocks");
    assert!(recorded > 20);
}

/// `stats()` reads the router's wire counters — the same cumulative
/// totals a run report carries (they used to stay at zero here).
#[test]
fn threaded_stats_carry_the_routers_wire_counters() {
    let mut cluster = small(2, 2, Mode::Paris).build_thread().unwrap();
    let before = cluster.stats().unwrap();
    let report = cluster.run_workload(0, 300_000).unwrap();
    let after = cluster.stats().unwrap();
    assert!(report.net_messages > 0 && report.net_bytes > 0);
    // Background traffic never stops, so the report's totals lie between
    // the snapshots taken around it.
    assert!(before.net_messages <= report.net_messages);
    assert!(report.net_messages <= after.net_messages);
    assert!(before.net_bytes <= report.net_bytes);
    assert!(report.net_bytes <= after.net_bytes);
}

#[test]
fn threaded_bpr_run_is_consistent_and_converges() {
    let cluster = small(3, 6, Mode::Bpr).build_thread().unwrap();
    let (report, _) = run(cluster, 1_500);
    assert!(report.stats.committed > 20);
    assert!(
        report.violations.is_empty(),
        "violations under real concurrency: {:#?}",
        report.violations
    );
}

#[test]
fn threaded_write_heavy_mix_is_consistent() {
    let cluster = small(3, 6, Mode::Paris)
        .workload(WorkloadConfig::write_heavy())
        .build_thread()
        .unwrap();
    let (report, _) = run(cluster, 1_500);
    assert!(report.stats.committed > 20);
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
}

#[test]
fn threaded_five_dc_deployment_smoke() {
    let cluster = small(5, 10, Mode::Paris).build_thread().unwrap();
    let (report, _) = run(cluster, 1_200);
    assert!(report.stats.committed > 10);
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
}

#[test]
fn threaded_bare_gst_reports_advance_the_ust() {
    // With batching off, stabilization child reports travel one to a
    // digest, uncoalesced. They must reach the server loops, so the UST
    // advances (the paper's liveness: stabilization keeps running) and
    // writes become stable.
    use paris_types::{Key, Timestamp, Value};
    let mut cluster = small(3, 6, Mode::Paris)
        .clients_per_dc(0)
        .no_batching()
        .build_thread()
        .unwrap();
    let a = cluster.open_client(0).unwrap();
    let mut txn = cluster.begin(a).unwrap();
    txn.write(Key(13), Value::from("gossiped"));
    txn.commit().unwrap();
    cluster.stabilize(5);
    assert!(
        cluster.min_ust() > Timestamp::ZERO,
        "UST must advance on bare reports"
    );
    let b = cluster.open_client(1).unwrap();
    let mut txn = cluster.begin(b).unwrap();
    assert_eq!(
        txn.read_one(Key(13)).unwrap(),
        Some(Value::from("gossiped"))
    );
    txn.commit().unwrap();
    let stats = cluster.stats().unwrap();
    assert_eq!(stats.coalesced_frames, 0, "nothing was folded");
    assert_eq!(
        stats.crossing_flushes + stats.size_flushes + stats.deadline_flushes,
        0,
        "no coalescer, no flushes"
    );
}

#[test]
fn threaded_batched_gossip_stays_on_the_loop() {
    // With batching on (the default), gossip arrives folded inside
    // GossipDigest frames. The server loops fold them (their
    // coalesced-frame counters move), stabilization works, and the links
    // release on stable-time progress, not on deadlines.
    use paris_types::{Key, Timestamp, Value};
    let mut cluster = small(3, 6, Mode::Paris)
        .clients_per_dc(0)
        .build_thread()
        .unwrap();
    let a = cluster.open_client(0).unwrap();
    let mut txn = cluster.begin(a).unwrap();
    txn.write(Key(14), Value::from("digested"));
    txn.commit().unwrap();
    cluster.stabilize(5);
    assert!(cluster.min_ust() > Timestamp::ZERO);
    let stats = cluster.stats().unwrap();
    assert!(
        stats.coalesced_frames > 0,
        "no digest reached a server loop"
    );
    assert!(
        stats.crossing_flushes > stats.deadline_flushes,
        "a healthy deployment is mostly crossings: {} crossing, {} deadline",
        stats.crossing_flushes,
        stats.deadline_flushes
    );
}

#[test]
fn threaded_interactive_and_workload_coexist() {
    // Interactive transaction handles work on a deployment that also ran
    // a closed-loop workload — the two client populations are disjoint.
    let mut cluster = small(3, 6, Mode::Paris).build_thread().unwrap();
    cluster.run_workload(0, 300_000).unwrap();

    use paris_types::{Key, Value};
    let a = cluster.open_client(0).unwrap();
    let mut txn = cluster.begin(a).unwrap();
    txn.write(Key(3), Value::from("interactive"));
    txn.commit().unwrap();
    cluster.stabilize(5);
    let b = cluster.open_client(1).unwrap();
    let mut txn = cluster.begin(b).unwrap();
    assert_eq!(
        txn.read_one(Key(3)).unwrap(),
        Some(Value::from("interactive"))
    );
    txn.commit().unwrap();
}
