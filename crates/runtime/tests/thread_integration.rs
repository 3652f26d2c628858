//! Integration tests on the real multi-threaded cluster: the same
//! protocol code under genuine concurrency, with the consistency checker
//! as the oracle — built through the facade like every other backend.

use paris_runtime::{Cluster, ClusterBuilder, Paris, ThreadCluster, Tuning};
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
fn threaded_read_pool_run_is_consistent_and_converges() {
    // The same checker-verified workload, but with every PaRiS slice read
    // served by the read-thread pool instead of the server mailboxes.
    let cluster = small(3, 6, Mode::Paris)
        .tuning(Tuning::default().read_threads(2))
        .build_thread()
        .unwrap();
    let (report, _) = run(cluster, 1_500);
    assert!(
        report.stats.committed > 20,
        "progress: {} txs",
        report.stats.committed
    );
    assert!(
        report.violations.is_empty(),
        "violations with pool-served reads: {:#?}",
        report.violations
    );
    assert_eq!(report.blocking.blocked_reads, 0, "PaRiS never blocks");
}

#[test]
fn threaded_read_pool_serves_interactive_reads() {
    // An interactive causal write→read pair where the read is tapped into
    // the pool: the reply must still arrive and see the stable write.
    use paris_types::{Key, Value};
    let mut cluster = small(3, 6, Mode::Paris)
        .clients_per_dc(0)
        .tuning(Tuning::default().read_threads(3))
        .build_thread()
        .unwrap();
    let a = cluster.open_client(0).unwrap();
    let mut txn = cluster.begin(a).unwrap();
    txn.write(Key(5), Value::from("pooled"));
    txn.commit().unwrap();
    cluster.stabilize(5);
    let b = cluster.open_client(1).unwrap();
    let mut txn = cluster.begin(b).unwrap();
    assert_eq!(txn.read_one(Key(5)).unwrap(), Some(Value::from("pooled")));
    txn.commit().unwrap();
    // The pool actually served reads: the per-server view counters moved.
    let total_view_reads: u64 = cluster
        .topology()
        .all_servers()
        .into_iter()
        .filter_map(|id| cluster.read_view(id))
        .map(|v| v.stats().slice_reads())
        .sum();
    assert!(total_view_reads > 0, "no read went through the views");
}

#[test]
fn threaded_bare_gst_reports_reach_the_loop_beside_a_read_pool() {
    // With batching off, stabilization child reports travel as bare
    // GstReport frames. The read tap diverts slice reads and starts only:
    // reports must reach the server loops, so the UST advances (the
    // paper's liveness: stabilization keeps running) and writes become
    // stable, with a read pool installed.
    use paris_types::{Key, Timestamp, Value};
    let mut cluster = small(3, 6, Mode::Paris)
        .clients_per_dc(0)
        .no_batching()
        .tuning(Tuning::default().read_threads(2))
        .build_thread()
        .unwrap();
    let a = cluster.open_client(0).unwrap();
    let mut txn = cluster.begin(a).unwrap();
    txn.write(Key(13), Value::from("gossiped"));
    txn.commit().unwrap();
    cluster.stabilize(5);
    assert!(
        cluster.min_ust() > Timestamp::ZERO,
        "UST must advance with a read pool installed"
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
    // GossipDigest frames. They are never tapped: the server loops fold
    // them (their coalesced-frame counters move), stabilization works,
    // and the links release on stable-time progress, not on deadlines.
    use paris_types::{Key, Timestamp, Value};
    let mut cluster = small(3, 6, Mode::Paris)
        .clients_per_dc(0)
        .tuning(Tuning::default().read_threads(2))
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
fn threaded_read_pool_serves_start_tx() {
    // Interactive `begin` issues a StartTxReq, which the router tap
    // diverts into the pool: snapshot assignment must run through the
    // views (counted by their start counter), and the transaction must
    // still work end to end — its context lives in the shared table the
    // loop reads.
    use paris_types::{Key, Value};
    let mut cluster = small(3, 6, Mode::Paris)
        .clients_per_dc(0)
        .tuning(Tuning::default().read_threads(2))
        .build_thread()
        .unwrap();
    let a = cluster.open_client(0).unwrap();
    let mut txn = cluster.begin(a).unwrap();
    txn.write(Key(8), Value::from("pooled-start"));
    txn.commit().unwrap();
    cluster.stabilize(5);
    let b = cluster.open_client(1).unwrap();
    let mut txn = cluster.begin(b).unwrap();
    assert_eq!(
        txn.read_one(Key(8)).unwrap(),
        Some(Value::from("pooled-start"))
    );
    txn.commit().unwrap();
    let pooled_starts: u64 = cluster
        .topology()
        .all_servers()
        .into_iter()
        .filter_map(|id| cluster.read_view(id))
        .map(|v| v.stats().start_txs())
        .sum();
    assert!(pooled_starts >= 2, "starts did not go through the views");
}

#[test]
fn unset_read_threads_derives_a_pool_under_paris_but_not_bpr() {
    // No explicit read_threads: the threaded backend derives a PaRiS pool
    // from the host's parallelism, and — crucially — BPR still builds
    // (the auto default must not trip the explicit-knob rejection).
    let paris = small(3, 6, Mode::Paris).build_thread().unwrap();
    drop(paris);
    let bpr = small(3, 6, Mode::Bpr).build_thread();
    assert!(bpr.is_ok(), "auto pool sizing must leave BPR loop-served");
}

#[test]
fn builder_rejects_read_threads_under_bpr() {
    let err = match small(3, 6, Mode::Bpr)
        .tuning(Tuning::default().read_threads(2))
        .build_thread()
    {
        Ok(_) => panic!("BPR + read_threads must be rejected"),
        Err(err) => err,
    };
    assert!(err.to_string().contains("read_threads"), "{err}");
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
