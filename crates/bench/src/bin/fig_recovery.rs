//! Fault-recovery drill: kill a server mid-workload, restart it, and prove
//! that every committed version survived via the durable engine's
//! checkpoint + WAL replay. Also measures what durability costs.
//!
//! Two arms, both on the socket backend (real child processes over
//! loopback TCP — the only substrate where a crash is a crash):
//!
//! **Arm A — crash drill.** A 2-DC × 2-partition deployment (R = 2, four
//! child processes) runs with durability on. Interactive clients commit a
//! tracked set of writes, the cluster stabilizes, then `dc0-p0` is killed
//! with SIGKILL. While it is down, a DC-1 client keeps committing — to
//! partition-1 keys only, because PaRiS replication is fire-and-forget:
//! a replica that is dead when the origin pushes a batch never receives
//! it, so writes to the killed partition during the outage would be
//! *correctly* lost at that replica and prove nothing about recovery.
//! `restart_server` then respawns the child, which replays its checkpoint
//! and WAL suffix before rejoining. Fresh clients in **both** DCs read
//! back every tracked key (the DC-0 reads hit the restarted server for
//! even keys), and the history checker verifies convergence. Any
//! mismatch or violation fails the gate.
//!
//! **Arm B — durability overhead.** The same workload deployment runs
//! with durability off and on (`fsync = Never`), and must stay
//! checker-clean; the throughput ratio is reported.
//!
//! Emits `results/BENCH_recovery.json`. The `*_violations*` metrics are
//! gated to exactly 0 by `bench_gate`; the wall-clock numbers
//! (restart time, WAL size, throughput ratio) are informational because
//! they track host speed, not protocol behavior.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use paris_bench::{
    bench_doc, json::Json, quick, section, warmup_micros, window_micros, write_bench_json,
};
use paris_runtime::{Backend, Cluster, Durability, FsyncPolicy, Paris};
use paris_types::{Key, Mode, Value};
use paris_workload::WorkloadConfig;

/// Recursively sum file sizes under `dir` (WAL segments + checkpoints).
fn dir_size_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += dir_size_bytes(&path);
        } else if let Ok(meta) = entry.metadata() {
            total += meta.len();
        }
    }
    total
}

fn drill_cluster(dir: &Path) -> Box<dyn Cluster> {
    Paris::builder()
        .dcs(2)
        .partitions(2)
        .replication(2)
        .keys_per_partition(100)
        .mode(Mode::Paris)
        .clients_per_dc(0)
        .uniform_latency_micros(2_000)
        .jitter(0.0)
        .seed(907)
        .record_history(true)
        .durability(Durability::new(dir).fsync(FsyncPolicy::Never))
        .backend(Backend::Socket)
        .build()
        .expect("valid socket deployment")
}

/// Arm A: kill `dc0-p0` under tracked load, restart, prove nothing
/// committed was lost. Returns (metrics, points).
fn crash_drill() -> (Vec<(String, f64)>, Vec<Json>) {
    section("Arm A: crash + recovery drill (socket, durability on)");
    let dir = std::env::temp_dir().join(format!("paris-fig-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (pre_kill, outage) = if quick() { (24u64, 12u64) } else { (60, 30) };

    let mut cluster = drill_cluster(&dir);
    // Every commit lands here; readback must reproduce this map exactly.
    let mut expected: BTreeMap<Key, Value> = BTreeMap::new();

    // Phase 1: tracked writes to both partitions, from both DCs.
    let writer0 = cluster.open_client(0).expect("open dc0 client");
    let writer1 = cluster.open_client(1).expect("open dc1 client");
    for i in 0..pre_kill {
        let writer = if i % 2 == 0 { writer0 } else { writer1 };
        let key = Key(i % 40);
        let value = Value::from(format!("pre-kill-{i}").as_str());
        let mut txn = cluster.begin(writer).expect("begin");
        txn.write(key, value.clone());
        txn.commit().expect("pre-kill commit");
        expected.insert(key, value);
    }
    // Replication is fire-and-forget: let the origin DCs push their
    // committed batches to peer replicas *before* we kill one, or the
    // dead replica would (by design) never see them.
    cluster.stabilize(8);

    println!("  killing dc0-p0 with {pre_kill} commits on disk...");
    cluster.kill_server(0).expect("kill dc0-p0");

    // Phase 2: keep committing through the outage — DC-1 coordinators,
    // odd keys only (partition 1; `partition_of(key) = key % partitions`),
    // so no path touches the dead server.
    for i in 0..outage {
        let key = Key(2 * (i % 20) + 1);
        let value = Value::from(format!("outage-{i}").as_str());
        let mut txn = cluster.begin(writer1).expect("begin during outage");
        txn.write(key, value.clone());
        txn.commit().expect("outage commit");
        expected.insert(key, value);
    }

    let restart_started = Instant::now();
    cluster.restart_server(0).expect("restart dc0-p0");
    let restart_wall_ms = restart_started.elapsed().as_secs_f64() * 1e3;
    println!("  dc0-p0 back (recovered + rejoined) in {restart_wall_ms:.1} ms");

    // Let the outage-window writes stabilize below UST so fresh clients
    // (empty write caches) can see them from the stable snapshot.
    cluster.stabilize(8);

    // Readback from fresh clients in both DCs. The DC-0 client serves
    // even keys from the restarted server: those values exist there only
    // if checkpoint + WAL replay restored them.
    let mut lost = 0usize;
    for dc in 0..2u16 {
        let reader = cluster.open_client(dc).expect("open reader");
        for (key, want) in &expected {
            let mut txn = cluster.begin(reader).expect("begin readback");
            let got = txn.read_one(*key).expect("readback read");
            txn.commit().expect("readback commit");
            if got.as_ref() != Some(want) {
                lost += 1;
                println!("  LOST dc{dc} {key:?}: want {want:?}, got {got:?}");
            }
        }
    }
    let violations = cluster.check_convergence().expect("convergence check");
    for v in &violations {
        println!("  VIOLATION {v:?}");
    }
    let wal_disk_kb = dir_size_bytes(&dir) as f64 / 1024.0;
    println!(
        "  readback: {} keys across 2 DCs, {lost} lost, {} checker violations, \
         {wal_disk_kb:.1} KiB on disk",
        expected.len(),
        violations.len(),
    );
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);

    let metrics = vec![
        (
            "recovery_violations_total".to_string(),
            violations.len() as f64,
        ),
        ("recovery_lost_commit_violations".to_string(), lost as f64),
        (
            "recovery_commits_preserved".to_string(),
            (expected.len() - lost) as f64,
        ),
        ("recovery_restart_wall_ms".to_string(), restart_wall_ms),
        ("recovery_wal_disk_kb".to_string(), wal_disk_kb),
    ];
    let points = vec![Json::obj(vec![
        ("figure", "fig_recovery".into()),
        ("phase", "crash_drill".into()),
        ("pre_kill_commits", pre_kill.into()),
        ("outage_commits", outage.into()),
        ("tracked_keys", (expected.len() as u64).into()),
        ("lost", (lost as u64).into()),
        ("checker_violations", (violations.len() as u64).into()),
        ("restart_wall_ms", restart_wall_ms.into()),
        ("wal_disk_kb", wal_disk_kb.into()),
    ])];
    assert_eq!(lost, 0, "crash recovery lost committed versions");
    assert!(violations.is_empty(), "crash recovery violated convergence");
    (metrics, points)
}

/// Arm B: identical socket workload with durability off vs. on
/// (`fsync = Never`); the throughput ratio is the WAL's cost, reported
/// but not asserted.
///
/// Wall-clock loopback throughput wobbles ±20% run to run on a loaded
/// host, so each arm is best-of-3, and the six runs alternate (baseline,
/// durable, baseline, …) so drift in the host's speed lands on both arms
/// alike rather than on whichever ran last.
fn overhead_arm() -> (Vec<(String, f64)>, Vec<Json>) {
    section("Arm B: durability overhead (socket, fsync = Never)");
    let dir = std::env::temp_dir().join(format!("paris-fig-recovery-ovh-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut results: Vec<(&str, f64, usize)> = vec![("baseline", 0.0, 0), ("durable", 0.0, 0)];
    for attempt in 0..3u64 {
        for (durable, (_, best_ktps, violations)) in [false, true].into_iter().zip(&mut results) {
            let _ = std::fs::remove_dir_all(&dir);
            let mut builder = Paris::builder()
                .dcs(2)
                .partitions(2)
                .replication(2)
                .keys_per_partition(10_000)
                .mode(Mode::Paris)
                .clients_per_dc(4)
                .workload(WorkloadConfig::write_heavy())
                .uniform_latency_micros(2_000)
                .jitter(0.0)
                .seed(911 + attempt)
                .record_history(true)
                .backend(Backend::Socket);
            if durable {
                builder = builder.durability(Durability::new(&dir).fsync(FsyncPolicy::Never));
            }
            let mut cluster = builder.build().expect("valid socket deployment");
            let report = cluster
                .run_workload(warmup_micros(), window_micros())
                .expect("overhead workload failed");
            *best_ktps = best_ktps.max(report.ktps());
            *violations += report.violations.len();
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    for (label, best_ktps, violations) in &results {
        println!("  {label:<8}: best of 3: {best_ktps:.1} KTx/s, {violations} violations");
    }

    let baseline = results[0].1;
    let durable = results[1].1;
    let ratio = durable / baseline.max(f64::MIN_POSITIVE);
    let overhead_violations = results[0].2 + results[1].2;
    println!("  durable/baseline throughput ratio: {ratio:.3}");

    let metrics = vec![
        ("recovery_durable_tput_ratio".to_string(), ratio),
        (
            "recovery_overhead_violations".to_string(),
            overhead_violations as f64,
        ),
    ];
    let points = results
        .iter()
        .map(|(label, ktps, violations)| {
            Json::obj(vec![
                ("figure", "fig_recovery".into()),
                ("phase", "overhead".into()),
                ("arm", (*label).into()),
                ("wall_ktps", (*ktps).into()),
                ("violations", (*violations as u64).into()),
            ])
        })
        .collect();
    assert_eq!(overhead_violations, 0, "overhead arm violated TCC");
    (metrics, points)
}

fn main() {
    let (mut metrics, mut points) = crash_drill();
    let (ovh_metrics, ovh_points) = overhead_arm();
    metrics.extend(ovh_metrics);
    points.extend(ovh_points);
    write_bench_json(
        "BENCH_recovery.json",
        &bench_doc("fig_recovery", metrics, points),
    );
    println!("\nfig_recovery: all assertions passed (nothing committed was lost)");
}
