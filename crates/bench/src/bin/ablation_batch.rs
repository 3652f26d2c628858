//! Ablation: background-traffic batching on vs. off, PaRiS and BPR.
//!
//! PaRiS's metadata is one 8-byte timestamp per message (Table I), so at
//! scale the per-message overhead — not the metadata — dominates the
//! background planes: one `Replicate` push per peer per ∆R and one gossip
//! frame per tree edge per ∆G/∆U. The batching layer coalesces those
//! per-link into `ReplicateBatch`/`GossipDigest` wire frames. This
//! ablation runs the paper-shaped deployment at a fixed offered load with
//! batching off and on (both protocol modes), with history recording
//! enabled so the consistency checker vouches that coalescing changes
//! *when* messages travel but never *what* replicas agree on.
//!
//! The run fails (non-zero exit) unless batching cuts total network
//! messages by ≥ 25% at equal offered load with zero consistency
//! violations — the acceptance bar the CI gate builds on. Emits
//! `results/ablation_batch.csv` and `results/BENCH_batch.json`.

use paris_bench::{
    bench_doc, deployment, json::Json, section, warmup_micros, window_micros, write_bench_json,
    write_csv,
};
use paris_runtime::Cluster;
use paris_types::{Intervals, Mode};
use paris_workload::WorkloadConfig;

/// Stabilization period for this ablation: 2 ms instead of the paper's
/// 5 ms, the "fresher UST" end of the trade-off where per-message
/// background overhead is at its worst and batching matters most.
const TICK_MICROS: u64 = 2_000;
/// Flush deadline: four ticks' worth of accumulation per link.
const FLUSH_MICROS: u64 = 8_000;
const BATCH_FRAMES: usize = 64;
const CLIENTS_PER_DC: u32 = 8;
/// Required message reduction at equal offered load.
const MIN_REDUCTION: f64 = 0.25;

struct Arm {
    mode: Mode,
    batched: bool,
    ktps: f64,
    mean_ms: f64,
    net_messages: u64,
    net_bytes: u64,
    violations: usize,
}

fn run_arm(mode: Mode, batched: bool) -> Arm {
    let mut builder = deployment(
        5,
        45,
        mode,
        WorkloadConfig::read_heavy(),
        CLIENTS_PER_DC,
        42,
    )
    .intervals(Intervals {
        replication_micros: TICK_MICROS,
        gst_micros: TICK_MICROS,
        ust_micros: TICK_MICROS,
        gc_micros: 1_000_000,
    })
    .record_history(true);
    // Batching is on by default now: the off arm must opt out explicitly,
    // and the on arm pins the PR-2 fixed policy so the ablation keeps
    // measuring the same thing across releases (fig4 sweeps the default).
    builder = if batched {
        builder
            .batch_size(BATCH_FRAMES)
            .flush_interval_micros(FLUSH_MICROS)
    } else {
        builder.no_batching()
    };
    let mut sim = builder.build_sim().expect("valid ablation deployment");
    let report = sim
        .run_workload(warmup_micros(), window_micros())
        .expect("simulated workload cannot fail");
    eprintln!(
        "  [{mode} batch={}] {} | {} net msgs",
        if batched { "on " } else { "off" },
        report.summary(),
        report.net_messages,
    );
    Arm {
        mode,
        batched,
        ktps: report.ktps(),
        mean_ms: report.stats.mean_latency_ms(),
        net_messages: report.net_messages,
        net_bytes: report.net_bytes,
        violations: report.violations.len(),
    }
}

fn main() {
    section("Ablation: replication & gossip batching (off vs on)");
    println!(
        "\n  {:<6} {:>6} {:>14} {:>12} {:>14} {:>12} {:>11}",
        "mode", "batch", "tput (KTx/s)", "mean (ms)", "net msgs", "msgs/tx", "violations"
    );

    let mut rows = Vec::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut points: Vec<Json> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    for mode in [Mode::Paris, Mode::Bpr] {
        let mode_slug = match mode {
            Mode::Paris => "paris",
            Mode::Bpr => "bpr",
        };
        let arms: Vec<Arm> = [false, true].map(|b| run_arm(mode, b)).into();
        for arm in &arms {
            let committed = (arm.ktps * window_micros() as f64 / 1_000.0).max(1.0);
            println!(
                "  {:<6} {:>6} {:>14.1} {:>12.2} {:>14} {:>12.1} {:>11}",
                arm.mode.to_string(),
                if arm.batched { "on" } else { "off" },
                arm.ktps,
                arm.mean_ms,
                arm.net_messages,
                arm.net_messages as f64 / committed,
                arm.violations,
            );
            let onoff = if arm.batched { "on" } else { "off" };
            rows.push(format!(
                "{},{},{:.3},{:.3},{},{},{}",
                arm.mode,
                onoff,
                arm.ktps,
                arm.mean_ms,
                arm.net_messages,
                arm.net_bytes,
                arm.violations,
            ));
            metrics.push((format!("batch_{mode_slug}_{onoff}_ktps"), arm.ktps));
            metrics.push((
                format!("batch_{mode_slug}_{onoff}_net_messages"),
                arm.net_messages as f64,
            ));
            points.push(Json::obj(vec![
                ("mode", arm.mode.to_string().into()),
                ("batched", arm.batched.into()),
                ("clients_per_dc", CLIENTS_PER_DC.into()),
                ("ktps", arm.ktps.into()),
                ("mean_ms", arm.mean_ms.into()),
                ("net_messages", arm.net_messages.into()),
                ("net_bytes", arm.net_bytes.into()),
                ("violations", (arm.violations as u64).into()),
            ]));
            if arm.violations != 0 {
                failures.push(format!(
                    "{} batch={onoff}: {} consistency violations",
                    arm.mode, arm.violations
                ));
            }
        }
        let (off, on) = (&arms[0], &arms[1]);
        let reduction = 1.0 - on.net_messages as f64 / off.net_messages.max(1) as f64;
        println!(
            "  {mode:<6} batching cuts messages by {:.1}% at equal offered load",
            reduction * 100.0
        );
        metrics.push((
            format!("batch_{mode_slug}_reduction_pct"),
            reduction * 100.0,
        ));
        if reduction < MIN_REDUCTION {
            failures.push(format!(
                "{mode}: message reduction {:.1}% is below the {:.0}% bar",
                reduction * 100.0,
                MIN_REDUCTION * 100.0
            ));
        }
    }

    write_csv(
        "ablation_batch.csv",
        "mode,batched,ktps,mean_ms,net_messages,net_bytes,violations",
        &rows,
    );
    write_bench_json(
        "BENCH_batch.json",
        &bench_doc("ablation_batch", metrics, points),
    );

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("\n  (batching trades bounded extra staleness — one flush interval — for fewer, fatter frames)");
}
