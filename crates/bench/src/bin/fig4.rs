//! Figure 4: update-visibility latency — PaRiS vs BPR, and the batching
//! staleness characterization.
//!
//! The visibility latency of an update X in DC_i is the wall-clock delta
//! between X becoming visible in DC_i and X's commit in its origin DC.
//! Paper result: PaRiS has *higher* visibility latency than BPR (~200 ms
//! worse in the tail) — the deliberate freshness cost of reading from the
//! universally-stable snapshot instead of blocking.
//!
//! This bench also answers the question batching by default raises:
//! **what does coalescing cost in freshness?** A second sweep runs PaRiS
//! with batching off and with the default policy (paced by stable-time
//! progress, stabilisation pushed on arrival), recording per-arm
//! visibility percentiles and network message counts — the
//! visibility/freshness trade-off as data instead of a footnote. The
//! default arm keeps its historical slug, `adaptive`, so its gated
//! metric names stay comparable across releases.
//!
//! Self-checks (non-zero exit on failure) — the bars that justify
//! batching as the default:
//!
//! * the default arm keeps ≥ 25% total message reduction vs batching
//!   off (the `ablation_batch` invariant, re-proven at fig4's load);
//! * the default arm's p90 visibility inflation over batching-off stays
//!   within one quantum `Q = 3·∆R` — the most a commit can wait for the
//!   watermark that carries it;
//! * zero consistency violations in every arm (history checker on).
//!
//! Emits `results/fig4.csv` (CDFs), `results/fig4_batching.csv` (sweep
//! summary) and `results/BENCH_fig4.json` (gated by `bench_gate`).

use paris_bench::{
    bench_doc, json::Json, paper_deployment, run_settled, section, write_bench_json, write_csv,
};
use paris_runtime::{ClusterBuilder, RunReport};
use paris_types::Mode;
use paris_workload::stats::Histogram;
use paris_workload::WorkloadConfig;

/// The default policy's quantum at the paper's 5 ms replication tick
/// (`Q = 3·∆R`), the self-check's staleness bound.
const QUANTUM_MICROS: u64 = 15_000;
/// Required total message reduction of the default arm at equal load.
const MIN_REDUCTION: f64 = 0.25;
const CLIENTS_PER_DC: u32 = 16;

/// One measured arm of the sweep.
struct Arm {
    slug: String,
    label: String,
    visibility: Histogram,
    net_messages: u64,
    ktps: f64,
    violations: usize,
}

fn measure(
    slug: &str,
    label: &str,
    configure: impl FnOnce(ClusterBuilder) -> ClusterBuilder,
) -> Arm {
    eprintln!("running {label}...");
    let builder = configure(
        paper_deployment(
            Mode::Paris,
            WorkloadConfig::read_heavy(),
            CLIENTS_PER_DC,
            42,
        )
        .record_events(true)
        .record_history(true),
    );
    let report: RunReport = run_settled(builder);
    let ktps = report.ktps();
    Arm {
        slug: slug.to_string(),
        label: label.to_string(),
        net_messages: report.net_messages,
        ktps,
        violations: report.violations.len(),
        visibility: report.visibility.expect("events recorded"),
    }
}

fn vis_ms(hist: &Histogram, p: f64) -> f64 {
    hist.percentile(p) as f64 / 1_000.0
}

fn print_arm(label: &str, hist: &Histogram) {
    println!(
        "\n  {label}: {} samples — p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms, max {:.1} ms",
        hist.count(),
        vis_ms(hist, 50.0),
        vis_ms(hist, 90.0),
        vis_ms(hist, 99.0),
        hist.max() as f64 / 1_000.0,
    );
}

fn main() {
    section("Fig 4: update visibility latency CDF (PaRiS vs BPR)");
    let mut cdf_rows = Vec::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut points: Vec<Json> = Vec::new();
    let mut failures: Vec<String> = Vec::new();

    // The BPR side of the paper's comparison, batching off so the
    // protocol is measured bare.
    eprintln!("running BPR (batching off)...");
    let bpr = {
        let builder = paper_deployment(Mode::Bpr, WorkloadConfig::read_heavy(), CLIENTS_PER_DC, 42)
            .no_batching()
            .record_events(true);
        run_settled(builder).visibility.expect("events recorded")
    };
    // The PaRiS side doubles as the sweep's "off" arm — one simulation,
    // used by both figures (it additionally records history so the
    // sweep's checker bar covers it).
    let off_arm = measure("off", "PaRiS batching off", |b| b.no_batching());
    let paris = &off_arm.visibility;
    for (label, hist) in [("BPR", &bpr), ("PaRiS", paris)] {
        print_arm(label, hist);
        println!("  CDF (visibility ms : cumulative fraction):");
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0] {
            println!("    p{p:<4} {:>10.1} ms", vis_ms(hist, p));
        }
        for (v, f) in hist.cdf() {
            cdf_rows.push(format!("{label},{v},{f:.6}"));
        }
    }
    for (p, name) in [(50.0, "p50"), (90.0, "p90"), (99.0, "p99")] {
        metrics.push((format!("fig4_bpr_{name}_vis_ms"), vis_ms(&bpr, p)));
    }
    println!(
        "\n  PaRiS p90 is {:.0} ms higher than BPR p90 (paper: ~200 ms difference in the tail)",
        vis_ms(paris, 90.0) - vis_ms(&bpr, 90.0)
    );
    assert!(
        paris.percentile(50.0) > bpr.percentile(50.0),
        "PaRiS must trade freshness for non-blocking reads"
    );

    // The batching sweep: what coalescing costs in freshness, PaRiS only
    // (the protocol whose visibility the paper characterizes).
    section("Fig 4b: batching staleness sweep (off / default)");
    let arms = [
        off_arm,
        measure("adaptive", "PaRiS default (stable-time)", |b| b),
    ];

    println!(
        "\n  {:<14} {:>10} {:>10} {:>10} {:>12} {:>10} {:>11}",
        "arm", "p50 (ms)", "p90 (ms)", "p99 (ms)", "net msgs", "Δmsgs", "violations"
    );
    let off_msgs = arms[0].net_messages;
    let off_p90 = arms[0].visibility.percentile(90.0);
    let mut sweep_rows = Vec::new();
    for arm in &arms {
        let reduction = 1.0 - arm.net_messages as f64 / off_msgs.max(1) as f64;
        println!(
            "  {:<14} {:>10.1} {:>10.1} {:>10.1} {:>12} {:>9.1}% {:>11}",
            arm.slug,
            vis_ms(&arm.visibility, 50.0),
            vis_ms(&arm.visibility, 90.0),
            vis_ms(&arm.visibility, 99.0),
            arm.net_messages,
            reduction * 100.0,
            arm.violations,
        );
        sweep_rows.push(format!(
            "{},{:.3},{:.3},{:.3},{},{:.3},{}",
            arm.slug,
            vis_ms(&arm.visibility, 50.0),
            vis_ms(&arm.visibility, 90.0),
            vis_ms(&arm.visibility, 99.0),
            arm.net_messages,
            arm.ktps,
            arm.violations,
        ));
        for (p, name) in [(50.0, "p50"), (90.0, "p90"), (99.0, "p99")] {
            metrics.push((
                format!("fig4_{}_{name}_vis_ms", arm.slug),
                vis_ms(&arm.visibility, p),
            ));
        }
        metrics.push((
            format!("fig4_{}_net_messages", arm.slug),
            arm.net_messages as f64,
        ));
        points.push(Json::obj(vec![
            ("arm", arm.slug.as_str().into()),
            ("label", arm.label.as_str().into()),
            ("clients_per_dc", CLIENTS_PER_DC.into()),
            ("p50_vis_ms", vis_ms(&arm.visibility, 50.0).into()),
            ("p90_vis_ms", vis_ms(&arm.visibility, 90.0).into()),
            ("p99_vis_ms", vis_ms(&arm.visibility, 99.0).into()),
            ("net_messages", arm.net_messages.into()),
            ("ktps", arm.ktps.into()),
            ("violations", (arm.violations as u64).into()),
        ]));
        if arm.violations != 0 {
            failures.push(format!(
                "{}: {} consistency violations",
                arm.slug, arm.violations
            ));
        }
        for (v, f) in arm.visibility.cdf() {
            cdf_rows.push(format!("PaRiS-{},{v},{f:.6}", arm.slug));
        }
    }

    // The two bars that make batching defensible as a default.
    let default = &arms[1];
    let reduction = 1.0 - default.net_messages as f64 / off_msgs.max(1) as f64;
    let inflation_us = default.visibility.percentile(90.0) as f64 - off_p90 as f64;
    println!(
        "\n  default vs off: {:.1}% fewer messages, p90 visibility {:+.1} ms \
         (bound: one quantum, {:.1} ms)",
        reduction * 100.0,
        inflation_us / 1_000.0,
        QUANTUM_MICROS as f64 / 1_000.0,
    );
    metrics.push(("fig4_adaptive_reduction_pct".into(), reduction * 100.0));
    metrics.push((
        "fig4_adaptive_p90_inflation_ms".into(),
        inflation_us / 1_000.0,
    ));
    metrics.push((
        "fig4_violations_total".into(),
        arms.iter().map(|a| a.violations as f64).sum(),
    ));
    if reduction < MIN_REDUCTION {
        failures.push(format!(
            "default batching reduces messages by only {:.1}% (bar: {:.0}%)",
            reduction * 100.0,
            MIN_REDUCTION * 100.0
        ));
    }
    if inflation_us > QUANTUM_MICROS as f64 {
        failures.push(format!(
            "default batching inflates p90 visibility by {:.1} ms, above one \
             quantum ({:.1} ms)",
            inflation_us / 1_000.0,
            QUANTUM_MICROS as f64 / 1_000.0
        ));
    }

    write_csv("fig4.csv", "mode,visibility_micros,cum_fraction", &cdf_rows);
    write_csv(
        "fig4_batching.csv",
        "arm,p50_vis_ms,p90_vis_ms,p99_vis_ms,net_messages,ktps,violations",
        &sweep_rows,
    );
    write_bench_json("BENCH_fig4.json", &bench_doc("fig4", metrics, points));

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("\n  (the default keeps the message reduction while holding the freshness tax under one quantum)");
}
