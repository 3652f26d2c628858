//! CI perf-regression gate.
//!
//! Compares the `metrics` maps of freshly emitted `BENCH_*.json` files
//! against the committed `bench/baseline.json` and fails (non-zero exit)
//! when performance regressed:
//!
//! * any `*ktps*` metric may not drop more than 10% below baseline;
//! * any `*net_messages*` metric may not rise more than 10% above
//!   baseline;
//! * any `*net_bytes*` / `*bytes_per_tx*` metric may not rise more than
//!   10% above baseline — wire bytes are a first-class perf axis, so a
//!   codec or framing change that bloats traffic fails the gate;
//! * any `*speedup*` metric (the fig2b scale-out ratios) may not drop
//!   more than 50% below baseline;
//! * any `*violations*` metric must be exactly zero;
//! * every baseline metric must be present in the current results
//!   (a silently vanished benchmark is a regression too).
//!
//! The simulator is deterministic (simulated time, seeded RNG), so these
//! thresholds are slack for drift in the *code*, not the machine.
//!
//! The pass/fail table goes to stdout and — when `$GITHUB_STEP_SUMMARY`
//! is set (GitHub Actions) — to the step summary as a markdown table, so
//! a red gate explains itself without digging through logs.
//!
//! Subcommands:
//!
//! * `--list-gated` prints the gated bench binaries (one per line) — the
//!   single source the CI workflow reads, both to run the gated figures
//!   in the regression job and to exclude them from the smoke loop.
//! * `--write-baseline` refreshes `bench/baseline.json` from the current
//!   `results/BENCH_*.json` files — the one documented command for
//!   intentional perf changes (no hand-editing).
//!
//! Paths: baseline from `PARIS_BASELINE` (default `bench/baseline.json`),
//! results from `PARIS_RESULTS_DIR` (default `results`). To refresh the
//! baseline after an intentional performance change, rerun every gated
//! bench in quick mode and write the union of their metrics:
//!
//! ```sh
//! for b in $(cargo run -p paris-bench --bin bench_gate -- --list-gated); do
//!   PARIS_BENCH_QUICK=1 cargo run --release -p paris-bench --bin $b
//! done
//! cargo run --release -p paris-bench --bin bench_gate -- --write-baseline
//! ```

use std::io::Write as _;

use paris_bench::json::Json;

const KTPS_DROP_TOLERANCE: f64 = 0.10;
const MSGS_RISE_TOLERANCE: f64 = 0.10;
const BYTES_RISE_TOLERANCE: f64 = 0.10;
const SPEEDUP_DROP_TOLERANCE: f64 = 0.50;

/// The gated benches: every binary here must emit the paired results
/// file, runs in the CI bench-regression job (and the nightly full-mode
/// workflow), and is excluded from the smoke loop. Adding a gated figure
/// is a one-line change here.
const GATED: &[(&str, &str)] = &[
    ("fig1", "BENCH_fig1.json"),
    ("table1", "BENCH_table1.json"),
    ("ablation_batch", "BENCH_batch.json"),
    ("fig4", "BENCH_fig4.json"),
    ("fig2a", "BENCH_fig2a.json"),
    ("fig_recovery", "BENCH_recovery.json"),
    ("fig2b", "BENCH_fig2b.json"),
    ("fig3", "BENCH_fig3.json"),
    ("fig_chaos", "BENCH_chaos.json"),
];

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("bench_gate: cannot read {path}: {e}"));
    Json::parse(&text).unwrap_or_else(|e| panic!("bench_gate: {path} is not valid JSON: {e}"))
}

/// Collects the flat `metrics` map of one emitted results file.
fn metrics_of(doc: &Json, path: &str) -> Vec<(String, f64)> {
    doc.get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_else(|| panic!("bench_gate: {path} has no metrics object"))
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n)))
        .collect()
}

/// The union of every gated bench's current metrics.
fn current_metrics(results_dir: &str) -> Vec<(String, f64)> {
    let mut current: Vec<(String, f64)> = Vec::new();
    for (_, file) in GATED {
        let path = format!("{results_dir}/{file}");
        current.extend(metrics_of(&load(&path), &path));
    }
    current
}

/// One gate verdict, kept structured so stdout and the step summary
/// render from the same data.
struct Row {
    key: String,
    baseline: f64,
    current: Option<f64>,
    delta_pct: f64,
    rule: &'static str,
    ok: bool,
}

/// The tolerance rule a metric name selects, and whether `cur` passes it.
fn judge(key: &str, base: f64, cur: f64) -> (&'static str, bool) {
    if key.contains("ktps") {
        (
            "ktps ≥ baseline −10%",
            cur >= base * (1.0 - KTPS_DROP_TOLERANCE),
        )
    } else if key.contains("net_messages") {
        (
            "messages ≤ baseline +10%",
            cur <= base * (1.0 + MSGS_RISE_TOLERANCE),
        )
    } else if key.contains("net_bytes") || key.contains("bytes_per_tx") {
        (
            "bytes ≤ baseline +10%",
            cur <= base * (1.0 + BYTES_RISE_TOLERANCE),
        )
    } else if key.contains("speedup") {
        (
            "speedup ≥ baseline −50%",
            cur >= base * (1.0 - SPEEDUP_DROP_TOLERANCE),
        )
    } else if key.contains("violations") {
        ("must be 0", cur == 0.0)
    } else {
        // Informational metrics (e.g. reduction_pct, visibility
        // percentiles) are reported but not gated; the emitting bench
        // enforces its own floor.
        ("informational", true)
    }
}

fn gate(baseline_path: &str, results_dir: &str) -> ! {
    let baseline_metrics = metrics_of(&load(baseline_path), baseline_path);
    let current = current_metrics(results_dir);

    let mut rows: Vec<Row> = Vec::new();
    for (key, base) in baseline_metrics.iter().map(|(k, n)| (k, *n)) {
        match current.iter().find(|(k, _)| k == key) {
            None => rows.push(Row {
                key: key.clone(),
                baseline: base,
                current: None,
                delta_pct: 0.0,
                rule: "metric must exist",
                ok: false,
            }),
            Some((_, cur)) => {
                let delta_pct = if base != 0.0 {
                    (cur - base) / base * 100.0
                } else {
                    0.0
                };
                let (rule, ok) = judge(key, base, *cur);
                rows.push(Row {
                    key: key.clone(),
                    baseline: base,
                    current: Some(*cur),
                    delta_pct,
                    rule,
                    ok,
                });
            }
        }
    }

    println!(
        "{:<38} {:>12} {:>12} {:>9}  {:<26} verdict",
        "metric", "baseline", "current", "delta", "rule"
    );
    for r in &rows {
        match r.current {
            Some(cur) => println!(
                "{:<38} {:>12.2} {cur:>12.2} {:>+8.1}%  {:<26} {}",
                r.key,
                r.baseline,
                r.delta_pct,
                r.rule,
                if r.ok { "ok" } else { "FAIL" }
            ),
            None => println!(
                "{:<38} {:>12.2} {:>12} {:>9}  {:<26} FAIL (missing)",
                r.key, r.baseline, "-", "-", r.rule
            ),
        }
    }
    write_step_summary(&rows);

    let failures = rows.iter().filter(|r| !r.ok).count();
    if failures > 0 {
        eprintln!("\nbench_gate: {failures} metric(s) regressed beyond tolerance");
        std::process::exit(1);
    }
    println!("\nbench_gate: all metrics within tolerance");
    std::process::exit(0);
}

/// Appends the verdict table (markdown) to `$GITHUB_STEP_SUMMARY` when CI
/// provides one; silently skips otherwise (stdout already has the table).
fn write_step_summary(rows: &[Row]) {
    let Ok(path) = std::env::var("GITHUB_STEP_SUMMARY") else {
        return;
    };
    let failures = rows.iter().filter(|r| !r.ok).count();
    let mut md = String::new();
    md.push_str(&format!(
        "## bench_gate: {}\n\n",
        if failures == 0 {
            "all metrics within tolerance ✅".to_string()
        } else {
            format!("{failures} metric(s) regressed ❌")
        }
    ));
    md.push_str("| metric | baseline | current | delta | rule | verdict |\n");
    md.push_str("|---|---:|---:|---:|---|---|\n");
    for r in rows {
        let (cur, delta) = match r.current {
            Some(c) => (format!("{c:.2}"), format!("{:+.1}%", r.delta_pct)),
            None => ("–".to_string(), "–".to_string()),
        };
        md.push_str(&format!(
            "| `{}` | {:.2} | {} | {} | {} | {} |\n",
            r.key,
            r.baseline,
            cur,
            delta,
            r.rule,
            if r.ok { "ok" } else { "**FAIL**" }
        ));
    }
    match std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&path)
    {
        Ok(mut f) => {
            let _ = f.write_all(md.as_bytes());
        }
        Err(e) => eprintln!("bench_gate: cannot append step summary {path}: {e}"),
    }
}

/// Writes `bench/baseline.json` (or `$PARIS_BASELINE`) from the current
/// results — the documented refresh path after an intentional perf
/// change.
fn write_baseline(baseline_path: &str, results_dir: &str) -> ! {
    let mut metrics = current_metrics(results_dir);
    metrics.sort_by(|a, b| a.0.cmp(&b.0));
    let gated: Vec<&str> = GATED.iter().map(|(bin, _)| *bin).collect();
    let doc = Json::obj(vec![
        ("schema", "paris-bench-baseline/v1".into()),
        (
            "note",
            format!(
                "Quick-mode (PARIS_BENCH_QUICK=1) metrics from the gated benches ({}). \
                 Sim metrics are deterministic in simulated time; fig_recovery's and \
                 fig_chaos' socket arms run in wall-clock time, so the gate checks \
                 their counts and violations, not their speed. Refresh with \
                 `bench_gate --write-baseline` after rerunning the gated benches.",
                gated.join(", ")
            )
            .into(),
        ),
        (
            "metrics",
            Json::Obj(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k, Json::Num(v)))
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(baseline_path, doc.render())
        .unwrap_or_else(|e| panic!("bench_gate: cannot write {baseline_path}: {e}"));
    println!("bench_gate: wrote {baseline_path}");
    std::process::exit(0);
}

fn main() {
    let baseline_path =
        std::env::var("PARIS_BASELINE").unwrap_or_else(|_| "bench/baseline.json".to_string());
    let results_dir = std::env::var("PARIS_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());

    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--list-gated") => {
            for (bin, _) in GATED {
                println!("{bin}");
            }
        }
        Some("--write-baseline") => write_baseline(&baseline_path, &results_dir),
        Some(other) => {
            eprintln!(
                "bench_gate: unknown argument {other} (try --list-gated or --write-baseline)"
            );
            std::process::exit(2);
        }
        None => gate(&baseline_path, &results_dir),
    }
}
