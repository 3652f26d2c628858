//! Ablation: stabilization interval vs. data staleness and throughput.
//!
//! The paper fixes ∆R = ∆G = ∆U = 5 ms (§V-A). This ablation sweeps the
//! interval to expose the design trade-off behind that choice: shorter
//! intervals tighten the UST (fresher snapshots, lower update-visibility
//! latency) at the cost of more background messages; longer intervals do
//! the opposite. Throughput is largely insensitive — stabilization is off
//! the critical path — which is exactly why PaRiS can afford a fresh UST.
//!
//! The deployment runs the default batching, so this is the ablation of
//! exactly the mechanism that paces stabilisation: the coalescer's
//! quantum is `3·∆R`, and frames are pushed on arrival. Self-check
//! (non-zero exit on failure): along the ladder visibility p50 never
//! decreases and messages per transaction never increase.

use paris_bench::{paper_deployment, run_settled, section, write_csv};
use paris_types::{Intervals, Mode};
use paris_workload::WorkloadConfig;

fn main() {
    section("Ablation: stabilization interval (∆R=∆G=∆U) vs staleness");
    let intervals_ms = [1u64, 5, 20, 50];
    let mut rows = Vec::new();
    let mut ladder: Vec<(u64, u64, f64)> = Vec::new();
    println!(
        "\n  {:>6} {:>14} {:>16} {:>16} {:>14}",
        "∆ (ms)", "tput (KTx/s)", "visib. p50 (ms)", "visib. p90 (ms)", "net msgs/tx"
    );
    for &delta in &intervals_ms {
        let config = paper_deployment(Mode::Paris, WorkloadConfig::read_heavy(), 16, 42)
            .intervals(Intervals {
                replication_micros: delta * 1_000,
                gst_micros: delta * 1_000,
                ust_micros: delta * 1_000,
                gc_micros: 1_000_000,
            })
            .record_events(true);
        let report = run_settled(config);
        let vis = report.visibility.as_ref().expect("events recorded");
        let msgs_per_tx = report.net_messages as f64 / report.stats.committed.max(1) as f64;
        println!(
            "  {delta:>6} {:>14.1} {:>16.1} {:>16.1} {:>14.1}",
            report.ktps(),
            vis.percentile(50.0) as f64 / 1_000.0,
            vis.percentile(90.0) as f64 / 1_000.0,
            msgs_per_tx,
        );
        ladder.push((delta, vis.percentile(50.0), msgs_per_tx));
        rows.push(format!(
            "{delta},{:.3},{:.3},{:.3},{:.3}",
            report.ktps(),
            vis.percentile(50.0) as f64 / 1_000.0,
            vis.percentile(90.0) as f64 / 1_000.0,
            msgs_per_tx,
        ));
    }
    write_csv(
        "ablation_gossip.csv",
        "interval_ms,ktps,visibility_p50_ms,visibility_p90_ms,net_msgs_per_tx",
        &rows,
    );
    println!("\n  (expectation: visibility grows with ∆; throughput ~flat; msgs/tx shrink with ∆)");

    let mut failed = false;
    for pair in ladder.windows(2) {
        let ((d0, vis0, msgs0), (d1, vis1, msgs1)) = (pair[0], pair[1]);
        if vis1 < vis0 {
            eprintln!(
                "FAIL: visibility p50 fell from {vis0} µs at ∆={d0} ms to {vis1} µs at ∆={d1} ms"
            );
            failed = true;
        }
        if msgs1 > msgs0 {
            eprintln!("FAIL: msgs/tx rose from {msgs0:.2} at ∆={d0} ms to {msgs1:.2} at ∆={d1} ms");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
