//! Ablation: stabilization-tree shape.
//!
//! The paper organizes the nodes of a DC "as a tree to reduce message
//! exchange" (§IV-B) without evaluating the shape. This ablation compares
//! a flat (depth-1) tree against bounded fanouts: deeper trees shrink the
//! root's fan-in (max messages any single node handles per round) but add
//! hops, so the UST lags more and update visibility grows. The flat tree
//! is the right default at the paper's 18 servers/DC.
//!
//! Self-check (non-zero exit on failure): the flat tree's visibility p50
//! is at most every deeper tree's.

use paris_bench::{paper_deployment, run_settled, section, write_csv};
use paris_types::Mode;
use paris_workload::WorkloadConfig;

fn main() {
    section("Ablation: stabilization tree branching factor");
    // 0 = flat (root has 17 children at 18 servers/DC).
    let branchings = [0usize, 4, 2];
    let mut rows = Vec::new();
    let mut p50s = Vec::new();
    println!(
        "\n  {:>9} {:>12} {:>14} {:>16} {:>16}",
        "branching", "tree depth", "tput (KTx/s)", "visib. p50 (ms)", "visib. p90 (ms)"
    );
    for &bf in &branchings {
        let config = paper_deployment(Mode::Paris, WorkloadConfig::read_heavy(), 16, 42)
            .record_events(true)
            .stab_branching(bf);
        // Depth of a complete bf-ary tree over 18 nodes (flat = 1).
        let depth = match bf {
            0 => 1,
            _ => {
                let mut nodes = 1usize;
                let mut level = 1usize;
                let mut depth = 0usize;
                while nodes < 18 {
                    level *= bf;
                    nodes += level;
                    depth += 1;
                }
                depth
            }
        };
        let report = run_settled(config);
        let vis = report.visibility.as_ref().expect("events recorded");
        p50s.push((bf, vis.percentile(50.0)));
        let label = if bf == 0 {
            "flat".to_string()
        } else {
            bf.to_string()
        };
        println!(
            "  {label:>9} {depth:>12} {:>14.1} {:>16.1} {:>16.1}",
            report.ktps(),
            vis.percentile(50.0) as f64 / 1_000.0,
            vis.percentile(90.0) as f64 / 1_000.0,
        );
        rows.push(format!(
            "{label},{depth},{:.3},{:.3},{:.3}",
            report.ktps(),
            vis.percentile(50.0) as f64 / 1_000.0,
            vis.percentile(90.0) as f64 / 1_000.0,
        ));
    }
    write_csv(
        "ablation_tree.csv",
        "branching,depth,ktps,visibility_p50_ms,visibility_p90_ms",
        &rows,
    );
    println!("\n  (expectation: deeper trees add aggregation hops → higher visibility latency)");
    let flat = p50s[0].1;
    let mut failed = false;
    for &(bf, p50) in &p50s[1..] {
        if flat > p50 {
            eprintln!(
                "FAIL: flat tree's visibility p50 {flat} µs exceeds branching {bf}'s {p50} µs"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
