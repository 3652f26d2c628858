//! §V-B "Blocking time": the average blocking time of the read phase of a
//! transaction in BPR at peak throughput.
//!
//! Paper result: 29 ms for the read-dominated workload and 41 ms for the
//! write-dominated workload. PaRiS blocks zero reads by construction.
//!
//! Self-checks (non-zero exit on failure): at each workload's peak, BPR
//! blocked more than zero reads with a mean block above zero, and PaRiS
//! blocked none.

use paris_bench::{client_ladder, paper_deployment, run_point, section, write_csv};
use paris_types::Mode;
use paris_workload::WorkloadConfig;

fn main() {
    section("Blocking time of BPR reads at peak throughput (§V-B)");
    let mut rows = Vec::new();
    let mut failed = false;
    for (label, workload, paper_ms) in [
        ("95:5", WorkloadConfig::read_heavy(), 29.0),
        ("50:50", WorkloadConfig::write_heavy(), 41.0),
    ] {
        // Find BPR's peak-throughput point, then report its blocking stats.
        let mut best: Option<(f64, paris_runtime::BlockingStats)> = None;
        for &clients in &client_ladder(Mode::Bpr) {
            let report = run_point(paper_deployment(Mode::Bpr, workload.clone(), clients, 42));
            eprintln!("  [{label} {clients:>4} clients/DC] {}", report.summary());
            if best.as_ref().is_none_or(|(k, _)| report.ktps() > *k) {
                best = Some((report.ktps(), report.blocking));
            }
        }
        let (ktps, blocking) = best.expect("sweep non-empty");
        println!(
            "\n  {label}: at peak {:.1} KTx/s — {} blocked reads, mean block {:.1} ms, max {:.1} ms",
            ktps,
            blocking.blocked_reads,
            blocking.mean_ms(),
            blocking.max_micros as f64 / 1_000.0,
        );
        println!("  (paper: {paper_ms} ms average at top throughput)");
        if blocking.blocked_reads == 0 || blocking.mean_ms() <= 0.0 {
            eprintln!(
                "FAIL: {label}: BPR's peak arm blocked no reads — the baseline stopped blocking"
            );
            failed = true;
        }
        rows.push(format!(
            "{label},{ktps:.3},{},{:.3},{:.3}",
            blocking.blocked_reads,
            blocking.mean_ms(),
            blocking.max_micros as f64 / 1_000.0
        ));

        // PaRiS control: zero blocked reads.
        let report = run_point(paper_deployment(Mode::Paris, workload.clone(), 32, 42));
        if report.blocking.blocked_reads != 0 {
            eprintln!(
                "FAIL: {label}: PaRiS blocked {} reads",
                report.blocking.blocked_reads
            );
            failed = true;
        } else {
            println!("  PaRiS control: 0 blocked reads ✓");
        }
    }
    write_csv(
        "blocking.csv",
        "workload,peak_ktps,blocked_reads,mean_block_ms,max_block_ms",
        &rows,
    );
    if failed {
        std::process::exit(1);
    }
}
