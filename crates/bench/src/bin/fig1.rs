//! Figure 1: throughput vs. average transaction latency, PaRiS vs BPR.
//!
//! (a) 95:5 r:w ratio — paper: PaRiS up to 1.47× higher throughput with
//!     5.91× lower latency.
//! (b) 50:50 r:w ratio — paper: up to 1.46× higher throughput with
//!     20.56× lower latency.
//!
//! Deployment: 5 DCs, 45 partitions, R = 2, 4 partitions per transaction,
//! zipfian 0.99, 95:5 local:multi (paper §V-A defaults). Each dot is one
//! offered-load level (client sessions per DC).
//!
//! Besides the CSVs, emits `results/BENCH_fig1.json` whose flat `metrics`
//! map (peak KTx/s and peak-point message counts per mode and workload)
//! feeds the CI perf-regression gate (`bench_gate`).

use paris_bench::{
    bench_doc, client_ladder, json::Json, load_sweep, paper_deployment, peak, section,
    warmup_micros, window_micros, write_bench_json, write_csv,
};
use paris_runtime::{Backend, Paris};
use paris_types::Mode;
use paris_workload::WorkloadConfig;

/// `PARIS_BENCH_BACKEND=socket` reroutes fig1 to a multi-process smoke:
/// the paper shape (90 servers) is unreasonable as one process each, so
/// the socket run measures a 2-DC × 4-partition deployment (8 child
/// processes) over loopback, checks the consistency checker's verdict,
/// and emits `BENCH_fig1_socket.json` — informational, never part of the
/// perf gate baseline.
fn socket_smoke() {
    section("Fig 1 socket smoke: multi-process over loopback TCP");
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut points: Vec<Json> = Vec::new();
    let mut violations_total = 0usize;
    for mode in [Mode::Bpr, Mode::Paris] {
        for clients in [2u32, 8] {
            let mut cluster = Paris::builder()
                .dcs(2)
                .partitions(4)
                .replication(2)
                .keys_per_partition(10_000)
                .mode(mode)
                .clients_per_dc(clients)
                .workload(WorkloadConfig::read_heavy())
                .seed(42 + u64::from(clients))
                .record_history(true)
                .backend(Backend::Socket)
                .build()
                .expect("valid socket deployment");
            let report = cluster
                .run_workload(warmup_micros(), window_micros())
                .expect("socket workload failed");
            println!(
                "  {mode:<6} {clients:>3} clients/DC: {:.1} KTx/s, mean {:.2} ms, \
                 {} wire msgs, {} violations",
                report.ktps(),
                report.stats.mean_latency_ms(),
                report.net_messages,
                report.violations.len(),
            );
            violations_total += report.violations.len();
            let mode_slug = match mode {
                Mode::Paris => "paris",
                Mode::Bpr => "bpr",
            };
            metrics.push((format!("socket_{mode_slug}_{clients}c_ktps"), report.ktps()));
            metrics.push((
                format!("socket_{mode_slug}_{clients}c_net_bytes"),
                report.net_bytes as f64,
            ));
            points.push(Json::obj(vec![
                ("figure", "fig1_socket".into()),
                ("mode", mode.to_string().into()),
                ("clients_per_dc", clients.into()),
                ("ktps", report.ktps().into()),
                ("mean_ms", report.stats.mean_latency_ms().into()),
                ("net_messages", report.net_messages.into()),
                ("net_bytes", report.net_bytes.into()),
                ("violations", (report.violations.len() as u64).into()),
            ]));
        }
    }
    write_bench_json(
        "BENCH_fig1_socket.json",
        &bench_doc("fig1_socket", metrics, points),
    );
    assert_eq!(violations_total, 0, "socket backend violated TCC");
}

fn main() {
    if std::env::var("PARIS_BENCH_BACKEND").as_deref() == Ok("socket") {
        return socket_smoke();
    }
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut points: Vec<Json> = Vec::new();
    for (label, slug, workload, csv) in [
        (
            "Fig 1a: 95:5 r:w",
            "fig1a",
            WorkloadConfig::read_heavy(),
            "fig1a.csv",
        ),
        (
            "Fig 1b: 50:50 r:w",
            "fig1b",
            WorkloadConfig::write_heavy(),
            "fig1b.csv",
        ),
    ] {
        section(label);
        let mut rows = Vec::new();
        let mut peaks = Vec::new();
        for mode in [Mode::Bpr, Mode::Paris] {
            eprintln!("{mode} sweep:");
            let sweep = load_sweep(mode, &workload, &client_ladder(mode), |mode, wl, c| {
                paper_deployment(mode, wl, c, 42 + u64::from(c))
            });
            println!(
                "\n  {mode:<6} {:>12} {:>14} {:>12} {:>12} {:>12}",
                "clients/DC", "tput (KTx/s)", "mean (ms)", "p99 (ms)", "refused/tx"
            );
            for p in &sweep {
                println!(
                    "  {mode:<6} {:>12} {:>14.1} {:>12.2} {:>12.2} {:>11.3}%",
                    p.clients_per_dc,
                    p.report.ktps(),
                    p.report.stats.mean_latency_ms(),
                    p.report.stats.percentile_ms(99.0),
                    100.0 * p.refusal_rate(),
                );
                rows.push(format!(
                    "{mode},{},{:.3},{:.3},{:.3}",
                    p.clients_per_dc,
                    p.report.ktps(),
                    p.report.stats.mean_latency_ms(),
                    p.report.stats.percentile_ms(99.0),
                ));
                points.push(Json::obj(vec![
                    ("figure", slug.into()),
                    ("mode", mode.to_string().into()),
                    ("clients_per_dc", p.clients_per_dc.into()),
                    ("ktps", p.report.ktps().into()),
                    ("mean_ms", p.report.stats.mean_latency_ms().into()),
                    ("p99_ms", p.report.stats.percentile_ms(99.0).into()),
                    ("net_messages", p.report.net_messages.into()),
                    ("net_bytes", p.report.net_bytes.into()),
                    ("refused_slices", p.refused_slices.into()),
                ]));
            }
            let best = peak(&sweep).report.clone();
            let mode_slug = match mode {
                Mode::Paris => "paris",
                Mode::Bpr => "bpr",
            };
            metrics.push((format!("{slug}_{mode_slug}_peak_ktps"), best.ktps()));
            metrics.push((
                format!("{slug}_{mode_slug}_peak_net_messages"),
                best.net_messages as f64,
            ));
            metrics.push((
                format!("{slug}_{mode_slug}_peak_net_bytes"),
                best.net_bytes as f64,
            ));
            metrics.push((
                format!("{slug}_{mode_slug}_peak_bytes_per_tx"),
                best.net_bytes as f64 / best.stats.committed.max(1) as f64,
            ));
            peaks.push((mode, best));
        }
        write_csv(csv, "mode,clients_per_dc,ktps,mean_ms,p99_ms", &rows);

        // The paper's headline ratios at peak throughput.
        let bpr = &peaks[0].1;
        let paris = &peaks[1].1;
        println!(
            "\n  PaRiS/BPR at peak: throughput {:.2}x, latency {:.2}x lower",
            paris.ktps() / bpr.ktps(),
            bpr.stats.mean_latency_ms() / paris.stats.mean_latency_ms(),
        );
        println!(
            "  (paper: {} — throughput up to {}, latency {} lower)",
            label,
            if label.contains("95:5") {
                "1.47x"
            } else {
                "1.46x"
            },
            if label.contains("95:5") {
                "5.91x"
            } else {
                "20.56x"
            },
        );
    }
    write_bench_json("BENCH_fig1.json", &bench_doc("fig1", metrics, points));
}
