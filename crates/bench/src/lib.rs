//! Shared harness for the figure/table benchmarks.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper (see `DESIGN.md` for the index) by running simulated deployments
//! shaped like the paper's AWS testbed, all assembled through the
//! `Paris::builder()` facade. The helpers here centralize deployment
//! construction, load sweeps, and CSV output so the binaries stay
//! declarative.
//!
//! Scale note: the simulator reproduces *shapes* (who wins, by what
//! factor, where knees fall), not the paper's absolute numbers — the
//! service-time model is calibrated so a deployment saturates at a few
//! tens of thousands of transactions per second instead of hundreds
//! (which keeps every figure regenerable in minutes on a laptop). Set
//! `PARIS_BENCH_QUICK=1` to shrink windows further for smoke runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::io::Write;
use std::path::Path;

use paris_net::sim::ServiceModel;
use paris_runtime::{Cluster, ClusterBuilder, Paris, RunReport};
use paris_types::Mode;
use paris_workload::WorkloadConfig;

/// The service model used by all figure benches: the default per-message
/// costs scaled ×50 so that the paper-shaped deployment (90 servers)
/// saturates around 16 KTx/s — large enough for stable statistics, small
/// enough to simulate in seconds.
pub fn bench_service() -> ServiceModel {
    let d = ServiceModel::default();
    let scale = 50;
    ServiceModel {
        start_tx: d.start_tx * scale,
        read_coord: d.read_coord * scale,
        read_slice_base: d.read_slice_base * scale,
        read_per_key: d.read_per_key * scale,
        prepare_base: d.prepare_base * scale,
        prepare_per_key: d.prepare_per_key * scale,
        commit: d.commit * scale,
        apply_per_key: d.apply_per_key * scale,
        replicate_base: d.replicate_base * scale,
        // Stabilization messages are tiny (a handful of timestamps) and
        // their handling is a few comparisons — scaling them with data-path
        // costs would saturate the tree roots, which no real deployment
        // does.
        gossip: d.gossip * 5,
        // Blocking/unblocking a read costs parking, wake-up and re-dispatch
        // work; the paper attributes BPR's throughput gap to exactly this
        // overhead (§V-B), so it is modelled explicitly (charged once to
        // park and once to wake).
        block_overhead: 300,
    }
}

/// Whether quick mode is on (`PARIS_BENCH_QUICK=1`): shorter windows,
/// fewer sweep points.
pub fn quick() -> bool {
    std::env::var("PARIS_BENCH_QUICK").is_ok_and(|v| v == "1")
}

/// Warmup duration in simulated microseconds.
pub fn warmup_micros() -> u64 {
    if quick() {
        300_000
    } else {
        1_000_000
    }
}

/// Measurement window in simulated microseconds.
pub fn window_micros() -> u64 {
    if quick() {
        1_000_000
    } else {
        3_000_000
    }
}

/// Builds a deployment shaped like the paper's: `dcs` DCs on the AWS
/// matrix, `partitions` partitions, replication factor 2 — with the bench
/// service model and a smaller keyspace (zipf construction cost).
pub fn deployment(
    dcs: u16,
    partitions: u32,
    mode: Mode,
    workload: WorkloadConfig,
    clients_per_dc: u32,
    seed: u64,
) -> ClusterBuilder {
    Paris::builder()
        .dcs(dcs)
        .partitions(partitions)
        .replication(2)
        .keys_per_partition(10_000)
        .mode(mode)
        .aws_latencies()
        .jitter(0.05)
        .service(bench_service())
        .clients_per_dc(clients_per_dc)
        .workload(workload)
        .seed(seed)
}

/// The paper's default deployment: 5 DCs, 45 partitions, R=2
/// (18 servers/DC).
pub fn paper_deployment(
    mode: Mode,
    workload: WorkloadConfig,
    clients_per_dc: u32,
    seed: u64,
) -> ClusterBuilder {
    deployment(5, 45, mode, workload, clients_per_dc, seed)
}

/// Runs one deployment and returns its report.
pub fn run_point(builder: ClusterBuilder) -> RunReport {
    run_counted(builder).0
}

/// [`run_point`], with the slice reads the servers refused below their GC
/// horizon over the whole run (warmup included).
fn run_counted(builder: ClusterBuilder) -> (RunReport, u64) {
    let mut sim = builder.build_sim().expect("valid bench deployment");
    let report = sim
        .run_workload(warmup_micros(), window_micros())
        .expect("simulated workload cannot fail");
    let refused = sim.stats().expect("the sim's stats").refused_slices;
    (report, refused)
}

/// Runs one deployment, lets background protocols settle for a second of
/// simulated time, and returns the report (visibility histograms want the
/// settle so late applies are counted).
pub fn run_settled(builder: ClusterBuilder) -> RunReport {
    let mut sim = builder.build_sim().expect("valid bench deployment");
    sim.run_workload(warmup_micros(), window_micros())
        .expect("simulated workload cannot fail");
    sim.settle(1_000_000);
    sim.report()
}

/// One point of a load sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Client sessions per DC at this point.
    pub clients_per_dc: u32,
    /// The measurement.
    pub report: RunReport,
    /// Slice reads refused below a server's GC horizon over the run: under
    /// PaRiS, client-picked snapshots GC had passed, each refused first
    /// read retried once in the start form. An upper bound on the retries.
    pub refused_slices: u64,
}

impl SweepPoint {
    /// Refused slice reads per committed transaction: an upper bound on
    /// the share of transactions that retried a refused pick.
    pub fn refusal_rate(&self) -> f64 {
        self.refused_slices as f64 / self.report.stats.committed.max(1) as f64
    }
}

/// Sweeps offered load (client sessions per DC), as the paper does by
/// varying threads per client process; each "dot" in Fig. 1 corresponds
/// to one entry of `clients`.
pub fn load_sweep(
    mode: Mode,
    workload: &WorkloadConfig,
    clients: &[u32],
    mk: impl Fn(Mode, WorkloadConfig, u32) -> ClusterBuilder,
) -> Vec<SweepPoint> {
    clients
        .iter()
        .map(|&c| {
            let (report, refused_slices) = run_counted(mk(mode, workload.clone(), c));
            eprintln!("  [{mode} {c:>4} clients/DC] {}", report.summary());
            SweepPoint {
                clients_per_dc: c,
                report,
                refused_slices,
            }
        })
        .collect()
}

/// The client-count ladder for throughput/latency curves.
///
/// BPR gets a taller ladder: "because BPR is a blocking protocol, it
/// needs a higher number of concurrent client threads to fully utilize
/// the processing power left idle by blocked reads" (§V-B).
pub fn client_ladder(mode: Mode) -> Vec<u32> {
    match (mode, quick()) {
        (Mode::Paris, false) => vec![2, 4, 8, 16, 32, 64, 128, 192],
        (Mode::Paris, true) => vec![4, 16, 64],
        (Mode::Bpr, false) => vec![64, 128, 256, 512, 768, 1024],
        (Mode::Bpr, true) => vec![64, 256, 512],
    }
}

/// The peak-throughput point of a sweep.
pub fn peak(points: &[SweepPoint]) -> &SweepPoint {
    points
        .iter()
        .max_by(|a, b| {
            a.report
                .ktps()
                .partial_cmp(&b.report.ktps())
                .expect("throughput is finite")
        })
        .expect("sweep is non-empty")
}

/// Writes CSV rows (with header) under `results/` in the working
/// directory.
///
/// # Panics
///
/// Panics on I/O errors — benches should fail loudly.
pub fn write_csv(path: impl AsRef<Path>, header: &str, rows: &[String]) {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(path.as_ref());
    let path = path.as_path();
    let mut f =
        std::fs::File::create(path).unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
    writeln!(f, "{header}").expect("write header");
    for row in rows {
        writeln!(f, "{row}").expect("write row");
    }
    eprintln!("  wrote {}", path.display());
}

/// Prints a boxed section header so figure output is easy to scan.
pub fn section(title: &str) {
    println!("\n=== {title} ===");
}

/// Writes a machine-readable `BENCH_*.json` document under `results/` in
/// the working directory. The schema every emitter follows:
///
/// ```json
/// {
///   "schema": "paris-bench/v1",
///   "bench": "<name>",
///   "quick": true,
///   "metrics": { "<flat_metric_key>": <number>, ... },
///   "points": [ { ...per-measurement detail... }, ... ]
/// }
/// ```
///
/// `metrics` is the flat key → number map the CI regression gate
/// (`bench_gate`) compares against `bench/baseline.json`; `points` carries
/// the full sweep for humans and plots. The simulator is deterministic, so
/// the same seed produces bit-identical metrics on any machine.
///
/// # Panics
///
/// Panics on I/O errors — benches should fail loudly.
pub fn write_bench_json(file: impl AsRef<Path>, doc: &json::Json) {
    let dir = Path::new("results");
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(file.as_ref());
    std::fs::write(&path, doc.render()).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    eprintln!("  wrote {}", path.display());
}

/// Wraps a flat metrics map and per-point detail into the
/// `paris-bench/v1` envelope used by every `BENCH_*.json` file.
pub fn bench_doc(bench: &str, metrics: Vec<(String, f64)>, points: Vec<json::Json>) -> json::Json {
    json::Json::obj(vec![
        ("schema", "paris-bench/v1".into()),
        ("bench", bench.into()),
        ("quick", quick().into()),
        (
            "metrics",
            json::Json::Obj(
                metrics
                    .into_iter()
                    .map(|(k, v)| (k, json::Json::Num(v)))
                    .collect(),
            ),
        ),
        ("points", json::Json::Arr(points)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_service_scales_defaults() {
        let b = bench_service();
        let d = ServiceModel::default();
        assert_eq!(b.read_slice_base, d.read_slice_base * 50);
        assert_eq!(b.gossip, d.gossip * 5, "gossip stays cheap");
        assert_eq!(b.block_overhead, 300);
    }

    #[test]
    fn deployment_has_paper_shape() {
        let sim = paper_deployment(Mode::Paris, WorkloadConfig::read_heavy(), 8, 1)
            .build_sim()
            .unwrap();
        assert_eq!(sim.topology().dcs(), 5);
        assert_eq!(sim.topology().partitions(), 45);
        assert_eq!(sim.topology().servers_in_dc(paris_types::DcId(0)).len(), 18);
    }

    #[test]
    fn peak_finds_max_throughput() {
        let mk = |c: u32, ktps: f64| {
            let mut stats = paris_workload::stats::RunStats::new(1_000_000);
            stats.committed = (ktps * 1_000.0) as u64;
            SweepPoint {
                clients_per_dc: c,
                report: RunReport {
                    mode: Mode::Paris,
                    stats,
                    blocking: Default::default(),
                    visibility: None,
                    violations: vec![],
                    net_messages: 0,
                    net_bytes: 0,
                },
                refused_slices: 0,
            }
        };
        let points = vec![mk(2, 5.0), mk(4, 9.0), mk(8, 7.0)];
        assert_eq!(peak(&points).clients_per_dc, 4);
    }

    #[test]
    fn tiny_simulation_runs_end_to_end() {
        // A minimal smoke run through the bench path (not paper-sized).
        let report = run_point(deployment(
            3,
            6,
            Mode::Paris,
            WorkloadConfig::read_heavy(),
            2,
            5,
        ));
        assert!(report.stats.committed > 0);
    }
}
