//! Parallel non-blocking reads: read throughput vs. reader threads, and
//! read admission vs. the registry.
//!
//! The paper's headline property (§I, §V) is that transactional reads are
//! served from the UST snapshot "on any server … with minimal overhead and
//! without blocking" — i.e. the read path parallelizes. Three measurements:
//!
//! 1. **Pool ladder (threaded backend).** A read-dominant zipfian mix at a
//!    fixed offered load sweeps `read_threads ∈ {1, 2, 4}` with modeled
//!    per-read occupancy (`read_service_micros`) — occupancy overlaps
//!    across pool threads, so read throughput must scale with the pool on
//!    any host, while the served data, the concurrency and the
//!    consistency checking stay fully real.
//! 2. **Registry contention point.** At `read_service_micros = 0` and the
//!    maximum pool, nothing throttles read admission — the in-flight
//!    registry itself is the hot spot. The same arm runs once with the
//!    slot registry (lock-free CAS admission) and once with
//!    `read_slots(0)` (the pre-slot mutexed registry); the ratio is what
//!    the slots buy at full contention. On a single-core host the two
//!    paths serialize anyway, so the ratio is gated relative to the
//!    committed baseline rather than self-checked.
//! 3. **Sim lane ladder.** The deterministic backend's multi-queue read
//!    service model sweeps the same pool sizes in simulated time — exact,
//!    machine-independent scaling evidence, gated tightly.
//!
//! History recording is on and batching is on: every arm must finish with
//! **zero** checker violations.
//!
//! Self-checks (non-zero exit on failure):
//! * thread ladder throughput increases monotonically 1 → 2 → 4 reader
//!   threads (each step ≥ `MIN_STEP_GAIN`);
//! * sim lane ladder gains ≥ `SIM_MIN_TOTAL_GAIN` from 1 → 4 lanes;
//! * zero consistency violations in every arm.
//!
//! Emits `results/fig_reads.csv` and `results/BENCH_reads.json`.

use paris_bench::{bench_doc, json::Json, quick, section, write_bench_json, write_csv};
use paris_runtime::{Cluster, Paris, RunReport, Tuning};
use paris_types::Mode;
use paris_workload::WorkloadConfig;

/// Reader-thread ladder (the paper scales reads across server cores).
const THREADS: [usize; 3] = [1, 2, 4];
/// Modeled per-slice-read service occupancy (µs): large enough that the
/// pool — not the transport or the OS scheduler — is the bottleneck.
const READ_SERVICE_MICROS: u64 = 250;
/// Offered load: closed-loop sessions per DC, identical in every arm.
const CLIENTS_PER_DC: u32 = 8;
/// Required per-step throughput gain (2 pool threads should roughly
/// double a pool-bound arm; 1.25× is a conservative floor).
const MIN_STEP_GAIN: f64 = 1.25;
/// Required total 1 → 4 lane gain on the deterministic backend (exact
/// simulated time, so there is no noise; it currently measures 1.86×,
/// leaving ~25% headroom before a modeled-scaling regression trips).
const SIM_MIN_TOTAL_GAIN: f64 = 1.5;

struct Arm {
    label: String,
    read_threads: usize,
    ktps: f64,
    kreads_s: f64,
    mean_ms: f64,
    p99_ms: f64,
    violations: usize,
}

struct ArmSpec {
    label: &'static str,
    read_threads: usize,
    read_service_micros: u64,
    /// `Some(0)` forces the mutexed fallback registry.
    read_slots: Option<usize>,
}

fn run_thread_arm(spec: &ArmSpec, warmup: u64, window: u64) -> Arm {
    let mut builder = Paris::builder()
        .dcs(2)
        .partitions(4)
        .replication(2)
        .keys_per_partition(64)
        .mode(Mode::Paris)
        .workload(WorkloadConfig::read_mostly())
        .clients_per_dc(CLIENTS_PER_DC)
        .uniform_latency_micros(10_000)
        .latency_scale(0.01) // 100 µs one-way inter-DC; local links are free
        .jitter(0.0)
        .seed(42)
        .batch_size(32) // batching on: coalescing must not disturb reads
        .record_history(true);
    let mut tuning = Tuning::default()
        .read_threads(spec.read_threads)
        .read_service_micros(spec.read_service_micros);
    if let Some(slots) = spec.read_slots {
        tuning = tuning.read_slots(slots);
    }
    builder = builder.tuning(tuning);
    let mut cluster = builder.build_thread().expect("valid fig_reads deployment");
    let report = cluster
        .run_workload(warmup, window)
        .expect("threaded workload cannot fail");
    let arm = arm_of(spec.label, spec.read_threads, &report);
    eprintln!(
        "  [{}] {} | {:.1} Kreads/s",
        spec.label,
        report.summary(),
        arm.kreads_s
    );
    arm
}

fn arm_of(label: &str, read_threads: usize, report: &RunReport) -> Arm {
    let reads_per_tx = WorkloadConfig::read_mostly().reads_per_tx as f64;
    Arm {
        label: label.to_string(),
        read_threads,
        ktps: report.ktps(),
        kreads_s: report.ktps() * reads_per_tx,
        mean_ms: report.stats.mean_latency_ms(),
        p99_ms: report.stats.percentile_ms(99.0),
        violations: report.violations.len(),
    }
}

/// One deterministic sim arm of the lane ladder: short WAN, heavy modeled
/// read occupancy, so the lanes bound the closed loop.
fn run_sim_arm(lanes: usize, warmup: u64, window: u64) -> Arm {
    let mut sim = Paris::builder()
        .dcs(2)
        .partitions(4)
        .replication(2)
        .keys_per_partition(64)
        .mode(Mode::Paris)
        .workload(WorkloadConfig::read_mostly())
        .clients_per_dc(CLIENTS_PER_DC)
        .uniform_latency_micros(1_000)
        .jitter(0.0)
        .seed(42)
        .batch_size(32)
        .tuning(
            Tuning::default()
                .read_threads(lanes)
                .read_service_micros(2_000),
        )
        .record_history(true)
        .build_sim()
        .expect("valid sim deployment");
    let report = sim
        .run_workload(warmup, window)
        .expect("sim workload cannot fail");
    let arm = arm_of(&format!("sim {lanes} lane(s)"), lanes, &report);
    eprintln!("  [{}] {}", arm.label, report.summary());
    arm
}

fn main() {
    section("Parallel non-blocking reads: pool scaling and registry contention");
    // Wall-clock windows: the threaded backend measures real time.
    let (warmup, window) = if quick() {
        (200_000, 1_200_000)
    } else {
        (500_000, 4_000_000)
    };

    let mut rows = Vec::new();
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut points: Vec<Json> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut violations_total = 0u64;

    let record =
        |arm: &Arm, rows: &mut Vec<String>, points: &mut Vec<Json>, violations_total: &mut u64| {
            println!(
                "  {:>26} {:>14.2} {:>14.1} {:>11.2} {:>10.2} {:>11}",
                arm.label, arm.ktps, arm.kreads_s, arm.mean_ms, arm.p99_ms, arm.violations
            );
            rows.push(format!(
                "{},{},{:.3},{:.1},{:.3},{:.3},{}",
                arm.label.replace(',', ";"),
                arm.read_threads,
                arm.ktps,
                arm.kreads_s,
                arm.mean_ms,
                arm.p99_ms,
                arm.violations
            ));
            points.push(Json::obj(vec![
                ("arm", arm.label.clone().into()),
                ("read_threads", (arm.read_threads as u64).into()),
                ("ktps", arm.ktps.into()),
                ("kreads_s", arm.kreads_s.into()),
                ("mean_ms", arm.mean_ms.into()),
                ("p99_ms", arm.p99_ms.into()),
                ("violations", (arm.violations as u64).into()),
            ]));
            *violations_total += arm.violations as u64;
        };

    println!(
        "\n  {:>26} {:>14} {:>14} {:>11} {:>10} {:>11}",
        "arm", "tput (KTx/s)", "Kreads/s", "mean (ms)", "p99 (ms)", "violations"
    );

    // 1. Thread pool ladder (service-occupancy bound).
    let ladder: Vec<Arm> = THREADS
        .iter()
        .map(|&n| {
            run_thread_arm(
                &ArmSpec {
                    label: match n {
                        1 => "pool 1",
                        2 => "pool 2",
                        _ => "pool 4",
                    },
                    read_threads: n,
                    read_service_micros: READ_SERVICE_MICROS,
                    read_slots: None,
                },
                warmup,
                window,
            )
        })
        .collect();
    for arm in &ladder {
        record(arm, &mut rows, &mut points, &mut violations_total);
        // Deliberately no "ktps" substring: wall-clock thread throughput
        // is machine-dependent, so bench_gate treats the absolute numbers
        // as informational and gates only the ratios below.
        metrics.push((
            format!("reads_t{}_tx_s", arm.read_threads),
            arm.ktps * 1_000.0,
        ));
        if arm.violations != 0 {
            failures.push(format!(
                "{}: {} consistency violations",
                arm.label, arm.violations
            ));
        }
    }
    for pair in ladder.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        let gain = b.ktps / a.ktps.max(1e-9);
        println!(
            "  {} → {} reader threads: {:.2}× throughput",
            a.read_threads, b.read_threads, gain
        );
        if gain < MIN_STEP_GAIN {
            failures.push(format!(
                "{} → {} reader threads gained only {gain:.2}× (< {MIN_STEP_GAIN}×): \
                 read throughput must increase monotonically with the pool",
                a.read_threads, b.read_threads
            ));
        }
    }
    let speedup = ladder.last().unwrap().ktps / ladder.first().unwrap().ktps.max(1e-9);
    println!("  1 → 4 reader threads: {speedup:.2}× read throughput");
    metrics.push(("reads_speedup_4v1".into(), speedup));

    // 2. Registry contention point: zero service time, max pool — read
    //    admission itself is the hot spot. Slots vs the mutex registry.
    let contention_slots = run_thread_arm(
        &ArmSpec {
            label: "contention slots",
            read_threads: *THREADS.last().unwrap(),
            read_service_micros: 0,
            read_slots: None,
        },
        warmup,
        window,
    );
    let contention_mutex = run_thread_arm(
        &ArmSpec {
            label: "contention mutex",
            read_threads: *THREADS.last().unwrap(),
            read_service_micros: 0,
            read_slots: Some(0),
        },
        warmup,
        window,
    );
    for arm in [&contention_slots, &contention_mutex] {
        record(arm, &mut rows, &mut points, &mut violations_total);
        if arm.violations != 0 {
            failures.push(format!(
                "{}: {} consistency violations",
                arm.label, arm.violations
            ));
        }
    }
    let contention_ratio = contention_slots.ktps / contention_mutex.ktps.max(1e-9);
    println!(
        "  registry contention (service 0, pool {}): slots {:.2} KTx/s vs mutex {:.2} KTx/s \
         ({contention_ratio:.2}×)",
        THREADS.last().unwrap(),
        contention_slots.ktps,
        contention_mutex.ktps
    );
    metrics.push((
        "reads_contention_slot_tx_s".into(),
        contention_slots.ktps * 1_000.0,
    ));
    metrics.push((
        "reads_contention_mutex_tx_s".into(),
        contention_mutex.ktps * 1_000.0,
    ));
    // Gated against the baseline (the "speedup" rule): on multi-core
    // hosts the slots win outright; on a single hardware thread the two
    // admissions serialize and the ratio hovers near 1 — which is why
    // there is no absolute self-check here.
    metrics.push(("reads_contention_speedup_slots".into(), contention_ratio));

    // 3. Deterministic lane ladder on the simulated backend.
    println!();
    let (sim_warmup, sim_window) = (300_000, 2_000_000); // simulated time: always cheap
    let sim_ladder: Vec<Arm> = THREADS
        .iter()
        .map(|&n| run_sim_arm(n, sim_warmup, sim_window))
        .collect();
    for arm in &sim_ladder {
        record(arm, &mut rows, &mut points, &mut violations_total);
        if arm.violations != 0 {
            failures.push(format!(
                "{}: {} consistency violations",
                arm.label, arm.violations
            ));
        }
    }
    let sim_speedup = sim_ladder.last().unwrap().ktps / sim_ladder.first().unwrap().ktps.max(1e-9);
    println!("  sim 1 → 4 read lanes: {sim_speedup:.2}× throughput (exact simulated time)");
    metrics.push(("reads_sim_speedup_4v1".into(), sim_speedup));
    if sim_speedup < SIM_MIN_TOTAL_GAIN {
        failures.push(format!(
            "sim read lanes gained only {sim_speedup:.2}× from 1 → 4 \
             (< {SIM_MIN_TOTAL_GAIN}×): the multi-queue read service model stopped scaling"
        ));
    }

    metrics.push(("reads_violations_total".into(), violations_total as f64));

    write_csv(
        "fig_reads.csv",
        "arm,read_threads,ktps,kreads_s,mean_ms,p99_ms,violations",
        &rows,
    );
    write_bench_json("BENCH_reads.json", &bench_doc("fig_reads", metrics, points));

    if !failures.is_empty() {
        for f in &failures {
            eprintln!("FAIL: {f}");
        }
        std::process::exit(1);
    }
    println!("\n  (reads are served off the server loop by the pool; scaling comes from");
    println!("   overlapping per-read occupancy, and admission is one CAS on a snapshot slot —");
    println!("   the parallel non-blocking read claim, measured end to end)");
}
