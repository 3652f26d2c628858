//! The end-to-end run of one workload: set-up, warm-up, the measured
//! window, the visibility probes and the correctness verdict. Tracing is
//! off here; the traced run is separate (`traced.rs`).

use std::time::{Duration, Instant};

use crate::driver::{self, Sessions};
use crate::hygiene::{self, TmpRoot};
use crate::metrics::{Metric, RunResult, END_TO_END, SPEED};
use crate::seam::{Deployment, Error, History, Shape};
use crate::stats;
use crate::workloads::{Load, Workload};

/// Untimed load before the measured window.
pub const WARMUP: Duration = Duration::from_secs(1);
/// Visibility probes after the window.
pub const VISIBILITY_PROBES: u64 = 120;
/// Set-ups per run; `setup_s` is their median, the last one is measured on.
const SETUPS: usize = 3;
/// Slices of the measured window. Throughput, latency and CPU per
/// transaction are taken per slice and reported as the median over the
/// calm slices, so a stall of the host during one slice does not move them.
const SEGMENTS: u32 = 5;
/// A slice is calm when the hypervisor took ("stole") at most this share of
/// the host's CPU time from the virtual machine while it ran. Stolen time
/// is the one kind of outside interference the guest can see; a slice that
/// lost more measures the neighbours, not the program.
const CALM_STEAL_SHARE: f64 = 0.02;
/// At least this many slices count, the calmest ones, however bad the rest.
const CALM_AT_LEAST: usize = 3;

/// A deployment that is built, preloaded and stable.
pub struct Ready {
    pub dep: Deployment,
    pub history: History,
    pub setup: Duration,
}

/// Builds the deployment, preloads every key once and waits until the UST
/// covers the last preload commit.
pub fn set_up(w: &Workload, shape: &Shape, seed: u64, tmp: &mut TmpRoot) -> Result<Ready, Error> {
    let durable_dir = w.durable.then(|| tmp.fresh_dir());
    let mut history = History::default();
    let start = Instant::now();
    let mut dep = Deployment::build(w, seed, durable_dir.as_deref())?;
    let last = driver::preload(&mut dep, w, shape, &mut history)?;
    driver::wait_stable(&mut dep, last)?;
    Ok(Ready {
        dep,
        history,
        setup: start.elapsed(),
    })
}

/// Final verdict on a deployment: replicas converged (after a last
/// stabilization if it carried load since set-up made it stable), the
/// checker accepts the benchmark's own history, and — once it is dropped —
/// every server process is reaped.
pub fn tear_down(ready: Ready, carried_load: bool, problems: &mut Vec<String>) {
    let Ready {
        mut dep, history, ..
    } = ready;
    if carried_load {
        dep.stabilize(2);
    }
    match dep.convergence_violations() {
        Ok(found) => problems.extend(found),
        Err(e) => problems.push(format!("convergence check failed: {e}")),
    }
    problems.extend(history.violations());
    let pids = dep.server_pids();
    drop(dep);
    for pid in hygiene::unreaped(&pids) {
        problems.push(format!("server process {pid} was not reaped"));
    }
}

/// CPU clocks read at an edge of a slice: what `pids` consumed so far, and
/// what the hypervisor has stolen from the whole machine.
struct Clocks {
    user: f64,
    sys: f64,
    steal: f64,
}

impl Clocks {
    fn read(pids: &[u32]) -> Clocks {
        let (user, sys) = stats::cpu_seconds(pids);
        Clocks {
            user,
            sys,
            steal: stats::steal_seconds(),
        }
    }
}

/// One slice of the measured window.
struct Segment {
    committed: u64,
    failed: u64,
    seconds: f64,
    p50_ms: f64,
    p95_ms: f64,
    user_seconds: f64,
    sys_seconds: f64,
    steal_seconds: f64,
}

impl Segment {
    fn new(
        (committed, failed): (u64, u64),
        seconds: f64,
        (p50_ms, p95_ms): (f64, f64),
        (before, after): (&Clocks, &Clocks),
    ) -> Segment {
        Segment {
            committed,
            failed,
            seconds,
            p50_ms,
            p95_ms,
            user_seconds: after.user - before.user,
            sys_seconds: after.sys - before.sys,
            steal_seconds: after.steal - before.steal,
        }
    }

    fn steal_share(&self) -> f64 {
        self.steal_seconds / (self.seconds * cores() as f64)
    }
}

/// The measured window: [`SEGMENTS`] slices, plus the wire counters over
/// all of them.
pub struct Window {
    segments: Vec<Segment>,
    net_messages: u64,
    net_bytes: u64,
}

impl Window {
    fn committed(&self) -> u64 {
        self.segments.iter().map(|s| s.committed).sum()
    }

    /// The slices that count: every calm one, and at least the
    /// [`CALM_AT_LEAST`] calmest.
    fn calm(&self) -> Vec<&Segment> {
        let mut slices: Vec<&Segment> = self.segments.iter().collect();
        slices.sort_by(|a, b| a.steal_share().total_cmp(&b.steal_share()));
        let limit = slices[CALM_AT_LEAST - 1]
            .steal_share()
            .max(CALM_STEAL_SHARE);
        slices.retain(|s| s.steal_share() <= limit);
        slices
    }

    /// The median over the calm slices of what `f` computes for one.
    fn median_of(&self, f: impl Fn(&Segment) -> f64) -> f64 {
        stats::median(&mut self.calm().into_iter().map(f).collect::<Vec<_>>())
    }

    /// Throughput (tx/s), latency p50 and p95 (ms) and CPU per transaction
    /// (ms), in the order of `metrics::SPEED`.
    pub fn speed(&self) -> [f64; 4] {
        [
            self.median_of(|s| s.committed as f64 / s.seconds),
            self.median_of(|s| s.p50_ms),
            self.median_of(|s| s.p95_ms),
            self.median_of(|s| (s.user_seconds + s.sys_seconds) * 1e3 / s.committed as f64),
        ]
    }

    fn failed(&self) -> u64 {
        self.segments.iter().map(|s| s.failed).sum()
    }

    /// The slices and the CPU split, for the run's context line.
    fn describe(&self) -> String {
        let seconds: f64 = self.segments.iter().map(|s| s.seconds).sum();
        let user: f64 = self.segments.iter().map(|s| s.user_seconds).sum();
        let sys: f64 = self.segments.iter().map(|s| s.sys_seconds).sum();
        let slices: Vec<String> = self
            .segments
            .iter()
            .map(|s| {
                format!(
                    "{:.0} ({:.1}%)",
                    s.committed as f64 / s.seconds,
                    100.0 * s.steal_share()
                )
            })
            .collect();
        format!(
            "{} slices at tx/s (stolen CPU share) {}, {} of them calm; cpu {:.2} s over {:.1} s \
             of {} cores ({:.0}% busy), user {:.2} s, sys {:.2} s",
            self.segments.len(),
            slices.join(" / "),
            self.calm().len(),
            user + sys,
            seconds,
            cores(),
            100.0 * (user + sys) / (seconds * cores() as f64),
            user,
            sys,
        )
    }
}

/// The processes whose CPU a transaction is charged with: the benchmark
/// (clients, and on the thread substrate the servers) and every server
/// child.
pub fn cpu_pids(dep: &Deployment) -> Vec<u32> {
    let mut pids = dep.server_pids();
    pids.push(std::process::id());
    pids
}

/// `run_workload`, one client thread per DC, one call per slice. A call
/// blocks for its whole slice and keeps working after it (settle pause,
/// checker), so a sampler thread reads the CPU clocks at the slice's two
/// edges.
fn closed_loop_window(
    ready: &mut Ready,
    window: Duration,
    problems: &mut Vec<String>,
) -> Result<Window, Error> {
    let warm = ready.dep.closed_loop(WARMUP)?;
    problems.extend(warm.violations);
    let (messages_before, bytes_before) = ready.dep.net_counters()?;
    let pids = cpu_pids(&ready.dep);
    let slice = window / SEGMENTS;
    let mut segments = Vec::new();
    let (mut net_messages, mut net_bytes) = (0, 0);
    for _ in 0..SEGMENTS {
        let (report, (before, after)) = std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let before = Clocks::read(&pids);
                std::thread::sleep(slice);
                (before, Clocks::read(&pids))
            });
            let report = ready.dep.closed_loop(slice);
            (
                report,
                sampler.join().expect("the CPU sampler does not panic"),
            )
        });
        let report = report?;
        problems.extend(report.violations);
        let percentiles = (
            stats::histogram_percentile(&report.latency, 50.0) / 1_000.0,
            stats::histogram_percentile(&report.latency, 95.0) / 1_000.0,
        );
        segments.push(Segment::new(
            (report.committed, report.aborted),
            slice.as_secs_f64(),
            percentiles,
            (&before, &after),
        ));
        net_messages = report.net_messages - messages_before;
        net_bytes = report.net_bytes - bytes_before;
    }
    Ok(Window {
        segments,
        net_messages,
        net_bytes,
    })
}

/// The benchmark's own one-in-flight driver, one `drive` per slice.
fn one_in_flight_window(
    ready: &mut Ready,
    w: &Workload,
    shape: &Shape,
    seed: u64,
    window: Duration,
) -> Result<Window, Error> {
    let Ready { dep, history, .. } = ready;
    let mut sessions = Sessions::open(dep, w, shape, seed)?;
    driver::drive(dep, &mut sessions, history, WARMUP, None);
    let (messages_before, bytes_before) = dep.net_counters()?;
    let pids = cpu_pids(dep);
    let mut segments = Vec::new();
    for _ in 0..SEGMENTS {
        let before = Clocks::read(&pids);
        let mut driven = driver::drive(dep, &mut sessions, history, window / SEGMENTS, None);
        let after = Clocks::read(&pids);
        let percentiles = (
            stats::percentile(&mut driven.latency_ns, 50.0) / 1e6,
            stats::percentile(&mut driven.latency_ns, 95.0) / 1e6,
        );
        segments.push(Segment::new(
            (driven.committed, driven.errored),
            driven.elapsed.as_secs_f64(),
            percentiles,
            (&before, &after),
        ));
    }
    let (messages_after, bytes_after) = dep.net_counters()?;
    Ok(Window {
        segments,
        net_messages: messages_after - messages_before,
        net_bytes: bytes_after - bytes_before,
    })
}

/// Warm-up, then the measured window under the workload's kind of load.
///
/// # Errors
///
/// Transport failures, or a slice in which nothing committed.
pub fn measure(
    ready: &mut Ready,
    w: &Workload,
    shape: &Shape,
    seed: u64,
    window: Duration,
    problems: &mut Vec<String>,
) -> Result<Window, Error> {
    let measured = match w.load {
        Load::ClosedLoopPerDc => closed_loop_window(ready, window, problems)?,
        Load::OneInFlight => one_in_flight_window(ready, w, shape, seed, window)?,
    };
    if measured.segments.iter().any(|s| s.committed == 0) {
        return Err(Error::Transport(
            "nothing committed in a slice of the window",
        ));
    }
    Ok(measured)
}

/// Runs one workload end to end: its gated metrics, and the window's speed
/// beside them.
pub fn run(
    w: &'static Workload,
    seed: u64,
    window: Duration,
    tmp: &mut TmpRoot,
) -> Result<RunResult, Error> {
    let shape = Shape::of(w);
    let mut problems = Vec::new();

    let mut setups = Vec::new();
    let mut ready = set_up(w, &shape, seed, tmp)?;
    for _ in 1..SETUPS {
        setups.push(ready.setup.as_secs_f64());
        tear_down(ready, false, &mut problems);
        ready = set_up(w, &shape, seed, tmp)?;
    }
    setups.push(ready.setup.as_secs_f64());

    let measured = measure(&mut ready, w, &shape, seed, window, &mut problems)?;

    let mut vis = driver::probe_visibility(
        &mut ready.dep,
        w,
        &shape,
        &mut ready.history,
        VISIBILITY_PROBES,
        None,
    )?;
    problems.extend(vis.wrong_values());
    let own_transactions = ready.history.len();
    tear_down(ready, true, &mut problems);
    if vis.latency_ms.is_empty() {
        return Err(Error::Transport("no visibility probe became visible"));
    }

    let committed = measured.committed();
    let probes = vis.latency_ms.len() as u64;
    // In the order of `END_TO_END`, which names them.
    let values = [
        (stats::median(&mut setups), SETUPS as u64),
        (stats::median(&mut vis.latency_ms), probes),
        (stats::mean(&vis.latency_ms), probes),
        (measured.net_bytes as f64 / committed as f64, committed),
        (measured.net_messages as f64 / committed as f64, committed),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(m, (value, samples))| Metric {
            name: m.name.to_string(),
            value,
            unit: m.unit,
            samples: Some(samples),
        })
        .collect();
    let ungated = SPEED
        .iter()
        .zip(measured.speed())
        .map(|((name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
            samples: Some(committed),
        })
        .collect();
    eprintln!(
        "# {}: {} ({}); {}; {} own transactions checked",
        w.name,
        shape.describe_defaults(),
        if w.durable {
            "durable: fsync never, 0.5 s checkpoints"
        } else {
            "in-memory engine"
        },
        measured.describe(),
        own_transactions,
    );
    let failed = measured.failed();
    Ok(RunResult {
        workload: w.name,
        metrics,
        ungated,
        attempted: committed + failed + vis.attempted,
        failed: failed + vis.failed(),
        problems,
    })
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
