//! The repo's wall-clock benchmark. One command, `benchmark/run.sh`,
//! builds the program and this binary and runs it:
//!
//! ```text
//! benchmark/run.sh --seed 1                        # all four workloads, end to end
//! benchmark/run.sh --seed 1 --trace 1              # the traced runs: per-layer metrics
//! benchmark/run.sh --seed 1 --twice                # two end-to-end sets, compared
//! benchmark/run.sh --workload socket_read_heavy --seed 1 --seconds 18 --trace 0
//! ```
//!
//! Metric lines go to standard output as `workload metric value unit`;
//! after each workload comes one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. Context (configuration, CPU split) goes to
//! standard error. See `README.md` for what is measured and why.

mod driver;
mod e2e;
mod hygiene;
mod metrics;
mod pump;
mod seam;
mod stats;
#[cfg(test)]
mod tests;
mod trace;
mod traced;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use hygiene::TmpRoot;
use metrics::{RunResult, END_TO_END, SPEED};
use workloads::{Substrate, Workload, WORKLOADS};

/// The measured window when `--seconds` is not given: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 18;

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    twice: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: WORKLOADS.iter().collect(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        twice: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = workloads::by_name(&name).ok_or(format!("unknown workload {name}"))?;
                args.workloads = vec![w];
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--twice" => args.twice = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.twice && args.trace {
        return Err("--twice compares end-to-end sets; it does not take --trace 1".into());
    }
    Ok(args)
}

/// Runs one workload once and prints its metric lines and JSON object.
fn run_one(w: &'static Workload, args: &Args, tmp: &mut TmpRoot) -> Result<RunResult, String> {
    let window = Duration::from_secs(args.seconds);
    eprintln!("# {}: {}", w.name, w.why);
    let result = if args.trace {
        traced::run(w, args.seed, window, tmp)
    } else {
        e2e::run(w, args.seed, window, tmp)
    }
    .map_err(|e| format!("{}: {e}", w.name))?;
    result.print();
    for problem in &result.problems {
        eprintln!("INCORRECT {}: {problem}", w.name);
    }
    println!("{}", result.json_line());
    Ok(result)
}

/// Compares two end-to-end sets pair by pair: the gated metrics against
/// their bounds, the speed metrics for information. Returns how many
/// gated pairs disagree by more than their bound.
fn compare(first: &[RunResult], second: &[RunResult]) -> usize {
    let mut beyond = 0;
    println!("workload metric better first second difference bound");
    for (a, b) in first.iter().zip(second) {
        let gated = END_TO_END.iter().map(|m| {
            let better = if m.lower_is_better { "lower" } else { "higher" };
            (m.name, better, Some(m.bound))
        });
        let speed = SPEED.iter().map(|(name, _)| (*name, "-", None));
        for (name, better, bound) in gated.chain(speed) {
            let (Some(x), Some(y)) = (a.get(name), b.get(name)) else {
                continue;
            };
            let difference = (y - x) / x.abs().max(f64::MIN_POSITIVE);
            let verdict = match bound {
                Some(bound) if difference.abs() > bound => {
                    beyond += 1;
                    format!("{:.0}%  BEYOND BOUND", 100.0 * bound)
                }
                Some(bound) => format!("{:.0}%", 100.0 * bound),
                None => "ungated".to_string(),
            };
            println!(
                "{} {name} {better} {x:.6} {y:.6} {:+.2}% {verdict}",
                a.workload,
                100.0 * difference
            );
        }
    }
    beyond
}

fn run(args: &Args) -> Result<bool, String> {
    if args
        .workloads
        .iter()
        .any(|w| w.substrate == Substrate::Socket)
    {
        let root = std::env::current_dir().map_err(|e| e.to_string())?;
        hygiene::check_server_binary(&root)?;
    }
    let mut tmp = TmpRoot::create().map_err(|e| format!("scratch directory: {e}"))?;
    let mut ok = true;
    let mut sets: Vec<Vec<RunResult>> = Vec::new();
    for _ in 0..if args.twice { 2 } else { 1 } {
        let mut set = Vec::new();
        for w in &args.workloads {
            let result = run_one(w, args, &mut tmp)?;
            ok &= result.correct();
            set.push(result);
        }
        sets.push(set);
    }
    if let [first, second] = sets.as_slice() {
        let beyond = compare(first, second);
        if beyond > 0 {
            eprintln!("{beyond} metric pairs differ by more than their bound");
            ok = false;
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("paris-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Everything `run` owns — deployments, child processes, scratch
    // directories — is dropped before the exit code is returned, on the
    // error paths and on a panic's unwind alike.
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("paris-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
