//! Tests of the benchmark itself: determinism of its inputs and exact
//! counts, the span arithmetic, the names it prints, and that a wrong
//! history fails the run.

use std::time::Duration;

use crate::driver::{self, Sessions, STAGES};
use crate::hygiene::TmpRoot;
use crate::metrics::{self, RunResult, END_TO_END};
use crate::seam::{ClientRead, DcId, Deployment, History, ReadSource, Shape, TxStream};
use crate::trace::Tracer;
use crate::traced;
use crate::workloads::{self, Substrate, Workload, WORKLOADS};

/// `socket_read_heavy`'s shape on the synchronous in-process backend.
fn mini() -> Workload {
    Workload {
        substrate: Substrate::Mini,
        ..WORKLOADS[0]
    }
}

fn stream(w: &Workload, seed: u64) -> Vec<crate::seam::TxSpec> {
    let shape = Shape::of(w);
    let mut streams: Vec<TxStream> = (0..shape.dcs())
        .map(|dc| TxStream::new(w, &shape, seed, DcId(dc)))
        .collect();
    let dcs = streams.len();
    (0..300).map(|i| streams[i % dcs].next_tx()).collect()
}

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    for w in &WORKLOADS {
        assert_eq!(stream(w, 7), stream(w, 7), "{}", w.name);
        assert_ne!(stream(w, 7), stream(w, 8), "{}", w.name);
    }
}

#[test]
fn pump_counts_repeat_exactly() {
    let w = workloads::by_name("socket_write_heavy_durable").expect("a workload");
    let mut tmp = TmpRoot::create().expect("scratch directory");
    let first = traced::pump_only(w, 3, &mut tmp).expect("first pump");
    let second = traced::pump_only(w, 3, &mut tmp).expect("second pump");
    let names: Vec<String> = metrics::per_layer().into_iter().map(|(n, _)| n).collect();
    let mut compared = 0;
    for (name, value) in &first {
        assert!(
            names.contains(name),
            "{name} is not a declared per-layer metric"
        );
        let exact = name == "proto.bytes_per_tx"
            || name.starts_with("proto.bytes.")
            || name.starts_with("core.msgs_per_tx.")
            || name == "storage.wal_bytes_per_version"
            || name == "storage.disk_bytes_per_user_byte"
            || name == "net.coalescer_frames_per_msg";
        if exact {
            assert_eq!(value.to_bits(), second[name].to_bits(), "{name}");
            assert!(*value > 0.0, "{name} counted nothing");
            compared += 1;
        }
    }
    assert_eq!(compared, 6 + 8 + 4);
    let other = traced::pump_only(w, 4, &mut tmp).expect("third pump");
    assert_ne!(first["proto.bytes_per_tx"], other["proto.bytes_per_tx"]);
}

#[test]
fn stage_spans_sum_to_their_transaction() {
    let w = mini();
    let shape = Shape::of(&w);
    let mut dep = Deployment::build(&w, 5, None).expect("mini deployment");
    let mut history = History::default();
    driver::preload(&mut dep, &w, &shape, &mut history).expect("preload");
    dep.stabilize(5);
    let mut sessions = Sessions::open(&mut dep, &w, &shape, 5).expect("sessions");
    let mut tracer = Tracer::new();
    let driven = driver::drive(
        &mut dep,
        &mut sessions,
        &mut history,
        Duration::from_millis(200),
        Some(&mut tracer),
    );
    assert!(driven.committed > 10 && driven.errored == 0);
    let roots: Vec<_> = tracer
        .spans()
        .iter()
        .filter(|s| s.op == "live_tx")
        .collect();
    assert_eq!(roots.len() as u64, driven.committed);
    for root in roots {
        let stages: Vec<_> = tracer
            .spans()
            .iter()
            .filter(|s| s.parent == root.id)
            .collect();
        let names: Vec<&str> = stages.iter().map(|s| s.kind).collect();
        assert_eq!(names, STAGES);
        let sum: u64 = stages.iter().map(|s| s.nanos()).sum();
        let off = sum.abs_diff(root.nanos()) as f64;
        assert!(
            off <= 0.01 * root.nanos() as f64,
            "{sum} vs {}",
            root.nanos()
        );
    }
    assert!(
        history.violations().is_empty(),
        "{:?}",
        history.violations()
    );
}

#[test]
fn a_corrupted_history_fails_the_run() {
    let w = mini();
    let shape = Shape::of(&w);
    let mut dep = Deployment::build(&w, 9, None).expect("mini deployment");
    let mut history = History::default();
    driver::preload(&mut dep, &w, &shape, &mut history).expect("preload");
    dep.stabilize(5);
    assert!(history.violations().is_empty());

    // A reader that, with everything long stable, is told key 0 does not
    // exist: a stale read the checker must refuse.
    let reader = dep.open_client(DcId(1)).expect("client");
    let snapshot = dep.begin(reader).expect("begin");
    let ct = dep.commit(reader).expect("commit");
    let stale = ClientRead {
        key: shape.key_at(crate::seam::PartitionId(0), 0),
        value: None,
        version: None,
        source: ReadSource::Server,
    };
    history.record(reader, snapshot, vec![stale], &[], ct);
    let problems = history.violations();
    assert!(!problems.is_empty());

    let result = RunResult {
        workload: "socket_read_heavy",
        metrics: Vec::new(),
        ungated: Vec::new(),
        attempted: 1,
        failed: 0,
        problems,
    };
    assert!(
        !result.correct(),
        "main exits non-zero on an incorrect result"
    );
    assert!(result.json_line().contains("\"correct\": false"));
}

fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn is_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// `BENCHMARK.json` as the tables in `metrics.rs` and `workloads.rs`
/// define it.
fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                if m.lower_is_better { "lower" } else { "higher" },
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = metrics::per_layer()
        .iter()
        .map(|(name, unit)| {
            // Costs and counts are better lower; throughput, and frames
            // folded per wire message (the coalescer doing its job), higher.
            let better = if name == "net.coalescer_frames_per_msg" || name == "runtime.tput_tx_s" {
                "higher"
            } else {
                "lower"
            };
            format!("    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}")
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        crate::DEFAULT_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[test]
fn names_are_well_formed_and_match_benchmark_json() {
    for w in &WORKLOADS {
        assert!(is_name(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
    }
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better));
    for m in &END_TO_END {
        assert!(is_name(m.name) && is_unit(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
    }
    let per_layer = metrics::per_layer();
    assert!(per_layer.len() <= 128);
    let mut seen: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    seen.extend(END_TO_END.iter().map(|m| m.name));
    for (name, unit) in &per_layer {
        assert!(is_name(name) && is_unit(unit), "{name}");
        seen.push(name);
    }
    let total = seen.len();
    seen.sort_unstable();
    seen.dedup();
    assert_eq!(seen.len(), total, "a name is used twice");

    // What the runs print is built from these same tables (`e2e::run`
    // zips `END_TO_END`, `traced::run` maps `per_layer()`), so the file
    // equals the printed set exactly when it equals the tables.
    assert_eq!(
        include_str!("../../BENCHMARK.json"),
        manifest(),
        "BENCHMARK.json is out of step with metrics.rs/workloads.rs; \
         `cargo test -- --ignored write_benchmark_json` rewrites it"
    );
}

#[test]
#[ignore = "rewrites BENCHMARK.json from the tables"]
fn write_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::write(path, manifest()).expect("write BENCHMARK.json");
}
