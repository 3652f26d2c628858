//! The traced run: where a transaction's time goes, layer by layer.
//!
//! Three sources, one seeded `TxSpec` stream, one [`Tracer`]:
//! the *pump* (`pump.rs`: CPU per call and exact counts), the *live*
//! deployment under the benchmark's one-in-flight driver (stage latencies
//! as a client sees them, waiting included), and *direct* calls into the
//! storage engines, the router, the socket framing and the HLC. The spans
//! are recorded from here, around the calls into each layer; spans inside
//! the program are a later issue.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::driver::{self, Sessions, STAGES};
use crate::e2e::{self, cores};
use crate::hygiene::TmpRoot;
use crate::metrics::{
    self, Metric, RunResult, CODEC_KINDS, FOREGROUND_KINDS, HANDLE_KINDS, SPEED, TICKS,
};
use crate::pump::{self, Pumped};
use crate::seam::{self, Error, Shape, Store};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{Substrate, Workload};

/// Visibility probes of the traced run (its p90 and poll count are
/// per-layer metrics; the gated median comes from the end-to-end run).
const TRACED_PROBES: u64 = 60;
/// Hops timed through the router and through the loopback socket.
const HOPS: usize = 2_000;
/// `Hlc::now` calls timed.
const HLC_ITERS: u32 = 200_000;

/// Where the span files go, relative to the repository root.
pub const OUT_DIR: &str = "benchmark/out";

/// Replays the pump's applied versions into fresh engines and times the
/// storage layer alone.
fn direct_storage(
    pumped: &Pumped,
    tmp: &mut TmpRoot,
    tracer: &mut Tracer,
    out: &mut BTreeMap<String, f64>,
) -> Result<(), Error> {
    let versions = pumped.applied.len().max(1) as f64;
    let per_version = |total_ns: u64| total_ns as f64 / versions;

    let mem = Store::in_memory();
    let start = tracer.now_ns();
    for v in &pumped.applied {
        std::hint::black_box(mem.apply(v));
    }
    let end = tracer.now_ns();
    tracer.record(0, 0, ("storage", "apply", "mem"), start, end);
    out.insert("storage.apply_ns".into(), per_version(end - start));

    let start = tracer.now_ns();
    for key in &pumped.read_keys {
        std::hint::black_box(mem.read_at(*key, pumped.newest));
    }
    let end = tracer.now_ns();
    tracer.record(0, 0, ("storage", "read_at", "mem"), start, end);
    out.insert(
        "storage.read_at_ns".into(),
        (end - start) as f64 / pumped.read_keys.len().max(1) as f64,
    );

    let start = tracer.now_ns();
    std::hint::black_box(mem.gc(pumped.newest));
    let end = tracer.now_ns();
    tracer.record(0, 0, ("storage", "gc", "mem"), start, end);
    out.insert("storage.gc_us".into(), (end - start) as f64 / 1e3);

    let dir = tmp.fresh_dir();
    let durable = Store::durable(&dir)?;
    let start = tracer.now_ns();
    for v in &pumped.applied {
        std::hint::black_box(durable.apply(v));
    }
    let end = tracer.now_ns();
    tracer.record(0, 0, ("storage", "apply", "durable"), start, end);
    out.insert("storage.apply_durable_ns".into(), per_version(end - start));

    // The engine's first look at the clock only sets its cadence baseline;
    // the second, one interval-and-more later, writes the checkpoint.
    durable.checkpoint(pumped.newest, 0);
    let start = tracer.now_ns();
    let written = durable.checkpoint(pumped.newest, 60_000_000);
    let end = tracer.now_ns();
    if !written {
        return Err(Error::Storage(
            "the durable engine wrote no checkpoint".into(),
        ));
    }
    tracer.record(0, 0, ("storage", "checkpoint", "durable"), start, end);
    out.insert("storage.checkpoint_ms".into(), (end - start) as f64 / 1e6);

    let disk = durable.disk_stats().ok_or(Error::Unsupported(
        "the durable engine reports no disk stats",
    ))?;
    let user_bytes: usize = pumped.applied.iter().map(|v| 8 + v.value.len()).sum();
    out.insert(
        "storage.wal_bytes_per_version".into(),
        disk.wal_bytes as f64 / disk.wal_records.max(1) as f64,
    );
    out.insert(
        "storage.disk_bytes_per_user_byte".into(),
        (disk.wal_bytes + disk.checkpoint_bytes) as f64 / user_bytes.max(1) as f64,
    );

    drop(durable);
    let start = tracer.now_ns();
    let reopened = Store::durable(&dir)?;
    let end = tracer.now_ns();
    tracer.record(0, 0, ("storage", "reopen", "durable"), start, end);
    out.insert("storage.reopen_ms".into(), (end - start) as f64 / 1e6);
    drop(reopened);
    Ok(())
}

/// What the live phase measured besides its spans.
struct Live {
    attempted: u64,
    failed: u64,
    wall_ns_per_tx: f64,
    problems: Vec<String>,
}

/// The benchmark's driver against the real backend: eight chunks, half with
/// spans on and half with spans off (their throughput ratio is the tracing
/// overhead), then the traced visibility probes.
fn live(
    w: &Workload,
    shape: &Shape,
    seed: u64,
    total: Duration,
    tmp: &mut TmpRoot,
    tracer: &mut Tracer,
    out: &mut BTreeMap<String, f64>,
) -> Result<Live, Error> {
    let mut ready = e2e::set_up(w, shape, seed, tmp)?;
    let mut problems = Vec::new();
    let (dep, history) = (&mut ready.dep, &mut ready.history);
    let mut sessions = Sessions::open(dep, w, shape, seed)?;
    driver::drive(dep, &mut sessions, history, e2e::WARMUP, None);

    let pids = e2e::cpu_pids(dep);
    let cpu_before = stats::cpu_seconds(&pids);
    let began = Instant::now();
    let chunk = total / 8;
    let mut latency_ns = Vec::new();
    let (mut on, mut off) = ((0u64, 0.0), (0u64, 0.0));
    let mut errored = 0;
    // On, off, off, on: a steady drift of the host over the chunks weighs
    // on both sides alike.
    for traced in [true, false, false, true].into_iter().cycle().take(8) {
        let driven = driver::drive(
            dep,
            &mut sessions,
            history,
            chunk,
            traced.then_some(&mut *tracer),
        );
        errored += driven.errored;
        let side = if traced { &mut on } else { &mut off };
        side.0 += driven.committed;
        side.1 += driven.elapsed.as_secs_f64();
        if traced {
            latency_ns.extend(driven.latency_ns);
        }
    }
    let cpu_after = stats::cpu_seconds(&pids);
    let busy = (cpu_after.0 - cpu_before.0) + (cpu_after.1 - cpu_before.1);
    out.insert(
        "runtime.cpu_busy_share".into(),
        busy / (began.elapsed().as_secs_f64() * cores() as f64),
    );
    out.insert("runtime.rss_peak_mb".into(), stats::rss_peak_mb(&pids));
    if on.0 == 0 || off.0 == 0 {
        return Err(Error::Transport("the live driver committed nothing"));
    }
    let (rate_on, rate_off) = (on.0 as f64 / on.1, off.0 as f64 / off.1);
    out.insert(
        "runtime.trace_overhead_pct".into(),
        100.0 * (rate_off / rate_on - 1.0),
    );
    out.insert(
        "runtime.lat_p99_ms".into(),
        stats::percentile(&mut latency_ns, 99.0) / 1e6,
    );
    for stage in STAGES {
        let mut ns = tracer.durations("stage", stage);
        out.insert(
            format!("runtime.{stage}_p50_us"),
            stats::percentile(&mut ns, 50.0) / 1e3,
        );
        out.insert(
            format!("runtime.{stage}_p99_us"),
            stats::percentile(&mut ns, 99.0) / 1e3,
        );
    }

    let mut vis = driver::probe_visibility(dep, w, shape, history, TRACED_PROBES, Some(tracer))?;
    problems.extend(vis.wrong_values());
    out.insert(
        "core.visibility_p90_ms".into(),
        stats::percentile(&mut vis.latency_ms, 90.0),
    );
    out.insert(
        "core.visibility_polls_p50".into(),
        stats::median(&mut vis.polls),
    );

    // The window's speed, as the end-to-end run measures it (same load,
    // same slices), over the time the live phase left of `--seconds`.
    let measured = e2e::measure(&mut ready, w, shape, seed, total / 2, &mut problems)?;
    for ((name, _), value) in SPEED.iter().zip(measured.speed()) {
        out.insert(name.to_string(), value);
    }
    e2e::tear_down(ready, true, &mut problems);
    Ok(Live {
        attempted: on.0 + off.0 + errored + vis.attempted,
        failed: errored + vis.failed(),
        wall_ns_per_tx: stats::mean(&latency_ns),
        problems,
    })
}

/// Turns the pump's spans and counts into the core, proto and net rows;
/// returns the CPU nanoseconds one pumped transaction cost.
fn pump_metrics(
    pumped: &Pumped,
    substrate: Substrate,
    tracer: &Tracer,
    out: &mut BTreeMap<String, f64>,
) -> f64 {
    let txs = f64::from(pumped.txs);
    for kind in HANDLE_KINDS {
        let mut ns = tracer.durations("handle", kind);
        out.insert(
            format!("core.handle_ns.{kind}"),
            stats::trimmed_mean(&mut ns),
        );
    }
    for kind in FOREGROUND_KINDS {
        let handled = tracer.durations("handle", kind).len() as f64;
        out.insert(format!("core.msgs_per_tx.{kind}"), handled / txs);
    }
    for tick in TICKS {
        let mut ns = tracer.durations("tick", tick);
        out.insert(format!("core.tick_ns.{tick}"), stats::trimmed_mean(&mut ns));
    }
    let core_ns = tracer.total_ns("core", "handle") + tracer.total_ns("core", "tick");
    let client_ns = tracer.total_ns("core", "client");
    out.insert("core.cpu_us_per_tx".into(), core_ns / txs / 1e3);
    out.insert("core.client_ns_per_tx".into(), client_ns / txs);

    for kind in CODEC_KINDS {
        for op in ["encode", "decode"] {
            let mut ns = tracer.durations(op, kind);
            out.insert(
                format!("proto.{op}_ns.{kind}"),
                stats::trimmed_mean(&mut ns),
            );
        }
        let (messages, bytes) = pumped.wire.get(kind).copied().unwrap_or_default();
        out.insert(
            format!("proto.bytes.{kind}"),
            bytes as f64 / messages.max(1) as f64,
        );
    }
    let proto_ns = tracer.total_ns("proto", "encode") + tracer.total_ns("proto", "decode");
    out.insert("proto.cpu_us_per_tx".into(), proto_ns / txs / 1e3);
    let wire_bytes: u64 = pumped.wire.values().map(|(_, bytes)| bytes).sum();
    out.insert("proto.bytes_per_tx".into(), wire_bytes as f64 / txs);

    let mut offers = tracer.durations("coalescer_offer", "");
    out.insert(
        "net.coalescer_offer_ns".into(),
        stats::trimmed_mean(&mut offers),
    );
    let (frames, messages) = pumped.coalescer;
    out.insert(
        "net.coalescer_frames_per_msg".into(),
        frames as f64 / messages.max(1) as f64,
    );
    out.insert("workload.next_tx_ns".into(), pumped.next_tx_ns);

    let net_ns = tracer.total_ns("net", "coalescer_offer");
    // The threaded substrate hands envelopes over in memory: what the codec
    // would cost is reported above, but no live transaction pays it there.
    let paid_proto_ns = match substrate {
        Substrate::Thread => 0.0,
        Substrate::Socket | Substrate::Mini => proto_ns,
    };
    (core_ns + client_ns + paid_proto_ns + net_ns) / txs
}

/// Runs the pump alone — what the exact-count tests compare.
#[cfg(test)]
pub fn pump_only(
    w: &Workload,
    seed: u64,
    tmp: &mut TmpRoot,
) -> Result<BTreeMap<String, f64>, Error> {
    let shape = Shape::of(w);
    let mut tracer = Tracer::new();
    let mut out = BTreeMap::new();
    let durable_dir = w.durable.then(|| tmp.fresh_dir());
    let pumped = pump::run(w, &shape, seed, durable_dir, &mut tracer)?;
    pump_metrics(&pumped, w.substrate, &tracer, &mut out);
    direct_storage(&pumped, tmp, &mut tracer, &mut out)?;
    Ok(out)
}

/// Runs the traced run of one workload, writes its spans to
/// `benchmark/out/trace-<workload>.jsonl` and returns every per-layer
/// metric.
pub fn run(
    w: &'static Workload,
    seed: u64,
    window: Duration,
    tmp: &mut TmpRoot,
) -> Result<RunResult, Error> {
    let shape = Shape::of(w);
    let mut tracer = Tracer::new();
    let mut out: BTreeMap<String, f64> = BTreeMap::new();

    let durable_dir = w.durable.then(|| tmp.fresh_dir());
    let pumped = pump::run(w, &shape, seed, durable_dir, &mut tracer)?;
    let pump_ns_per_tx = pump_metrics(&pumped, w.substrate, &tracer, &mut out);
    direct_storage(&pumped, tmp, &mut tracer, &mut out)?;

    let lived = live(w, &shape, seed, window * 2 / 3, tmp, &mut tracer, &mut out)?;
    out.insert(
        "runtime.wait_share".into(),
        1.0 - pump_ns_per_tx / lived.wall_ns_per_tx,
    );

    let mut hops: Vec<f64> = seam::router_hops(HOPS)
        .iter()
        .map(|ns| *ns as f64)
        .collect();
    out.insert("net.router_hop_us".into(), stats::median(&mut hops) / 1e3);
    let mut hops: Vec<f64> = seam::socket_hops(HOPS)?
        .iter()
        .map(|ns| *ns as f64)
        .collect();
    out.insert("net.socket_hop_us".into(), stats::median(&mut hops) / 1e3);
    out.insert(
        "clock.hlc_now_ns".into(),
        seam::hlc_now_ns(w.substrate, HLC_ITERS),
    );

    let mut problems = lived.problems;
    let path = Path::new(OUT_DIR).join(format!("trace-{}.jsonl", w.name));
    if let Err(e) = std::fs::create_dir_all(OUT_DIR).and_then(|()| tracer.write_jsonl(&path)) {
        problems.push(format!("could not write {}: {e}", path.display()));
    }
    eprintln!(
        "# {}: {} spans in {}",
        w.name,
        tracer.spans().len(),
        path.display()
    );

    let metrics = metrics::per_layer()
        .into_iter()
        .map(|(name, unit)| Metric {
            value: out.get(&name).copied().unwrap_or(0.0),
            name,
            unit,
            samples: None,
        })
        .collect();
    Ok(RunResult {
        workload: w.name,
        metrics,
        ungated: Vec::new(),
        attempted: lived.attempted,
        failed: lived.failed,
        problems,
    })
}
