//! Metric names, units and bounds, and the result one run prints.
//!
//! The names are fixed: later issues cite them, and `BENCHMARK.json`
//! declares exactly these (a test compares the two sets).

/// An end-to-end metric: what a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// Share of the reference value by which the metric may worsen before
    /// it counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    e2e("setup_s", "s", true, 0.25),
    e2e("visibility_p50_ms", "ms", true, 0.20),
    e2e("visibility_mean_ms", "ms", true, 0.25),
    e2e("wire_bytes_per_tx", "B", true, 0.10),
    e2e("wire_msgs_per_tx", "1", true, 0.08),
];

/// The speed of the measured window: throughput, latency, CPU per
/// transaction. What a user feels first — and what no bound of at most 25%
/// can hold on a shared virtual machine (see `PERF.md`), so these are
/// reported ungated, by the end-to-end run beside its gated metrics and by
/// the traced run among the per-layer ones. `(name, unit)`, in the order
/// `e2e::Window::speed` returns them.
pub const SPEED: [(&str, &str); 4] = [
    ("runtime.tput_tx_s", "tx/s"),
    ("runtime.lat_p50_ms", "ms"),
    ("runtime.lat_p95_ms", "ms"),
    ("runtime.cpu_ms_per_tx", "ms"),
];

const fn e2e(name: &'static str, unit: &'static str, lower: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better: lower,
        bound,
    }
}

/// Message kinds whose `Server::handle` cost is reported.
pub const HANDLE_KINDS: [&str; 14] = [
    "StartTxReq",
    "ReadReq",
    "ReadSliceReq",
    "ReadSliceResp",
    "CommitReq",
    "PrepareReq",
    "PrepareResp",
    "CommitTx",
    "ReplicateBatch",
    "Heartbeat",
    "GstReport",
    "RootGst",
    "UstBroadcast",
    "GossipDigest",
];

/// The foreground kinds among them: their per-transaction counts repeat
/// exactly.
pub const FOREGROUND_KINDS: [&str; 8] = [
    "StartTxReq",
    "ReadReq",
    "ReadSliceReq",
    "ReadSliceResp",
    "CommitReq",
    "PrepareReq",
    "PrepareResp",
    "CommitTx",
];

/// Server-to-server kinds whose codec cost and size are reported.
pub const CODEC_KINDS: [&str; 6] = [
    "ReadSliceReq",
    "ReadSliceResp",
    "PrepareReq",
    "CommitTx",
    "ReplicateBatch",
    "GossipDigest",
];

pub const TICKS: [&str; 4] = ["replicate", "gst", "ust", "gc"];

/// Every per-layer metric `(name, unit)`, layer = crate, in print order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    for (name, unit) in SPEED {
        out.push((name.to_string(), unit));
    }
    for stage in crate::driver::STAGES {
        out.push((format!("runtime.{stage}_p50_us"), "us"));
        out.push((format!("runtime.{stage}_p99_us"), "us"));
    }
    for (name, unit) in [
        ("runtime.wait_share", "1"),
        ("runtime.cpu_busy_share", "1"),
        ("runtime.rss_peak_mb", "MB"),
        ("runtime.lat_p99_ms", "ms"),
        ("runtime.trace_overhead_pct", "%"),
    ] {
        out.push((name.to_string(), unit));
    }
    for kind in HANDLE_KINDS {
        out.push((format!("core.handle_ns.{kind}"), "ns"));
    }
    for kind in FOREGROUND_KINDS {
        out.push((format!("core.msgs_per_tx.{kind}"), "1"));
    }
    out.push(("core.cpu_us_per_tx".to_string(), "us"));
    out.push(("core.client_ns_per_tx".to_string(), "ns"));
    for tick in TICKS {
        out.push((format!("core.tick_ns.{tick}"), "ns"));
    }
    out.push(("core.visibility_p90_ms".to_string(), "ms"));
    out.push(("core.visibility_polls_p50".to_string(), "count"));
    for kind in CODEC_KINDS {
        out.push((format!("proto.encode_ns.{kind}"), "ns"));
        out.push((format!("proto.decode_ns.{kind}"), "ns"));
        out.push((format!("proto.bytes.{kind}"), "B"));
    }
    for (name, unit) in [
        ("proto.cpu_us_per_tx", "us"),
        ("proto.bytes_per_tx", "B"),
        ("storage.apply_ns", "ns"),
        ("storage.read_at_ns", "ns"),
        ("storage.gc_us", "us"),
        ("storage.apply_durable_ns", "ns"),
        ("storage.checkpoint_ms", "ms"),
        ("storage.reopen_ms", "ms"),
        ("storage.wal_bytes_per_version", "B"),
        ("storage.disk_bytes_per_user_byte", "1"),
        ("net.router_hop_us", "us"),
        ("net.socket_hop_us", "us"),
        ("net.coalescer_offer_ns", "ns"),
        ("net.coalescer_frames_per_msg", "1"),
        ("clock.hlc_now_ns", "ns"),
        ("workload.next_tx_ns", "ns"),
    ] {
        out.push((name.to_string(), unit));
    }
    out
}

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Size of the sample behind a percentile or mean, where there is one.
    pub samples: Option<u64>,
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    /// What the run type reports in its JSON object: the end-to-end
    /// metrics, or every per-layer metric.
    pub metrics: Vec<Metric>,
    /// Printed beside them, not part of the JSON object: the speed metrics
    /// of an end-to-end run.
    pub ungated: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures; empty when every output was right.
    pub problems: Vec<String>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.ungated)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The metric lines, one per metric: workload, name, value, unit, and
    /// the sample count where there is one.
    pub fn print(&self) {
        for m in self.metrics.iter().chain(&self.ungated) {
            let samples = m.samples.map(|n| format!("  n={n}")).unwrap_or_default();
            println!(
                "{} {} {:.6} {}{}",
                self.workload, m.name, m.value, m.unit, samples
            );
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "{} failed_share {:.6} 1  n={} (attempted {}, failed {})",
            self.workload, share, self.attempted, self.attempted, self.failed
        );
    }

    /// The one-line JSON object the benchmark contract asks for.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite JSON number with all measured digits.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
