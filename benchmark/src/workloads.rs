//! The four benchmark workloads. Names, shapes and reasons are fixed: later
//! issues cite them, and `BENCHMARK.json` repeats the names and reasons.

/// Keys preloaded into every partition (the whole store stays in memory;
/// there is no "larger than cache" case to build).
pub const KEYS_PER_PARTITION: u64 = 2_000;
/// Key popularity inside a partition (YCSB default, paper §V-A).
pub const ZIPF_THETA: f64 = 0.99;
/// Writes per preload transaction.
pub const PRELOAD_WRITES_PER_TX: usize = 50;

/// Which live substrate a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    /// One `paris-server` process per server over loopback TCP.
    Socket,
    /// One thread per server over the in-process router.
    Thread,
    /// The synchronous in-process pump; used by the benchmark's own tests
    /// only, never by a workload.
    #[cfg_attr(not(test), allow(dead_code))]
    Mini,
}

/// How load is generated during the measured window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    /// `Cluster::run_workload`: closed loop, one client thread per DC.
    ClosedLoopPerDc,
    /// The benchmark's own driver: one thread, one session per DC in
    /// rotation, one transaction in flight.
    OneInFlight,
}

/// One workload: deployment, input and load.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub substrate: Substrate,
    pub dcs: u16,
    pub partitions: u32,
    pub replication: u16,
    pub reads_per_tx: usize,
    pub writes_per_tx: usize,
    pub partitions_per_tx: usize,
    pub local_tx_ratio: f64,
    pub value_size: usize,
    /// WAL + checkpoints (`FsyncPolicy::Never`, default 0.5 s checkpoint
    /// interval) instead of the in-memory engine.
    pub durable: bool,
    /// Injected one-way inter-DC delay (thread substrate only; loopback is
    /// the network on the socket substrate). The intra-DC delay there is
    /// the latency matrix's fixed 250 µs.
    pub inter_dc_one_way_micros: u64,
    pub load: Load,
    /// Virtual time the hand-pumped deployment of the traced run advances
    /// per transaction — roughly the live per-transaction time, so the 5 ms
    /// ticks fire about as often per transaction as they do live.
    pub pump_tx_micros: u64,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "socket_read_heavy",
        substrate: Substrate::Socket,
        dcs: 2,
        partitions: 2,
        replication: 2,
        reads_per_tx: 19,
        writes_per_tx: 1,
        partitions_per_tx: 2,
        local_tx_ratio: 0.95,
        value_size: 8,
        durable: false,
        inter_dc_one_way_micros: 0,
        load: Load::ClosedLoopPerDc,
        pump_tx_micros: 500,
        why: "Non-blocking reads over a real wire: codec, socket framing, snapshot assignment and slice reads do the work; 2PC, replication and the WAL do little.",
    },
    Workload {
        name: "socket_write_heavy_durable",
        substrate: Substrate::Socket,
        dcs: 2,
        partitions: 2,
        replication: 2,
        reads_per_tx: 10,
        writes_per_tx: 10,
        partitions_per_tx: 2,
        local_tx_ratio: 0.95,
        value_size: 8,
        durable: true,
        inter_dc_one_way_micros: 0,
        load: Load::ClosedLoopPerDc,
        pump_tx_micros: 500,
        why: "Write path: prepare/commit, coalesced replication, storage apply, WAL append, checkpoints; the only workload where the WAL works, so a read gain that costs writes shows.",
    },
    Workload {
        name: "socket_mixed_1k",
        substrate: Substrate::Socket,
        dcs: 2,
        partitions: 2,
        replication: 2,
        reads_per_tx: 10,
        writes_per_tx: 10,
        partitions_per_tx: 2,
        local_tx_ratio: 0.95,
        value_size: 1024,
        durable: false,
        inter_dc_one_way_micros: 0,
        load: Load::ClosedLoopPerDc,
        pump_tx_micros: 500,
        why: "1 KiB values: copies, buffer reuse and codec cost per byte dominate and are invisible at 8 B; bypasses the WAL, so a WAL change must not move it.",
    },
    Workload {
        name: "thread_partial_wan",
        substrate: Substrate::Thread,
        dcs: 3,
        partitions: 6,
        replication: 2,
        reads_per_tx: 10,
        writes_per_tx: 10,
        partitions_per_tx: 4,
        local_tx_ratio: 0.8,
        value_size: 8,
        durable: false,
        inter_dc_one_way_micros: 1_000,
        load: Load::OneInFlight,
        pump_tx_micros: 5_000,
        why: "Partial replication (remote slice reads and prepares), deepest UST tree, router delay wheel and server loops; no codec, TCP or disk, so changes there must leave it flat.",
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
