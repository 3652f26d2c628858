//! Cluster configuration shared by every substrate and the protocol core.

use crate::error::ConfigError;

/// Protocol variant to run.
///
/// The paper evaluates PaRiS against **BPR** (Blocking Partial Replication,
/// §V): an identical system except that transaction snapshots are fresh
/// (coordinator clock) and reads block until the serving partition has
/// installed the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Mode {
    /// PaRiS: non-blocking reads from the UST-stable snapshot plus the
    /// client-side write cache.
    #[default]
    Paris,
    /// BPR: fresh snapshots, blocking reads (the paper's baseline).
    Bpr,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mode::Paris => write!(f, "PaRiS"),
            Mode::Bpr => write!(f, "BPR"),
        }
    }
}

/// The wire encoding a deployment's network substrates speak.
///
/// There is one: LEB128 varints for lengths, counts, sequence numbers,
/// keys and ids, and timestamps as two varints (physical and logical
/// part). Every frame entry point takes the format, so a successor
/// encoding has a place to be told apart; a peer advertising another
/// version in the connection preamble is refused before any frame is
/// parsed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireFormat {
    /// Varint codec with two-varint timestamps.
    #[default]
    V2,
}

/// Periods of the background protocols, in simulated/real microseconds.
///
/// The paper runs all stabilization protocols every 5 ms (§V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Intervals {
    /// ∆R: period of the apply/replicate tick (Alg. 4 line 5).
    pub replication_micros: u64,
    /// ∆G: period of the intra-DC GST aggregation (Alg. 4 line 34).
    pub gst_micros: u64,
    /// ∆U: period of the UST computation at DC roots (Alg. 4 line 36).
    pub ust_micros: u64,
    /// Period of the garbage-collection aggregation (§IV-B).
    pub gc_micros: u64,
}

impl Default for Intervals {
    /// Paper defaults: 5 ms stabilization everywhere; GC every second.
    fn default() -> Self {
        Intervals {
            replication_micros: 5_000,
            gst_micros: 5_000,
            ust_micros: 5_000,
            gc_micros: 1_000_000,
        }
    }
}

/// Coalescing policy for background (replication + stabilization) traffic.
///
/// When enabled, the network substrate queues background frames per link
/// and folds them into one `ReplicateBatch` / `GossipDigest` wire message.
/// A link's replication class leaves the moment its folded watermark —
/// and its stabilisation class the moment the smallest report-min / GST /
/// UST it holds — crosses the next multiple of
/// [`BatchConfig::quantum_micros`] past the value that class last sent on
/// that link. Every background frame exists to move a stable time, so a
/// link sends at most one message per class per quantum of progress
/// however many frames it is offered, and because hybrid-clock timestamps
/// are the loosely synchronised clock the protocol already assumes, all
/// links of a deployment release on the same grid: a watermark that
/// crosses a grid line cascades through apply → report → GST → UST
/// without waiting on anyone's timer. The live backends' server loops run
/// their ∆R, ∆G and ∆U ticks on the same timebase, each deadline a
/// multiple of its period, so every line of the default quantum (3·∆R) is
/// a replicate tick on every server at once. Two more triggers drain a
/// link: the size bound [`BatchConfig::max_batch`] and the ceiling
/// [`BatchConfig::max_flush_micros`]. Foreground transaction traffic is
/// never batched (it is latency-critical).
///
/// **On by default**: the fold is exact — replication frames concatenate
/// in commit-time order keeping the newest watermark, every gossip
/// component is monotonic — so batching changes *when* background
/// messages travel, never what replicas agree on. A server behind batched
/// links also forwards its stabilisation aggregate the moment an arrival
/// moves it (the ∆G/∆U ticks remain as idle-link keep-alives), which is
/// free precisely because the pacing makes the wire count independent of
/// how many frames are offered. Opt out with [`BatchConfig::DISABLED`]
/// (or `ClusterBuilder::no_batching()` through the facade): every tick's
/// frame is then its own wire message, as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Flush a link once this many logical frames are queued on it.
    /// `0` or `1` disables batching (every frame ships immediately).
    pub max_batch: usize,
    /// Grid spacing `Q` in timestamp microseconds.
    pub quantum_micros: u64,
    /// Ceiling: a frame whose value stalled or regressed still leaves once
    /// it has been queued this long, in microseconds — the most extra
    /// staleness any background frame can be charged per hop.
    pub max_flush_micros: u64,
}

impl BatchConfig {
    /// Batching off: every envelope ships as its own wire message.
    pub const DISABLED: BatchConfig = BatchConfig {
        max_batch: 1,
        quantum_micros: 0,
        max_flush_micros: 0,
    };

    /// The default frame count of the size trigger.
    pub const DEFAULT_MAX_BATCH: usize = 64;

    /// Batching paced by stable-time progress on a grid of
    /// `quantum_micros`, with `max_flush_micros` as the ceiling.
    pub fn stable_time(max_batch: usize, quantum_micros: u64, max_flush_micros: u64) -> Self {
        BatchConfig {
            max_batch,
            quantum_micros,
            max_flush_micros,
        }
    }

    /// The default policy *derived from a full interval set*: quantum
    /// `Q = 3·∆R`, ceiling `6·∆R`. A steadily ticking link then folds
    /// three frames per message, and a commit waits at most one quantum
    /// for the watermark that carries it. The ceiling is additionally
    /// capped to half the GC period so an untouched default can never
    /// invalidate interval combinations that were legal before
    /// batching-by-default (a user who never asked for batching must
    /// never see a batching validation error). The config builder
    /// resolves an unset batch policy through here at build time.
    /// Degenerate GC periods (≤ 1 µs — nothing can flush below them)
    /// disable batching instead.
    pub fn default_for(intervals: &Intervals) -> Self {
        if intervals.gc_micros <= 1 {
            return BatchConfig::DISABLED;
        }
        let ceiling = (6 * intervals.replication_micros)
            .min(intervals.gc_micros / 2)
            .max(1);
        let quantum = (3 * intervals.replication_micros).clamp(1, ceiling);
        BatchConfig::stable_time(Self::DEFAULT_MAX_BATCH, quantum, ceiling)
    }

    /// Whether this configuration actually coalesces anything.
    pub fn is_enabled(&self) -> bool {
        self.max_batch > 1
    }
}

impl Default for BatchConfig {
    /// Batching is on by default, paced by stable time, sized for the
    /// paper's 5 ms replication tick (the config builder re-derives the
    /// bounds when the intervals change).
    fn default() -> Self {
        BatchConfig::default_for(&Intervals::default())
    }
}

/// Static description of a PaRiS deployment.
///
/// `M` DCs, `N` partitions, replication factor `R`: each partition is
/// replicated at `R` DCs, so each DC hosts `N·R/M` servers when the
/// placement is balanced (the paper's deployments always are: e.g. 45
/// partitions × R=2 over 5 DCs = 18 servers/DC).
///
/// Use [`ClusterConfig::builder`] to construct one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterConfig {
    /// Number of data centers `M`.
    pub dcs: u16,
    /// Number of partitions `N`.
    pub partitions: u32,
    /// Replication factor `R` (paper default: 2).
    pub replication_factor: u16,
    /// Keys per partition in the workload keyspace.
    pub keys_per_partition: u64,
    /// Payload size of written values, in bytes (paper: 8).
    pub value_size: usize,
    /// Background protocol periods.
    pub intervals: Intervals,
    /// Protocol variant.
    pub mode: Mode,
    /// Maximum absolute physical-clock skew injected per server, in
    /// microseconds (NTP-like; 0 disables skew).
    pub max_clock_skew_micros: u64,
    /// Background-traffic coalescing policy (on by default).
    pub batch: BatchConfig,
    /// Wire encoding the deployment's network substrates use.
    pub wire: WireFormat,
}

impl ClusterConfig {
    /// Starts building a configuration with the paper's defaults.
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder::new()
    }

    /// Number of servers each DC hosts under balanced placement.
    ///
    /// Exact when `N·R` is divisible by `M` (all paper deployments);
    /// otherwise DCs differ by at most one server and this returns the
    /// rounded-down count.
    pub fn servers_per_dc(&self) -> u32 {
        self.partitions * u32::from(self.replication_factor) / u32::from(self.dcs)
    }

    /// Total number of servers (partition replicas) in the system.
    pub fn total_servers(&self) -> u32 {
        self.partitions * u32::from(self.replication_factor)
    }

    /// Total number of keys in the keyspace.
    pub fn total_keys(&self) -> u64 {
        u64::from(self.partitions) * self.keys_per_partition
    }

    /// Validates the invariants the protocol relies on.
    fn validate(&self) -> Result<(), ConfigError> {
        if self.dcs == 0 {
            return Err(ConfigError::new("at least one DC is required"));
        }
        if self.partitions == 0 {
            return Err(ConfigError::new("at least one partition is required"));
        }
        if self.replication_factor == 0 {
            return Err(ConfigError::new("replication factor must be at least 1"));
        }
        if self.replication_factor > self.dcs {
            return Err(ConfigError::new(
                "replication factor cannot exceed the number of DCs",
            ));
        }
        if self.keys_per_partition == 0 {
            return Err(ConfigError::new("keys per partition must be at least 1"));
        }
        if self.intervals.replication_micros == 0
            || self.intervals.gst_micros == 0
            || self.intervals.ust_micros == 0
            || self.intervals.gc_micros == 0
        {
            return Err(ConfigError::new("protocol intervals must be non-zero"));
        }
        if self.batch.is_enabled() {
            if self.batch.quantum_micros == 0 || self.batch.max_flush_micros == 0 {
                return Err(ConfigError::new(
                    "batching needs a non-zero quantum and ceiling (unbounded queues otherwise)",
                ));
            }
            if self.batch.max_flush_micros >= self.intervals.gc_micros {
                return Err(ConfigError::new(
                    "batch flush deadline ceiling must stay below the GC period",
                ));
            }
        }
        Ok(())
    }
}

impl Default for ClusterConfig {
    /// The paper's default deployment: 5 DCs, 45 partitions, R = 2
    /// (18 servers per DC), 8-byte items.
    fn default() -> Self {
        ClusterConfig::builder()
            .build()
            .expect("defaults are valid")
    }
}

/// Builder for [`ClusterConfig`].
///
/// ```
/// use paris_types::{ClusterConfig, Mode};
///
/// let cfg = ClusterConfig::builder()
///     .dcs(3)
///     .partitions(9)
///     .replication_factor(2)
///     .mode(Mode::Bpr)
///     .build()?;
/// assert_eq!(cfg.servers_per_dc(), 6);
/// # Ok::<(), paris_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    cfg: ClusterConfig,
    /// Whether [`Self::batch`] was called: an untouched batch policy is
    /// re-derived from the final intervals at build time, so setting
    /// slow ticks or a short GC period never invalidates (or silently
    /// neuters) the batching default.
    batch_set: bool,
}

impl ClusterConfigBuilder {
    /// Creates a builder seeded with the paper's default deployment.
    pub fn new() -> Self {
        ClusterConfigBuilder {
            cfg: ClusterConfig {
                dcs: 5,
                partitions: 45,
                replication_factor: 2,
                keys_per_partition: 100_000,
                value_size: 8,
                intervals: Intervals::default(),
                mode: Mode::Paris,
                max_clock_skew_micros: 500,
                batch: BatchConfig::default(),
                wire: WireFormat::default(),
            },
            batch_set: false,
        }
    }

    /// Sets the number of DCs `M`.
    pub fn dcs(mut self, dcs: u16) -> Self {
        self.cfg.dcs = dcs;
        self
    }

    /// Sets the number of partitions `N`.
    pub fn partitions(mut self, partitions: u32) -> Self {
        self.cfg.partitions = partitions;
        self
    }

    /// Sets the replication factor `R`.
    pub fn replication_factor(mut self, r: u16) -> Self {
        self.cfg.replication_factor = r;
        self
    }

    /// Sets the number of keys per partition.
    pub fn keys_per_partition(mut self, keys: u64) -> Self {
        self.cfg.keys_per_partition = keys;
        self
    }

    /// Sets the written value payload size in bytes.
    pub fn value_size(mut self, bytes: usize) -> Self {
        self.cfg.value_size = bytes;
        self
    }

    /// Sets the background protocol periods.
    pub fn intervals(mut self, intervals: Intervals) -> Self {
        self.cfg.intervals = intervals;
        self
    }

    /// Sets the protocol variant.
    pub fn mode(mut self, mode: Mode) -> Self {
        self.cfg.mode = mode;
        self
    }

    /// Sets the maximum injected physical clock skew (microseconds).
    pub fn max_clock_skew_micros(mut self, micros: u64) -> Self {
        self.cfg.max_clock_skew_micros = micros;
        self
    }

    /// Sets the background-traffic coalescing policy explicitly
    /// (explicit policies are validated strictly; left unset, the
    /// default policy is derived from the final intervals at
    /// build time).
    pub fn batch(mut self, batch: BatchConfig) -> Self {
        self.cfg.batch = batch;
        self.batch_set = true;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any invariant is violated (e.g.
    /// `R > M`, zero partitions, zero intervals).
    pub fn build(mut self) -> Result<ClusterConfig, ConfigError> {
        if !self.batch_set {
            self.cfg.batch = BatchConfig::default_for(&self.cfg.intervals);
        }
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl Default for ClusterConfigBuilder {
    fn default() -> Self {
        ClusterConfigBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_deployment() {
        let cfg = ClusterConfig::default();
        assert_eq!(cfg.dcs, 5);
        assert_eq!(cfg.partitions, 45);
        assert_eq!(cfg.replication_factor, 2);
        assert_eq!(cfg.servers_per_dc(), 18);
        assert_eq!(cfg.total_servers(), 90);
        assert_eq!(cfg.value_size, 8);
        assert_eq!(cfg.mode, Mode::Paris);
    }

    #[test]
    fn builder_overrides_fields() {
        let cfg = ClusterConfig::builder()
            .dcs(3)
            .partitions(9)
            .replication_factor(3)
            .keys_per_partition(10)
            .value_size(64)
            .mode(Mode::Bpr)
            .max_clock_skew_micros(0)
            .build()
            .unwrap();
        assert_eq!(cfg.servers_per_dc(), 9);
        assert_eq!(cfg.total_keys(), 90);
        assert_eq!(cfg.mode, Mode::Bpr);
        assert_eq!(cfg.max_clock_skew_micros, 0);
    }

    #[test]
    fn rejects_replication_factor_above_dcs() {
        let err = ClusterConfig::builder()
            .dcs(2)
            .replication_factor(3)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("replication factor"));
    }

    #[test]
    fn rejects_zero_dimensions() {
        assert!(ClusterConfig::builder().dcs(0).build().is_err());
        assert!(ClusterConfig::builder().partitions(0).build().is_err());
        assert!(ClusterConfig::builder()
            .replication_factor(0)
            .build()
            .is_err());
        assert!(ClusterConfig::builder()
            .keys_per_partition(0)
            .build()
            .is_err());
    }

    #[test]
    fn rejects_zero_intervals() {
        let bad = Intervals {
            replication_micros: 0,
            ..Intervals::default()
        };
        assert!(ClusterConfig::builder().intervals(bad).build().is_err());
    }

    #[test]
    fn intervals_default_to_paper_values() {
        let iv = Intervals::default();
        assert_eq!(iv.replication_micros, 5_000);
        assert_eq!(iv.gst_micros, 5_000);
        assert_eq!(iv.ust_micros, 5_000);
    }

    #[test]
    fn batch_config_default_is_paced_by_stable_time_and_enabled() {
        let b = BatchConfig::default();
        assert!(b.is_enabled(), "batching is on by default");
        assert_eq!(b.max_batch, BatchConfig::DEFAULT_MAX_BATCH);
        let d = Intervals::default().replication_micros;
        assert_eq!((b.quantum_micros, b.max_flush_micros), (3 * d, 6 * d));
        assert!(!BatchConfig::DISABLED.is_enabled());
        assert!(
            !BatchConfig::stable_time(1, 15_000, 30_000).is_enabled(),
            "off is off"
        );
    }

    #[test]
    fn rejects_enabled_batching_without_flush_interval() {
        // A zero ceiling never drains a stalled link.
        let bad = BatchConfig::stable_time(8, 1_000, 0);
        assert!(ClusterConfig::builder().batch(bad).build().is_err());
        let good = BatchConfig::stable_time(8, 1_000, 10_000);
        let cfg = ClusterConfig::builder().batch(good).build().unwrap();
        assert_eq!(cfg.batch, good);
    }

    #[test]
    fn rejects_flush_interval_at_or_above_gc_period() {
        let gc = Intervals::default().gc_micros;
        assert!(ClusterConfig::builder()
            .batch(BatchConfig::stable_time(8, 1_000, gc))
            .build()
            .is_err());
    }

    #[test]
    fn rejects_a_zero_quantum_or_ceiling() {
        // A zero quantum has no grid.
        assert!(ClusterConfig::builder()
            .batch(BatchConfig::stable_time(8, 0, 10_000))
            .build()
            .is_err());
        // A disabled config is never validated against flush rules.
        assert!(ClusterConfig::builder()
            .batch(BatchConfig::DISABLED)
            .build()
            .is_ok());
    }

    #[test]
    fn unset_batch_policy_derives_from_the_final_intervals() {
        // Short GC period: legal before batching-by-default, must stay
        // legal — the derived ceiling caps at half the GC period.
        let cfg = ClusterConfig::builder()
            .intervals(Intervals {
                replication_micros: 5_000,
                gst_micros: 5_000,
                ust_micros: 5_000,
                gc_micros: 25_000,
            })
            .build()
            .expect("short GC must not invalidate the untouched default");
        assert!(cfg.batch.is_enabled());
        assert_eq!(
            cfg.batch,
            BatchConfig::stable_time(BatchConfig::DEFAULT_MAX_BATCH, 12_500, 12_500),
            "the quantum never exceeds the ceiling"
        );

        // Slow ticks: the derived bounds must track them (a stale 15 ms
        // quantum would sit below one tick and fold nothing).
        let cfg = ClusterConfig::builder()
            .intervals(Intervals {
                replication_micros: 50_000,
                gst_micros: 50_000,
                ust_micros: 50_000,
                gc_micros: 1_000_000,
            })
            .build()
            .unwrap();
        assert_eq!(
            (cfg.batch.quantum_micros, cfg.batch.max_flush_micros),
            (150_000, 300_000)
        );

        // An explicit policy is never overridden by the derivation.
        let explicit = BatchConfig::stable_time(8, 1_000, 10_000);
        let cfg = ClusterConfig::builder()
            .batch(explicit)
            .intervals(Intervals {
                replication_micros: 50_000,
                ..Intervals::default()
            })
            .build()
            .unwrap();
        assert_eq!(cfg.batch, explicit);

        // Degenerate GC (1 µs): nothing can legally flush below it, so
        // the derivation turns batching off rather than erroring.
        let cfg = ClusterConfig::builder()
            .intervals(Intervals {
                replication_micros: 5_000,
                gst_micros: 5_000,
                ust_micros: 5_000,
                gc_micros: 1,
            })
            .build()
            .unwrap();
        assert!(!cfg.batch.is_enabled());
    }

    #[test]
    fn mode_display() {
        assert_eq!(Mode::Paris.to_string(), "PaRiS");
        assert_eq!(Mode::Bpr.to_string(), "BPR");
    }
}
