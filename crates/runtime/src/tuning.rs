//! Typed concurrency tuning, shared by every backend.
//!
//! One [`Tuning`] value names every knob that shapes *how much
//! parallelism* a deployment gets — read pool, write pipeline, store
//! sharding, read-admission slots, modeled service occupancies — so a
//! configuration can be built once and handed to any backend:
//!
//! ```
//! use paris_runtime::{Backend, Paris, Tuning};
//!
//! let mut cluster = Paris::builder()
//!     .dcs(2)
//!     .partitions(4)
//!     .backend(Backend::Mini)
//!     .tuning(Tuning::default().read_threads(2).write_threads(2))
//!     .build()?;
//! # let _ = &mut cluster;
//! # Ok::<(), paris_types::Error>(())
//! ```
//!
//! Cross-field validation lives here too ([`Tuning::validate`]), so every
//! backend rejects the same nonsense configurations with the same words.

use std::path::PathBuf;

use paris_core::{DurableConfig, FsyncPolicy, ServerTuning};
use paris_types::{ConfigError, Error, Mode, ServerId};

/// The host's available parallelism, defaulting to 1 when unknown.
pub(crate) fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Default read-pool size for the threaded backend under PaRiS: half the
/// host's cores (the other half runs server loops and clients), at least
/// one pool thread, capped so small CI hosts are not oversubscribed.
pub(crate) fn derived_read_threads() -> usize {
    (host_parallelism() / 2).clamp(1, 4)
}

/// Default write-pool size for [`Tuning::auto`]: a quarter of the host's
/// cores — the write path shares the machine with server loops, clients
/// *and* the read pool — at least one worker, capped like the read pool.
pub(crate) fn derived_write_threads() -> usize {
    (host_parallelism() / 4).clamp(1, 4)
}

/// Default store-shard count: enough shards that concurrent readers and
/// the single writer rarely meet on one lock, floored at the historical
/// default of 16 and kept a power of two for cheap modulo.
pub(crate) fn derived_store_shards() -> usize {
    (2 * host_parallelism()).next_power_of_two().clamp(16, 128)
}

/// Concurrency tuning for a PaRiS deployment: every knob that sizes a
/// pool, a shard set or a modeled service occupancy, in one typed value.
///
/// `Tuning::default()` is fully conservative: nothing is pinned, each
/// backend applies its own documented derivation (the threaded backend
/// derives a read pool under PaRiS, everything else serves on the loop;
/// the write path is synchronous everywhere until
/// [`write_threads`](Self::write_threads) opts in). [`Tuning::auto`]
/// additionally sizes the write pool from the host.
///
/// All setters consume and return `self`, so a `Tuning` chains like the
/// builder it plugs into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tuning {
    pub(crate) read_threads: Option<usize>,
    pub(crate) write_threads: Option<usize>,
    pub(crate) write_lanes: Option<usize>,
    pub(crate) store_shards: Option<usize>,
    pub(crate) read_slots: Option<usize>,
    pub(crate) read_service_micros: u64,
    pub(crate) write_service_micros: u64,
}

impl Tuning {
    /// Host-derived tuning: like `Tuning::default()` but the write pool
    /// is sized from the host's
    /// [`available_parallelism`](std::thread::available_parallelism)
    /// instead of staying synchronous. The read pool is left unset — the
    /// threaded backend already derives one under PaRiS, and the
    /// deterministic backends must not silently depend on the host.
    #[must_use]
    pub fn auto() -> Self {
        Tuning::default().write_threads(derived_write_threads())
    }

    /// Size of the read-thread pool: with `n > 0` (PaRiS only — BPR reads
    /// must block on the server loop), incoming `ReadSliceReq` slice
    /// reads — read-only against published state — are served by `n`
    /// pool threads through the server's
    /// published `ReadView` instead of the server mailbox, so they never
    /// queue behind commits, replication batches or gossip ticks — the
    /// paper's parallel non-blocking reads (§I, Alg. 2–4).
    ///
    /// `0` serves everything on the server loop. Left unset, the threaded
    /// backend derives a pool from the host's
    /// [`available_parallelism`](std::thread::available_parallelism)
    /// under PaRiS (an explicit value always wins); the mini and sim
    /// backends default to `0`. The sim backend honors an explicit `n` as
    /// `n` per-server read service queues (its deterministic counterpart
    /// of the pool — see
    /// [`read_service_micros`](Self::read_service_micros)), while mini
    /// always serves synchronously through the same `ReadView` path, so
    /// cross-backend agreement tests can share one configuration.
    #[must_use]
    pub fn read_threads(mut self, threads: usize) -> Self {
        self.read_threads = Some(threads);
        self
    }

    /// Size of the write-pipeline pool: with `n > 0` (PaRiS only),
    /// server-bound write-path traffic — `PrepareReq`, `CommitTx`,
    /// `Replicate`, `ReplicateBatch` and `Heartbeat` — is diverted to `n`
    /// pool workers. Each worker stages prepares (UST floor, write-set
    /// partitioning by store shard) and applies replication batches
    /// through the server's shared `CommitPipeline` *without* holding the
    /// server loop, re-entering it only for the loop-owned root state:
    /// HLC stamping, the prepared-transaction map and version-vector
    /// bumps. Traffic is routed to workers by **source** (one lane per
    /// worker, `src → lane` by stable hash), so the per-link FIFO the
    /// protocol relies on — `CommitTx` after its `PrepareReq`, a
    /// watermark after the applies it covers — is preserved per source.
    ///
    /// `0` (the default everywhere, including unset) keeps the write path
    /// synchronous on the server loop. The sim backend honors `n` as `n`
    /// deterministic per-server write lanes; the mini backend is always
    /// synchronous and ignores the knob.
    #[must_use]
    pub fn write_threads(mut self, threads: usize) -> Self {
        self.write_threads = Some(threads);
        self
    }

    /// Number of apply lanes inside every server's `CommitPipeline`
    /// (locks serializing same-shard applies). Left unset: one lane per
    /// store shard — maximal disjoint-shard concurrency. Explicit values
    /// are clamped by the pipeline to `1..=store_shards`. Fewer lanes
    /// trade concurrency for fewer mutexes; `fig_writes` measures the
    /// difference.
    #[must_use]
    pub fn write_lanes(mut self, lanes: usize) -> Self {
        self.write_lanes = Some(lanes);
        self
    }

    /// Number of chain shards in every server's `PartitionStore`. Left
    /// unset, derived from the host's
    /// [`available_parallelism`](std::thread::available_parallelism)
    /// (at least the historical default of 16); an explicit value always
    /// wins. More shards let more reader threads proceed without meeting
    /// a writer on a lock, and give the write pipeline more disjoint
    /// lanes. `0` is rejected by [`validate`](Self::validate).
    #[must_use]
    pub fn store_shards(mut self, shards: usize) -> Self {
        self.store_shards = Some(shards);
        self
    }

    /// Number of atomic read-admission slots in every server's
    /// `StableFrontier` in-flight registry (default 64). Each off-loop
    /// read claims a slot with one CAS; `0` disables the slots so every
    /// admission takes the mutexed fallback registry — the pre-slot
    /// behavior, kept configurable so `fig_reads` can measure exactly
    /// what the lock-free path buys.
    #[must_use]
    pub fn read_slots(mut self, slots: usize) -> Self {
        self.read_slots = Some(slots);
        self
    }

    /// Models per-slice-read service occupancy on the threaded backend,
    /// in wall-clock microseconds: each served read holds its serving
    /// thread (pool thread, or server loop when
    /// [`read_threads`](Self::read_threads) is 0) for this long, the
    /// threaded counterpart of the sim's `ServiceModel` read costs. This
    /// is what makes read-throughput scaling with
    /// [`read_threads`](Self::read_threads) measurable on small machines:
    /// occupancy overlaps across pool threads exactly like storage/CPU
    /// time does on the paper's multi-core servers. `0` (the default)
    /// serves at memory speed.
    #[must_use]
    pub fn read_service_micros(mut self, micros: u64) -> Self {
        self.read_service_micros = micros;
        self
    }

    /// Models per-write-message service occupancy, in microseconds:
    /// charged when staging a `PrepareReq` and when applying a
    /// `Replicate`/`ReplicateBatch` (never on `CommitTx` or `Heartbeat`,
    /// which only touch loop-owned metadata). On the threaded backend
    /// each charge holds the serving thread (pool worker, or the server
    /// loop when [`write_threads`](Self::write_threads) is 0) for this
    /// long in wall-clock time; on the sim backend it extends the
    /// modeled busy time of the chosen write lane. The write-path
    /// counterpart of [`read_service_micros`](Self::read_service_micros),
    /// and what makes `fig_writes` ladders measurable on small hosts.
    /// `0` (the default) stages and applies at memory speed.
    #[must_use]
    pub fn write_service_micros(mut self, micros: u64) -> Self {
        self.write_service_micros = micros;
        self
    }

    /// Cross-field validation, applied by every backend at build time.
    ///
    /// # Errors
    ///
    /// Rejects pools under BPR (blocked operations need the server loop
    /// to arbitrate resumption, for reads and writes alike) and a
    /// shardless store.
    pub fn validate(&self, mode: Mode) -> Result<(), Error> {
        if mode == Mode::Bpr && self.read_threads.is_some_and(|n| n > 0) {
            return Err(ConfigError::new(
                "read_threads requires PaRiS: BPR reads block until the snapshot installs, \
                 which only the server loop can arbitrate",
            )
            .into());
        }
        if mode == Mode::Bpr && self.write_threads.is_some_and(|n| n > 0) {
            return Err(ConfigError::new(
                "write_threads requires PaRiS: BPR resumes blocked reads from the apply \
                 path, which only the server loop can arbitrate",
            )
            .into());
        }
        if self.store_shards == Some(0) {
            return Err(ConfigError::new("store_shards must be at least 1").into());
        }
        Ok(())
    }

    /// The per-server storage/pipeline sizing this tuning resolves to:
    /// explicit knobs win, otherwise the shard count comes from the
    /// host's parallelism.
    pub(crate) fn server_tuning(&self) -> ServerTuning {
        ServerTuning {
            store_shards: Some(self.store_shards.unwrap_or_else(derived_store_shards)),
            read_slots: self.read_slots,
            write_lanes: self.write_lanes,
            // Durability is deployment state (a data directory), not a
            // Copy-able sizing knob: it rides [`crate::ClusterBuilder::
            // durability`], which stamps the per-server engine config in
            // before the server is built.
            durable: None,
        }
    }

    /// The write-pool size a non-deriving backend runs: explicit knob or
    /// synchronous.
    pub(crate) fn write_threads_or_zero(&self) -> usize {
        self.write_threads.unwrap_or(0)
    }
}

/// Durable-storage configuration for a whole deployment: every server
/// runs a [`paris_storage::DurableEngine`] (WAL + stable-prefix
/// checkpoints) rooted in its own subdirectory of `dir`, named
/// `dc{d}-p{p}`. Off by default — without a `Durability` every backend
/// keeps the purely in-memory engine and no byte of behavior changes.
///
/// ```
/// use paris_runtime::{Backend, Durability, FsyncPolicy, Paris};
///
/// let dir = std::env::temp_dir().join("paris-durability-doc");
/// let mut cluster = Paris::builder()
///     .dcs(2)
///     .partitions(2)
///     .backend(Backend::Mini)
///     .durability(Durability::new(&dir).fsync(FsyncPolicy::Never))
///     .build()?;
/// # let _ = &mut cluster;
/// # drop(cluster);
/// # let _ = std::fs::remove_dir_all(&dir);
/// # Ok::<(), paris_types::Error>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Durability {
    pub(crate) dir: PathBuf,
    pub(crate) fsync: FsyncPolicy,
    pub(crate) checkpoint_interval_micros: u64,
}

impl Durability {
    /// Durability rooted at `dir` (created on demand), with fsync off and
    /// the default checkpoint cadence — the configuration the overhead
    /// benchmarks run.
    #[must_use]
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Durability {
            dir: dir.into(),
            fsync: FsyncPolicy::Never,
            checkpoint_interval_micros: paris_storage::DEFAULT_CHECKPOINT_INTERVAL_MICROS,
        }
    }

    /// When the WAL is flushed to stable media: [`FsyncPolicy::Never`]
    /// (crash-safe against process death, the default) or
    /// [`FsyncPolicy::Always`] (also power-loss safe, much slower).
    #[must_use]
    pub fn fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Minimum spacing between stable-prefix checkpoints, in microseconds
    /// of the driving clock. `0` checkpoints on every GC tick.
    #[must_use]
    pub fn checkpoint_interval_micros(mut self, micros: u64) -> Self {
        self.checkpoint_interval_micros = micros;
        self
    }

    /// The per-server engine config: this deployment's knobs, rooted at
    /// `dir/dc{d}-p{p}` so collocated servers never share a log.
    pub(crate) fn server_config(&self, id: ServerId) -> DurableConfig {
        DurableConfig::new(self.dir.join(format!("dc{}-p{}", id.dc.0, id.partition.0)))
            .fsync(self.fsync)
            .checkpoint_interval_micros(self.checkpoint_interval_micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_unset() {
        let t = Tuning::default();
        assert_eq!(t.read_threads, None);
        assert_eq!(t.write_threads, None);
        assert_eq!(t.write_lanes, None);
        assert_eq!(t.store_shards, None);
        assert_eq!(t.read_slots, None);
        assert_eq!(t.read_service_micros, 0);
        assert_eq!(t.write_service_micros, 0);
    }

    #[test]
    fn auto_sizes_the_write_pool_from_the_host() {
        let t = Tuning::auto();
        assert_eq!(t.write_threads, Some(derived_write_threads()));
        assert!(t.write_threads.unwrap() >= 1);
        // Reads stay backend-derived, not pinned here.
        assert_eq!(t.read_threads, None);
    }

    #[test]
    fn setters_chain() {
        let t = Tuning::default()
            .read_threads(3)
            .write_threads(2)
            .write_lanes(8)
            .store_shards(32)
            .read_slots(16)
            .read_service_micros(250)
            .write_service_micros(100);
        assert_eq!(t.read_threads, Some(3));
        assert_eq!(t.write_threads, Some(2));
        assert_eq!(t.write_lanes, Some(8));
        assert_eq!(t.store_shards, Some(32));
        assert_eq!(t.read_slots, Some(16));
        assert_eq!(t.read_service_micros, 250);
        assert_eq!(t.write_service_micros, 100);
    }

    #[test]
    fn bpr_rejects_both_pools_but_not_zero() {
        assert!(Tuning::default().validate(Mode::Bpr).is_ok());
        assert!(Tuning::default()
            .read_threads(0)
            .write_threads(0)
            .validate(Mode::Bpr)
            .is_ok());
        assert!(Tuning::default()
            .read_threads(1)
            .validate(Mode::Bpr)
            .is_err());
        assert!(Tuning::default()
            .write_threads(1)
            .validate(Mode::Bpr)
            .is_err());
        assert!(Tuning::default()
            .read_threads(4)
            .write_threads(4)
            .validate(Mode::Paris)
            .is_ok());
    }

    #[test]
    fn shardless_stores_are_rejected_everywhere() {
        assert!(Tuning::default()
            .store_shards(0)
            .validate(Mode::Paris)
            .is_err());
        assert!(Tuning::default()
            .store_shards(0)
            .validate(Mode::Bpr)
            .is_err());
        assert!(Tuning::default()
            .store_shards(1)
            .validate(Mode::Paris)
            .is_ok());
    }

    #[test]
    fn server_tuning_passes_explicit_knobs_through() {
        let st = Tuning::default()
            .store_shards(8)
            .read_slots(4)
            .write_lanes(2)
            .server_tuning();
        assert_eq!(st.store_shards, Some(8));
        assert_eq!(st.read_slots, Some(4));
        assert_eq!(st.write_lanes, Some(2));
        // Unset shards derive from the host, never zero.
        let st = Tuning::default().server_tuning();
        assert!(st.store_shards.unwrap() >= 16);
        assert_eq!(st.write_lanes, None);
    }
}
