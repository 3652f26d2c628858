//! Typed concurrency tuning, shared by every backend.
//!
//! One [`Tuning`] value names the two knobs that shape *how much
//! parallelism* a deployment gets — the read pool and the store's shard
//! count — so a configuration can be built once and handed to any
//! backend:
//!
//! ```
//! use paris_runtime::{Backend, Paris, Tuning};
//!
//! let mut cluster = Paris::builder()
//!     .dcs(2)
//!     .partitions(4)
//!     .backend(Backend::Mini)
//!     .tuning(Tuning::default().read_threads(2).store_shards(32))
//!     .build()?;
//! # let _ = &mut cluster;
//! # Ok::<(), paris_types::Error>(())
//! ```
//!
//! Cross-field validation lives here too ([`Tuning::validate`]), so every
//! backend rejects the same nonsense configurations with the same words.
//! Writes have no knob: every backend applies them on the server loop.

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

/// Default store-shard count: enough shards that concurrent readers and
/// the single writer rarely meet on one lock, floored at the historical
/// default of 16 and kept a power of two for cheap modulo.
pub(crate) fn derived_store_shards() -> usize {
    (2 * host_parallelism()).next_power_of_two().clamp(16, 128)
}

/// Concurrency tuning for a PaRiS deployment: the read-pool size and the
/// store's shard count, in one typed value.
///
/// `Tuning::default()` pins nothing: each backend applies its own
/// documented derivation (the threaded backend derives a read pool under
/// PaRiS, everything else serves on the loop).
///
/// All setters consume and return `self`, so a `Tuning` chains like the
/// builder it plugs into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tuning {
    pub(crate) read_threads: Option<usize>,
    pub(crate) store_shards: Option<usize>,
}

impl Tuning {
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
    /// of the pool, charged by its `ServiceModel`), while mini always
    /// serves synchronously through the same `ReadView` path, so
    /// cross-backend agreement tests can share one configuration.
    #[must_use]
    pub fn read_threads(mut self, threads: usize) -> Self {
        self.read_threads = Some(threads);
        self
    }

    /// Number of chain shards in every server's `PartitionStore`. Left
    /// unset, derived from the host's
    /// [`available_parallelism`](std::thread::available_parallelism)
    /// (at least the historical default of 16); an explicit value always
    /// wins. More shards let more reader threads proceed without meeting
    /// the writer on a lock. `0` is rejected by
    /// [`validate`](Self::validate).
    #[must_use]
    pub fn store_shards(mut self, shards: usize) -> Self {
        self.store_shards = Some(shards);
        self
    }

    /// Cross-field validation, applied by every backend at build time.
    ///
    /// # Errors
    ///
    /// Rejects a read pool under BPR (blocked reads need the server loop
    /// to arbitrate resumption) and a shardless store.
    pub fn validate(&self, mode: Mode) -> Result<(), Error> {
        if mode == Mode::Bpr && self.read_threads.is_some_and(|n| n > 0) {
            return Err(ConfigError::new(
                "read_threads requires PaRiS: BPR reads block until the snapshot installs, \
                 which only the server loop can arbitrate",
            )
            .into());
        }
        if self.store_shards == Some(0) {
            return Err(ConfigError::new("store_shards must be at least 1").into());
        }
        Ok(())
    }

    /// The per-server storage sizing this tuning resolves to: an
    /// explicit shard count wins, otherwise it comes from the host's
    /// parallelism.
    pub(crate) fn server_tuning(&self) -> ServerTuning {
        ServerTuning {
            store_shards: Some(self.store_shards.unwrap_or_else(derived_store_shards)),
            // Durability is deployment state (a data directory), not a
            // Copy-able sizing knob: it rides [`crate::ClusterBuilder::
            // durability`], which stamps the per-server engine config in
            // before the server is built.
            durable: None,
        }
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
        assert_eq!(t.store_shards, None);
    }

    #[test]
    fn setters_chain() {
        let t = Tuning::default().read_threads(3).store_shards(32);
        assert_eq!(t.read_threads, Some(3));
        assert_eq!(t.store_shards, Some(32));
    }

    #[test]
    fn bpr_rejects_the_read_pool_but_not_zero() {
        assert!(Tuning::default().validate(Mode::Bpr).is_ok());
        assert!(Tuning::default()
            .read_threads(0)
            .validate(Mode::Bpr)
            .is_ok());
        assert!(Tuning::default()
            .read_threads(1)
            .validate(Mode::Bpr)
            .is_err());
        assert!(Tuning::default()
            .read_threads(4)
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
        let st = Tuning::default().store_shards(8).server_tuning();
        assert_eq!(st.store_shards, Some(8));
        // Unset shards derive from the host, never zero.
        let st = Tuning::default().server_tuning();
        assert!(st.store_shards.unwrap() >= 16);
    }
}
