//! Durable storage for a deployment, shared by every backend.
//!
//! A [`Durability`] value names where every server keeps its write-ahead
//! log and checkpoints, how often the log is flushed to stable media and
//! how often the stable prefix is frozen:
//!
//! ```
//! use paris_runtime::{Backend, Durability, FsyncPolicy, Paris};
//!
//! let dir = std::env::temp_dir().join("paris-tuning-doc");
//! let mut cluster = Paris::builder()
//!     .dcs(2)
//!     .partitions(4)
//!     .backend(Backend::Mini)
//!     .durability(
//!         Durability::new(&dir)
//!             .fsync(FsyncPolicy::Always)
//!             .checkpoint_interval_micros(0),
//!     )
//!     .build()?;
//! # let _ = &mut cluster;
//! # drop(cluster);
//! # let _ = std::fs::remove_dir_all(&dir);
//! # Ok::<(), paris_types::Error>(())
//! ```
//!
//! Nothing else about a deployment's concurrency is settable: every
//! backend handles reads and writes on its server loops, and every store
//! uses the default shard count.

use std::path::PathBuf;

use paris_core::{DurableConfig, FsyncPolicy, ServerTuning};
use paris_types::ServerId;

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
}

/// Server `id`'s storage configuration: in-memory without `durability`,
/// else this deployment's knobs rooted at `dir/dc{d}-p{p}`, so collocated
/// servers never share a log.
pub(crate) fn server_tuning(durability: Option<&Durability>, id: ServerId) -> ServerTuning {
    ServerTuning {
        durable: durability.map(|d| {
            DurableConfig::new(d.dir.join(format!("dc{}-p{}", id.dc.0, id.partition.0)))
                .fsync(d.fsync)
                .checkpoint_interval_micros(d.checkpoint_interval_micros)
        }),
    }
}
