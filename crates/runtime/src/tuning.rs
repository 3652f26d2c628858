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
//!     .backend(Backend::Sim)
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

use paris_core::ServerTuning;
use paris_types::ServerId;

/// Durable storage for a whole deployment: each server keeps its WAL and
/// checkpoints in its own `dc{d}-p{p}` subdirectory of `dir` (see
/// [`ClusterBuilder::durability`](crate::ClusterBuilder::durability)).
/// Off by default — without a `Durability` every backend keeps the purely
/// in-memory engine.
///
/// ```
/// use paris_runtime::{Backend, Durability, FsyncPolicy, Paris};
///
/// let dir = std::env::temp_dir().join("paris-durability-doc");
/// let mut cluster = Paris::builder()
///     .dcs(2)
///     .partitions(2)
///     .backend(Backend::Sim)
///     .durability(Durability::new(&dir).fsync(FsyncPolicy::Never))
///     .build()?;
/// # let _ = &mut cluster;
/// # drop(cluster);
/// # let _ = std::fs::remove_dir_all(&dir);
/// # Ok::<(), paris_types::Error>(())
/// ```
pub use paris_core::DurableConfig as Durability;

/// Server `id`'s storage: in-memory without `durability`, else
/// `durability` rooted at `dir/dc{d}-p{p}`, so collocated servers never
/// share a log.
pub(crate) fn server_tuning(durability: Option<&Durability>, id: ServerId) -> ServerTuning {
    ServerTuning {
        durable: durability.map(|d| Durability {
            dir: d.dir.join(format!("dc{}-p{}", id.dc.0, id.partition.0)),
            ..d.clone()
        }),
    }
}
