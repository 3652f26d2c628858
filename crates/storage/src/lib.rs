//! Multi-version key-value storage for PaRiS partitions.
//!
//! Each server owns one partition of the keyspace and stores, per key, a
//! *version chain*: every committed update creates a new [`Version`]
//! (paper §II-C, "multi-version data store"). Reads are snapshot reads —
//! "for each key, the version within the snapshot with the highest
//! timestamp" (Alg. 3 lines 4–7) — with ties broken by the
//! (timestamp, transaction id, source DC) total order of §IV-B.
//!
//! Old versions are garbage-collected up to the oldest snapshot visible to
//! any running transaction (`S_old`, §IV-B "Garbage collection"): the chain
//! keeps every version newer than `S_old` plus the freshest version at or
//! below it, which is exactly the set a future read may return.
//!
//! The store is sharded: keys hash over N chain shards, each behind its
//! own `RwLock`, behind a `&self` API — so observers (statistics, the
//! consistency checker) can walk it while the server applies updates. The
//! server loop both serves snapshot reads and runs GC, so no read ever
//! races the horizon; reads are non-blocking because the snapshot is
//! stable (the paper's UST, §I), not because of any locking scheme here.
//!
//! Storage sits behind the [`Engine`] trait: [`MemEngine`] is the sharded
//! in-memory store above, and [`DurableEngine`] wraps it with an
//! append-only write-ahead log plus immutable checkpoints of the ≤ UST
//! stable prefix, giving crash recovery ([`DurableEngine::open`]) at a
//! configurable fsync cost ([`FsyncPolicy`]).
//!
//! # Example
//!
//! ```
//! use paris_storage::MemEngine;
//! use paris_types::{DcId, Key, PartitionId, ServerId, Timestamp, TxId, Value};
//!
//! let store = MemEngine::new();
//! let tx = TxId::new(ServerId::new(DcId(0), PartitionId(0)), 1);
//! store.apply(Key(7), Value::from("a"), Timestamp::from_physical_micros(10), tx, DcId(0));
//! store.apply(Key(7), Value::from("b"), Timestamp::from_physical_micros(20), tx, DcId(0));
//!
//! // A snapshot at t=15 sees the first write only.
//! let v = store.read_at(Key(7), Timestamp::from_physical_micros(15)).unwrap();
//! assert_eq!(v.value.as_bytes(), b"a");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chain;
pub mod checkpoint;
mod durable;
mod engine;
mod store;
pub mod wal;

pub use chain::VersionChain;
pub use durable::{
    DurableConfig, DurableEngine, DurableError, FsyncPolicy, RecoveryInfo,
    DEFAULT_CHECKPOINT_INTERVAL_MICROS,
};
pub use engine::{DurableStats, Engine};
pub use store::{MemEngine, StoreStats, DEFAULT_SHARDS};

pub use paris_types::Version;
