//! # PaRiS — causally consistent transactions with non-blocking reads and
//! partial replication
//!
//! A from-scratch Rust reproduction of *PaRiS: Causally Consistent
//! Transactions with Non-blocking Reads and Partial Replication*
//! (Spirovska, Didona, Zwaenepoel — ICDCS 2019).
//!
//! PaRiS implements **Transactional Causal Consistency** (TCC) on a
//! sharded, partially replicated key-value store. Its core mechanism is
//! the **Universal Stable Time (UST)**: a single scalar timestamp,
//! computed by background gossip, identifying a snapshot already installed
//! by *every* data center — so any server in any DC can serve
//! transactional reads from it without blocking. A small client-side write
//! cache preserves read-your-own-writes on top of the slightly stale
//! stable snapshot.
//!
//! ## The facade
//!
//! Everything is reached through one API: [`Paris::builder`] configures a
//! deployment, [`Backend`] picks the substrate, and the resulting
//! [`Cluster`] serves transactions through RAII [`Txn`] handles:
//!
//! | backend | substrate | use it for |
//! |---|---|---|
//! | [`Backend::Sim`] (default) | deterministic discrete-event WAN simulation | examples, tests, performance figures, fault injection |
//! | [`Backend::Thread`] | one OS thread per server | races, genuine concurrency |
//! | [`Backend::Socket`] | one OS process per server, loopback TCP | real deployments, failure handling |
//!
//! ## Quickstart
//!
//! ```
//! use paris::{Backend, Cluster, Mode, Paris};
//! use paris::types::{Key, Value};
//!
//! // 3 DCs × 6 partitions, replication factor 2: each DC stores only
//! // part of the keyspace — partial replication.
//! let mut cluster = Paris::builder()
//!     .dcs(3)
//!     .partitions(6)
//!     .replication(2)
//!     .mode(Mode::Paris)
//!     .backend(Backend::Sim)
//!     .build()?;
//!
//! // A transaction handle: reads, buffered writes, commit. Dropping the
//! // handle without committing aborts — no write takes effect.
//! let alice = cluster.open_client(0)?;
//! let mut txn = cluster.begin(alice)?;
//! txn.write(Key(1), Value::from("hello"));
//! let commit_ts = txn.commit()?;
//! assert!(commit_ts > paris::types::Timestamp::ZERO);
//!
//! // Background gossip stabilizes the snapshot; then any DC reads the
//! // write without blocking.
//! cluster.stabilize(5);
//! let bob = cluster.open_client(1)?;
//! let mut txn = cluster.begin(bob)?;
//! assert_eq!(txn.read_one(Key(1))?, Some(Value::from("hello")));
//! txn.commit()?;
//! # Ok::<(), paris::Error>(())
//! ```
//!
//! Swapping `.backend(Backend::Sim)` for [`Backend::Thread`] or
//! [`Backend::Socket`] runs the same code on real threads or on real
//! processes. For workload-style measurement, [`Cluster::run_workload`]
//! drives the configured closed-loop load and returns a [`RunReport`].
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`types`] | ids, timestamps, versions, cluster configuration, errors |
//! | [`clock`] | physical clocks and the Hybrid Logical Clock |
//! | [`storage`] | multi-version per-partition store with GC |
//! | [`proto`] | protocol messages + binary wire codec |
//! | [`net`] | discrete-event simulator and threaded transport |
//! | [`core`] | server/client state machines, topology, checker |
//! | [`runtime`] | the sim, thread and socket backends and the [`Cluster`] facade |
//! | [`workload`] | YCSB-style generator and statistics |
//!
//! For driving the protocol by hand (your own substrate), see
//! [`core::Server`] and [`core::ClientSession`]; the `examples/`
//! directory walks through both the facade and the raw state machines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use paris_clock as clock;
pub use paris_core as core;
pub use paris_net as net;
pub use paris_proto as proto;
pub use paris_runtime as runtime;
pub use paris_storage as storage;
pub use paris_types as types;
pub use paris_workload as workload;

pub use paris_core::{ClientSession, HistoryChecker, Server, ServerOptions, Topology};
pub use paris_runtime::{
    Backend, BlockingStats, Cluster, ClusterBuilder, ClusterStats, Durability, FsyncPolicy, Paris,
    RecoveryInfo, RunReport, SimCluster, ThreadCluster, Txn,
};
// The benchmark's seam still names it; ROADMAP item 1(b) removes it.
#[doc(hidden)]
pub use paris_runtime::MiniCluster;
pub use paris_types::{ClusterConfig, Error, Mode};
