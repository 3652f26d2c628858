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
//! | [`Backend::Mini`] | synchronous in-process pump | examples, tests, learning the protocol |
//! | [`Backend::Sim`] | discrete-event WAN simulation | performance figures, fault injection |
//! | [`Backend::Thread`] | one OS thread per server | races, genuine concurrency |
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
//!     .backend(Backend::Mini)
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
//! Swapping `.backend(Backend::Mini)` for [`Backend::Sim`] or
//! [`Backend::Thread`] runs the same code on the simulated WAN or on real
//! threads. For workload-style measurement, [`Cluster::run_workload`]
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
//! | [`runtime`] | the three backends and the [`Cluster`] facade |
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
    Backend, BlockingStats, Cluster, ClusterBuilder, ClusterStats, Durability, FsyncPolicy,
    MiniCluster, Paris, RecoveryInfo, RunReport, SimCluster, ThreadCluster, Txn,
};
pub use paris_types::{ClusterConfig, Error, Mode};
