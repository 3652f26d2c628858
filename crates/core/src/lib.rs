//! The PaRiS protocol core: server and client state machines, topology,
//! consistency checking and the metadata taxonomy.
//!
//! PaRiS (Spirovska, Didona, Zwaenepoel — ICDCS 2019) is the first system
//! to combine **Transactional Causal Consistency** with **partial
//! replication** and **non-blocking parallel reads**. Its key mechanism is
//! the *Universal Stable Time* (UST): a single scalar timestamp, gossiped
//! in the background, identifying a snapshot installed by every DC — from
//! which any server in any DC can serve transactional reads without
//! blocking. The client's own writes above the stable snapshot layer
//! read-your-own-writes on top of it; the same store of held versions
//! lets servers answer "unchanged" instead of shipping a version again.
//!
//! This crate contains everything protocol-level and nothing I/O-level:
//!
//! * [`Topology`] — placement (`N` partitions × `M` DCs, replication
//!   factor `R`), key routing, preferred-replica selection, the
//!   stabilization tree;
//! * [`Server`] — the partition server state machine: coordinator
//!   (Alg. 2), cohort (Alg. 3), replication + UST stabilization (Alg. 4);
//!   runs in [`Mode::Paris`] or as the blocking [`Mode::Bpr`] baseline.
//!   Every message, slice reads included, is handled by the one state
//!   machine: reads are non-blocking because the UST snapshot is
//!   installed everywhere, and parallel because the coordinator fans
//!   them out to all partitions at once (Alg. 2) — neither needs a
//!   thread of its own;
//! * [`ClientSession`] — the client state machine (Alg. 1) with one
//!   version store (an entry above `ust_c` is an own write of `WC_c`, one
//!   at or below it a validation candidate), beginning eagerly
//!   (`StartTxReq`) or lazily (the start rides the first operation);
//! * [`HistoryChecker`] — validates executions against the paper's
//!   correctness propositions;
//! * [`metadata`] — the Table I cost taxonomy.
//!
//! Drive the state machines with the substrates in `paris-net` via
//! `paris-runtime`, or by hand:
//!
//! ```
//! use paris_core::{ClientSession, Server, ServerOptions, Topology};
//! use paris_clock::SimClock;
//! use paris_types::{ClientId, ClusterConfig, DcId, Mode, PartitionId, ServerId};
//! use std::sync::Arc;
//!
//! let topo = Arc::new(Topology::new(
//!     ClusterConfig::builder().dcs(3).partitions(3).replication_factor(2).build()?,
//! ));
//! let clock = SimClock::new();
//! let mut server = Server::new(ServerOptions {
//!     id: ServerId::new(DcId(0), PartitionId(0)),
//!     topology: Arc::clone(&topo),
//!     clock: Box::new(clock.clone()),
//!     mode: Mode::Paris,
//!     record_events: false,
//! });
//!
//! let client = ClientId::new(DcId(0), 0);
//! let mut session = ClientSession::new(client, server.id(), Mode::Paris);
//! let start = session.begin().unwrap();
//! let replies = server.handle(&start, 0);
//! assert_eq!(replies.len(), 1); // StartTxResp
//! # Ok::<(), paris_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
mod client;
pub mod metadata;
mod server;
mod topology;

pub use checker::{HistoryChecker, RecordedRead, RecordedTx, Violation};
pub use client::{ClientEvent, ClientRead, ClientSession, ReadSource, ReadStep};
pub use server::{
    EventLog, Server, ServerOptions, ServerStats, ServerTuning, STALE_CONTEXT_MICROS,
};
pub use topology::Topology;

pub use paris_storage::{DurableConfig, DurableStats, FsyncPolicy, RecoveryInfo};
pub use paris_types::Mode;
