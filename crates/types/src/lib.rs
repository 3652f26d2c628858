//! Core vocabulary types for the PaRiS reproduction.
//!
//! This crate defines the identifiers, timestamps, versioned items, cluster
//! configuration and error types shared by every other crate in the
//! workspace. It is intentionally dependency-free.
//!
//! # Overview
//!
//! The paper identifies key versions and transactional snapshots with a
//! *single scalar timestamp* produced by a Hybrid Logical Clock (HLC).
//! [`Timestamp`] packs the HLC (48-bit physical microseconds + 16-bit logical
//! counter) into one `u64`, so comparing timestamps is a plain integer
//! comparison and the wire representation is exactly 8 bytes — the
//! "1 ts" metadata cost reported in Table I of the paper.
//!
//! # Example
//!
//! ```
//! use paris_types::{ClusterConfig, Timestamp};
//!
//! let cfg = ClusterConfig::builder()
//!     .dcs(5)
//!     .partitions(45)
//!     .replication_factor(2)
//!     .build()
//!     .expect("valid configuration");
//! assert_eq!(cfg.servers_per_dc(), 18);
//!
//! let ts = Timestamp::from_parts(1_000_000, 3);
//! assert!(ts < Timestamp::from_parts(1_000_000, 4));
//! assert!(ts < Timestamp::from_parts(1_000_001, 0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod fault;
mod ids;
mod keyspace;
mod timestamp;
mod version;

pub use config::{BatchConfig, ClusterConfig, ClusterConfigBuilder, Intervals, Mode, WireFormat};
pub use error::{ConfigError, Error};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use ids::{ClientId, DcId, PartitionId, ReplicaIdx, ServerId, TxId};
pub use keyspace::{Key, Value};
pub use timestamp::Timestamp;
pub use version::{HeldStamp, Version, VersionOrd, VersionStamp, WriteSetEntry};
