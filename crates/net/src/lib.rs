//! Network substrates for the PaRiS reproduction.
//!
//! The paper evaluates PaRiS on a real AWS deployment spanning up to ten
//! regions. This crate provides the two substitutes used here:
//!
//! * [`sim`] — a deterministic discrete-event simulation: an event queue,
//!   a WAN latency model seeded with measured AWS inter-region RTTs
//!   ([`sim::RegionMatrix::aws_10`]), per-link FIFO enforcement (the paper
//!   assumes lossless FIFO channels, §II-C), a CPU service-time model for
//!   throughput fidelity, and fault injection (DC partitions hold — never
//!   drop — traffic, like TCP does).
//! * [`threaded`] — a real multi-threaded in-process transport built on
//!   crossbeam channels with a delay-wheel latency injector, used by
//!   integration tests to exercise the protocol under true concurrency.
//! * [`socket`] — a real TCP substrate for *multi-process* deployments:
//!   loopback listeners, per-link writer threads and framed envelopes,
//!   the closest shape to the paper's actual testbed.
//!
//! Both substrates carry the same [`paris_proto::Envelope`]s and drive the
//! same protocol state machines, and both can interpose the [`batch`]
//! coalescing layer that folds background traffic into
//! `ReplicateBatch`/`GossipDigest` wire frames.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod sim;
pub mod socket;
pub mod threaded;

pub use batch::{Coalescer, CoalescerStats, Offer};
