//! Real-TCP substrate for multi-process deployments.
//!
//! Where [`crate::sim`] simulates the network and [`crate::threaded`]
//! routes between threads of one process, this module carries the same
//! [`paris_proto::Envelope`]s over `std::net::TcpStream` between OS
//! processes — the deployment shape the paper actually evaluates
//! (separate machines per partition server), scaled down to loopback.
//!
//! Layering, bottom up:
//!
//! * [`framing`] — the byte protocol: magic + version preamble per
//!   connection, length-prefixed frames bounded by
//!   [`paris_proto::wire::MAX_FRAME_LEN`] *before* allocation, and the
//!   envelope/control codecs on top. Hardened against garbage input.
//! * [`session`] — outbound links: each directed peer connection and its
//!   [`crate::batch::Coalescer`], written by the sending thread in one
//!   gathered write, with one redial attempt and dead-link marking.
//! * [`node`] — a process's endpoint: blocking listener, buffered
//!   per-connection readers delivering into per-endpoint inboxes, route
//!   table, and a [`node::SocketHandle`] whose `send` mirrors the
//!   threaded router's.
//!
//! The runtime crate builds the multi-process control plane (process
//! spawning, peer-map distribution, stats collection) on top of this.

pub mod framing;
pub mod node;
pub mod session;

pub use framing::{FrameRead, PREAMBLE_LEN};
pub use node::{NodeIdentity, SocketHandle, SocketNode};
pub use session::{PeerLink, SocketConfig, WireCounters};
