//! Protocol messages and wire codec for PaRiS.
//!
//! Every message exchanged by clients and servers in Algorithms 1–4 of the
//! paper is defined here, plus the stabilization-tree messages that
//! implement the UST gossip (§IV-B, "Stabilization protocol") and the
//! garbage-collection aggregate piggybacked on it.
//!
//! The crate also provides the compact binary codec ([`wire`]): one field
//! walk per message that yields its bytes, its exact size and its
//! *metadata* cost — the measured side of the "1 timestamp" claim of the
//! paper's Table I — and is property-tested to round-trip every message
//! losslessly and to reject every malformed frame.
//!
//! # Example
//!
//! ```
//! use paris_proto::{Msg, wire};
//! use paris_types::Timestamp;
//!
//! let msg = Msg::StartTxReq { client_ust: Timestamp::from_parts(42, 1) };
//! let bytes = wire::encode(&msg);
//! assert_eq!(wire::decode(&bytes)?, msg);
//! # Ok::<(), paris_proto::wire::DecodeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctrl;
mod messages;
pub mod varint;
pub mod wire;

pub use ctrl::{Ctrl, ServerSnapshot, ServerStats};
pub use messages::{
    DigestReport, Endpoint, Envelope, Msg, Opening, ReadKey, ReadOutcome, ReadResult, ReplicatedTx,
    TxRef,
};
