//! Metadata-cost taxonomy (paper Table I).
//!
//! Table I classifies causally consistent systems by transaction support,
//! non-blocking reads, partial replication, and the *metadata* each needs
//! to track dependencies. This module provides the analytic cost model for
//! every system in the table and the *measured* cost for PaRiS (from the
//! wire codec), so the `table1` benchmark can print the taxonomy with
//! PaRiS's "1 timestamp" claim verified on real messages.

use paris_proto::{varint, wire, Msg};
use paris_types::{ClientId, DcId, PartitionId, ServerId, Timestamp, TxId};

/// Transaction support levels in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxSupport {
    /// No transactions (single-item reads/writes).
    None,
    /// One-shot read-only transactions.
    ReadOnly,
    /// One-shot read-only and write-only transactions.
    ReadOnlyWriteOnly,
    /// Generic interactive read-write transactions.
    Generic,
}

impl std::fmt::Display for TxSupport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TxSupport::None => write!(f, "-"),
            TxSupport::ReadOnly => write!(f, "ROT"),
            TxSupport::ReadOnlyWriteOnly => write!(f, "ROT/WOT"),
            TxSupport::Generic => write!(f, "Generic"),
        }
    }
}

/// Dependency-metadata cost classes from Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetadataCost {
    /// A single scalar timestamp (8 bytes here).
    OneTimestamp,
    /// Two scalar timestamps.
    TwoTimestamps,
    /// One timestamp per DC (`M` entries).
    PerDc,
    /// Proportional to the number of explicit dependencies.
    PerDependency,
}

impl MetadataCost {
    /// Bytes of metadata for a deployment of `m` DCs, assuming 8-byte
    /// timestamps and `deps` explicit dependencies where applicable.
    pub fn bytes(self, m: usize, deps: usize) -> usize {
        match self {
            MetadataCost::OneTimestamp => 8,
            MetadataCost::TwoTimestamps => 16,
            MetadataCost::PerDc => 8 * m,
            MetadataCost::PerDependency => 8 * deps,
        }
    }

    /// The Table I notation for this cost class.
    pub fn label(self) -> &'static str {
        match self {
            MetadataCost::OneTimestamp => "1 ts",
            MetadataCost::TwoTimestamps => "2 ts",
            MetadataCost::PerDc => "M",
            MetadataCost::PerDependency => "O(|deps|)",
        }
    }
}

/// One row of Table I.
#[derive(Debug, Clone)]
pub struct SystemRow {
    /// System name.
    pub name: &'static str,
    /// Transaction support.
    pub txs: TxSupport,
    /// Non-blocking (parallel) reads.
    pub nonblocking_reads: bool,
    /// Partial replication support.
    pub partial_replication: bool,
    /// Dependency metadata cost.
    pub metadata: MetadataCost,
}

/// The full Table I, in the paper's row order.
pub fn table1() -> Vec<SystemRow> {
    use MetadataCost::*;
    use TxSupport::*;
    vec![
        SystemRow {
            name: "COPS",
            txs: ReadOnly,
            nonblocking_reads: true,
            partial_replication: false,
            metadata: PerDependency,
        },
        SystemRow {
            name: "Eiger",
            txs: ReadOnlyWriteOnly,
            nonblocking_reads: true,
            partial_replication: false,
            metadata: PerDependency,
        },
        SystemRow {
            name: "ChainReaction",
            txs: ReadOnly,
            nonblocking_reads: false,
            partial_replication: false,
            metadata: PerDc,
        },
        SystemRow {
            name: "Orbe",
            txs: ReadOnly,
            nonblocking_reads: false,
            partial_replication: false,
            metadata: OneTimestamp,
        },
        SystemRow {
            name: "GentleRain",
            txs: ReadOnly,
            nonblocking_reads: false,
            partial_replication: false,
            metadata: OneTimestamp,
        },
        SystemRow {
            name: "POCC",
            txs: ReadOnly,
            nonblocking_reads: false,
            partial_replication: false,
            metadata: PerDc,
        },
        SystemRow {
            name: "COPS-SNOW",
            txs: ReadOnly,
            nonblocking_reads: true,
            partial_replication: false,
            metadata: PerDependency,
        },
        SystemRow {
            name: "OCCULT",
            txs: Generic,
            nonblocking_reads: false,
            partial_replication: false,
            metadata: PerDc,
        },
        SystemRow {
            name: "Cure",
            txs: Generic,
            nonblocking_reads: false,
            partial_replication: false,
            metadata: PerDc,
        },
        SystemRow {
            name: "Wren",
            txs: Generic,
            nonblocking_reads: true,
            partial_replication: false,
            metadata: TwoTimestamps,
        },
        SystemRow {
            name: "AV",
            txs: Generic,
            nonblocking_reads: true,
            partial_replication: false,
            metadata: PerDc,
        },
        SystemRow {
            name: "Xiang-Vaidya",
            txs: None,
            nonblocking_reads: false,
            partial_replication: true,
            metadata: OneTimestamp,
        },
        SystemRow {
            name: "Contrarian",
            txs: ReadOnly,
            nonblocking_reads: true,
            partial_replication: false,
            metadata: PerDc,
        },
        SystemRow {
            name: "C3",
            txs: None,
            nonblocking_reads: true,
            partial_replication: true,
            metadata: PerDc,
        },
        SystemRow {
            name: "Saturn",
            txs: None,
            nonblocking_reads: true,
            partial_replication: true,
            metadata: OneTimestamp,
        },
        SystemRow {
            name: "Karma",
            txs: ReadOnly,
            nonblocking_reads: true,
            partial_replication: true,
            metadata: PerDependency,
        },
        SystemRow {
            name: "CausalSpartan",
            txs: None,
            nonblocking_reads: true,
            partial_replication: false,
            metadata: PerDc,
        },
        SystemRow {
            name: "Bolt-on CC",
            txs: None,
            nonblocking_reads: true,
            partial_replication: false,
            metadata: PerDc,
        },
        SystemRow {
            name: "EunomiaKV",
            txs: None,
            nonblocking_reads: true,
            partial_replication: false,
            metadata: PerDc,
        },
        SystemRow {
            name: "PaRiS",
            txs: Generic,
            nonblocking_reads: true,
            partial_replication: true,
            metadata: OneTimestamp,
        },
    ]
}

/// Measured dependency metadata of the PaRiS snapshot machinery, straight
/// off the wire codec, in the paper's fixed-width unit (8 bytes per
/// timestamp): the `ust_c` piggybacked on transaction start is a single
/// timestamp and the message carries nothing else — independent of `M`
/// and `N`. A one-phase commit forwards one timestamp too, `ht` — also
/// when it hands a decider the decision, since the sender's own proposal
/// — which exceeds the coordinator's — is folded into `ht` rather than
/// added beside it.
///
/// # Panics
///
/// Panics if `StartTxReq` ever carries anything but its tag and one
/// timestamp, or `CommitOne`, in any of its forms, more than one
/// timestamp.
pub fn measured_paris_snapshot_metadata() -> usize {
    for (coordinator_share, picked, votes) in [
        (false, None, 0),
        (true, None, 0),
        (false, Some(7), 0),
        (true, Some(7), 0),
        (true, Some(7), 2),
    ] {
        let one_phase = Msg::CommitOne {
            tx: TxId::new(ServerId::new(DcId(3), PartitionId(17)), 9),
            ht: Timestamp::from_parts(123_456, 7),
            writes: Vec::new(),
            src_dc: DcId(3),
            client: ClientId::new(DcId(3), 4),
            coordinator_share,
            picked,
            votes,
        };
        assert_eq!(
            wire::metadata(&one_phase).timestamps,
            1,
            "one-phase commit, coordinator share {coordinator_share}, picked {picked:?}, \
             votes {votes}"
        );
    }
    let ust = Timestamp::from_parts(123_456, 7);
    let msg = Msg::StartTxReq { client_ust: ust };
    let measured = wire::metadata(&msg);
    assert_eq!(measured.timestamps, 1, "one timestamp");
    assert_eq!(
        measured.bytes,
        varint::len(ust.physical_micros()) + varint::len(u64::from(ust.logical())),
        "and no metadata byte beside it"
    );
    assert_eq!(
        1 + measured.bytes,
        wire::encoded_len(&msg),
        "tag + metadata"
    );
    measured.timestamps * 8
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paris_row_matches_paper_claims() {
        let rows = table1();
        let paris = rows.last().unwrap();
        assert_eq!(paris.name, "PaRiS");
        assert_eq!(paris.txs, TxSupport::Generic);
        assert!(paris.nonblocking_reads);
        assert!(paris.partial_replication);
        assert_eq!(paris.metadata, MetadataCost::OneTimestamp);
    }

    #[test]
    fn paris_is_unique_in_the_taxonomy() {
        // "PaRiS is the only system that supports partial replication with
        // generic transactions, non-blocking parallel reads, and constant
        // meta-data" — Table I caption.
        let winners: Vec<_> = table1()
            .into_iter()
            .filter(|r| {
                r.txs == TxSupport::Generic
                    && r.nonblocking_reads
                    && r.partial_replication
                    && matches!(
                        r.metadata,
                        MetadataCost::OneTimestamp | MetadataCost::TwoTimestamps
                    )
            })
            .collect();
        assert_eq!(winners.len(), 1);
        assert_eq!(winners[0].name, "PaRiS");
    }

    #[test]
    fn measured_metadata_is_one_timestamp() {
        assert_eq!(measured_paris_snapshot_metadata(), 8);
        assert_eq!(MetadataCost::OneTimestamp.bytes(10, 0), 8);
    }

    #[test]
    fn cost_model_scales_as_labelled() {
        assert_eq!(MetadataCost::PerDc.bytes(10, 0), 80);
        assert_eq!(MetadataCost::PerDependency.bytes(10, 25), 200);
        assert_eq!(MetadataCost::TwoTimestamps.bytes(10, 0), 16);
        assert_eq!(MetadataCost::PerDc.label(), "M");
    }

    #[test]
    fn table_has_twenty_rows_like_the_paper() {
        assert_eq!(table1().len(), 20);
    }

    #[test]
    fn tx_support_display() {
        assert_eq!(TxSupport::Generic.to_string(), "Generic");
        assert_eq!(TxSupport::ReadOnly.to_string(), "ROT");
        assert_eq!(TxSupport::ReadOnlyWriteOnly.to_string(), "ROT/WOT");
        assert_eq!(TxSupport::None.to_string(), "-");
    }
}
