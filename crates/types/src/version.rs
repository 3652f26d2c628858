//! Versioned items and the total order used for conflict resolution.

use crate::{DcId, Key, Timestamp, TxId, Value};

/// One version of a key: the paper's item tuple `⟨k, v, ut, id_T, sr⟩`
/// (§IV-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// The key this version belongs to (`k`).
    pub key: Key,
    /// The written value (`v`).
    pub value: Value,
    /// Update (commit) timestamp (`ut`): the commit time of the creating
    /// transaction, which determines the snapshot the version belongs to.
    pub ut: Timestamp,
    /// Identifier of the transaction that created the version (`id_T`).
    pub tx: TxId,
    /// Source DC where the version was created (`sr`).
    pub src: DcId,
}

impl Version {
    /// Creates a version.
    pub fn new(key: Key, value: Value, ut: Timestamp, tx: TxId, src: DcId) -> Self {
        Version {
            key,
            value,
            ut,
            tx,
            src,
        }
    }

    /// The total-order sort key for this version.
    #[inline]
    pub fn order(&self) -> VersionOrd {
        VersionOrd {
            ut: self.ut,
            tx: self.tx,
            src: self.src,
        }
    }

    /// This version's identity within its key's chain.
    #[inline]
    pub fn stamp(&self) -> VersionStamp {
        VersionStamp {
            ut: self.ut,
            tx: self.tx,
        }
    }
}

/// The identity of one version of a key: its update time and creating
/// transaction. A transaction writes a key at most once (Alg. 1 line 23:
/// the last buffered write wins), so `(key, ut, tx)` names exactly one
/// version system-wide. A client stamps a read with the identity of the
/// version it already holds; a server whose snapshot read lands on that
/// same version answers "unchanged" instead of shipping the value back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VersionStamp {
    /// Update (commit) timestamp of the held version.
    pub ut: Timestamp,
    /// Transaction that created the held version.
    pub tx: TxId,
}

/// Total order on (possibly concurrent) versions of the same key.
///
/// PaRiS resolves conflicting writes with last-writer-wins on the update
/// timestamp; ties are settled "by a concatenation of timestamp, transaction
/// id and source data center id, in this order" (§IV-B). Deriving `Ord` on
/// the fields in that order implements exactly that rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VersionOrd {
    /// Update timestamp (primary criterion).
    pub ut: Timestamp,
    /// Creating transaction id (first tie-break).
    pub tx: TxId,
    /// Source DC id (second tie-break).
    pub src: DcId,
}

/// An entry of a transaction's write set: the `⟨k, v⟩` pairs buffered at the
/// client (Alg. 1 lines 21–25) and shipped in `PrepareReq` (Alg. 2 line 23).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteSetEntry {
    /// Key to update.
    pub key: Key,
    /// New value.
    pub value: Value,
}

impl WriteSetEntry {
    /// Creates a write-set entry.
    pub fn new(key: Key, value: Value) -> Self {
        WriteSetEntry { key, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PartitionId, ServerId};

    fn tx(dc: u16, seq: u64) -> TxId {
        TxId::new(ServerId::new(DcId(dc), PartitionId(0)), seq)
    }

    fn ver(ut: u64, txdc: u16, txseq: u64, src: u16) -> Version {
        Version::new(
            Key(1),
            Value::from("x"),
            Timestamp::from_physical_micros(ut),
            tx(txdc, txseq),
            DcId(src),
        )
    }

    #[test]
    fn order_is_timestamp_first() {
        assert!(ver(10, 0, 0, 0).order() < ver(11, 0, 0, 0).order());
        // Even when the later tx id is "smaller".
        assert!(ver(10, 9, 9, 9).order() < ver(11, 0, 0, 0).order());
    }

    #[test]
    fn order_breaks_timestamp_ties_with_tx_id() {
        let a = ver(10, 0, 1, 3);
        let b = ver(10, 0, 2, 0);
        assert!(a.order() < b.order());
    }

    #[test]
    fn order_breaks_tx_ties_with_source_dc() {
        // Same ut, same tx id (possible only across replicas of the same
        // logical write — still must be totally ordered).
        let mut a = ver(10, 1, 1, 0);
        let mut b = ver(10, 1, 1, 2);
        a.tx = b.tx;
        assert!(a.order() < b.order());
        b.src = DcId(0);
        assert_eq!(a.order(), b.order());
    }

    #[test]
    fn version_carries_paper_tuple_fields() {
        let v = ver(42, 1, 7, 1);
        assert_eq!(v.key, Key(1));
        assert_eq!(v.ut.physical_micros(), 42);
        assert_eq!(v.tx.seq, 7);
        assert_eq!(v.src, DcId(1));
    }

    #[test]
    fn stamp_identifies_a_version_by_update_time_and_writer() {
        let v = ver(42, 1, 7, 1);
        assert_eq!(
            v.stamp(),
            ver(42, 1, 7, 0).stamp(),
            "source DC is not identity"
        );
        assert_ne!(v.stamp(), ver(43, 1, 7, 1).stamp());
        assert_ne!(v.stamp(), ver(42, 1, 8, 1).stamp());
    }

    #[test]
    fn write_set_entry_holds_kv() {
        let e = WriteSetEntry::new(Key(9), Value::from("v"));
        assert_eq!(e.key, Key(9));
        assert_eq!(e.value.as_bytes(), b"v");
    }
}
