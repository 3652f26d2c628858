//! Per-key version chains.

use paris_types::{Timestamp, Version};

/// The version chain of one key: all retained versions, newest first.
///
/// Versions are kept sorted descending by the total order of §IV-B
/// (timestamp, then transaction id, then source DC). Insertion is
/// tolerant of arbitrary arrival orders — remote replication batches can
/// interleave with local commits in any way — and is idempotent: applying
/// the same (tx, ut) version twice keeps a single copy, which makes
/// at-least-once replication delivery safe.
#[derive(Debug, Clone, Default)]
pub struct VersionChain {
    /// Retained versions, sorted descending by `VersionOrd`.
    versions: Vec<Version>,
}

impl VersionChain {
    /// Creates an empty chain.
    pub fn new() -> Self {
        VersionChain::default()
    }

    /// Number of retained versions.
    #[inline]
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether the chain holds no versions.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Inserts a version, keeping the chain sorted (newest first).
    ///
    /// Returns `true` if the version was inserted, `false` if an identical
    /// version (same total-order key) was already present.
    pub fn insert(&mut self, version: Version) -> bool {
        let ord = version.order();
        // Newest-first: find the first element whose order is <= ord.
        match self.versions.binary_search_by(|v| ord.cmp(&v.order())) {
            Ok(_) => false,
            Err(pos) => {
                self.versions.insert(pos, version);
                true
            }
        }
    }

    /// The freshest version visible in the snapshot `ts`: the version with
    /// the largest total order whose `ut ≤ ts` (Alg. 3 lines 5–6).
    ///
    /// The chain is sorted descending by `VersionOrd`, whose leading
    /// component is `ut`, so `ut` is non-increasing along the vector and
    /// the answer is found by binary search — this is the hottest path in
    /// the system (every key of every slice read lands here).
    pub fn read_at(&self, ts: Timestamp) -> Option<&Version> {
        let idx = self.versions.partition_point(|v| v.ut > ts);
        self.versions.get(idx)
    }

    /// The freshest version regardless of snapshot (diagnostics, checker).
    pub fn latest(&self) -> Option<&Version> {
        self.versions.first()
    }

    /// Iterates over retained versions, newest first.
    pub fn iter(&self) -> impl Iterator<Item = &Version> {
        self.versions.iter()
    }

    /// Garbage-collects versions older than the oldest active snapshot.
    ///
    /// Keeps every version with `ut > s_old` **plus** the freshest version
    /// with `ut ≤ s_old` (the paper keeps "all the versions up to and
    /// including the oldest one within `S_old`", §IV-B) — i.e. exactly the
    /// versions some current or future transaction may still read.
    ///
    /// Returns the number of versions removed.
    pub fn gc(&mut self, s_old: Timestamp) -> usize {
        // Index of the first version with ut <= s_old (they are sorted
        // newest-first, so everything after the *next* index is dead).
        let Some(first_at_or_below) = self.versions.iter().position(|v| v.ut <= s_old) else {
            return 0; // nothing at or below the horizon
        };
        let keep = first_at_or_below + 1;
        let removed = self.versions.len().saturating_sub(keep);
        self.versions.truncate(keep);
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::{DcId, Key, PartitionId, ServerId, TxId, Value};
    use proptest::prelude::*;

    fn tx(dc: u16, seq: u64) -> TxId {
        TxId::new(ServerId::new(DcId(dc), PartitionId(0)), seq)
    }

    fn ver(ut: u64, dc: u16, seq: u64) -> Version {
        Version::new(
            Key(1),
            Value::from(format!("{ut}-{dc}-{seq}").as_str()),
            Timestamp::from_physical_micros(ut),
            tx(dc, seq),
            DcId(dc),
        )
    }

    #[test]
    fn empty_chain_reads_nothing() {
        let chain = VersionChain::new();
        assert!(chain.read_at(Timestamp::MAX).is_none());
        assert!(chain.latest().is_none());
        assert!(chain.is_empty());
    }

    #[test]
    fn read_at_returns_freshest_within_snapshot() {
        let mut chain = VersionChain::new();
        chain.insert(ver(10, 0, 1));
        chain.insert(ver(20, 0, 2));
        chain.insert(ver(30, 0, 3));
        let at = |t: u64| {
            chain
                .read_at(Timestamp::from_physical_micros(t))
                .map(|v| v.ut.physical_micros())
        };
        assert_eq!(at(5), None);
        assert_eq!(at(10), Some(10));
        assert_eq!(at(25), Some(20));
        assert_eq!(at(99), Some(30));
    }

    #[test]
    fn insert_out_of_order_keeps_sorted() {
        let mut chain = VersionChain::new();
        chain.insert(ver(30, 0, 3));
        chain.insert(ver(10, 0, 1));
        chain.insert(ver(20, 0, 2));
        let uts: Vec<u64> = chain.iter().map(|v| v.ut.physical_micros()).collect();
        assert_eq!(uts, vec![30, 20, 10]);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut chain = VersionChain::new();
        assert!(chain.insert(ver(10, 0, 1)));
        assert!(!chain.insert(ver(10, 0, 1)), "duplicate rejected");
        assert_eq!(chain.len(), 1);
    }

    #[test]
    fn concurrent_versions_totally_ordered_by_tx_then_dc() {
        let mut chain = VersionChain::new();
        // Same timestamp, different transactions from different DCs.
        chain.insert(ver(10, 2, 1));
        chain.insert(ver(10, 1, 9));
        // tx from dc1 (seq 9) < tx from dc2 (seq 1) because TxId orders by
        // dc first — the dc2 write is "last writer".
        let winner = chain.read_at(Timestamp::from_physical_micros(10)).unwrap();
        assert_eq!(winner.src, DcId(2));
    }

    #[test]
    fn gc_keeps_horizon_version_and_newer() {
        let mut chain = VersionChain::new();
        for t in [10, 20, 30, 40] {
            chain.insert(ver(t, 0, t));
        }
        // S_old = 25: versions 10 is dead; 20 (freshest ≤ 25), 30, 40 live.
        let removed = chain.gc(Timestamp::from_physical_micros(25));
        assert_eq!(removed, 1);
        let uts: Vec<u64> = chain.iter().map(|v| v.ut.physical_micros()).collect();
        assert_eq!(uts, vec![40, 30, 20]);
        // A read at the horizon still succeeds.
        assert!(chain.read_at(Timestamp::from_physical_micros(25)).is_some());
    }

    #[test]
    fn gc_with_horizon_below_all_versions_removes_nothing() {
        let mut chain = VersionChain::new();
        chain.insert(ver(10, 0, 1));
        assert_eq!(chain.gc(Timestamp::from_physical_micros(5)), 0);
        assert_eq!(chain.len(), 1);
    }

    #[test]
    fn gc_with_horizon_above_all_keeps_only_latest() {
        let mut chain = VersionChain::new();
        for t in [10, 20, 30] {
            chain.insert(ver(t, 0, t));
        }
        assert_eq!(chain.gc(Timestamp::from_physical_micros(99)), 2);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.latest().unwrap().ut.physical_micros(), 30);
    }

    proptest! {
        /// Reads after arbitrary insertion orders return the max-order
        /// version with ut ≤ snapshot — the chain is equivalent to a sorted
        /// set no matter how replication interleaves.
        #[test]
        fn prop_read_at_is_max_leq_snapshot(
            entries in proptest::collection::vec((1u64..1_000, 0u16..5, 0u64..50), 1..60),
            snapshot in 0u64..1_100,
        ) {
            let mut chain = VersionChain::new();
            for &(ut, dc, seq) in &entries {
                chain.insert(ver(ut, dc, seq));
            }
            let snap = Timestamp::from_physical_micros(snapshot);
            let expect = entries
                .iter()
                .map(|&(ut, dc, seq)| ver(ut, dc, seq))
                .filter(|v| v.ut <= snap)
                .max_by_key(|v| v.order());
            let got = chain.read_at(snap);
            prop_assert_eq!(got.map(|v| v.order()), expect.map(|v| v.order()));
        }

        /// GC never removes a version readable at any snapshot ≥ S_old.
        #[test]
        fn prop_gc_preserves_reads_at_or_above_horizon(
            entries in proptest::collection::vec((1u64..500, 0u16..3, 0u64..30), 1..40),
            horizon in 0u64..600,
            probe_offset in 0u64..200,
        ) {
            let mut chain = VersionChain::new();
            for &(ut, dc, seq) in &entries {
                chain.insert(ver(ut, dc, seq));
            }
            let s_old = Timestamp::from_physical_micros(horizon);
            let probe = Timestamp::from_physical_micros(horizon + probe_offset);
            let before = chain.read_at(probe).map(|v| v.order());
            chain.gc(s_old);
            let after = chain.read_at(probe).map(|v| v.order());
            prop_assert_eq!(before, after);
        }

        /// Insertion order never affects the final chain contents.
        #[test]
        fn prop_insertion_order_irrelevant(
            mut entries in proptest::collection::vec((1u64..100, 0u16..3, 0u64..10), 1..20)
        ) {
            let mut forward = VersionChain::new();
            for &(ut, dc, seq) in &entries {
                forward.insert(ver(ut, dc, seq));
            }
            entries.reverse();
            let mut backward = VersionChain::new();
            for &(ut, dc, seq) in &entries {
                backward.insert(ver(ut, dc, seq));
            }
            let f: Vec<_> = forward.iter().map(|v| v.order()).collect();
            let b: Vec<_> = backward.iter().map(|v| v.order()).collect();
            prop_assert_eq!(f, b);
        }
    }
}
