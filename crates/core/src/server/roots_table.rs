//! The inter-DC root table: latest `(GST, oldest_active)` per DC.
//!
//! Remote entries fold as per-entry monotone maxima (FIFO links make
//! announcements monotonic per sender anyway). The one asymmetry is the
//! root's **own** entry: its `oldest_active` component may legitimately
//! move backwards (a fresh long-lived transaction lowers the DC's oldest
//! active snapshot), so [`RootsTable::publish_own`] overwrites it instead
//! of max-folding.

use std::collections::HashMap;

use paris_types::{DcId, Timestamp};

/// Latest known `(GST, oldest_active)` per DC root. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct RootsTable {
    entries: HashMap<DcId, (Timestamp, Timestamp)>,
}

impl RootsTable {
    /// Folds a remote root's `RootGst` announcement.
    pub(crate) fn fold_remote(&mut self, dc: DcId, gst: Timestamp, oldest_active: Timestamp) {
        let entry = self
            .entries
            .entry(dc)
            .or_insert((Timestamp::ZERO, Timestamp::ZERO));
        entry.0 = entry.0.max(gst);
        entry.1 = entry.1.max(oldest_active);
    }

    /// Publishes the local root's own aggregate.
    /// The GST is monotone (it derives from the version vector), but
    /// `oldest_active` is authoritative and may regress when a long-lived
    /// transaction opens, so it overwrites.
    pub(crate) fn publish_own(&mut self, dc: DcId, gst: Timestamp, oldest_active: Timestamp) {
        let entry = self.entries.entry(dc).or_insert((gst, oldest_active));
        entry.0 = entry.0.max(gst);
        entry.1 = oldest_active;
    }

    /// The `(min GST, min oldest_active)` over all DCs, or `None` until at
    /// least `required` DCs have reported (Alg. 4 line 36 demands every
    /// DC's GST before the first UST can exist).
    pub(crate) fn stable_mins(&self, required: usize) -> Option<(Timestamp, Timestamp)> {
        if self.entries.len() < required {
            return None;
        }
        let min_gst = self.entries.values().map(|(gst, _)| *gst).min()?;
        let min_oldest = self.entries.values().map(|(_, oldest)| *oldest).min()?;
        Some((min_gst, min_oldest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_physical_micros(t)
    }

    #[test]
    fn empty_until_required_dcs_report() {
        let mut table = RootsTable::default();
        assert_eq!(table.stable_mins(1), None);
        table.fold_remote(DcId(1), ts(10), ts(5));
        assert_eq!(table.stable_mins(2), None, "one of two DCs known");
        assert_eq!(table.stable_mins(1), Some((ts(10), ts(5))));
    }

    #[test]
    fn remote_folds_are_entrywise_monotone() {
        let mut table = RootsTable::default();
        table.fold_remote(DcId(1), ts(10), ts(8));
        table.fold_remote(DcId(1), ts(7), ts(12)); // out-of-order race
        assert_eq!(table.stable_mins(1), Some((ts(10), ts(12))));
    }

    #[test]
    fn own_entry_overwrites_oldest_active() {
        let mut table = RootsTable::default();
        table.publish_own(DcId(0), ts(20), ts(20));
        // A long-lived transaction opens: oldest active regresses.
        table.publish_own(DcId(0), ts(25), ts(15));
        assert_eq!(table.stable_mins(1), Some((ts(25), ts(15))));
    }

    #[test]
    fn mins_span_all_dcs() {
        let mut table = RootsTable::default();
        table.publish_own(DcId(0), ts(30), ts(25));
        table.fold_remote(DcId(1), ts(20), ts(40));
        table.fold_remote(DcId(2), ts(50), ts(10));
        assert_eq!(table.stable_mins(3), Some((ts(20), ts(10))));
    }
}
