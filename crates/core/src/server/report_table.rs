//! The stabilization child-report table.
//!
//! Each tree child forwards a report (its subtree's per-source-DC
//! minima plus its oldest active snapshot) one level up; the parent keeps
//! the freshest report per child and folds them into its own aggregate
//! (see `stabilization`). Reports reach the table on the server loop
//! only, over a FIFO link, so the later report is the fresher one and a
//! fold is a plain overwrite — which matters for `oldest_active`, the one
//! component that may legitimately move *backwards* (a newly started
//! transaction pulls it down).

use std::collections::HashMap;

use paris_types::{DcId, PartitionId, Timestamp};

/// One stored child report: the subtree's per-source-DC minima plus its
/// oldest active snapshot.
type StoredReport = (Vec<(DcId, Timestamp)>, Timestamp);

/// Freshest report per tree child. See the module docs.
#[derive(Debug, Default)]
pub(crate) struct ReportTable {
    reports: HashMap<PartitionId, StoredReport>,
}

impl ReportTable {
    /// Seeds a child at `Timestamp::ZERO` for every DC it replicates
    /// with, so the parent's aggregate under-approximates children it
    /// has not heard from yet (the stabilization safety requirement).
    pub(crate) fn seed(&mut self, partition: PartitionId, dcs: impl IntoIterator<Item = DcId>) {
        let mins: Vec<(DcId, Timestamp)> =
            dcs.into_iter().map(|dc| (dc, Timestamp::ZERO)).collect();
        self.reports.insert(partition, (mins, Timestamp::ZERO));
    }

    /// Stores a child's report over its previous one.
    pub(crate) fn fold(
        &mut self,
        partition: PartitionId,
        mins: &[(DcId, Timestamp)],
        oldest_active: Timestamp,
    ) {
        self.reports
            .insert(partition, (mins.to_vec(), oldest_active));
    }

    /// Visits every child's freshest report (the aggregation pass).
    pub(crate) fn for_each(&self, mut f: impl FnMut(&[(DcId, Timestamp)], Timestamp)) {
        for (mins, oldest) in self.reports.values() {
            f(mins, *oldest);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_physical_micros(t)
    }

    fn collect(table: &ReportTable) -> Vec<(Vec<(DcId, Timestamp)>, Timestamp)> {
        let mut out = Vec::new();
        table.for_each(|mins, oldest| out.push((mins.to_vec(), oldest)));
        out
    }

    #[test]
    fn seed_under_approximates() {
        let mut t = ReportTable::default();
        t.seed(PartitionId(1), [DcId(0), DcId(1)]);
        let got = collect(&t);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, vec![(DcId(0), ts(0)), (DcId(1), ts(0))]);
        assert_eq!(got[0].1, ts(0));
    }

    #[test]
    fn in_order_reports_behave_like_overwrite() {
        let mut t = ReportTable::default();
        t.seed(PartitionId(1), [DcId(0)]);
        t.fold(PartitionId(1), &[(DcId(0), ts(10))], ts(5));
        // Fresher report with a *lower* oldest (a new tx started): must
        // be accepted.
        t.fold(PartitionId(1), &[(DcId(0), ts(20))], ts(3));
        let got = collect(&t);
        assert_eq!(got[0].0, vec![(DcId(0), ts(20))]);
        assert_eq!(got[0].1, ts(3));
    }
}
