//! The coordinator transaction table.
//!
//! The paper's `TX[id_T]` map plus the transaction-id sequence: the
//! bookkeeping snapshot assignment (Alg. 2 lines 1–5) mutates, whether the
//! start arrives as a `StartTxReq` or as the start form of a first
//! operation. The map sits behind a mutex whose critical sections are a
//! handful of map operations.
//!
//! # GC safety of assignment
//!
//! The `S_old` aggregate (§IV-B) must never advance past the snapshot of
//! an active transaction. The server computes its contribution —
//! [`TxTable::oldest_active_snapshot`] — from this table, so a start that
//! reads `ust = X` and *then* registers its context must not let a report
//! slip in between: it could state a minimum above `X`. The table closes
//! the window by doing both under one lock: [`TxTable::begin_paris`]
//! reads the UST and inserts the context inside the same critical section
//! that `oldest_active_snapshot` takes, and `oldest_active_snapshot` reads
//! its idle fallback (the current UST) inside that section too. Every
//! report therefore either sees the new context or ran entirely before
//! its snapshot was assigned — in which case the reported minimum is at
//! most the UST of that earlier instant, which monotonicity keeps at or
//! below the snapshot. (Today every caller runs on the server loop; the
//! argument does not depend on that.)

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use paris_storage::StableFrontier;
use paris_types::{ClientId, ServerId, Timestamp, TxId};

use super::TxContext;

/// Coordinator transaction contexts plus the transaction-id sequence. See
/// the module docs.
#[derive(Debug, Default)]
pub(crate) struct TxTable {
    /// Next transaction sequence number (ids are `(server, seq)`).
    next_seq: AtomicU64,
    /// The paper's `TX[id_T]` map (Alg. 2 line 4).
    ctxs: Mutex<HashMap<TxId, TxContext>>,
}

impl TxTable {
    /// Locks the context map for one coordinator operation.
    pub(crate) fn lock(&self) -> MutexGuard<'_, HashMap<TxId, TxContext>> {
        self.ctxs.lock().expect("tx table poisoned")
    }

    /// PaRiS snapshot assignment: `ust ← max(ust, ust_c)`, snapshot =
    /// `ust`, context registered — all in one critical section, so the
    /// `S_old` aggregate can never miss an assigned-but-unregistered
    /// snapshot (module docs).
    pub(crate) fn begin_paris(
        &self,
        id: ServerId,
        client: ClientId,
        frontier: &StableFrontier,
        client_ust: Timestamp,
        now: u64,
    ) -> (TxId, Timestamp) {
        let mut ctxs = self.lock();
        let snapshot = frontier.max_ust(client_ust);
        let tx = TxId::new(id, self.next_seq.fetch_add(1, Ordering::Relaxed));
        ctxs.insert(
            tx,
            TxContext {
                snapshot,
                client,
                pending: None,
                started_at: now,
            },
        );
        (tx, snapshot)
    }

    /// Registers a context with a precomputed snapshot (BPR: fresh
    /// snapshots come from the loop's HLC).
    pub(crate) fn begin_with_snapshot(
        &self,
        id: ServerId,
        client: ClientId,
        snapshot: Timestamp,
        now: u64,
    ) -> TxId {
        let mut ctxs = self.lock();
        let tx = TxId::new(id, self.next_seq.fetch_add(1, Ordering::Relaxed));
        ctxs.insert(
            tx,
            TxContext {
                snapshot,
                client,
                pending: None,
                started_at: now,
            },
        );
        tx
    }

    /// The oldest snapshot among transactions coordinated here, or the
    /// current UST when idle — this server's contribution to the `S_old`
    /// aggregate (§IV-B). The idle fallback is read under the table lock
    /// so it cannot leapfrog an assignment in progress.
    pub(crate) fn oldest_active_snapshot(&self, frontier: &StableFrontier) -> Timestamp {
        let ctxs = self.lock();
        ctxs.values()
            .map(|c| c.snapshot)
            .min()
            .unwrap_or_else(|| frontier.ust())
    }

    /// Number of open contexts.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// Drops contexts older than `timeout_micros` with no operation in
    /// flight; returns how many. A context waiting on its cohorts stays:
    /// a 2PC in progress must still reach them, and a read still answers
    /// its client once the cohorts do.
    pub(crate) fn expire(&self, now: u64, timeout_micros: u64) -> usize {
        let mut ctxs = self.lock();
        let before = ctxs.len();
        ctxs.retain(|_, ctx| {
            ctx.pending.is_some() || now.saturating_sub(ctx.started_at) < timeout_micros
        });
        before - ctxs.len()
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use paris_storage::ReadGuard;
    use paris_types::{DcId, PartitionId};
    use proptest::prelude::*;

    use super::*;

    /// One step of a coordinator's life, against its table and frontier.
    #[derive(Debug, Clone)]
    enum Op {
        /// Gossip moves the UST forward by this many µs.
        Advance(u64),
        /// A client starts a transaction; its `ust_c` is this many µs
        /// above (or below) the UST.
        Begin(u64, bool),
        /// An open transaction (index modulo their number) finishes.
        Finish(usize),
        /// A slice read starts at an open transaction's snapshot.
        Read(usize),
        /// An in-flight slice read finishes.
        ReadDone(usize),
        /// This server's report becomes the `S_old` aggregate (one
        /// server: the minimum over all reports is its own).
        Report,
        /// Time passes, and the GC tick reclaims idle contexts older
        /// than the timeout.
        Expire(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u64..1_000).prop_map(Op::Advance),
            (0u64..2_000, any::<bool>()).prop_map(|(d, above)| Op::Begin(d, above)),
            any::<usize>().prop_map(Op::Finish),
            any::<usize>().prop_map(Op::Read),
            any::<usize>().prop_map(Op::ReadDone),
            Just(Op::Report),
            Just(Op::Report),
            (0u64..400).prop_map(Op::Expire),
        ]
    }

    const TIMEOUT: u64 = 1_000;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn prop_s_old_never_passes_a_snapshot_while_its_context_is_open(
            ops in proptest::collection::vec(op(), 1..120)
        ) {
            let table = TxTable::default();
            let frontier = Arc::new(StableFrontier::new());
            let server = ServerId::new(DcId(0), PartitionId(0));
            let client = ClientId::new(DcId(0), 1);
            let mut now = 0u64;
            let mut reads: Vec<(Timestamp, ReadGuard)> = Vec::new();
            for op in ops {
                let ust = frontier.ust().physical_micros();
                match op {
                    Op::Advance(d) => {
                        frontier.advance_ust(Timestamp::from_physical_micros(ust + d));
                    }
                    Op::Begin(d, above) => {
                        let client_ust = if above { ust + d } else { ust.saturating_sub(d) };
                        let client_ust = Timestamp::from_physical_micros(client_ust);
                        let (_, snapshot) = table.begin_paris(server, client, &frontier, client_ust, now);
                        prop_assert!(snapshot >= client_ust.max(frontier.s_old()));
                    }
                    Op::Finish(i) => {
                        let mut ctxs = table.lock();
                        let mut open: Vec<TxId> = ctxs.keys().copied().collect();
                        open.sort_unstable();
                        if !open.is_empty() {
                            ctxs.remove(&open[i % open.len()]);
                        }
                    }
                    Op::Read(i) => {
                        let mut open: Vec<Timestamp> =
                            table.lock().values().map(|c| c.snapshot).collect();
                        open.sort_unstable();
                        if !open.is_empty() {
                            let snapshot = open[i % open.len()];
                            let guard = frontier.begin_read(snapshot);
                            prop_assert!(guard.is_ok(), "an open snapshot is never below S_old");
                            reads.push((snapshot, guard.expect("checked")));
                        }
                    }
                    Op::ReadDone(i) => {
                        if !reads.is_empty() {
                            reads.swap_remove(i % reads.len());
                        }
                    }
                    Op::Report => {
                        frontier.advance_s_old(table.oldest_active_snapshot(&frontier));
                    }
                    Op::Expire(d) => {
                        now += d;
                        table.expire(now, TIMEOUT);
                    }
                }
                for ctx in table.lock().values() {
                    prop_assert!(frontier.s_old() <= ctx.snapshot);
                }
                for (snapshot, _) in &reads {
                    prop_assert!(frontier.gc_horizon() <= *snapshot);
                }
            }
        }
    }
}
