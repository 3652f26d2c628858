//! The coordinator transaction table.
//!
//! The paper's `TX[id_T]` map plus the transaction-id sequence: the
//! bookkeeping snapshot assignment (Alg. 2 lines 1–5) mutates, whether the
//! start arrives as a `StartTxReq` or as the start form of a first
//! operation.
//!
//! # GC safety of assignment
//!
//! The `S_old` aggregate (§IV-B) must never advance past the snapshot of
//! an active transaction. The server computes its contribution —
//! [`TxTable::oldest_active_snapshot`] — from this table, on the same
//! loop that assigns snapshots, so every report either sees a new context
//! or ran before its snapshot was assigned — in which case the reported
//! minimum is at most the UST of that earlier instant, which monotonicity
//! keeps at or below the snapshot.

use std::collections::HashMap;

use paris_types::{ClientId, ServerId, Timestamp, TxId};

use super::TxContext;

/// Coordinator transaction contexts plus the transaction-id sequence. See
/// the module docs.
#[derive(Debug, Default)]
pub(crate) struct TxTable {
    /// Next transaction sequence number (ids are `(server, seq)`).
    next_seq: u64,
    /// The paper's `TX[id_T]` map (Alg. 2 line 4).
    pub(crate) ctxs: HashMap<TxId, TxContext>,
}

impl TxTable {
    /// Registers a transaction at `snapshot` under a fresh id.
    pub(crate) fn begin(
        &mut self,
        id: ServerId,
        client: ClientId,
        snapshot: Timestamp,
        now: u64,
    ) -> TxId {
        let tx = TxId::new(id, self.next_seq);
        self.next_seq += 1;
        self.ctxs.insert(
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
    /// aggregate (§IV-B).
    pub(crate) fn oldest_active_snapshot(&self, ust: Timestamp) -> Timestamp {
        self.ctxs.values().map(|c| c.snapshot).min().unwrap_or(ust)
    }

    /// Drops contexts older than `timeout_micros` with no operation in
    /// flight; returns how many. A context waiting on its cohorts stays:
    /// a 2PC in progress must still reach them, and a read still answers
    /// its client once the cohorts do.
    pub(crate) fn expire(&mut self, now: u64, timeout_micros: u64) -> usize {
        let before = self.ctxs.len();
        self.ctxs.retain(|_, ctx| {
            ctx.pending.is_some() || now.saturating_sub(ctx.started_at) < timeout_micros
        });
        before - self.ctxs.len()
    }
}

#[cfg(test)]
mod tests {
    use paris_types::{DcId, PartitionId};
    use proptest::prelude::*;

    use super::*;

    /// One step of a coordinator's life, against its table and its
    /// server's stable times.
    #[derive(Debug, Clone)]
    enum Op {
        /// Gossip moves the UST forward by this many µs.
        Advance(u64),
        /// A client starts a transaction; its `ust_c` is this many µs
        /// above (or below) the UST.
        Begin(u64, bool),
        /// An open transaction (index modulo their number) finishes.
        Finish(usize),
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
            let mut table = TxTable::default();
            let (mut ust, mut s_old) = (Timestamp::ZERO, Timestamp::ZERO);
            let server = ServerId::new(DcId(0), PartitionId(0));
            let client = ClientId::new(DcId(0), 1);
            let mut now = 0u64;
            for op in ops {
                let micros = ust.physical_micros();
                match op {
                    Op::Advance(d) => {
                        ust = ust.max(Timestamp::from_physical_micros(micros + d));
                    }
                    Op::Begin(d, above) => {
                        let client_ust = if above { micros + d } else { micros.saturating_sub(d) };
                        let client_ust = Timestamp::from_physical_micros(client_ust);
                        // Alg. 2 line 2: ust ← max(ust, ust_c), snapshot = ust.
                        ust = ust.max(client_ust);
                        table.begin(server, client, ust, now);
                        prop_assert!(ust >= client_ust.max(s_old));
                    }
                    Op::Finish(i) => {
                        let mut open: Vec<TxId> = table.ctxs.keys().copied().collect();
                        open.sort_unstable();
                        if !open.is_empty() {
                            table.ctxs.remove(&open[i % open.len()]);
                        }
                    }
                    Op::Report => {
                        s_old = s_old.max(table.oldest_active_snapshot(ust));
                    }
                    Op::Expire(d) => {
                        now += d;
                        table.expire(now, TIMEOUT);
                    }
                }
                for ctx in table.ctxs.values() {
                    prop_assert!(s_old <= ctx.snapshot);
                }
            }
        }
    }
}
