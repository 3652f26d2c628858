//! CPU service-time model for simulated servers.

use paris_proto::{Msg, TxRef};

/// Per-message CPU costs of a partition server, in microseconds.
///
/// The paper's servers are `c5.xlarge` instances; throughput saturates when
/// server CPUs do. The simulation models each server as a single service
/// queue: handling a message occupies the server for `cost(msg)`
/// microseconds, and queued messages wait. The default constants are
/// calibrated so a server peaks at a few tens of thousands of simple
/// operations per second, matching the order of magnitude of the paper's
/// per-machine throughput (~250 KTx/s over 90 machines ≈ 2.8 KTx/s per
/// machine at 20 ops each).
///
/// BPR's extra cost for parking/waking blocked reads is modelled by
/// [`ServiceModel::block_overhead`], applied by the runtime once per
/// blocked read — the paper attributes BPR's throughput loss to exactly
/// this "synchronization overhead to block and unblock reads" (§V-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Fixed cost of starting a transaction (snapshot assignment), whether
    /// by `StartTxReq` or in the start form of a first operation. A picked
    /// form pays none: its client chose the snapshot.
    pub start_tx: u64,
    /// Coordinator-side fixed cost of a read fan-out.
    pub read_coord: u64,
    /// Cohort-side fixed cost of a slice read.
    pub read_slice_base: u64,
    /// Additional cohort cost per key read.
    pub read_per_key: u64,
    /// Cohort-side fixed cost of a prepare.
    pub prepare_base: u64,
    /// Additional prepare cost per key written.
    pub prepare_per_key: u64,
    /// Cost of handling a commit (either phase-2 message).
    pub commit: u64,
    /// Cost of applying one replicated transaction write.
    pub apply_per_key: u64,
    /// Fixed cost of a replication push or batch (a heartbeat — an empty
    /// push — costs 1).
    pub replicate_base: u64,
    /// Cost of any stabilization digest (report/root/broadcast).
    pub gossip: u64,
    /// Extra cost charged when a read must block and later resume (BPR).
    pub block_overhead: u64,
}

impl Default for ServiceModel {
    fn default() -> Self {
        ServiceModel {
            start_tx: 4,
            read_coord: 6,
            read_slice_base: 8,
            read_per_key: 2,
            prepare_base: 10,
            prepare_per_key: 2,
            commit: 3,
            apply_per_key: 2,
            replicate_base: 4,
            gossip: 5,
            block_overhead: 12,
        }
    }
}

impl ServiceModel {
    /// CPU microseconds a server spends handling `msg`.
    pub fn cost(&self, msg: &Msg) -> u64 {
        match msg {
            Msg::StartTxReq { .. } => self.start_tx,
            Msg::StartTxResp { .. } | Msg::OpFailed { .. } => 0,
            Msg::ReadReq { tx, .. } | Msg::CommitReq { tx, .. } => {
                let start = match tx {
                    TxRef::Known(_) | TxRef::Picked { .. } => 0,
                    TxRef::Start { .. } => self.start_tx,
                };
                self.read_coord + start
            }
            Msg::ReadResp { .. } => 0,
            Msg::CommitResp { .. } => 0,
            Msg::ReadSliceReq { keys, .. } => {
                self.read_slice_base + self.read_per_key * keys.len() as u64
            }
            Msg::ReadSliceResp { .. } => 1,
            // A one-phase commit skips the prepared queue: a prepare's work.
            // Deciding for other participants adds only the `CommitTx`s it
            // sends them, which they pay below; a middle's prepare is a
            // prepare, whatever share it carries on.
            Msg::PrepareReq { writes, .. } | Msg::CommitOne { writes, .. } => {
                self.prepare_base + self.prepare_per_key * writes.len() as u64
            }
            Msg::PrepareResp { .. } => 1,
            // Either direction: coordinator → cohort, or decider → every
            // other participant.
            Msg::CommitTx { .. } => self.commit,
            // A coalesced batch pays the fixed per-message overhead once —
            // that is the entire point of batching; the per-key apply work
            // is unavoidable either way.
            // A heartbeat (an empty push) only moves a version clock.
            Msg::Replicate { txs, .. } if txs.is_empty() => 1,
            Msg::Replicate { txs, .. } | Msg::ReplicateBatch { txs, .. } => {
                let keys: u64 = txs.iter().map(|t| t.writes.len() as u64).sum();
                self.replicate_base + self.apply_per_key * keys
            }
            Msg::GossipDigest { .. } => self.gossip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::{DcId, Key, PartitionId, ServerId, Timestamp, TxId};

    fn tx() -> TxId {
        TxId::new(ServerId::new(DcId(0), PartitionId(0)), 1)
    }

    #[test]
    fn read_slice_scales_with_keys() {
        let m = ServiceModel::default();
        let one = Msg::ReadSliceReq {
            tx: tx(),
            snapshot: Timestamp::ZERO,
            keys: vec![Key(1).into()],
        };
        let five = Msg::ReadSliceReq {
            tx: tx(),
            snapshot: Timestamp::ZERO,
            keys: (0..5).map(|k| Key(k).into()).collect(),
        };
        assert_eq!(m.cost(&five) - m.cost(&one), 4 * m.read_per_key);
    }

    #[test]
    fn a_heartbeat_costs_1_and_an_empty_batch_the_replicate_base() {
        let m = ServiceModel::default();
        let heartbeat = Msg::Replicate {
            partition: PartitionId(0),
            txs: vec![],
            watermark: Timestamp::ZERO,
        };
        assert_eq!(m.cost(&heartbeat), 1);
        let batch = Msg::ReplicateBatch {
            partition: PartitionId(0),
            txs: vec![],
            watermark: Timestamp::ZERO,
            frames: 2,
        };
        assert_eq!(m.cost(&batch), m.replicate_base);
    }

    #[test]
    fn only_a_start_form_pays_for_snapshot_assignment() {
        let m = ServiceModel::default();
        let ts = Timestamp::from_physical_micros(100);
        let commit = |tx| Msg::CommitReq {
            tx,
            hwt: Timestamp::ZERO,
            writes: vec![],
        };
        let known = m.cost(&commit(TxRef::Known(tx())));
        let picked = m.cost(&commit(TxRef::Picked {
            snapshot: ts,
            call: 1,
        }));
        let start = m.cost(&commit(TxRef::Start { client_ust: ts }));
        assert_eq!((known, picked), (m.read_coord, m.read_coord));
        assert_eq!(start, m.read_coord + m.start_tx);
    }

    #[test]
    fn responses_are_cheap() {
        let m = ServiceModel::default();
        let resp = Msg::StartTxResp {
            tx: tx(),
            snapshot: Timestamp::ZERO,
        };
        assert_eq!(m.cost(&resp), 0, "client-side handling is free");
    }

    #[test]
    fn default_is_nonzero_for_server_work() {
        let m = ServiceModel::default();
        assert!(m.start_tx > 0 && m.prepare_base > 0 && m.gossip > 0);
    }
}
