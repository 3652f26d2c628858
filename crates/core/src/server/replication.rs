//! Applying committed transactions and replicating them to peer replicas
//! (paper Algorithm 4, lines 5–33).

use paris_proto::{Envelope, Msg, ReplicatedTx};
use paris_types::{DcId, Mode, PartitionId, Timestamp};

use super::Server;

impl Server {
    /// The apply/replicate tick (Alg. 4 lines 5–22), run every ∆R.
    ///
    /// Computes the *update bound* `ub`: `min(prepared) − 1` if
    /// transactions are preparing (their commit times may still land
    /// anywhere above their proposals), otherwise `max(Clock, HLC)`.
    /// Applies every committed transaction with `ct ≤ ub` in commit-time
    /// order, pushes the batch to peer replicas, and advances the local
    /// version clock to `ub`. With nothing to apply the batch is empty: a
    /// heartbeat, so the UST keeps advancing in write-free periods.
    pub fn on_replicate_tick(&mut self, now: u64) -> Vec<Envelope> {
        let ub = match self.min_prepared() {
            // Future commits are ≥ the minimum proposal, hence > ub.
            Some(min_pt) => min_pt.pred(),
            // No proposals in flight: advance the HLC and use its new
            // value. The paper's `max(Clock, HLC)` (Alg. 4 line 7) is not
            // quite enough — if the physical clock stalls, a later prepare
            // may propose *exactly* that value, creating a version whose
            // timestamp equals an already-announced watermark and
            // violating Proposition 2. Ticking the HLC makes every future
            // proposal (`max(Clock, ht+1, HLC+1)`) strictly greater.
            None => self.hlc.now(&self.clock),
        };
        // The version clock never regresses (peek is monotonic and any new
        // proposal exceeds the HLC at its creation, but be defensive).
        let own = self.id.dc;
        let ub = ub.max(self.vv[&own]);

        // Collect committed transactions with ct ≤ ub, ascending (ct, tx).
        let mut batch: Vec<ReplicatedTx> = Vec::new();
        let ready: Vec<(Timestamp, paris_types::TxId)> = self
            .committed
            .range(
                ..=(
                    ub,
                    paris_types::TxId::new(
                        paris_types::ServerId::new(DcId(u16::MAX), PartitionId(u32::MAX)),
                        u64::MAX,
                    ),
                ),
            )
            .map(|(k, _)| *k)
            .collect();
        for key in ready {
            let (ct, tx) = key;
            let entry = self.committed.remove(&key).expect("collected above");
            for w in &entry.writes {
                self.store.apply(w.key, w.value.clone(), ct, tx, entry.src);
            }
            self.stats.applied_local += 1;
            if let Some(log) = self.events.as_mut() {
                log.applies.push((tx, ct, now));
            }
            batch.push(ReplicatedTx {
                tx,
                ct,
                src: entry.src,
                writes: entry.writes,
            });
        }

        // Advance the local version clock (Alg. 4 lines 18/20).
        self.vv.insert(own, ub);

        let peers = self.topo.peer_replicas(self.id);
        let mut out: Vec<Envelope> = Vec::with_capacity(peers.len() + 4);
        if batch.is_empty() {
            // Alg. 4 line 21: an empty batch is the heartbeat that keeps
            // remote version clocks moving.
            self.stats.heartbeats += peers.len() as u64;
        } else {
            self.stats.replicate_batches += 1;
        }
        let (id, partition) = (self.id, self.id.partition);
        let replicate = |peer, txs| {
            let msg = Msg::Replicate {
                partition,
                txs,
                watermark: ub,
            };
            Envelope::new(id, peer, msg)
        };
        // Every peer but the last gets a copy; the last one gets the batch.
        if let Some((last, rest)) = peers.split_last() {
            out.extend(rest.iter().map(|peer| replicate(*peer, batch.clone())));
            out.push(replicate(*last, batch));
        }

        out.extend(self.after_clock_move(now));
        out
    }

    /// What follows any move of a version-vector entry: behind paced
    /// links the stabilisation aggregate is forwarded at once if the move
    /// shifted it, and under BPR reads blocked on the installed watermark
    /// may now be servable.
    fn after_clock_move(&mut self, now: u64) -> Vec<Envelope> {
        let mut out = self.push_stable(now);
        if self.mode == Mode::Bpr {
            out.extend(self.drain_blocked(now));
        }
        out
    }

    /// `Replicate` from a peer replica (Alg. 4 lines 23–33, an empty one
    /// being a heartbeat): apply the batch in its ascending `(ct, tx)`
    /// order, then advance that replica's version-vector entry to the
    /// sender's watermark — after the store writes, so the installed
    /// watermark never announces a version that is not yet readable.
    ///
    /// A `ReplicateBatch` from the coalescing layer lands here too, with
    /// `frames` > 0: several frames from the same peer folded into one
    /// message, in ascending `ct` order under the newest watermark.
    pub(super) fn on_replicate(
        &mut self,
        env: &Envelope,
        partition: PartitionId,
        txs: &[ReplicatedTx],
        watermark: Timestamp,
        frames: u32,
        now: u64,
    ) -> Vec<Envelope> {
        debug_assert_eq!(partition, self.id.partition, "replication cross-partition");
        self.stats.coalesced_frames += u64::from(frames);
        for t in txs {
            for w in &t.writes {
                self.store.apply(w.key, w.value.clone(), t.ct, t.tx, t.src);
            }
            self.stats.applied_remote += 1;
            if let Some(log) = self.events.as_mut() {
                log.applies.push((t.tx, t.ct, now));
            }
        }
        self.bump_replica_clock(env.src.dc(), watermark);
        self.after_clock_move(now)
    }

    /// Advances the version-vector entry of a peer replica DC. FIFO
    /// channels make regressions impossible; `max` keeps the entry
    /// monotonic even if a substrate reorders (it must not).
    fn bump_replica_clock(&mut self, from: DcId, watermark: Timestamp) {
        let entry = self.vv.entry(from).or_insert(Timestamp::ZERO);
        debug_assert!(
            *entry <= watermark,
            "replica clock regression from {from}: {entry:?} -> {watermark:?}"
        );
        *entry = (*entry).max(watermark);
    }
}
