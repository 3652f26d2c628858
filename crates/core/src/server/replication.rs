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
    /// version clock to `ub`. With nothing to apply, sends a heartbeat so
    /// the UST keeps advancing in write-free periods.
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

        // Advance the local version clock (Alg. 4 lines 18/20) and
        // publish the new installed watermark and HLC for lock-free
        // observers.
        self.vv.insert(own, ub);
        self.root_state.publish_hlc(ub);
        self.root_state
            .publish_watermark(self.installed_watermark());

        let peers = self.topo.peer_replicas(self.id);
        let mut out: Vec<Envelope> = Vec::with_capacity(peers.len() + 4);
        if batch.is_empty() {
            // Alg. 4 line 21: heartbeat keeps remote version clocks moving.
            self.stats.heartbeats += peers.len() as u64;
            for peer in peers {
                out.push(Envelope::new(
                    self.id,
                    peer,
                    Msg::Heartbeat {
                        partition: self.id.partition,
                        watermark: ub,
                    },
                ));
            }
        } else {
            self.stats.replicate_batches += 1;
            for peer in peers {
                out.push(Envelope::new(
                    self.id,
                    peer,
                    Msg::Replicate {
                        partition: self.id.partition,
                        txs: batch.clone(),
                        watermark: ub,
                    },
                ));
            }
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

    /// `Replicate` from a peer replica (Alg. 4 lines 23–30): apply the
    /// batch and advance that replica's version-vector entry to the
    /// sender's watermark.
    ///
    /// The loop path is the pipeline apply plus the loop-owned
    /// completion, run back to back — the same two halves the threaded
    /// runtime's write pool splits across threads.
    pub(super) fn on_replicate(
        &mut self,
        env: &Envelope,
        partition: PartitionId,
        txs: &[ReplicatedTx],
        watermark: Timestamp,
        now: u64,
    ) -> Vec<Envelope> {
        self.pipeline.apply_replicated(txs);
        self.note_remote_applied(env.src.dc(), partition, txs, watermark, 0, now)
    }

    /// Loop-owned completion of a replication apply (Alg. 4 lines 29–30
    /// plus accounting): counts the transactions, logs the applies, folds
    /// coalesced frames and — strictly *after* the batch's store writes
    /// have landed through
    /// [`CommitPipeline::apply_replicated`](super::CommitPipeline::apply_replicated)
    /// — advances the sender's version-vector entry to its watermark, so
    /// the installed watermark never announces a version that is not yet
    /// readable. Callers moving the apply off-loop (the runtimes' write
    /// pools) must keep all frames of one source on one worker: per-src
    /// FIFO is what makes the watermark argument hold.
    pub fn note_remote_applied(
        &mut self,
        from: DcId,
        partition: PartitionId,
        txs: &[ReplicatedTx],
        watermark: Timestamp,
        frames: u32,
        now: u64,
    ) -> Vec<Envelope> {
        debug_assert_eq!(partition, self.id.partition, "replication cross-partition");
        self.stats.coalesced_frames += u64::from(frames);
        for t in txs {
            self.stats.applied_remote += 1;
            if let Some(log) = self.events.as_mut() {
                log.applies.push((t.tx, t.ct, now));
            }
        }
        self.bump_replica_clock(from, watermark);
        self.after_clock_move(now)
    }

    /// `ReplicateBatch` from the coalescing layer: several replication
    /// frames from the same peer folded into one message. The fold
    /// preserves ascending `ct` order and keeps the newest watermark, so a
    /// single [`Server::on_replicate`] pass applies the whole window.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_replicate_batch(
        &mut self,
        env: &Envelope,
        partition: PartitionId,
        txs: &[ReplicatedTx],
        watermark: Timestamp,
        frames: u32,
        now: u64,
    ) -> Vec<Envelope> {
        self.pipeline.apply_replicated(txs);
        self.note_remote_applied(env.src.dc(), partition, txs, watermark, frames, now)
    }

    /// `Heartbeat` from a peer replica (Alg. 4 lines 31–33).
    pub(super) fn on_heartbeat(
        &mut self,
        env: &Envelope,
        partition: PartitionId,
        watermark: Timestamp,
        now: u64,
    ) -> Vec<Envelope> {
        debug_assert_eq!(partition, self.id.partition, "heartbeat cross-partition");
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
        self.root_state
            .publish_watermark(self.installed_watermark());
    }
}
