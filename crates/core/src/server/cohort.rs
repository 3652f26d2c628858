//! Transaction-cohort role (paper Algorithm 3).

use paris_proto::{Envelope, Msg, ReadKey};
use paris_types::{DcId, Mode, ServerId, Timestamp, TxId, WriteSetEntry};

use super::{BlockedRead, CommittedTx, PreparedTx, Server};

impl Server {
    /// `ReadSliceReq` (Alg. 3 lines 1–8).
    ///
    /// PaRiS serves immediately: the snapshot is universally stable, so the
    /// freshest version `≤ snapshot` is guaranteed present — the
    /// non-blocking read property. The serve goes through the same
    /// [`crate::ReadView`] path the threaded runtime's read pool uses, so
    /// every backend exercises one code path; in the rare case the view
    /// rejects (snapshot below `S_old`), this loop — which serializes with
    /// its own GC — serves authoritatively. BPR must first check that the
    /// partition has *installed* the (fresh) snapshot — `min(VV) ≥
    /// snapshot` — and parks the read otherwise (§V).
    pub(super) fn on_read_slice_req(
        &mut self,
        tx: TxId,
        snapshot: Timestamp,
        keys: &[ReadKey],
        reply_to: ServerId,
        now: u64,
    ) -> Vec<Envelope> {
        match self.mode {
            Mode::Paris => {
                // This loop serializes with its own GC, so one S_old check
                // suffices: a below-horizon snapshot (a read the pool
                // punted back, or one that raced a horizon advance) is
                // served directly, without a doomed view registration.
                if snapshot < self.frontier.s_old() {
                    return vec![self.serve_slice(tx, snapshot, keys, reply_to)];
                }
                // Alg. 3 line 2 (ust ← max(ust, snapshot)) happens inside
                // the view, against the shared frontier.
                match self.view.serve_slice(tx, snapshot, keys, reply_to) {
                    Ok(env) => vec![env],
                    Err(_) => vec![self.serve_slice(tx, snapshot, keys, reply_to)],
                }
            }
            Mode::Bpr => {
                if self.installed_watermark() >= snapshot {
                    vec![self.serve_slice(tx, snapshot, keys, reply_to)]
                } else {
                    self.stats.blocked_reads += 1;
                    self.blocked.push(BlockedRead {
                        tx,
                        snapshot,
                        keys: keys.to_vec(),
                        reply_to,
                        blocked_at: now,
                    });
                    Vec::new()
                }
            }
        }
    }

    /// Serves a slice read from the store on the server loop (Alg. 3
    /// lines 3–8): freshest version within the snapshot per key. Used by
    /// BPR (whose reads may park first) and as the authoritative fallback
    /// when a view read is rejected below `S_old` — the loop serializes
    /// with its own GC, so no guard is needed here.
    pub(super) fn serve_slice(
        &mut self,
        tx: TxId,
        snapshot: Timestamp,
        keys: &[ReadKey],
        reply_to: ServerId,
    ) -> Envelope {
        let (results, tally) = crate::read_view::read_slice(&*self.store, snapshot, keys);
        self.stats.slice_reads += 1;
        self.stats.keys_read += keys.len() as u64;
        self.stats.reads_unchanged += tally.unchanged;
        self.stats.reads_shipped += tally.shipped;
        Envelope::new(
            self.id,
            reply_to,
            Msg::ReadSliceResp {
                tx,
                partition: self.id.partition,
                results,
            },
        )
    }

    /// Re-examines blocked reads after the installed watermark advanced
    /// (BPR); returns the responses for reads that can now be served.
    pub(super) fn drain_blocked(&mut self, now: u64) -> Vec<Envelope> {
        if self.blocked.is_empty() {
            return Vec::new();
        }
        let watermark = self.installed_watermark();
        let mut out = Vec::new();
        let mut still_blocked = Vec::with_capacity(self.blocked.len());
        for b in std::mem::take(&mut self.blocked) {
            if b.snapshot <= watermark {
                let waited = now.saturating_sub(b.blocked_at);
                self.stats.blocked_micros_total += waited;
                self.stats.blocked_micros_max = self.stats.blocked_micros_max.max(waited);
                out.push(self.serve_slice(b.tx, b.snapshot, &b.keys, b.reply_to));
            } else {
                still_blocked.push(b);
            }
        }
        self.blocked = still_blocked;
        out
    }

    /// `PrepareReq` (Alg. 3 lines 9–14): propose a commit timestamp that
    /// exceeds the transaction snapshot, the client's last commit (`ht`)
    /// and everything this server has seen (`HLC`).
    ///
    /// The loop path is the two pipeline halves run back to back: stage
    /// (UST bump, write-set copy, shard partitioning — what the threaded
    /// runtime's write pool does off-loop) then admit (HLC stamp,
    /// `Prepared` insert — loop-owned everywhere).
    pub(super) fn on_prepare_req(
        &mut self,
        tx: TxId,
        snapshot: Timestamp,
        ht: Timestamp,
        writes: &[WriteSetEntry],
        reply_to: ServerId,
        src_dc: DcId,
    ) -> Vec<Envelope> {
        let staged = self.pipeline.stage_prepare(snapshot, writes);
        self.admit_prepared(tx, staged, ht, reply_to, src_dc)
    }

    /// Loop-owned half of a prepare (Alg. 3 lines 10 & 12): stamps the
    /// proposal strictly above `ht`, the staged UST and the previous HLC
    /// value, and at least the physical clock, then queues the
    /// transaction as prepared. The staged half comes from
    /// [`CommitPipeline::stage_prepare`](super::CommitPipeline::stage_prepare),
    /// on this loop or on a write-pool thread.
    pub fn admit_prepared(
        &mut self,
        tx: TxId,
        staged: super::StagedPrepare,
        ht: Timestamp,
        reply_to: ServerId,
        src_dc: DcId,
    ) -> Vec<Envelope> {
        self.stats.prepares += 1;
        let floor = ht.max(staged.ust);
        let pt = self.hlc.now_after(&self.clock, floor);
        self.root_state.publish_hlc(pt);
        self.prepared.insert(
            tx,
            PreparedTx {
                pt,
                writes: staged.writes,
                src: src_dc,
            },
        );
        self.prepared_index.insert((pt, tx));
        vec![Envelope::new(
            self.id,
            reply_to,
            Msg::PrepareResp {
                tx,
                partition: self.id.partition,
                proposed: pt,
            },
        )]
    }

    /// `CommitTx` (Alg. 3 lines 15–19): move the transaction from the
    /// prepared to the committed queue under its final commit timestamp.
    pub(super) fn on_commit_tx(&mut self, tx: TxId, ct: Timestamp) -> Vec<Envelope> {
        // Alg. 3 line 16: HLC ← max(HLC, ct, Clock).
        self.hlc.observe(&self.clock, ct);
        self.root_state.publish_hlc(ct);
        let Some(p) = self.prepared.remove(&tx) else {
            debug_assert!(false, "commit for unprepared transaction {tx}");
            return Vec::new();
        };
        self.prepared_index.remove(&(p.pt, tx));
        debug_assert!(ct >= p.pt, "commit time below proposal");
        self.committed.insert(
            (ct, tx),
            CommittedTx {
                writes: p.writes,
                src: p.src,
            },
        );
        Vec::new()
    }

    /// Lowest proposed timestamp among prepared transactions, if any.
    pub(crate) fn min_prepared(&self) -> Option<Timestamp> {
        self.prepared_index.iter().next().map(|(pt, _)| *pt)
    }
}
