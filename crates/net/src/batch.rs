//! Per-link coalescing of background traffic.
//!
//! PaRiS's data path ships one wire message per replication push and one
//! gossip frame per tree edge per tick, so per-message overhead — not
//! metadata — dominates once deployments grow. The [`Coalescer`] sits
//! between the protocol state machines and a substrate (simulated network
//! or threaded router): background envelopes are queued per directed link
//! and folded into at most one [`Msg::ReplicateBatch`] and one
//! [`Msg::GossipDigest`] wire message, flushed when
//! [`BatchConfig::max_batch`] logical frames have accumulated or the
//! oldest frame reaches the link's [`FlushPolicy`] deadline.
//!
//! Deadlines come in two flavours: `Fixed` flushes a constant interval
//! after a link's first queued frame, while `Adaptive` (the default)
//! gives each link its own controller — a [`LinkLoad`] EWMA of the
//! frame inter-arrival gap — so a hot link flushes after roughly two
//! gaps (small delay, still folding) and a quiet link stretches its
//! deadline toward the configured ceiling. The deadline is always inside
//! the configured `[min_flush, max_flush]` bounds.
//!
//! Foreground transaction traffic (client operations, read fan-out, 2PC)
//! is latency-critical and always passes through untouched.
//!
//! The fold is exact, not lossy, because every coalesced protocol is
//! monotonic over FIFO links:
//!
//! * `Replicate` frames concatenate in order (frame *n+1*'s transactions
//!   all have `ct` above frame *n*'s watermark) and keep the newest
//!   watermark; `Heartbeat`s fold into that watermark.
//! * `GstReport` / `RootGst` / `UstBroadcast` handlers keep only the
//!   freshest value per source, so the digest keeps the latest report per
//!   partition, the latest GST per DC and the maximum UST.

use std::collections::BTreeMap;

use paris_proto::wire::envelope_len_with;
use paris_proto::{DigestReport, Endpoint, Envelope, Msg, ReplicatedTx};
use paris_types::{BatchConfig, DcId, FlushPolicy, PartitionId, Timestamp, WireFormat};

/// Per-link arrival-rate estimate feeding the adaptive [`FlushPolicy`]:
/// an exponentially-weighted moving average of the gap between
/// consecutive background frames on one directed link. The state
/// survives flushes (unlike the link's frame queue), so the controller
/// remembers how busy a link was across batch windows.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkLoad {
    last_arrival: Option<u64>,
    ewma_gap: Option<u64>,
}

impl LinkLoad {
    /// Weight of history in the gap EWMA: `new = (3·old + sample) / 4`.
    /// Converges within a handful of frames without whipsawing on one
    /// odd gap.
    const HISTORY_WEIGHT: u64 = 3;

    /// Records a frame arrival at `now` (monotone microseconds).
    pub fn observe(&mut self, now: u64) {
        if let Some(last) = self.last_arrival {
            let sample = now.saturating_sub(last);
            self.ewma_gap = Some(match self.ewma_gap {
                None => sample,
                Some(ewma) => {
                    (Self::HISTORY_WEIGHT
                        .saturating_mul(ewma)
                        .saturating_add(sample))
                        / (Self::HISTORY_WEIGHT + 1)
                }
            });
        }
        self.last_arrival = Some(self.last_arrival.unwrap_or(0).max(now));
    }

    /// The estimated mean inter-arrival gap, once two frames have been
    /// seen.
    pub fn gap_micros(&self) -> Option<u64> {
        self.ewma_gap
    }

    /// The flush deadline `policy` assigns this link right now.
    pub fn deadline_micros(&self, policy: &FlushPolicy) -> u64 {
        policy.interval_micros(self.ewma_gap)
    }
}

/// Outcome of [`Coalescer::offer`].
#[derive(Debug)]
pub enum Offer {
    /// Not coalescable (foreground traffic) or batching disabled: send the
    /// envelope as-is, now.
    Pass(Envelope),
    /// The envelope was queued and its link hit the size trigger: send
    /// these flushed wire messages now.
    Flush(Vec<Envelope>),
    /// The envelope was queued; nothing to send until `next_due` (the
    /// earliest flush deadline across all links), when the caller should
    /// invoke [`Coalescer::poll`].
    Queued {
        /// Earliest pending flush deadline, in the caller's microsecond
        /// timebase.
        next_due: u64,
    },
}

/// Running totals of what the coalescer has seen and produced.
///
/// Byte totals are envelope-framed sizes in the coalescer's active
/// [`WireFormat`]: `bytes_in` is what the queued frames would have cost
/// sent as-is, `bytes_out` what the folded wire messages actually cost —
/// so `bytes_in - bytes_out` is the wire traffic coalescing saved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalescerStats {
    /// Logical background frames offered and queued.
    pub frames_in: u64,
    /// Wire messages flushed out.
    pub messages_out: u64,
    /// Link flushes triggered by the size bound (`max_batch`).
    pub size_flushes: u64,
    /// Link flushes triggered by a deadline (or a forced `flush_all`).
    pub deadline_flushes: u64,
    /// Encoded bytes of the frames offered and queued.
    pub bytes_in: u64,
    /// Encoded bytes of the wire messages flushed out.
    pub bytes_out: u64,
}

#[derive(Debug)]
struct RepAccum {
    partition: PartitionId,
    txs: Vec<ReplicatedTx>,
    watermark: Timestamp,
}

#[derive(Debug, Default)]
struct LinkQueue {
    /// Flush deadline: first enqueue time + flush interval (not extended
    /// by later frames, so no frame waits longer than one interval).
    due: u64,
    /// Replication-class logical frames folded in so far.
    rep_frames: u32,
    /// Gossip-class logical frames folded in so far.
    gossip_frames: u32,
    rep: Option<RepAccum>,
    reports: Vec<DigestReport>,
    roots: Vec<(DcId, Timestamp, Timestamp)>,
    ust: Option<(Timestamp, Timestamp)>,
}

impl LinkQueue {
    fn fold(&mut self, msg: Msg) {
        match msg {
            Msg::Replicate {
                partition,
                txs,
                watermark,
            } => {
                self.rep_frames += 1;
                self.fold_rep(partition, txs, watermark);
            }
            Msg::Heartbeat {
                partition,
                watermark,
            } => {
                self.rep_frames += 1;
                self.fold_rep(partition, Vec::new(), watermark);
            }
            Msg::ReplicateBatch {
                partition,
                txs,
                watermark,
                frames,
            } => {
                self.rep_frames += frames;
                self.fold_rep(partition, txs, watermark);
            }
            Msg::GstReport {
                partition,
                mins,
                oldest_active,
            } => {
                self.gossip_frames += 1;
                self.fold_report(DigestReport {
                    partition,
                    mins,
                    oldest_active,
                });
            }
            Msg::RootGst {
                dc,
                gst,
                oldest_active,
            } => {
                self.gossip_frames += 1;
                self.fold_root(dc, gst, oldest_active);
            }
            Msg::UstBroadcast { ust, s_old } => {
                self.gossip_frames += 1;
                self.fold_ust(ust, s_old);
            }
            Msg::GossipDigest {
                reports,
                roots,
                ust,
                frames,
            } => {
                self.gossip_frames += frames;
                for r in reports {
                    self.fold_report(r);
                }
                for (dc, gst, oldest) in roots {
                    self.fold_root(dc, gst, oldest);
                }
                if let Some((u, s)) = ust {
                    self.fold_ust(u, s);
                }
            }
            other => unreachable!("foreground message offered to fold: {}", other.kind()),
        }
    }

    fn frames(&self) -> u32 {
        self.rep_frames + self.gossip_frames
    }

    fn fold_rep(&mut self, partition: PartitionId, txs: Vec<ReplicatedTx>, watermark: Timestamp) {
        match self.rep.as_mut() {
            None => {
                self.rep = Some(RepAccum {
                    partition,
                    txs,
                    watermark,
                })
            }
            Some(acc) => {
                debug_assert_eq!(acc.partition, partition, "one partition per replica link");
                acc.txs.extend(txs);
                acc.watermark = acc.watermark.max(watermark);
            }
        }
    }

    fn fold_report(&mut self, report: DigestReport) {
        match self
            .reports
            .iter_mut()
            .find(|r| r.partition == report.partition)
        {
            // FIFO makes the later report the fresher one.
            Some(slot) => *slot = report,
            None => self.reports.push(report),
        }
    }

    fn fold_root(&mut self, dc: DcId, gst: Timestamp, oldest: Timestamp) {
        match self.roots.iter_mut().find(|(d, _, _)| *d == dc) {
            Some((_, g, o)) => {
                *g = (*g).max(gst);
                *o = (*o).max(oldest);
            }
            None => self.roots.push((dc, gst, oldest)),
        }
    }

    fn fold_ust(&mut self, ust: Timestamp, s_old: Timestamp) {
        let (u, s) = self.ust.unwrap_or((Timestamp::ZERO, Timestamp::ZERO));
        self.ust = Some((u.max(ust), s.max(s_old)));
    }

    fn into_messages(self) -> Vec<Msg> {
        let mut out = Vec::with_capacity(2);
        if let Some(rep) = self.rep {
            out.push(Msg::ReplicateBatch {
                partition: rep.partition,
                txs: rep.txs,
                watermark: rep.watermark,
                frames: self.rep_frames,
            });
        }
        if !self.reports.is_empty() || !self.roots.is_empty() || self.ust.is_some() {
            out.push(Msg::GossipDigest {
                reports: self.reports,
                roots: self.roots,
                ust: self.ust,
                frames: self.gossip_frames,
            });
        }
        out
    }
}

/// The per-link batching queue. See the module docs.
#[derive(Debug)]
pub struct Coalescer {
    cfg: BatchConfig,
    /// Encoding the owning link speaks; sizes the byte accounting.
    wire: WireFormat,
    links: BTreeMap<(Endpoint, Endpoint), LinkQueue>,
    /// Per-link arrival-rate controllers; unlike `links`, entries persist
    /// across flushes so the adaptive deadline remembers link load.
    loads: BTreeMap<(Endpoint, Endpoint), LinkLoad>,
    stats: CoalescerStats,
}

impl Coalescer {
    /// Creates a coalescer with the given policy, accounting bytes in the
    /// given wire format.
    pub fn new(cfg: BatchConfig, wire: WireFormat) -> Self {
        Coalescer {
            cfg,
            wire,
            links: BTreeMap::new(),
            loads: BTreeMap::new(),
            stats: CoalescerStats::default(),
        }
    }

    /// Whether this coalescer batches anything at all.
    pub fn is_enabled(&self) -> bool {
        self.cfg.is_enabled()
    }

    /// Whether `msg` belongs to the background classes the coalescer may
    /// delay and fold.
    pub fn is_coalescable(msg: &Msg) -> bool {
        msg.is_background()
    }

    /// Offers an envelope at time `now` (microseconds, caller's timebase).
    pub fn offer(&mut self, env: Envelope, now: u64) -> Offer {
        if !self.cfg.is_enabled() || !Self::is_coalescable(&env.msg) {
            return Offer::Pass(env);
        }
        let key = (env.src, env.dst);
        let deadline = match self.cfg.flush {
            // Fixed deadlines don't depend on link load: keep the PR-2
            // hot path free of per-frame rate bookkeeping.
            FlushPolicy::Fixed { interval_micros } => interval_micros,
            FlushPolicy::Adaptive { .. } => {
                let load = self.loads.entry(key).or_default();
                load.observe(now);
                load.deadline_micros(&self.cfg.flush)
            }
        };
        let queue = self.links.entry(key).or_insert_with(|| LinkQueue {
            due: now + deadline,
            ..LinkQueue::default()
        });
        self.stats.bytes_in += envelope_len_with(&env, self.wire) as u64;
        queue.fold(env.msg);
        self.stats.frames_in += 1;
        if queue.frames() as usize >= self.cfg.max_batch {
            let queue = self.links.remove(&key).expect("just inserted");
            self.stats.size_flushes += 1;
            Offer::Flush(self.drain(key, queue))
        } else {
            Offer::Queued {
                next_due: self.next_due().expect("just queued"),
            }
        }
    }

    /// Flushes every link whose deadline has passed; returns the wire
    /// messages to send.
    pub fn poll(&mut self, now: u64) -> Vec<Envelope> {
        let due: Vec<(Endpoint, Endpoint)> = self
            .links
            .iter()
            .filter(|(_, q)| q.due <= now)
            .map(|(k, _)| *k)
            .collect();
        let mut out = Vec::new();
        for key in due {
            let queue = self.links.remove(&key).expect("collected above");
            self.stats.deadline_flushes += 1;
            out.extend(self.drain(key, queue));
        }
        out
    }

    /// Flushes everything regardless of deadlines (shutdown, quiesce).
    pub fn flush_all(&mut self) -> Vec<Envelope> {
        let keys: Vec<(Endpoint, Endpoint)> = self.links.keys().copied().collect();
        let mut out = Vec::new();
        for key in keys {
            let queue = self.links.remove(&key).expect("keyed");
            self.stats.deadline_flushes += 1;
            out.extend(self.drain(key, queue));
        }
        out
    }

    /// The arrival-rate estimate of one directed link (tests, metrics).
    pub fn link_load(&self, src: Endpoint, dst: Endpoint) -> Option<LinkLoad> {
        self.loads.get(&(src, dst)).copied()
    }

    /// The earliest pending flush deadline, if any link is queued.
    pub fn next_due(&self) -> Option<u64> {
        self.links.values().map(|q| q.due).min()
    }

    /// Number of links currently holding queued frames.
    pub fn pending_links(&self) -> usize {
        self.links.len()
    }

    /// Running totals.
    pub fn stats(&self) -> CoalescerStats {
        self.stats
    }

    fn drain(&mut self, key: (Endpoint, Endpoint), queue: LinkQueue) -> Vec<Envelope> {
        let (src, dst) = key;
        let msgs = queue.into_messages();
        self.stats.messages_out += msgs.len() as u64;
        let out: Vec<Envelope> = msgs
            .into_iter()
            .map(|msg| Envelope { src, dst, msg })
            .collect();
        self.stats.bytes_out += out
            .iter()
            .map(|env| envelope_len_with(env, self.wire) as u64)
            .sum::<u64>();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::{ClientId, Key, ServerId, TxId, Value, WriteSetEntry};

    fn cfg(max_batch: usize, flush: u64) -> BatchConfig {
        BatchConfig::fixed(max_batch, flush)
    }

    fn coal(cfg: BatchConfig) -> Coalescer {
        Coalescer::new(cfg, WireFormat::V2)
    }

    fn srv(dc: u16, p: u32) -> ServerId {
        ServerId::new(DcId(dc), PartitionId(p))
    }

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_physical_micros(t)
    }

    fn replicate(seq: u64, ct: u64, wm: u64) -> Msg {
        Msg::Replicate {
            partition: PartitionId(0),
            txs: vec![ReplicatedTx {
                tx: TxId::new(srv(0, 0), seq),
                ct: ts(ct),
                src: DcId(0),
                writes: vec![WriteSetEntry::new(Key(seq), Value::from("v"))],
            }],
            watermark: ts(wm),
        }
    }

    fn env(msg: Msg) -> Envelope {
        Envelope::new(srv(0, 0), srv(1, 0), msg)
    }

    #[test]
    fn disabled_coalescer_passes_everything_through() {
        let mut c = coal(BatchConfig::DISABLED);
        assert!(!c.is_enabled());
        match c.offer(env(replicate(1, 10, 20)), 0) {
            Offer::Pass(e) => assert!(matches!(e.msg, Msg::Replicate { .. })),
            other => panic!("expected pass-through, got {other:?}"),
        }
        assert_eq!(c.pending_links(), 0);
    }

    #[test]
    fn foreground_traffic_is_never_batched() {
        let mut c = coal(cfg(8, 1_000));
        let fg = Envelope::new(
            ClientId::new(DcId(0), 1),
            srv(0, 0),
            Msg::StartTxReq {
                client_ust: Timestamp::ZERO,
            },
        );
        assert!(matches!(c.offer(fg, 0), Offer::Pass(_)));
    }

    #[test]
    fn size_trigger_flushes_a_merged_batch_in_order() {
        let mut c = coal(cfg(3, 1_000_000));
        assert!(matches!(
            c.offer(env(replicate(1, 10, 20)), 0),
            Offer::Queued { .. }
        ));
        assert!(matches!(
            c.offer(env(replicate(2, 30, 40)), 5),
            Offer::Queued { .. }
        ));
        let flushed = match c.offer(env(replicate(3, 50, 60)), 9) {
            Offer::Flush(envs) => envs,
            other => panic!("expected size flush, got {other:?}"),
        };
        assert_eq!(flushed.len(), 1);
        match &flushed[0].msg {
            Msg::ReplicateBatch {
                txs,
                watermark,
                frames,
                ..
            } => {
                assert_eq!(*frames, 3);
                assert_eq!(*watermark, ts(60), "newest watermark survives");
                let cts: Vec<u64> = txs.iter().map(|t| t.ct.physical_micros()).collect();
                assert_eq!(cts, vec![10, 30, 50], "ct order preserved across frames");
            }
            other => panic!("expected ReplicateBatch, got {}", other.kind()),
        }
        assert_eq!(c.pending_links(), 0);
    }

    #[test]
    fn heartbeats_fold_into_the_watermark() {
        let mut c = coal(cfg(2, 1_000));
        let hb = |wm: u64| {
            env(Msg::Heartbeat {
                partition: PartitionId(0),
                watermark: ts(wm),
            })
        };
        c.offer(hb(10), 0);
        let flushed = match c.offer(hb(20), 1) {
            Offer::Flush(envs) => envs,
            other => panic!("expected flush, got {other:?}"),
        };
        match &flushed[0].msg {
            Msg::ReplicateBatch {
                txs,
                watermark,
                frames,
                ..
            } => {
                assert!(txs.is_empty());
                assert_eq!(*watermark, ts(20));
                assert_eq!(*frames, 2);
            }
            other => panic!("unexpected {}", other.kind()),
        }
    }

    #[test]
    fn time_trigger_flushes_on_poll() {
        let mut c = coal(cfg(100, 500));
        match c.offer(env(replicate(1, 10, 20)), 1_000) {
            Offer::Queued { next_due } => assert_eq!(next_due, 1_500),
            other => panic!("expected queue, got {other:?}"),
        }
        assert!(c.poll(1_499).is_empty(), "not due yet");
        let flushed = c.poll(1_500);
        assert_eq!(flushed.len(), 1);
        assert_eq!(c.next_due(), None);
    }

    #[test]
    fn gossip_folds_to_freshest_per_source() {
        let mut c = coal(cfg(100, 1_000));
        let report = |wm: u64, oldest: u64| {
            Envelope::new(
                srv(0, 1),
                srv(0, 0),
                Msg::GstReport {
                    partition: PartitionId(1),
                    mins: vec![(DcId(0), ts(wm))],
                    oldest_active: ts(oldest),
                },
            )
        };
        c.offer(report(10, 5), 0);
        c.offer(report(30, 25), 10);
        c.offer(
            Envelope::new(
                srv(0, 1),
                srv(0, 0),
                Msg::UstBroadcast {
                    ust: ts(8),
                    s_old: ts(4),
                },
            ),
            20,
        );
        let flushed = c.flush_all();
        assert_eq!(flushed.len(), 1, "one digest for the whole link");
        match &flushed[0].msg {
            Msg::GossipDigest {
                reports,
                roots,
                ust,
                frames,
            } => {
                assert_eq!(*frames, 3);
                assert_eq!(reports.len(), 1, "stale report superseded");
                assert_eq!(reports[0].mins[0].1, ts(30));
                assert_eq!(reports[0].oldest_active, ts(25));
                assert!(roots.is_empty());
                assert_eq!(*ust, Some((ts(8), ts(4))));
            }
            other => panic!("unexpected {}", other.kind()),
        }
    }

    #[test]
    fn mixed_link_produces_batch_and_digest() {
        let mut c = coal(cfg(100, 1_000));
        c.offer(env(replicate(1, 10, 20)), 0);
        c.offer(
            env(Msg::RootGst {
                dc: DcId(0),
                gst: ts(7),
                oldest_active: ts(3),
            }),
            0,
        );
        let flushed = c.flush_all();
        assert_eq!(flushed.len(), 2);
        assert!(matches!(flushed[0].msg, Msg::ReplicateBatch { .. }));
        assert!(matches!(flushed[1].msg, Msg::GossipDigest { .. }));
        let stats = c.stats();
        assert_eq!(stats.frames_in, 2);
        assert_eq!(stats.messages_out, 2);
    }

    #[test]
    fn links_are_independent() {
        let mut c = coal(cfg(2, 1_000));
        let to = |dst: ServerId| Envelope::new(srv(0, 0), dst, replicate(1, 10, 20));
        assert!(matches!(c.offer(to(srv(1, 0)), 0), Offer::Queued { .. }));
        assert!(matches!(c.offer(to(srv(2, 0)), 0), Offer::Queued { .. }));
        assert_eq!(c.pending_links(), 2);
        // A second frame on the first link flushes only that link.
        assert!(matches!(c.offer(to(srv(1, 0)), 1), Offer::Flush(_)));
        assert_eq!(c.pending_links(), 1);
    }

    #[test]
    fn adaptive_deadline_shortens_on_a_hot_link_and_stretches_when_quiet() {
        let mut c = coal(BatchConfig::adaptive(1_000, 500, 10_000));
        // First frame ever: no gap estimate yet, the link is presumed
        // quiet and gets the ceiling.
        match c.offer(env(replicate(1, 10, 20)), 0) {
            Offer::Queued { next_due } => assert_eq!(next_due, 10_000),
            other => panic!("expected queue, got {other:?}"),
        }
        c.poll(10_000);
        // A hot burst (100 µs gaps) drives the deadline to the floor.
        let mut now = 10_000;
        for seq in 2..40 {
            now += 100;
            c.offer(env(replicate(seq, 10 * seq, 20 * seq)), now);
            c.poll(now + 20_000); // drain so windows keep reopening
        }
        let src = srv(0, 0).into();
        let dst = srv(1, 0).into();
        let load = c.link_load(src, dst).expect("tracked");
        assert_eq!(
            load.deadline_micros(&c.cfg.flush),
            500,
            "hot link must flush at the floor (gap ≈ 100 µs)"
        );
        // A long idle period stretches the estimate back toward quiet.
        now += 1_000_000;
        c.offer(env(replicate(99, 990, 999)), now);
        let load = c.link_load(src, dst).expect("tracked");
        assert_eq!(
            load.deadline_micros(&c.cfg.flush),
            10_000,
            "a 1 s gap must stretch the deadline to the ceiling"
        );
    }

    #[test]
    fn adaptive_load_state_survives_flushes() {
        let mut c = coal(BatchConfig::adaptive(2, 500, 10_000));
        // Size-trigger flush after two frames 200 µs apart.
        c.offer(env(replicate(1, 10, 20)), 0);
        assert!(matches!(
            c.offer(env(replicate(2, 30, 40)), 200),
            Offer::Flush(_)
        ));
        assert_eq!(c.pending_links(), 0, "queue gone after flush");
        // The controller remembered the 200 µs gap: the next window opens
        // with a floor deadline, not the quiet ceiling.
        match c.offer(env(replicate(3, 50, 60)), 400) {
            Offer::Queued { next_due } => assert_eq!(next_due, 400 + 500),
            other => panic!("expected queue, got {other:?}"),
        }
        let stats = c.stats();
        assert_eq!(stats.size_flushes, 1);
    }

    #[test]
    fn stats_distinguish_size_and_deadline_flushes() {
        let mut c = coal(cfg(2, 1_000));
        c.offer(env(replicate(1, 10, 20)), 0);
        c.offer(env(replicate(2, 30, 40)), 1); // size flush
        c.offer(env(replicate(3, 50, 60)), 2);
        assert_eq!(c.poll(5_000).len(), 1); // deadline flush
        c.offer(env(replicate(4, 70, 80)), 6_000);
        assert_eq!(c.flush_all().len(), 1); // forced flush
        let stats = c.stats();
        assert_eq!(stats.size_flushes, 1);
        assert_eq!(stats.deadline_flushes, 2);
        assert_eq!(stats.frames_in, 4);
    }

    #[test]
    fn reoffered_batch_frames_merge_with_exact_counts() {
        let mut c = coal(cfg(100, 1_000));
        c.offer(
            env(Msg::ReplicateBatch {
                partition: PartitionId(0),
                txs: vec![],
                watermark: ts(5),
                frames: 4,
            }),
            0,
        );
        c.offer(env(replicate(9, 30, 40)), 1);
        let flushed = c.flush_all();
        match &flushed[0].msg {
            Msg::ReplicateBatch {
                frames, watermark, ..
            } => {
                assert_eq!(*frames, 5);
                assert_eq!(*watermark, ts(40));
            }
            other => panic!("unexpected {}", other.kind()),
        }
    }

    #[test]
    fn byte_accounting_follows_the_active_encoding_exactly() {
        use paris_proto::wire::envelope_len_with;

        let wire = WireFormat::V2;
        let mut c = Coalescer::new(cfg(100, 1_000), wire);
        let offered = [env(replicate(1, 10, 20)), env(replicate(2, 30, 40))];
        let expect_in: u64 = offered
            .iter()
            .map(|e| envelope_len_with(e, wire) as u64)
            .sum();
        for e in offered {
            c.offer(e, 0);
        }
        let flushed = c.flush_all();
        let expect_out: u64 = flushed
            .iter()
            .map(|e| envelope_len_with(e, wire) as u64)
            .sum();
        let stats = c.stats();
        assert_eq!(stats.bytes_in, expect_in, "bytes_in exact");
        assert_eq!(stats.bytes_out, expect_out, "bytes_out exact");
        assert!(
            stats.bytes_out < stats.bytes_in,
            "folding two frames into one batch must save bytes"
        );
    }
}
