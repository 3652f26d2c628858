//! Per-link coalescing of background traffic.
//!
//! PaRiS's data path ships one wire message per replication push and one
//! gossip frame per tree edge per tick, so per-message overhead — not
//! metadata — dominates once deployments grow. The [`Coalescer`] sits
//! between the protocol state machines and a substrate (simulated network,
//! threaded router or socket link): background envelopes are queued per
//! directed link in two classes and folded into at most one
//! [`Msg::ReplicateBatch`] (replication class) and one
//! [`Msg::GossipDigest`] (stabilisation class) wire message.
//!
//! What releases a queue is *news*, not a clock. Every background frame
//! exists to move a stable time: a replication frame carries its sender's
//! watermark, a stabilisation frame a report minimum, a GST or the UST.
//! Under the default [`FlushPolicy::StableTime`] a class leaves the moment
//! the value it holds crosses the next multiple of the quantum `Q` past
//! the value that class last sent on that link — so a link sends at most
//! one message per class per `Q` of timestamp progress, however many
//! frames it is offered, and all links of a deployment release on the
//! same grid, because hybrid-clock timestamps are the loosely synchronised
//! clock the protocol already assumes. A watermark crossing a grid line
//! therefore cascades through apply → report → GST → UST with no stage
//! waiting out a timer. Two triggers remain beside the crossing: the
//! size bound ([`BatchConfig::max_batch`] frames on a link) and the
//! ceiling (`max_flush_micros` after a class's first queued frame), which
//! is what drains a link whose value stalled or regressed.
//! [`FlushPolicy::Fixed`] knows the size bound and a constant deadline
//! only.
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

/// Outcome of [`Coalescer::offer`].
#[derive(Debug)]
pub enum Offer {
    /// Not coalescable (foreground traffic) or batching disabled: send the
    /// envelope as-is, now.
    Pass(Envelope),
    /// The envelope was queued and released its class (a crossing) or its
    /// link (the size trigger): send these flushed wire messages now.
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
///
/// The three flush counters are the trigger mix: a healthy paced
/// deployment is almost all crossings, a stalled or partitioned DC shows
/// up as deadline (ceiling) flushes on the links that carry its values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoalescerStats {
    /// Logical background frames offered and queued.
    pub frames_in: u64,
    /// Wire messages flushed out.
    pub messages_out: u64,
    /// Class flushes triggered by stable-time progress (the carried value
    /// crossed a quantum boundary).
    pub crossing_flushes: u64,
    /// Link flushes triggered by the size bound (`max_batch`).
    pub size_flushes: u64,
    /// Link flushes triggered by a deadline (or a forced `flush_all`).
    pub deadline_flushes: u64,
    /// Encoded bytes of the frames offered and queued.
    pub bytes_in: u64,
    /// Encoded bytes of the wire messages flushed out.
    pub bytes_out: u64,
}

/// The queued replication class of one link.
#[derive(Debug)]
struct RepQueue {
    /// First enqueue time + the policy's ceiling (not extended by later
    /// frames, so no frame waits longer than one ceiling).
    due: u64,
    frames: u32,
    partition: PartitionId,
    txs: Vec<ReplicatedTx>,
    watermark: Timestamp,
}

/// The queued stabilisation class of one link.
#[derive(Debug)]
struct StabQueue {
    due: u64,
    frames: u32,
    reports: Vec<DigestReport>,
    roots: Vec<(DcId, Timestamp, Timestamp)>,
    ust: Option<(Timestamp, Timestamp)>,
}

impl StabQueue {
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

    /// The stable time this queue carries: the smallest report minimum,
    /// GST or UST it holds.
    fn stable_time(&self) -> Option<Timestamp> {
        let reports = self
            .reports
            .iter()
            .flat_map(|r| r.mins.iter().map(|(_, ts)| *ts));
        let roots = self.roots.iter().map(|(_, gst, _)| *gst);
        let ust = self.ust.map(|(ust, _)| ust);
        reports.chain(roots).chain(ust).min()
    }
}

/// The two classes a link queues apart: a crossing releases only its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Rep,
    Stab,
}

/// One directed link: its two queues, and per class the stable time it
/// last sent. The latter survives flushes — it is what the next crossing
/// is measured from.
#[derive(Debug, Default)]
struct Link {
    rep: Option<RepQueue>,
    stab: Option<StabQueue>,
    rep_sent: u64,
    stab_sent: u64,
}

impl Link {
    /// Folds a background message in, opening the class's queue with
    /// deadline `due` if it is empty; returns the class it joined.
    fn fold(&mut self, msg: Msg, due: u64) -> Class {
        let (partition, txs, watermark, frames) = match msg {
            Msg::Replicate {
                partition,
                txs,
                watermark,
            } => (partition, txs, watermark, 1),
            Msg::Heartbeat {
                partition,
                watermark,
            } => (partition, Vec::new(), watermark, 1),
            Msg::ReplicateBatch {
                partition,
                txs,
                watermark,
                frames,
            } => (partition, txs, watermark, frames),
            other => {
                self.fold_stab(other, due);
                return Class::Stab;
            }
        };
        match self.rep.as_mut() {
            None => {
                self.rep = Some(RepQueue {
                    due,
                    frames,
                    partition,
                    txs,
                    watermark,
                })
            }
            Some(q) => {
                debug_assert_eq!(q.partition, partition, "one partition per replica link");
                q.frames += frames;
                q.txs.extend(txs);
                q.watermark = q.watermark.max(watermark);
            }
        }
        Class::Rep
    }

    fn fold_stab(&mut self, msg: Msg, due: u64) {
        let queue = self.stab.get_or_insert(StabQueue {
            due,
            frames: 0,
            reports: Vec::new(),
            roots: Vec::new(),
            ust: None,
        });
        queue.frames += match msg {
            Msg::GossipDigest { frames, .. } => frames,
            _ => 1,
        };
        match msg {
            Msg::GstReport {
                partition,
                mins,
                oldest_active,
            } => queue.fold_report(DigestReport {
                partition,
                mins,
                oldest_active,
            }),
            Msg::RootGst {
                dc,
                gst,
                oldest_active,
            } => queue.fold_root(dc, gst, oldest_active),
            Msg::UstBroadcast { ust, s_old } => queue.fold_ust(ust, s_old),
            Msg::GossipDigest {
                reports,
                roots,
                ust,
                ..
            } => {
                for r in reports {
                    queue.fold_report(r);
                }
                for (dc, gst, oldest) in roots {
                    queue.fold_root(dc, gst, oldest);
                }
                if let Some((u, s)) = ust {
                    queue.fold_ust(u, s);
                }
            }
            other => unreachable!("foreground message offered to fold: {}", other.kind()),
        }
    }

    fn frames(&self) -> u32 {
        self.rep.as_ref().map_or(0, |q| q.frames) + self.stab.as_ref().map_or(0, |q| q.frames)
    }

    /// The earlier of the two queues' deadlines, if anything is queued.
    fn due(&self) -> Option<u64> {
        let rep = self.rep.as_ref().map(|q| q.due);
        let stab = self.stab.as_ref().map(|q| q.due);
        rep.into_iter().chain(stab).min()
    }

    /// Whether the stable time `class` holds has crossed a multiple of
    /// `quantum` since that class last sent.
    fn crossed(&self, class: Class, quantum: u64) -> bool {
        let (held, sent) = match class {
            Class::Rep => (self.rep.as_ref().map(|q| q.watermark), self.rep_sent),
            Class::Stab => (
                self.stab.as_ref().and_then(StabQueue::stable_time),
                self.stab_sent,
            ),
        };
        held.is_some_and(|ts| ts.physical_micros() / quantum > sent / quantum)
    }

    /// Takes `class`'s queue as its wire message, noting the stable time
    /// it carries as sent.
    fn take(&mut self, class: Class) -> Option<Msg> {
        match class {
            Class::Rep => self.rep.take().map(|q| {
                self.rep_sent = q.watermark.physical_micros();
                Msg::ReplicateBatch {
                    partition: q.partition,
                    txs: q.txs,
                    watermark: q.watermark,
                    frames: q.frames,
                }
            }),
            Class::Stab => self.stab.take().map(|q| {
                if let Some(ts) = q.stable_time() {
                    self.stab_sent = ts.physical_micros();
                }
                Msg::GossipDigest {
                    reports: q.reports,
                    roots: q.roots,
                    ust: q.ust,
                    frames: q.frames,
                }
            }),
        }
    }
}

/// The per-link batching queue. See the module docs.
#[derive(Debug)]
pub struct Coalescer {
    cfg: BatchConfig,
    /// Encoding the owning link speaks; sizes the byte accounting.
    wire: WireFormat,
    /// Entries persist across flushes: a drained link keeps the stable
    /// times it last sent.
    links: BTreeMap<(Endpoint, Endpoint), Link>,
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
        self.stats.bytes_in += envelope_len_with(&env, self.wire) as u64;
        self.stats.frames_in += 1;
        let due = now.saturating_add(self.cfg.max_flush_micros());
        let link = self.links.entry(key).or_default();
        let class = link.fold(env.msg, due);
        if link.frames() as usize >= self.cfg.max_batch {
            self.stats.size_flushes += 1;
            return Offer::Flush(self.release(key, &[Class::Rep, Class::Stab]));
        }
        if let FlushPolicy::StableTime { quantum_micros, .. } = self.cfg.flush {
            if link.crossed(class, quantum_micros) {
                self.stats.crossing_flushes += 1;
                return Offer::Flush(self.release(key, &[class]));
            }
        }
        Offer::Queued {
            next_due: self.next_due().expect("just queued"),
        }
    }

    /// Flushes every link whose deadline has passed; returns the wire
    /// messages to send.
    pub fn poll(&mut self, now: u64) -> Vec<Envelope> {
        let due: Vec<(Endpoint, Endpoint)> = self
            .links
            .iter()
            .filter(|(_, link)| link.due().is_some_and(|due| due <= now))
            .map(|(key, _)| *key)
            .collect();
        let mut out = Vec::new();
        for key in due {
            self.stats.deadline_flushes += 1;
            out.extend(self.release(key, &[Class::Rep, Class::Stab]));
        }
        out
    }

    /// Flushes everything regardless of deadlines (shutdown, quiesce).
    pub fn flush_all(&mut self) -> Vec<Envelope> {
        self.poll(u64::MAX)
    }

    /// The earliest pending flush deadline, if any link is queued.
    pub fn next_due(&self) -> Option<u64> {
        self.links.values().filter_map(Link::due).min()
    }

    /// Number of links currently holding queued frames.
    pub fn pending_links(&self) -> usize {
        self.links.values().filter(|l| l.due().is_some()).count()
    }

    /// Running totals.
    pub fn stats(&self) -> CoalescerStats {
        self.stats
    }

    /// Takes the queues of `classes` off one link as wire messages.
    fn release(&mut self, key: (Endpoint, Endpoint), classes: &[Class]) -> Vec<Envelope> {
        let link = self.links.get_mut(&key).expect("a queued link exists");
        let out: Vec<Envelope> = classes
            .iter()
            .filter_map(|class| link.take(*class))
            .map(|msg| Envelope {
                src: key.0,
                dst: key.1,
                msg,
            })
            .collect();
        self.stats.messages_out += out.len() as u64;
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

    fn heartbeat(wm: u64) -> Envelope {
        env(Msg::Heartbeat {
            partition: PartitionId(0),
            watermark: ts(wm),
        })
    }

    fn ust(ust: u64) -> Envelope {
        env(Msg::UstBroadcast {
            ust: ts(ust),
            s_old: ts(0),
        })
    }

    #[test]
    fn a_watermark_crossing_the_grid_releases_the_frames_behind_it() {
        // Q = 15 ms: 5 ms ticks fold three to a message, released by the
        // frame whose watermark crosses, not by the clock (`now` is far
        // from any deadline throughout).
        let mut c = coal(BatchConfig::stable_time(64, 15_000, 30_000));
        assert!(matches!(c.offer(heartbeat(31_000), 0), Offer::Flush(_)));
        assert!(matches!(
            c.offer(heartbeat(36_000), 1),
            Offer::Queued { next_due: 30_001 }
        ));
        assert!(matches!(
            c.offer(heartbeat(41_000), 2),
            Offer::Queued { .. }
        ));
        let flushed = match c.offer(heartbeat(46_000), 3) {
            Offer::Flush(envs) => envs,
            other => panic!("46 ms is past the 45 ms grid line, got {other:?}"),
        };
        assert_eq!(flushed.len(), 1);
        assert!(matches!(
            flushed[0].msg,
            Msg::ReplicateBatch { frames: 3, watermark, .. } if watermark == ts(46_000)
        ));
        assert_eq!(c.next_due(), None);
        assert_eq!(c.stats().crossing_flushes, 2);
        assert_eq!(c.stats().deadline_flushes, 0);
    }

    #[test]
    fn a_crossing_releases_only_its_own_class() {
        let mut c = coal(BatchConfig::stable_time(64, 15_000, 30_000));
        // Open both grids at 30 ms.
        c.offer(heartbeat(30_000), 0);
        c.offer(ust(30_000), 0);
        // A UST below the next line waits; the watermark that crosses it
        // takes the replication class and leaves the digest queued.
        assert!(matches!(c.offer(ust(44_000), 10), Offer::Queued { .. }));
        match c.offer(heartbeat(45_000), 20) {
            Offer::Flush(envs) => {
                assert_eq!(envs.len(), 1);
                assert!(matches!(envs[0].msg, Msg::ReplicateBatch { .. }));
            }
            other => panic!("expected a crossing flush, got {other:?}"),
        }
        assert_eq!(c.pending_links(), 1, "the digest is still queued");
        assert_eq!(c.next_due(), Some(30_010), "on its own first-frame ceiling");
        match c.offer(ust(45_000), 30) {
            Offer::Flush(envs) => assert!(matches!(
                envs[0].msg,
                Msg::GossipDigest { frames: 2, ust: Some((u, _)), .. } if u == ts(45_000)
            )),
            other => panic!("expected the digest's own crossing, got {other:?}"),
        }
    }

    #[test]
    fn a_stalled_or_regressed_value_leaves_by_the_ceiling() {
        let mut c = coal(BatchConfig::stable_time(64, 15_000, 30_000));
        c.offer(heartbeat(46_000), 0);
        // Stalled (same value) and regressed (lower): no crossing, ever.
        assert!(matches!(
            c.offer(heartbeat(46_000), 100),
            Offer::Queued { .. }
        ));
        assert!(matches!(c.offer(ust(20_000), 200), Offer::Flush(_)));
        assert!(matches!(c.offer(ust(10_000), 300), Offer::Queued { .. }));
        assert!(c.poll(30_099).is_empty(), "inside the ceiling");
        let flushed = c.poll(30_100);
        assert_eq!(
            flushed.len(),
            2,
            "the first-queued class's ceiling drains the link"
        );
        assert_eq!(c.stats().deadline_flushes, 1);
        // The digest's minimum is what the crossing is judged by: a report
        // far ahead does not release a UST that lags.
        c.offer(ust(10_000), 40_000);
        let report = env(Msg::GstReport {
            partition: PartitionId(1),
            mins: vec![(DcId(0), ts(90_000)), (DcId(1), ts(95_000))],
            oldest_active: ts(1),
        });
        assert!(matches!(c.offer(report, 40_001), Offer::Queued { .. }));
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
