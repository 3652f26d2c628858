//! Property tests of the coalescer's flush triggers.
//!
//! For arbitrary monotone frame streams on the kinds of link a deployment
//! has:
//!
//! 1. a link sends, per class, at most one message per quantum of
//!    stable-time progress, plus its size and ceiling flushes — however
//!    many frames it is offered;
//! 2. delivering the flushed messages is indistinguishable from
//!    delivering the frames in order, and a watermark never overtakes a
//!    `Replicate` still queued behind it;
//! 3. no frame waits longer than `max_flush` when the caller polls at
//!    `next_due`, so a stalled or regressed value still leaves by the
//!    ceiling;
//! 4. a crossing releases only its own class;
//! 5. `poll(u64::MAX)` drains everything.
//!
//! And with a quantum no watermark crosses (`u64::MAX`), what remains is
//! exactly the first-frame deadline and the size trigger: offer/flush
//! behaviour matches an independent model of the fold (one deadline per
//! link window, size trigger at `max_batch`, newest watermark survives).

use std::collections::{BTreeMap, VecDeque};

use paris_net::{Coalescer, Offer};
use paris_proto::{DigestReport, Endpoint, Envelope, Msg, ReplicatedTx};
use paris_types::{
    BatchConfig, DcId, Key, PartitionId, ServerId, Timestamp, TxId, Value, WireFormat,
    WriteSetEntry,
};
use proptest::prelude::*;

/// A heartbeat: a replication push with no transactions.
fn hb(watermark: u64) -> Msg {
    Msg::Replicate {
        partition: PartitionId(0),
        txs: vec![],
        watermark: Timestamp::from_physical_micros(watermark),
    }
}

/// A one-entry digest, as a server sends its report, GST or UST.
fn digest(
    reports: Vec<DigestReport>,
    roots: Vec<(DcId, Timestamp, Timestamp)>,
    ust: Option<(Timestamp, Timestamp)>,
) -> Msg {
    Msg::GossipDigest {
        reports,
        roots,
        ust,
        frames: 1,
    }
}

fn env(watermark: u64) -> Envelope {
    Envelope::new(
        ServerId::new(DcId(0), PartitionId(0)),
        ServerId::new(DcId(1), PartitionId(0)),
        hb(watermark),
    )
}

fn ts(micros: u64) -> Timestamp {
    Timestamp::from_physical_micros(micros)
}

fn srv(dc: u16, p: u32) -> ServerId {
    ServerId::new(DcId(dc), PartitionId(p))
}

/// The background frame kinds, on the links a deployment carries them on:
/// replication and the root exchange share the root → peer-root link (two
/// classes on one link), reports climb child → parent, the UST descends
/// root → child.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Replicate,
    Heartbeat,
    RootGst,
    GstReport,
    Ust,
}

const KINDS: [Kind; 5] = [
    Kind::Replicate,
    Kind::Heartbeat,
    Kind::RootGst,
    Kind::GstReport,
    Kind::Ust,
];

impl Kind {
    fn link(self) -> (ServerId, ServerId) {
        match self {
            Kind::Replicate | Kind::Heartbeat | Kind::RootGst => (srv(0, 0), srv(1, 0)),
            Kind::GstReport => (srv(0, 1), srv(0, 0)),
            Kind::Ust => (srv(0, 0), srv(0, 1)),
        }
    }

    /// The stream of stable times this kind moves: one per link and class.
    fn stream(self) -> usize {
        match self {
            Kind::Replicate | Kind::Heartbeat => 0,
            Kind::RootGst => 1,
            Kind::GstReport => 2,
            Kind::Ust => 3,
        }
    }
}

/// Which stream a flushed wire message belongs to.
fn stream_of(env: &Envelope) -> usize {
    match &env.msg {
        Msg::ReplicateBatch { .. } => 0,
        Msg::GossipDigest { .. } if env.src == Endpoint::from(srv(0, 1)) => 2,
        Msg::GossipDigest { .. } if env.dst == Endpoint::from(srv(0, 1)) => 3,
        Msg::GossipDigest { .. } => 1,
        other => panic!("unexpected wire message {}", other.kind()),
    }
}

fn frames_of(msg: &Msg) -> u32 {
    match msg {
        Msg::ReplicateBatch { frames, .. } | Msg::GossipDigest { frames, .. } => *frames,
        other => panic!("unexpected wire message {}", other.kind()),
    }
}

/// What a receiver of background traffic ends up knowing: the handlers'
/// folds, per link kind.
#[derive(Debug, Default, PartialEq)]
struct Receiver {
    applied: Vec<(u64, u64)>,
    watermark: u64,
    reports: BTreeMap<u32, (Vec<(DcId, Timestamp)>, Timestamp)>,
    roots: BTreeMap<DcId, (Timestamp, Timestamp)>,
    ust: (Timestamp, Timestamp),
}

impl Receiver {
    fn apply(&mut self, txs: &[ReplicatedTx], watermark: Timestamp) {
        for t in txs {
            let ct = t.ct.physical_micros();
            assert!(ct > self.watermark, "a tx arrived under the watermark");
            self.applied.push((t.tx.seq, ct));
        }
        self.watermark = self.watermark.max(watermark.physical_micros());
    }

    fn report(&mut self, p: PartitionId, mins: &[(DcId, Timestamp)], oldest: Timestamp) {
        self.reports.insert(p.0, (mins.to_vec(), oldest));
    }

    fn root(&mut self, dc: DcId, gst: Timestamp, oldest: Timestamp) {
        let e = self.roots.entry(dc).or_default();
        *e = (e.0.max(gst), e.1.max(oldest));
    }

    fn ust(&mut self, ust: Timestamp, s_old: Timestamp) {
        self.ust = (self.ust.0.max(ust), self.ust.1.max(s_old));
    }

    fn deliver(&mut self, msg: &Msg) {
        match msg {
            Msg::Replicate { txs, watermark, .. } | Msg::ReplicateBatch { txs, watermark, .. } => {
                self.apply(txs, *watermark)
            }
            Msg::GossipDigest {
                reports,
                roots,
                ust,
                ..
            } => {
                for r in reports {
                    self.report(r.partition, &r.mins, r.oldest_active);
                }
                for (dc, gst, oldest) in roots {
                    self.root(*dc, *gst, *oldest);
                }
                if let Some((u, s)) = ust {
                    self.ust(*u, *s);
                }
            }
            other => panic!("not background: {}", other.kind()),
        }
    }
}

/// Drives a stable-time coalescer with a stream of `(advance, kind,
/// progress)` steps the way a substrate does — polling whenever a
/// deadline is reached — and checks the five properties of the module
/// docs. `progress` is how far the step moves its stream's stable time.
fn check_stable_time(steps: &[(u64, usize, u64)], quantum: u64, max_flush: u64, max_batch: usize) {
    let mut c = Coalescer::new(
        BatchConfig::stable_time(max_batch, quantum, max_flush),
        WireFormat::default(),
    );
    let (mut in_order, mut coalesced) = (Receiver::default(), Receiver::default());
    // Per stream: the stable time it has reached, where it started, the
    // offer times of its queued frames, and the wire messages it cost.
    let mut value = [0u64; 4];
    let mut first: [Option<u64>; 4] = [None; 4];
    let mut queued: [VecDeque<u64>; 4] = Default::default();
    let mut messages = [0u64; 4];
    let mut offered: Vec<(u64, u64)> = Vec::new();
    let mut now = 0u64;
    let mut seq = 0u64;

    let mut deliver = |flushed: Vec<Envelope>,
                       at: u64,
                       queued: &mut [VecDeque<u64>; 4],
                       coalesced: &mut Receiver,
                       offered: &[(u64, u64)]| {
        for env in flushed {
            let s = stream_of(&env);
            messages[s] += 1;
            for _ in 0..frames_of(&env.msg) {
                let since = queued[s].pop_front().expect("a flushed frame was offered");
                assert!(
                    at - since <= max_flush,
                    "a frame waited {} µs, ceiling {max_flush}",
                    at - since
                );
            }
            coalesced.deliver(&env.msg);
            // A watermark never overtakes a queued `Replicate`: everything
            // offered at or under it has arrived.
            let due: Vec<(u64, u64)> = offered
                .iter()
                .copied()
                .filter(|(_, ct)| *ct <= coalesced.watermark)
                .collect();
            assert_eq!(coalesced.applied, due);
        }
    };

    for &(advance, kind, progress) in steps {
        // The substrate's contract: poll when a deadline is reached.
        let until = now + advance;
        while let Some(due) = c.next_due().filter(|due| *due <= until) {
            let flushed = c.poll(due);
            assert!(!flushed.is_empty(), "a due link flushed nothing");
            deliver(flushed, due, &mut queued, &mut coalesced, &offered);
        }
        now = until;

        let kind = KINDS[kind];
        let s = kind.stream();
        let before = value[s];
        value[s] += progress;
        first[s].get_or_insert(value[s]);
        let v = ts(value[s]);
        let msg = match kind {
            // A transaction committed inside (previous watermark, new
            // watermark]; a stalled stream has no room for one.
            Kind::Replicate if progress > 0 => {
                seq += 1;
                offered.push((seq, before + 1));
                Msg::Replicate {
                    partition: PartitionId(0),
                    txs: vec![ReplicatedTx {
                        tx: TxId::new(srv(0, 0), seq),
                        ct: ts(before + 1),
                        src: DcId(0),
                        writes: vec![WriteSetEntry::new(Key(seq), Value::from("v"))],
                    }],
                    watermark: v,
                }
            }
            Kind::Replicate => hb(value[s]),
            Kind::Heartbeat => hb(value[s]),
            Kind::RootGst => digest(vec![], vec![(DcId(0), v, ts(value[s] / 2))], None),
            Kind::GstReport => {
                let report = DigestReport {
                    partition: PartitionId(1),
                    mins: vec![(DcId(0), v), (DcId(1), ts(value[s] + 7))],
                    oldest_active: ts(now % 97),
                };
                digest(vec![report], vec![], None)
            }
            Kind::Ust => digest(vec![], vec![], Some((v, ts(value[s] / 2)))),
        };
        in_order.deliver(&msg);
        let (src, dst) = kind.link();
        queued[s].push_back(now);
        let crossings = c.stats().crossing_flushes;
        match c.offer(Envelope::new(src, dst, msg), now) {
            Offer::Pass(_) => panic!("background frame passed through"),
            Offer::Queued { next_due } => assert!(next_due <= now + max_flush),
            Offer::Flush(flushed) => {
                if c.stats().crossing_flushes > crossings {
                    assert_eq!(flushed.len(), 1, "a crossing releases one class");
                    assert_eq!(stream_of(&flushed[0]), s, "…its own");
                }
                deliver(flushed, now, &mut queued, &mut coalesced, &offered);
            }
        }
    }

    // The pump's final drain.
    let rest = c.poll(u64::MAX);
    for env in &rest {
        messages[stream_of(env)] += 1;
        coalesced.deliver(&env.msg);
    }
    assert_eq!(c.pending_links(), 0);
    assert_eq!(c.next_due(), None);
    assert_eq!(coalesced, in_order, "the fold lost or reordered something");

    let stats = c.stats();
    assert_eq!(stats.messages_out, messages.iter().sum::<u64>());
    for s in 0..4 {
        let Some(first) = first[s] else { continue };
        let cells = (value[s] - first).div_ceil(quantum) + 1;
        assert!(
            messages[s] <= cells + stats.size_flushes + stats.deadline_flushes,
            "stream {s}: {} messages for {} µs of progress (Q {quantum}), \
             {} size and {} ceiling flushes",
            messages[s],
            value[s] - first,
            stats.size_flushes,
            stats.deadline_flushes,
        );
    }
}

proptest! {
    /// Steadily advancing streams, the deployment's normal case.
    #[test]
    fn prop_stable_time_paces_by_progress_and_folds_exactly(
        steps in proptest::collection::vec((0u64..8_000, 0usize..5, 0u64..12_000), 1..300),
        quantum in 1u64..40_000,
        max_flush in 1u64..60_000,
        max_batch in 2usize..80,
    ) {
        check_stable_time(&steps, quantum, max_flush, max_batch);
    }

    /// Streams that mostly stall (progress 0): nothing crosses, and every
    /// frame still leaves within the ceiling.
    #[test]
    fn prop_stalled_streams_leave_by_the_ceiling(
        steps in proptest::collection::vec((0u64..20_000, 0usize..5, 0u64..2), 1..200),
        max_flush in 1u64..60_000,
    ) {
        check_stable_time(&steps, 15_000, max_flush, 64);
    }

    /// With an uncrossable quantum the coalescer's deadline and size
    /// triggers match an independent single-link model (window deadline =
    /// first enqueue + ceiling, size trigger at `max_batch`, heartbeats
    /// fold into the newest watermark, frame counts exact).
    #[test]
    fn prop_uncrossable_quantum_matches_reference_fold(
        steps in proptest::collection::vec((0u64..20_000, 0u64..1_000, any::<bool>()), 1..200),
        max_batch in 2usize..10,
        interval in 1u64..30_000,
    ) {
        let mut c = Coalescer::new(
            BatchConfig::stable_time(max_batch, u64::MAX, interval),
            WireFormat::default(),
        );
        // Reference model of one link's window.
        let mut window: Option<(u64, u32, u64)> = None; // (due, frames, max_wm)
        let mut now = 0u64;
        for (advance, wm, do_poll) in steps {
            now += advance;
            if do_poll {
                let flushed = c.poll(now);
                match window {
                    Some((due, frames, max_wm)) if due <= now => {
                        prop_assert_eq!(flushed.len(), 1, "one batch per due link");
                        match &flushed[0].msg {
                            Msg::ReplicateBatch { frames: f, watermark, txs, .. } => {
                                prop_assert_eq!(*f, frames);
                                prop_assert_eq!(*watermark, Timestamp::from_physical_micros(max_wm));
                                prop_assert!(txs.is_empty());
                            }
                            other => prop_assert!(false, "unexpected {}", other.kind()),
                        }
                        window = None;
                    }
                    _ => prop_assert!(flushed.is_empty(), "flushed before the deadline"),
                }
            } else {
                match c.offer(env(wm), now) {
                    Offer::Pass(_) => prop_assert!(false, "background frame passed through"),
                    Offer::Flush(flushed) => {
                        let (_, frames, max_wm) = window.take().unwrap_or((0, 0, 0));
                        prop_assert_eq!(frames as usize + 1, max_batch, "size trigger only at max_batch");
                        prop_assert_eq!(flushed.len(), 1);
                        match &flushed[0].msg {
                            Msg::ReplicateBatch { frames: f, watermark, .. } => {
                                prop_assert_eq!(*f as usize, max_batch);
                                prop_assert_eq!(
                                    *watermark,
                                    Timestamp::from_physical_micros(max_wm.max(wm))
                                );
                            }
                            other => prop_assert!(false, "unexpected {}", other.kind()),
                        }
                    }
                    Offer::Queued { next_due } => {
                        let (due, frames, max_wm) = match window {
                            None => (now + interval, 1, wm),
                            Some((due, frames, max_wm)) => (due, frames + 1, max_wm.max(wm)),
                        };
                        window = Some((due, frames, max_wm));
                        prop_assert_eq!(
                            next_due, due,
                            "the deadline must be first-enqueue + ceiling"
                        );
                    }
                }
            }
        }
    }
}
