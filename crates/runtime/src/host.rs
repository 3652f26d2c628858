//! One server and its tick schedule, shared by every backend.
//!
//! Besides handling messages, a PaRiS server runs four periodic
//! protocols: the ∆R apply/replicate tick, the ∆G GST tick, the ∆U UST
//! tick at a DC root (Alg. 4) and the GC tick (§IV-B), which also writes
//! checkpoints and expires stale contexts. A [`ServerHost`] owns one
//! [`Server`] and their deadlines, and [`ServerHost::fire`] is the one
//! place a [`TickKind`] becomes a `Server::on_*_tick` call. The live loop
//! ([`crate::driver`]) arms the ticks on the [`grid`] and fires what is
//! due after every wake-up; the sim arms them at seeded phases and fires
//! one per event.

use std::sync::Arc;

use paris_clock::PhysicalClock;
use paris_core::{Server, ServerOptions, ServerTuning, Topology};
use paris_proto::Envelope;
use paris_types::{Error, Intervals, ServerId};

/// One of a server's periodic protocols (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TickKind {
    Replicate,
    Gst,
    Ust,
    Gc,
}

use TickKind::{Gc, Gst, Replicate, Ust};

impl TickKind {
    /// The period of the kind.
    pub(crate) fn every(self, intervals: &Intervals) -> u64 {
        match self {
            Replicate => intervals.replication_micros,
            Gst => intervals.gst_micros,
            Ust => intervals.ust_micros,
            Gc => intervals.gc_micros,
        }
    }
}

/// The live loops' first deadlines from `start`: ∆R, ∆G and ∆U on the
/// grid (the next multiple of their period, so every server crosses a
/// quantum line at the same tick), GC one period after `start`.
pub(crate) fn grid(start: u64) -> impl Fn(TickKind, u64) -> u64 {
    move |kind, every| match kind {
        Gc => start + every,
        _ => start - start % every + every,
    }
}

/// A server and its tick schedule. See the module docs.
pub(crate) struct ServerHost {
    pub(crate) server: Server,
    /// In the fixed order Replicate, Gst, Ust (at a DC root only), Gc.
    ticks: Vec<Tick>,
}

impl ServerHost {
    /// Builds server `id` of `topology`, stamped by `clock`, on the
    /// storage `tuning` names ([`crate::tuning::server_tuning`]). No tick
    /// is due until [`Self::arm`].
    ///
    /// # Errors
    ///
    /// [`Error::Storage`] when a durable server's directory cannot be
    /// opened or recovered.
    pub(crate) fn new(
        id: ServerId,
        topology: &Arc<Topology>,
        clock: Box<dyn PhysicalClock + Send>,
        record_events: bool,
        tuning: ServerTuning,
    ) -> Result<Self, Error> {
        let (mode, intervals) = (topology.config().mode, &topology.config().intervals);
        let is_root = topology.tree_parent(id).is_none();
        let kinds = [Replicate, Gst, Ust, Gc]
            .into_iter()
            .filter(|&k| k != Ust || is_root);
        let ticks = kinds.map(|kind| Tick {
            kind,
            next: u64::MAX,
            every: kind.every(intervals),
        });
        let topology = Arc::clone(topology);
        let options = ServerOptions {
            id,
            topology,
            clock,
            mode,
            record_events,
        };
        Ok(ServerHost {
            server: Server::try_with_tuning(options, tuning)?,
            ticks: ticks.collect(),
        })
    }

    /// Arms the ticks: `first_due(kind, every)` is asked for each one's
    /// first deadline, once per kind, in the fixed order — the sim's seeded
    /// draws rest on that order.
    pub(crate) fn arm(&mut self, mut first_due: impl FnMut(TickKind, u64) -> u64) {
        for tick in &mut self.ticks {
            tick.next = first_due(tick.kind, tick.every);
        }
    }

    /// The earliest deadline (`u64::MAX` before [`Self::arm`]).
    pub(crate) fn next_deadline(&self) -> u64 {
        let deadlines = self.ticks.iter().map(|tick| tick.next);
        deadlines.min().unwrap_or(u64::MAX)
    }

    /// Runs the `kind` tick on the server at `now`; returns what it sends.
    pub(crate) fn fire(&mut self, kind: TickKind, now: u64) -> Vec<Envelope> {
        match kind {
            Replicate => self.server.on_replicate_tick(now),
            Gst => self.server.on_gst_tick(now),
            Ust => self.server.on_ust_tick(now),
            Gc => {
                self.server.on_gc_tick(now);
                Vec::new()
            }
        }
    }

    /// Fires every tick due at `now`, in the fixed order, re-arming each;
    /// returns what they send.
    pub(crate) fn fire_due(&mut self, now: u64) -> Vec<Envelope> {
        let mut out = Vec::new();
        for kind in self.due(now) {
            out.extend(self.fire(kind, now));
        }
        out
    }

    /// The kinds due at `now`, in the fixed order; re-arms each of them.
    fn due(&mut self, now: u64) -> Vec<TickKind> {
        self.ticks
            .iter_mut()
            .filter_map(|tick| tick.fire(now).then_some(tick.kind))
            .collect()
    }
}

/// A periodic deadline that re-arms from its own schedule, not from the
/// wake-up that served it: `every` = 5 ms means 200 ticks a second
/// however late each wake-up runs. A loop that was held up for whole
/// periods skips them rather than firing a burst.
#[derive(Debug)]
struct Tick {
    kind: TickKind,
    next: u64,
    every: u64,
}

impl Tick {
    /// Whether the tick is due at `now`; if so, re-arms it to the first
    /// deadline of its schedule after `now`.
    fn fire(&mut self, now: u64) -> bool {
        if now < self.next {
            return false;
        }
        self.next += ((now - self.next) / self.every + 1) * self.every;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_clock::SimClock;
    use paris_proto::Endpoint;
    use paris_types::{ClusterConfig, DcId, PartitionId};

    impl Tick {
        /// A tick armed as the live loops arm ∆R, ∆G and ∆U.
        fn on_grid(now: u64, every: u64) -> Tick {
            let next = grid(now)(Replicate, every);
            let kind = Replicate;
            Tick { kind, next, every }
        }

        /// A tick armed as the live loops arm GC.
        fn starting(now: u64, every: u64) -> Tick {
            let next = grid(now)(Gc, every);
            let kind = Gc;
            Tick { kind, next, every }
        }
    }

    /// Server `p` of DC 0 in a 2 DC × 2 partition deployment, fully
    /// replicated; the flat tree roots each DC at partition 0.
    fn host(p: u32) -> ServerHost {
        let config = ClusterConfig::builder().dcs(2).partitions(2);
        let topo = Arc::new(Topology::new(config.replication_factor(2).build().unwrap()));
        let id = ServerId::new(DcId(0), PartitionId(p));
        let clock = Box::new(SimClock::new());
        ServerHost::new(id, &topo, clock, false, ServerTuning::default()).unwrap()
    }

    #[test]
    fn first_deadlines_are_asked_and_due_kinds_fired_in_the_fixed_order() {
        for (p, order) in [
            (0, vec![Replicate, Gst, Ust, Gc]),
            (1, vec![Replicate, Gst, Gc]),
        ] {
            let mut host = host(p);
            assert_eq!(host.next_deadline(), u64::MAX, "nothing armed yet");
            let mut asked = Vec::new();
            host.arm(|kind, _| {
                asked.push(kind);
                10_000
            });
            assert_eq!(asked, order, "partition {p}: one question per kind");
            assert!(host.due(9_999).is_empty());
            assert_eq!(host.due(10_000), order, "partition {p}: all due at once");
            assert!(host.due(10_000).is_empty(), "each fired once");
        }
    }

    #[test]
    fn fire_due_sends_in_the_fixed_order_and_rearms_what_fired() {
        let mut host = host(1);
        let mut periods = Vec::new();
        host.arm(|kind, every| {
            periods.push(every);
            10_000 + u64::from(kind == Gc) * every
        });
        // Replicate (a heartbeat to the DC 1 replica), then Gst (a report
        // to the DC 0 root); GC is not due yet.
        let out = host.fire_due(10_000);
        let dsts: Vec<Endpoint> = out.iter().map(|env| env.dst).collect();
        let replica = ServerId::new(DcId(1), PartitionId(1));
        let root = ServerId::new(DcId(0), PartitionId(0));
        assert_eq!(dsts, [Endpoint::Server(replica), Endpoint::Server(root)]);
        let (replicate, gst) = (periods[0], periods[1]);
        assert_eq!(host.next_deadline(), 10_000 + replicate.min(gst));
    }

    #[test]
    fn grid_ticks_made_at_different_instants_fire_together() {
        let (early, late) = (Tick::on_grid(1_000, 5_000), Tick::on_grid(3_999, 5_000));
        assert_eq!(
            (early.next, late.next),
            (5_000, 5_000),
            "the next grid line"
        );
        // On a grid line the first deadline is a full period away.
        assert_eq!(Tick::on_grid(5_000, 5_000).next, 10_000);
        let mut ticks = [early, late, Tick::on_grid(9_000, 5_000)];
        for now in [5_000, 10_000, 15_000] {
            let fired: Vec<bool> = ticks.iter_mut().map(|t| t.fire(now)).collect();
            // The third tick was made after the first line passed.
            assert_eq!(fired, [true, true, now > 5_000], "at {now}");
        }
    }

    #[test]
    fn a_late_wake_up_rearms_a_grid_tick_onto_the_grid() {
        let mut tick = Tick::on_grid(2_345, 5_000);
        assert!(!tick.fire(4_999));
        // 2.3 ms late: fires once and re-arms on the next line.
        assert!(tick.fire(7_300));
        assert_eq!(tick.next, 10_000);
        // Held up past two lines: one firing, then back on the grid.
        assert!(tick.fire(21_000));
        assert_eq!(tick.next, 25_000);
        assert!(!tick.fire(24_999));
    }

    #[test]
    fn a_tick_rearms_from_its_deadline_not_from_the_late_wake_up() {
        let clock = SimClock::new();
        clock.advance_to(1_000);
        let mut tick = Tick::starting(clock.now_micros(), 5_000);
        assert!(!tick.fire(clock.now_micros()));
        clock.advance_to(5_999);
        assert!(!tick.fire(clock.now_micros()), "due at 6 000");
        // Every wake-up is 700 µs late; the cadence stays on the 5 ms grid.
        let mut fired = 0;
        for deadline in (6_000..=1_001_000).step_by(5_000) {
            clock.advance_to(deadline + 700);
            assert!(tick.fire(clock.now_micros()));
            assert_eq!(tick.next, deadline + 5_000, "re-armed from the deadline");
            assert!(!tick.fire(clock.now_micros()), "once per period");
            fired += 1;
        }
        assert_eq!(
            fired, 200,
            "one second of ∆ = 5 ms is 200 ticks, lateness or not"
        );
    }

    #[test]
    fn a_stalled_loop_skips_whole_missed_periods() {
        let clock = SimClock::new();
        let mut tick = Tick::starting(clock.now_micros(), 5_000);
        // Held up for 3.4 periods past the first deadline: one firing, and
        // the next deadline is the first grid point still ahead.
        clock.advance_to(22_000);
        assert!(tick.fire(clock.now_micros()));
        assert_eq!(tick.next, 25_000);
        assert!(!tick.fire(clock.now_micros()));
        // Exactly on a deadline: fires, and the following one is a full
        // period away.
        clock.advance_to(25_000);
        assert!(tick.fire(clock.now_micros()));
        assert_eq!(tick.next, 30_000);
    }
}
