//! Concurrent protocol drivers shared by the live backends.
//!
//! The threaded backend (one OS thread per server, in-process channels)
//! and the socket backend (one OS *process* per server, TCP frames) run
//! the same loops: a server loop pumping its inbox — every protocol
//! message, slice reads and writes alike, goes through `Server::handle`
//! there — plus the periodic ticks, and a closed-loop workload client.
//! This module is those loops, generic over how an envelope leaves the
//! node (a `send` closure) and which [`PhysicalClock`] stamps time — the
//! only two things that differ between the substrates.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use paris_clock::PhysicalClock;
use paris_core::checker::{HistoryChecker, RecordedTx};
use paris_core::{ClientEvent, ClientSession, ReadStep, Server, Topology};
use paris_proto::Envelope;
use paris_types::{ClientId, Mode, ServerId};
use paris_workload::stats::Histogram;
use paris_workload::{WorkloadConfig, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One server's protocol loop: pumps the inbox into the state machine
/// and fires the periodic background protocols (Alg. 4's replicate, GST,
/// UST-at-root and GC ticks) on their wall-clock deadlines.
#[allow(clippy::too_many_arguments)]
pub(crate) fn server_loop(
    server: Arc<Mutex<Server>>,
    inbox: Receiver<Envelope>,
    send: impl Fn(Envelope),
    topo: Arc<Topology>,
    clock: impl PhysicalClock,
    stop: Arc<AtomicBool>,
    intervals: paris_types::Intervals,
    id: ServerId,
) {
    let is_root = topo.tree_parent(id).is_none();
    let start = clock.now_micros();
    let mut rep = Tick::starting(start, intervals.replication_micros);
    let mut gst = Tick::starting(start, intervals.gst_micros);
    let mut ust = Tick::starting(start, intervals.ust_micros);
    let mut gc = Tick::starting(start, intervals.gc_micros);
    loop {
        let now = clock.now_micros();
        let mut deadline = rep.next.min(gst.next).min(gc.next);
        if is_root {
            deadline = deadline.min(ust.next);
        }
        let timeout = Duration::from_micros(deadline.saturating_sub(now).min(5_000));
        match inbox.recv_timeout(timeout) {
            Ok(env) => {
                let out = {
                    let mut server = server.lock().expect("server poisoned");
                    server.handle(&env, clock.now_micros())
                };
                for e in out {
                    send(e);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        let now = clock.now_micros();
        let (rep_due, gst_due, gc_due) = (rep.fire(now), gst.fire(now), gc.fire(now));
        let ust_due = is_root && ust.fire(now);
        if rep_due || gst_due || ust_due || gc_due {
            let mut out = Vec::new();
            {
                let mut server = server.lock().expect("server poisoned");
                if rep_due {
                    out.extend(server.on_replicate_tick(now));
                }
                if gst_due {
                    out.extend(server.on_gst_tick(now));
                }
                if ust_due {
                    out.extend(server.on_ust_tick(now));
                }
                if gc_due {
                    server.on_gc_tick(now);
                }
            }
            for e in out {
                send(e);
            }
        }
        if stop.load(Ordering::Relaxed) {
            break;
        }
    }
}

/// A periodic deadline that re-arms from its own schedule, not from the
/// wake-up that served it: `every` = 5 ms means 200 ticks a second
/// however late each wake-up runs. A loop that was held up for whole
/// periods skips them rather than firing a burst.
#[derive(Debug)]
struct Tick {
    next: u64,
    every: u64,
}

impl Tick {
    fn starting(now: u64, every: u64) -> Tick {
        Tick {
            next: now + every,
            every,
        }
    }

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

/// What one closed-loop workload client brings home.
pub(crate) struct ClientOutcome {
    pub(crate) records: Vec<(ClientId, RecordedTx)>,
    pub(crate) committed: u64,
    pub(crate) aborted: u64,
    pub(crate) latency: Histogram,
}

/// One closed-loop workload client: begin → read → write → commit,
/// retrying on aborts, until `stop` is raised. The begin is deferred: the
/// first read (or, for a write-only transaction, the commit) carries it,
/// so a transaction costs one round trip less than with an eager
/// `StartTxReq`. Statistics count only operations completing after
/// `measure_after` (warmup is untimed); the checker records everything.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_client(
    id: ClientId,
    coordinator: ServerId,
    mode: Mode,
    workload: WorkloadConfig,
    n_partitions: u32,
    local_partitions: Vec<paris_types::PartitionId>,
    seed: u64,
    inbox: Receiver<Envelope>,
    send: impl Fn(Envelope),
    stop: Arc<AtomicBool>,
    clock: impl PhysicalClock,
    measure_after: Instant,
) -> ClientOutcome {
    let mut session = ClientSession::new(id, coordinator, mode);
    let mut generator = WorkloadGenerator::new(workload, n_partitions, local_partitions);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut records = Vec::new();
    let mut latency = Histogram::new();
    let mut committed = 0u64;
    let mut aborted = 0u64;

    // Waits for the next client event, bailing out on stop.
    let wait_event = |session: &mut ClientSession| -> Option<ClientEvent> {
        loop {
            match inbox.recv_timeout(Duration::from_millis(100)) {
                Ok(env) => {
                    if let Some(ev) = session.handle(&env) {
                        return Some(ev);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if stop.load(Ordering::Relaxed) {
                        return None;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    };

    while !stop.load(Ordering::Relaxed) {
        let begin = clock.now_micros();
        session.begin_deferred().expect("idle session");
        let spec = generator.next_tx(&mut rng);
        let mut reads = Vec::new();
        if !spec.read_keys.is_empty() {
            match session.read(&spec.read_keys).expect("open tx") {
                ReadStep::Done(local) => {
                    reads.extend(local.iter().map(HistoryChecker::recorded_read))
                }
                ReadStep::Send(env) => {
                    send(env);
                    match wait_event(&mut session) {
                        Some(ClientEvent::ReadDone { reads: got, .. }) => {
                            reads.extend(got.iter().map(HistoryChecker::recorded_read));
                        }
                        Some(ClientEvent::Aborted { .. }) => {
                            if Instant::now() >= measure_after {
                                aborted += 1;
                            }
                            continue; // retry
                        }
                        _ => break,
                    }
                }
            }
        }
        if !spec.writes.is_empty() {
            session.write(&spec.writes).expect("open tx");
        }
        send(session.commit().expect("open tx"));
        let (tx, snapshot, ct) = match wait_event(&mut session) {
            Some(ClientEvent::Committed { tx, snapshot, ct }) => (tx, snapshot, ct),
            Some(ClientEvent::Aborted { .. }) => {
                if Instant::now() >= measure_after {
                    aborted += 1;
                }
                continue; // retry
            }
            _ => break,
        };
        // Stats count only the measurement window (warmup is untimed, as
        // on the deterministic backends); the checker records everything.
        if Instant::now() >= measure_after {
            committed += 1;
            latency.record(clock.now_micros().saturating_sub(begin));
        }
        records.push((
            id,
            RecordedTx {
                tx,
                snapshot,
                reads,
                writes: spec.writes.iter().map(|(k, _)| *k).collect(),
                ct: Some(ct),
            },
        ));
    }
    ClientOutcome {
        records,
        committed,
        aborted,
        latency,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_clock::SimClock;

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
