//! Concurrent protocol drivers shared by the live backends.
//!
//! The threaded backend (one OS thread per server, in-process channels)
//! and the socket backend (one OS *process* per server, TCP frames) run
//! the same loops: a server loop pumping its inbox — every protocol
//! message, slice reads and writes alike, goes through `Server::handle`
//! there — plus the periodic ticks, and a closed-loop workload client.
//! This module is those loops, generic over how an envelope leaves the
//! node (a `send` closure) and which [`PhysicalClock`] stamps time — the
//! only two things that differ between the substrates. The workload loop
//! is the shared [`WorkloadClient`] behind a blocking wait on its inbox;
//! only the stop flag and the warm-up instant are its own.
//!
//! The server loop owns its [`Server`] outright: nothing else holds it,
//! so nothing locks it. Observers (`stats()`, the checker, a socket
//! child's control thread) send a [`SnapshotReq`], which the loop answers
//! with a [`ServerSnapshot`] between messages and ticks; the UST behind
//! `min_ust()` it publishes in a relaxed atomic (no data rides on it).
//!
//! The ∆R, ∆G and ∆U ticks are on the links' grid
//! ([`paris_types::BatchConfig`]): each deadline is a multiple of its
//! period on the loop clock (the HLC timebase), so every server crosses a
//! quantum line at the same tick.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use paris_clock::PhysicalClock;
use paris_core::{ClientSession, Server, Topology};
use paris_proto::{Envelope, ServerSnapshot};
use paris_types::Error;

use crate::workload_client::{Step, WorkloadClient};

/// A request for one server's [`ServerSnapshot`], answered by its loop.
pub(crate) struct SnapshotReq {
    /// Whether to walk the store for every key's version orders (the
    /// checker's ground truth, the convergence oracle); a stats or UST
    /// poll leaves them out.
    chains: bool,
    /// Where the answer goes. The loop never blocks on it: a reply with
    /// no room, or nobody left to read it, is dropped.
    reply: SyncSender<ServerSnapshot>,
}

/// Asks every loop in `servers` for a snapshot — every request first,
/// then every answer, so one poll costs at most one loop wake-up, not one
/// per server. Answers come back in arrival order.
///
/// # Errors
///
/// [`Error::Transport`] when a loop has exited, still holds an earlier
/// request, or does not answer within [`crate::OP_TIMEOUT`].
pub(crate) fn request_snapshots(
    servers: &[SyncSender<SnapshotReq>],
    chains: bool,
) -> Result<Vec<ServerSnapshot>, Error> {
    let (reply, answers) = sync_channel(servers.len());
    for server in servers {
        let req = SnapshotReq {
            chains,
            reply: reply.clone(),
        };
        server
            .try_send(req)
            .map_err(|_| Error::Transport("a server loop is not taking snapshot requests"))?;
    }
    // Only the loops hold a reply sender now: one that exits unanswered
    // disconnects the wait instead of running out the timeout.
    drop(reply);
    let deadline = Instant::now() + crate::OP_TIMEOUT;
    servers
        .iter()
        .map(|_| {
            answers
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
                .map_err(|_| Error::Transport("a server loop did not answer a snapshot request"))
        })
        .collect()
}

/// One server's protocol loop: pumps the inbox into the state machine,
/// fires the periodic background protocols (Alg. 4's replicate, GST,
/// UST-at-root and GC ticks) on their wall-clock deadlines, and after
/// every wake-up publishes the UST, calls `flush_due` (so a transport
/// that batches on the sending thread meets its ceilings) and answers
/// snapshot requests (so an idle loop answers within its 5 ms wait). It
/// returns when the inbox disconnects or `stop` is raised.
#[allow(clippy::too_many_arguments)]
pub(crate) fn server_loop(
    mut server: Server,
    inbox: Receiver<Envelope>,
    snapshots: Receiver<SnapshotReq>,
    published_ust: Arc<AtomicU64>,
    send: impl Fn(Envelope),
    flush_due: impl Fn(),
    topo: Arc<Topology>,
    clock: impl PhysicalClock,
    stop: Arc<AtomicBool>,
    intervals: paris_types::Intervals,
) {
    let is_root = topo.tree_parent(server.id()).is_none();
    let start = clock.now_micros();
    let mut rep = Tick::on_grid(start, intervals.replication_micros);
    let mut gst = Tick::on_grid(start, intervals.gst_micros);
    let mut ust = Tick::on_grid(start, intervals.ust_micros);
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
                for e in server.handle(&env, clock.now_micros()) {
                    send(e);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        let now = clock.now_micros();
        let (rep_due, gst_due, gc_due) = (rep.fire(now), gst.fire(now), gc.fire(now));
        let ust_due = is_root && ust.fire(now);
        let mut out = Vec::new();
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
        published_ust.store(server.ust().as_u64(), Ordering::Relaxed);
        for e in out {
            send(e);
        }
        flush_due();
        while let Ok(req) = snapshots.try_recv() {
            let _ = req
                .reply
                .try_send(crate::server_snapshot(&server, req.chains));
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
    /// First due on the next multiple of `every`, so ticks share a grid.
    fn on_grid(now: u64, every: u64) -> Tick {
        Tick::starting(now - now % every, every)
    }

    /// First due one period after `now`, keeping the phase of its start.
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

/// A live workload client's finished transactions, each with whether it
/// finished inside the window.
pub(crate) type Finished = Vec<(Step, bool)>;

/// One live workload client: runs `client`'s transactions back to back,
/// retrying at once after an abort, until `stop` is raised. A transaction
/// is inside the window when it finishes after `measure_after` (warmup is
/// untimed; the history records everything).
pub(crate) fn run_client(
    mut session: ClientSession,
    mut client: WorkloadClient,
    inbox: Receiver<Envelope>,
    send: impl Fn(Envelope),
    stop: Arc<AtomicBool>,
    clock: impl PhysicalClock,
    measure_after: Instant,
) -> Finished {
    let mut finished = Vec::new();
    'txs: while !stop.load(Ordering::Relaxed) {
        let mut step = Step::Send(client.start(&mut session, clock.now_micros()));
        while let Step::Send(env) = step {
            send(env);
            let event = loop {
                match inbox.recv_timeout(Duration::from_millis(100)) {
                    Ok(reply) => {
                        if let Some(event) = session.handle(&reply) {
                            break event;
                        }
                    }
                    Err(RecvTimeoutError::Timeout) if !stop.load(Ordering::Relaxed) => {}
                    Err(_) => break 'txs,
                }
            };
            step = client.on_event(&mut session, event, clock.now_micros());
        }
        finished.push((step, Instant::now() >= measure_after));
    }
    finished
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_clock::SimClock;
    use paris_core::ServerOptions;
    use paris_proto::{Msg, ReplicatedTx};
    use paris_types::{
        ClusterConfig, DcId, Key, Mode, PartitionId, ServerId, Timestamp, TxId, WriteSetEntry,
    };
    use std::sync::mpsc::{channel, Sender};
    use std::thread::JoinHandle;

    /// The server under test is at DC 1; DC 0 holds its peer replica.
    fn at(dc: u16) -> ServerId {
        ServerId::new(DcId(dc), PartitionId(0))
    }

    struct Running {
        inbox: Sender<Envelope>,
        asks: SyncSender<SnapshotReq>,
        published_ust: Arc<AtomicU64>,
        stop: Arc<AtomicBool>,
    }

    /// A loop over a bare server (2 DCs × 1 partition, this one at DC 1)
    /// whose clock never moves, so no tick fires: only envelopes and
    /// snapshot requests drive it.
    fn spawn_loop() -> (Running, JoinHandle<()>) {
        let config = ClusterConfig::builder().dcs(2).partitions(1);
        let topo = Arc::new(Topology::new(config.replication_factor(2).build().unwrap()));
        let clock = SimClock::new();
        let server = Server::new(ServerOptions {
            id: at(1),
            topology: Arc::clone(&topo),
            clock: Box::new(clock.clone()),
            mode: Mode::Paris,
            record_events: false,
        });
        let intervals = topo.config().intervals;
        let ((inbox, inbox_rx), (asks, asks_rx)) = (channel(), sync_channel(1));
        let stop = Arc::new(AtomicBool::new(false));
        let published_ust = Arc::new(AtomicU64::new(0));
        let (loop_stop, loop_ust) = (Arc::clone(&stop), Arc::clone(&published_ust));
        let handle = std::thread::spawn(move || {
            server_loop(
                server,
                inbox_rx,
                asks_rx,
                loop_ust,
                |_| {},
                || {},
                topo,
                clock,
                loop_stop,
                intervals,
            )
        });
        let running = Running {
            inbox,
            asks,
            published_ust,
            stop,
        };
        (running, handle)
    }

    fn ask(asks: &SyncSender<SnapshotReq>, chains: bool) -> Result<ServerSnapshot, Error> {
        Ok(request_snapshots(std::slice::from_ref(asks), chains)?.remove(0))
    }

    /// Whether the loop thread returns within two seconds.
    fn returns(handle: JoinHandle<()>) -> bool {
        let deadline = Instant::now() + Duration::from_secs(2);
        while !handle.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.is_finished() && handle.join().is_ok()
    }

    #[test]
    fn an_idle_loop_answers_promptly_and_returns_when_stopped() {
        let (running, handle) = spawn_loop();
        let asked = Instant::now();
        let snap = ask(&running.asks, false).unwrap();
        let waited = asked.elapsed();
        assert!(waited < Duration::from_millis(50), "{waited:?}");
        assert_eq!((snap.server, snap.stats.msgs_handled), (Some(at(1)), 0));
        running.stop.store(true, Ordering::Relaxed);
        assert!(returns(handle), "stop raised");
    }

    #[test]
    fn a_snapshot_counts_the_handled_envelopes_and_holds_what_they_applied() {
        const N: u64 = 5;
        let (running, handle) = spawn_loop();
        let Running {
            inbox, asks, stop, ..
        } = &running;
        let ct = |i| Timestamp::from_physical_micros(1_000 * i);
        for i in 1..=N {
            let tx = ReplicatedTx {
                tx: TxId::new(at(0), i),
                ct: ct(i),
                src: DcId(0),
                writes: vec![WriteSetEntry::new(Key(i), "v".into())],
            };
            let msg = Msg::Replicate {
                partition: PartitionId(0),
                txs: vec![tx],
                watermark: ct(i),
            };
            inbox.send(Envelope::new(at(0), at(1), msg)).unwrap();
        }
        // The loop answers between envelopes: poll until all N are in.
        let deadline = Instant::now() + Duration::from_secs(2);
        let mut snap = ask(asks, true).unwrap();
        while snap.stats.msgs_handled < N && Instant::now() < deadline {
            snap = ask(asks, true).unwrap();
        }
        assert_eq!((snap.stats.msgs_handled, snap.stats.applied_remote), (N, N));
        snap.chains.sort_by_key(|(key, _)| *key);
        assert_eq!(snap.chains.len(), N as usize);
        for (i, (key, orders)) in (1..=N).zip(&snap.chains) {
            let order = (orders.len(), orders[0].ut, orders[0].tx);
            assert_eq!((*key, order), (Key(i), (1, ct(i), TxId::new(at(0), i))));
        }
        stop.store(true, Ordering::Relaxed);
        assert!(returns(handle));
    }

    #[test]
    fn the_loop_returns_when_its_inbox_disconnects() {
        let (Running { inbox, asks, .. }, handle) = spawn_loop();
        drop(inbox);
        assert!(returns(handle), "inbox disconnected");
        assert!(ask(&asks, false).is_err(), "nobody is left to answer");
    }

    #[test]
    fn the_loop_publishes_the_ust_a_broadcast_moved_without_a_snapshot_request() {
        let (running, handle) = spawn_loop();
        let ust = Timestamp::from_parts(42_000, 3);
        let msg = Msg::UstBroadcast {
            ust,
            s_old: Timestamp::ZERO,
        };
        running
            .inbox
            .send(Envelope::new(at(0), at(1), msg))
            .unwrap();
        // Only the atomic is read until the broadcast shows: no request
        // wakes the loop.
        let deadline = Instant::now() + Duration::from_secs(2);
        let published = || Timestamp::from_u64(running.published_ust.load(Ordering::Relaxed));
        while published() != ust && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            published(),
            ust,
            "published after the wake-up that handled it"
        );
        assert_eq!(
            ask(&running.asks, false).unwrap().ust,
            ust,
            "the server's own UST"
        );
        running.stop.store(true, Ordering::Relaxed);
        assert!(returns(handle));
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
