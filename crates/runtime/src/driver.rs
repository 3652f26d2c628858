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
//!
//! The server loop owns its [`Server`] outright: nothing else holds it,
//! so nothing locks it. Whoever wants to observe the server — the thread
//! backend's `stats()`, `min_ust()` and checker, a socket child's control
//! thread — sends a [`SnapshotReq`], and the loop answers it with a
//! [`ServerSnapshot`] between messages and ticks.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use paris_clock::PhysicalClock;
use paris_core::checker::{HistoryChecker, RecordedTx};
use paris_core::{ClientEvent, ClientSession, ReadStep, Server, Topology};
use paris_proto::{Envelope, ServerSnapshot};
use paris_types::{ClientId, Error};
use paris_workload::stats::Histogram;
use paris_workload::WorkloadGenerator;
use rand::rngs::StdRng;

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
/// UST-at-root and GC ticks) on their wall-clock deadlines, and answers
/// snapshot requests after every wake-up — so an idle loop answers within
/// its 5 ms wait — and calls `flush_due`, so a transport that batches on
/// the sending thread meets its ceilings. It returns when the inbox
/// disconnects or `stop` is raised.
#[allow(clippy::too_many_arguments)]
pub(crate) fn server_loop(
    mut server: Server,
    inbox: Receiver<Envelope>,
    snapshots: Receiver<SnapshotReq>,
    send: impl Fn(Envelope),
    flush_due: impl Fn(),
    topo: Arc<Topology>,
    clock: impl PhysicalClock,
    stop: Arc<AtomicBool>,
    intervals: paris_types::Intervals,
) {
    let is_root = topo.tree_parent(server.id()).is_none();
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
    mut session: ClientSession,
    mut generator: WorkloadGenerator,
    mut rng: StdRng,
    inbox: Receiver<Envelope>,
    send: impl Fn(Envelope),
    stop: Arc<AtomicBool>,
    clock: impl PhysicalClock,
    measure_after: Instant,
) -> ClientOutcome {
    let id = session.id();
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

    type Running = (Sender<Envelope>, SyncSender<SnapshotReq>, Arc<AtomicBool>);

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
        let loop_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            server_loop(
                server,
                inbox_rx,
                asks_rx,
                |_| {},
                || {},
                topo,
                clock,
                loop_stop,
                intervals,
            )
        });
        ((inbox, asks, stop), handle)
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
        let ((_inbox, asks, stop), handle) = spawn_loop();
        let asked = Instant::now();
        let snap = ask(&asks, false).unwrap();
        let waited = asked.elapsed();
        assert!(waited < Duration::from_millis(50), "{waited:?}");
        assert_eq!((snap.server, snap.stats.msgs_handled), (Some(at(1)), 0));
        stop.store(true, Ordering::Relaxed);
        assert!(returns(handle), "stop raised");
    }

    #[test]
    fn a_snapshot_counts_the_handled_envelopes_and_holds_what_they_applied() {
        const N: u64 = 5;
        let ((inbox, asks, stop), handle) = spawn_loop();
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
        let mut snap = ask(&asks, true).unwrap();
        while snap.stats.msgs_handled < N && Instant::now() < deadline {
            snap = ask(&asks, true).unwrap();
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
        let ((inbox, asks, _stop), handle) = spawn_loop();
        drop(inbox);
        assert!(returns(handle), "inbox disconnected");
        assert!(ask(&asks, false).is_err(), "nobody is left to answer");
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
