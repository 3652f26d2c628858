//! Concurrent protocol drivers shared by the live backends.
//!
//! The threaded backend (one OS thread per server, in-process channels)
//! and the socket backend (one OS *process* per server, TCP frames) run
//! the same loops: a server loop pumping its inbox into a
//! [`ServerHost`] — every protocol message, slice reads and writes alike,
//! goes through `Server::handle` there — and firing the host's due ticks,
//! plus a closed-loop workload client. This module is those loops,
//! generic over how an envelope leaves the node (a `send` closure) and
//! which [`PhysicalClock`] stamps time — the only two things that differ
//! between the substrates. Both backends start a server loop through
//! [`spawn_server_loop`]. The workload loop is the shared
//! [`WorkloadClient`] behind a blocking wait on its inbox; only the stop
//! flag and the warm-up instant are its own.
//!
//! The server loop owns its host, and with it the
//! [`Server`](paris_core::Server): nothing else holds it, so nothing locks
//! it. Observers (`stats()`, the checker, a socket child's control thread)
//! send a [`SnapshotReq`], which the loop answers with a
//! [`ServerSnapshot`] between messages and ticks; the UST behind
//! `min_ust()` it publishes in a relaxed atomic (no data rides on it).
//! Dropping the loop's request sender stops it.
//!
//! The ∆R, ∆G and ∆U ticks are on the links' grid
//! ([`paris_types::BatchConfig`], [`crate::host::grid`]): each deadline is
//! a multiple of its period on the loop clock (the HLC timebase), so
//! every server crosses a quantum line at the same tick.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paris_clock::PhysicalClock;
use paris_core::ClientSession;
use paris_proto::{Envelope, ServerSnapshot};
use paris_types::Error;

use crate::host::{grid, ServerHost};
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

/// A spawned server loop: its thread, the sender of its snapshot requests
/// — dropping it stops the loop — and the UST the loop publishes.
pub(crate) type ServerLoop = (JoinHandle<()>, SyncSender<SnapshotReq>, Arc<AtomicU64>);

/// Spawns [`server_loop`] over `host` on a thread of its own. One
/// snapshot request is in flight per loop: every caller awaits its
/// answers before it asks again.
///
/// # Errors
///
/// [`Error::Transport`] when the thread cannot be spawned.
pub(crate) fn spawn_server_loop(
    host: ServerHost,
    inbox: Receiver<Envelope>,
    send: impl Fn(Envelope) + Send + 'static,
    flush_due: impl Fn() + Send + 'static,
    clock: impl PhysicalClock + Send + 'static,
) -> Result<ServerLoop, Error> {
    let (asks, snapshots) = sync_channel(1);
    let published_ust = Arc::new(AtomicU64::new(0));
    let ust = Arc::clone(&published_ust);
    let handle = std::thread::Builder::new()
        .name(format!("server-{}", host.server.id()))
        .spawn(move || server_loop(host, inbox, snapshots, &ust, send, flush_due, clock))
        .map_err(|_| Error::Transport("could not spawn a server loop"))?;
    Ok((handle, asks, published_ust))
}

/// One server's protocol loop: pumps the inbox into the host's server,
/// fires the host's due ticks ([`ServerHost::fire_due`]), and after every
/// wake-up publishes the UST, calls `flush_due` (so a transport that
/// batches on the sending thread meets its ceilings) and answers snapshot
/// requests (so an idle loop answers within its 5 ms wait). It returns
/// when the inbox disconnects or the snapshot requests' sender is dropped.
fn server_loop(
    mut host: ServerHost,
    inbox: Receiver<Envelope>,
    snapshots: Receiver<SnapshotReq>,
    published_ust: &AtomicU64,
    send: impl Fn(Envelope),
    flush_due: impl Fn(),
    clock: impl PhysicalClock,
) {
    host.arm(grid(clock.now_micros()));
    loop {
        let now = clock.now_micros();
        let timeout = host.next_deadline().saturating_sub(now).min(5_000);
        match inbox.recv_timeout(Duration::from_micros(timeout)) {
            Ok(env) => {
                for e in host.server.handle(&env, clock.now_micros()) {
                    send(e);
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        let ticked = host.fire_due(clock.now_micros());
        published_ust.store(host.server.ust().as_u64(), Ordering::Relaxed);
        for e in ticked {
            send(e);
        }
        flush_due();
        loop {
            match snapshots.try_recv() {
                Ok(req) => {
                    let _ = req
                        .reply
                        .try_send(crate::server_snapshot(&host.server, req.chains));
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => return,
            }
        }
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
    use paris_core::{ServerTuning, Topology};
    use paris_proto::{Msg, ReplicatedTx};
    use paris_types::{
        ClusterConfig, DcId, Key, PartitionId, ServerId, Timestamp, TxId, WriteSetEntry,
    };
    use std::sync::mpsc::{channel, Sender};

    /// The server under test is at DC 1; DC 0 holds its peer replica.
    fn at(dc: u16) -> ServerId {
        ServerId::new(DcId(dc), PartitionId(0))
    }

    struct Running {
        inbox: Sender<Envelope>,
        asks: SyncSender<SnapshotReq>,
        published_ust: Arc<AtomicU64>,
    }

    /// A loop over a bare server (2 DCs × 1 partition, this one at DC 1)
    /// whose clock never moves, so no tick fires: only envelopes and
    /// snapshot requests drive it.
    fn spawn_loop() -> (Running, JoinHandle<()>) {
        let config = ClusterConfig::builder().dcs(2).partitions(1);
        let topo = Arc::new(Topology::new(config.replication_factor(2).build().unwrap()));
        let clock = SimClock::new();
        let tuning = ServerTuning::default();
        let host = ServerHost::new(at(1), &topo, Box::new(clock.clone()), false, tuning).unwrap();
        let (inbox, inbox_rx) = channel();
        let (handle, asks, published_ust) =
            spawn_server_loop(host, inbox_rx, |_| {}, || {}, clock).unwrap();
        let running = Running {
            inbox,
            asks,
            published_ust,
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
        drop(running.asks);
        assert!(returns(handle), "snapshot requests hung up");
    }

    #[test]
    fn a_snapshot_counts_the_handled_envelopes_and_holds_what_they_applied() {
        const N: u64 = 5;
        let (running, handle) = spawn_loop();
        let Running { inbox, asks, .. } = &running;
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
        drop(running.asks);
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
        let msg = Msg::GossipDigest {
            reports: vec![],
            roots: vec![],
            ust: Some((ust, Timestamp::ZERO)),
            frames: 1,
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
        drop(running.asks);
        assert!(returns(handle));
    }
}
