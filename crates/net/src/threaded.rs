//! Real multi-threaded in-process transport.
//!
//! Endpoints register an inbox; a *delay wheel* thread delivers every
//! envelope after the link latency, under genuine concurrency. The wheel
//! is a driver of [`SimNetwork`], the same link model the simulator runs:
//! per-link FIFO, jitter, partitions that hold traffic and heals that
//! release it in order, slow links, and the message and byte counters.
//! Its time is nanoseconds since the router started, over the matrix
//! scaled by [`ThreadedNetConfig::scale`], so the faults of a
//! [`FaultKind`] mean the same on this substrate as in the simulator by
//! construction. This substrate is what the integration tests use to
//! catch races the deterministic simulator cannot.
//!
//! The wheel thread owns all of its state — the network, the delivery
//! queue, the coalescer and the inbox registry. Everything reaches it as a
//! command on one channel, so registrations, faults and traffic are
//! totally ordered; its counters are published once per loop pass.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use paris_proto::{Endpoint, Envelope};
use paris_types::{BatchConfig, DcId, FaultKind, WireFormat};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::batch::{Coalescer, CoalescerStats, Offer};
use crate::sim::{EventQueue, RegionMatrix, SimNetwork};

/// Configuration of the threaded transport.
#[derive(Debug, Clone)]
pub struct ThreadedNetConfig {
    /// Inter-DC latency matrix.
    pub matrix: RegionMatrix,
    /// Multiplier applied to every latency (e.g. `0.01` compresses a 70 ms
    /// RTT to 0.7 ms so tests finish quickly while preserving relative
    /// latency structure). The wheel runs on
    /// `matrix.scaled(scale × 1000)`: nanoseconds, truncated once.
    pub scale: f64,
    /// Jitter fraction (±) of [`SimNetwork`], applied to the scaled delay
    /// on the wheel's nanosecond timebase.
    pub jitter: f64,
    /// RNG seed for jitter.
    pub seed: u64,
    /// Background-traffic coalescing, applied by the delay wheel before
    /// latency injection. Flush deadlines are wall-clock and *not* scaled
    /// by [`ThreadedNetConfig::scale`].
    pub batch: BatchConfig,
    /// Wire encoding of the router's byte accounting (the in-process
    /// wheel never serializes, but reports what the traffic would cost).
    pub wire: WireFormat,
}

/// Snapshot of the router's traffic counters: everything scheduled onto
/// the (simulated) wire after coalescing, sized in the configured
/// [`ThreadedNetConfig::wire`] encoding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Wire messages scheduled.
    pub messages: u64,
    /// Encoded message bytes scheduled.
    pub bytes: u64,
    /// The subset of `bytes` carried by background traffic
    /// (replication, heartbeats, stabilization gossip).
    pub background_bytes: u64,
    /// Running totals of the router's coalescer, its flush-trigger mix
    /// included.
    pub coalescer: CoalescerStats,
}

enum WheelCmd {
    /// A wire message and the sender's instant, which its delay runs from.
    Send(Envelope, Instant),
    /// Fault injection, executed by [`SimNetwork::apply`]. Shares the
    /// channel with `Send`, so a fault is totally ordered against the
    /// traffic around it.
    Fault(FaultKind),
    Register(Endpoint, Sender<Envelope>),
    Shutdown,
}

/// The in-process network router.
///
/// Create one [`Router`], [`Router::register`] every endpoint (each gets a
/// private [`Receiver`]), then hand cloned [`NetHandle`]s to the threads
/// that drive servers and clients. Dropping the router shuts the wheel
/// down after draining.
pub struct Router {
    wheel_tx: Sender<WheelCmd>,
    wheel: Option<JoinHandle<()>>,
    /// Published by the wheel thread once per loop pass.
    stats: Arc<Mutex<NetStats>>,
}

/// A cheap cloneable sender into the network.
#[derive(Clone)]
pub struct NetHandle {
    wheel_tx: Sender<WheelCmd>,
}

impl NetHandle {
    /// Sends an envelope; it will be delivered to the destination inbox
    /// after the configured link latency. Messages to unregistered
    /// endpoints are dropped (the destination may have shut down).
    pub fn send(&self, env: Envelope) {
        // Ignore errors: the wheel is gone only during teardown.
        let _ = self.wheel_tx.send(WheelCmd::Send(env, Instant::now()));
    }
}

/// A cheap cloneable fault-injection handle, executed by the delay-wheel
/// thread in arrival order relative to the traffic around each command.
///
/// The faults mean what [`SimNetwork::apply`] makes them mean: a cut link
/// *holds* cross-DC traffic instead of dropping it (the TCP model) and
/// healing releases it in FIFO order; intra-DC traffic is never affected.
#[derive(Clone)]
pub struct LinkControl {
    wheel_tx: Sender<WheelCmd>,
}

impl LinkControl {
    /// Applies one scripted fault's link operation; kinds that are not
    /// about links (clock skew) are no-ops.
    pub fn apply(&self, kind: FaultKind) {
        let _ = self.wheel_tx.send(WheelCmd::Fault(kind));
    }
}

impl Router {
    /// Starts the router and its delay-wheel thread.
    pub fn start(config: ThreadedNetConfig) -> Self {
        let (wheel_tx, wheel_rx) = channel::<WheelCmd>();
        let stats = Arc::new(Mutex::new(NetStats::default()));
        let wheel = Wheel {
            net: SimNetwork::new(config.matrix.scaled(config.scale * 1_000.0), config.jitter),
            queue: EventQueue::new(),
            rng: StdRng::seed_from_u64(config.seed),
            // Before the spawn, so every `sent_at` falls after it.
            epoch: Instant::now(),
            inboxes: HashMap::new(),
            coalescer: Coalescer::new(config.batch, config.wire),
        };
        let published = Arc::clone(&stats);
        let wheel = std::thread::Builder::new()
            .name("paris-net-wheel".into())
            .spawn(move || wheel.run(wheel_rx, &published))
            .expect("spawn delay wheel");
        Router {
            wheel_tx,
            wheel: Some(wheel),
            stats,
        }
    }

    /// Traffic scheduled onto the wire so far (post-coalescing).
    pub fn net_stats(&self) -> NetStats {
        // A plain `Copy` value: a panicking writer cannot leave it torn.
        *self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers an endpoint, returning the inbox it should drain.
    ///
    /// Re-registering an endpoint replaces its inbox (the old receiver
    /// starts reporting disconnection once the sender is dropped). The
    /// registration is queued ahead of any send issued after it returns.
    pub fn register(&self, endpoint: impl Into<Endpoint>) -> Receiver<Envelope> {
        let (tx, rx) = channel();
        let _ = self.wheel_tx.send(WheelCmd::Register(endpoint.into(), tx));
        rx
    }

    /// A sender handle for use by server/client threads.
    pub fn handle(&self) -> NetHandle {
        NetHandle {
            wheel_tx: self.wheel_tx.clone(),
        }
    }

    /// A fault-injection handle (see [`LinkControl`]).
    pub fn link_control(&self) -> LinkControl {
        LinkControl {
            wheel_tx: self.wheel_tx.clone(),
        }
    }
}

impl Drop for Router {
    fn drop(&mut self) {
        let _ = self.wheel_tx.send(WheelCmd::Shutdown);
        if let Some(h) = self.wheel.take() {
            let _ = h.join();
        }
    }
}

/// The delay wheel: a [`SimNetwork`] driven in wall-clock nanoseconds, the
/// queue of its scheduled deliveries, the coalescer in front of it and
/// the inboxes behind it.
struct Wheel {
    net: SimNetwork,
    queue: EventQueue<Envelope>,
    rng: StdRng,
    epoch: Instant,
    inboxes: HashMap<Endpoint, Sender<Envelope>>,
    /// Runs on microseconds since `epoch`; envelopes it holds back get
    /// their link latency from flush time (the batch leaves the "NIC" when
    /// it flushes).
    coalescer: Coalescer,
}

impl Wheel {
    /// Nanoseconds since the router started.
    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Hands one wire message to the network; the wait in the command
    /// channel adds no latency, since the delay runs from `sent_at`.
    fn send(&mut self, env: Envelope, sent_at: Instant) {
        let now = self.nanos(sent_at);
        if let Some(at) = self.net.send(now, &env, &mut self.rng) {
            self.queue.push(at, env);
        }
    }

    fn apply(&mut self, kind: FaultKind) {
        let now = self.nanos(Instant::now());
        for (at, env) in self.net.apply(now, kind, &mut self.rng) {
            self.queue.push(at, env);
        }
    }

    /// Shutdown path: nothing may stay parked or held past teardown.
    fn release_all(&mut self) {
        let now = Instant::now();
        for env in self.coalescer.flush_all() {
            self.send(env, now);
        }
        for dc in 0..self.net.matrix().dcs() {
            self.apply(FaultKind::RejoinDc(DcId(dc)));
        }
    }

    fn run(mut self, rx: Receiver<WheelCmd>, stats: &Mutex<NetStats>) {
        let mut shutting_down = false;
        loop {
            // Flush coalescing deadlines that have passed.
            let now = Instant::now();
            for env in self.coalescer.poll(self.nanos(now) / 1_000) {
                self.send(env, now);
            }
            // Counts go out before the messages they count.
            *stats.lock().unwrap_or_else(PoisonError::into_inner) = NetStats {
                messages: self.net.messages_sent(),
                bytes: self.net.bytes_sent(),
                background_bytes: self.net.background_bytes_sent(),
                coalescer: self.coalescer.stats(),
            };
            // Deliver everything due; unregistered destinations drop.
            let now = self.nanos(Instant::now());
            while self.queue.peek_time().is_some_and(|due| due <= now) {
                let env = self.queue.pop().expect("peeked").event;
                if let Some(inbox) = self.inboxes.get(&env.dst) {
                    let _ = inbox.send(env);
                }
            }
            if shutting_down && self.queue.is_empty() && self.coalescer.pending_links() == 0 {
                return;
            }
            // Wait for the next delivery, the next flush deadline, or a new
            // command — whichever comes first.
            let flush_due = self.coalescer.next_due().map(|due| due * 1_000);
            let timeout = [self.queue.peek_time(), flush_due]
                .into_iter()
                .flatten()
                .min()
                .map_or(Duration::from_millis(50), |due| {
                    Duration::from_nanos(due.saturating_sub(self.nanos(Instant::now())))
                });
            match rx.recv_timeout(timeout) {
                Ok(WheelCmd::Send(env, sent_at)) if shutting_down => {
                    // Past shutdown, nothing may be parked again — a queued
                    // frame would hold the wheel (and `Router::drop`)
                    // hostage for up to a flush interval.
                    self.send(env, sent_at);
                }
                Ok(WheelCmd::Send(env, sent_at)) => {
                    match self
                        .coalescer
                        .offer(env, self.nanos(Instant::now()) / 1_000)
                    {
                        Offer::Pass(env) => self.send(env, sent_at),
                        Offer::Flush(envs) => {
                            for env in envs {
                                self.send(env, sent_at);
                            }
                        }
                        Offer::Queued { .. } => {}
                    }
                }
                Ok(WheelCmd::Fault(kind)) => {
                    self.apply(kind);
                    // Past shutdown a fresh cut would strand traffic in the
                    // held queues and hang `Router::drop`: undo it at once.
                    if shutting_down {
                        self.release_all();
                    }
                }
                Ok(WheelCmd::Register(endpoint, inbox)) => {
                    self.inboxes.insert(endpoint, inbox);
                }
                Ok(WheelCmd::Shutdown) | Err(RecvTimeoutError::Disconnected) => {
                    shutting_down = true;
                    self.release_all();
                }
                Err(RecvTimeoutError::Timeout) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_proto::wire::encoded_len;
    use paris_proto::Msg;
    use paris_types::{ClientId, DcId, PartitionId, ServerId, Timestamp};

    /// `dcs` DCs on the AWS matrix compressed by 100×, no jitter, no
    /// batching.
    fn fast(dcs: u16) -> ThreadedNetConfig {
        ThreadedNetConfig {
            matrix: RegionMatrix::aws_10(dcs),
            scale: 0.01,
            jitter: 0.0,
            seed: 0,
            batch: BatchConfig::DISABLED,
            wire: WireFormat::default(),
        }
    }

    /// A heartbeat: a replication push with no transactions.
    fn hb(n: u32) -> Msg {
        Msg::Replicate {
            partition: PartitionId(n),
            txs: vec![],
            watermark: Timestamp::ZERO,
        }
    }

    #[test]
    fn delivers_to_registered_inbox() {
        let router = Router::start(fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(1));
        let rx = router.register(b);
        router.handle().send(Envelope::new(a, b, hb(1)));
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        assert_eq!(got.msg, hb(1));
    }

    #[test]
    fn preserves_fifo_per_link() {
        let router = Router::start(ThreadedNetConfig {
            jitter: 0.5, // try hard to reorder
            ..fast(2)
        });
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(1));
        let rx = router.register(b);
        let h = router.handle();
        for i in 0..100 {
            h.send(Envelope::new(a, b, hb(i)));
        }
        for i in 0..100 {
            let got = rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
            assert_eq!(got.msg, hb(i), "message {i} out of order");
        }
    }

    #[test]
    fn unregistered_destination_drops_silently() {
        let router = Router::start(fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let ghost = ServerId::new(DcId(1), PartitionId(9));
        // No panic, no deadlock.
        router.handle().send(Envelope::new(a, ghost, hb(0)));
        std::thread::sleep(Duration::from_millis(20));
    }

    #[test]
    fn latency_scale_compresses_wan_delay() {
        let router = Router::start(ThreadedNetConfig {
            matrix: RegionMatrix::uniform(2, 30_000), // 30 ms one-way
            scale: 0.01,                              // → 300 µs
            jitter: 0.0,
            seed: 0,
            batch: BatchConfig::DISABLED,
            wire: WireFormat::default(),
        });
        let a = ClientId::new(DcId(0), 0);
        let b = ServerId::new(DcId(1), PartitionId(0));
        let rx = router.register(b);
        let start = Instant::now();
        router.handle().send(Envelope::new(
            a,
            b,
            Msg::StartTxReq {
                client_ust: Timestamp::ZERO,
            },
        ));
        rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_micros(250), "latency applied");
        assert!(elapsed < Duration::from_millis(200), "latency scaled down");
    }

    #[test]
    fn counters_report_scheduled_traffic_in_the_configured_encoding() {
        let router = Router::start(fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(1));
        let rx = router.register(b);
        let background = Envelope::new(a, b, hb(1));
        let foreground = Envelope::new(
            ClientId::new(DcId(0), 0),
            b,
            Msg::StartTxReq {
                client_ust: Timestamp::ZERO,
            },
        );
        let expect_bg = encoded_len(&background.msg) as u64;
        let expect_total = expect_bg + encoded_len(&foreground.msg) as u64;
        router.handle().send(background);
        router.handle().send(foreground);
        for _ in 0..2 {
            rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        }
        let stats = router.net_stats();
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.bytes, expect_total);
        assert_eq!(
            stats.background_bytes, expect_bg,
            "only the heartbeat is background"
        );
    }

    #[test]
    fn batching_coalesces_heartbeats_into_one_frame() {
        let router = Router::start(ThreadedNetConfig {
            batch: BatchConfig::stable_time(4, u64::MAX, 2_000_000), // force the size trigger
            ..fast(2)
        });
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let rx = router.register(b);
        let h = router.handle();
        for i in 1..=4u64 {
            h.send(Envelope::new(
                a,
                b,
                Msg::Replicate {
                    partition: PartitionId(0),
                    txs: vec![],
                    watermark: Timestamp::from_physical_micros(i * 10),
                },
            ));
        }
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        match got.msg {
            Msg::ReplicateBatch {
                frames, watermark, ..
            } => {
                assert_eq!(frames, 4);
                assert_eq!(watermark, Timestamp::from_physical_micros(40));
            }
            other => panic!("expected a coalesced batch, got {}", other.kind()),
        }
        // Exactly one wire message came out.
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn batching_flushes_on_deadline() {
        let router = Router::start(ThreadedNetConfig {
            batch: BatchConfig::stable_time(1_000, u64::MAX, 20_000), // only the deadline
            ..fast(2)
        });
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let rx = router.register(b);
        router.handle().send(Envelope::new(a, b, hb(0)));
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        assert!(matches!(got.msg, Msg::ReplicateBatch { frames: 1, .. }));
    }

    #[test]
    fn shutdown_flushes_parked_frames() {
        let rx;
        {
            let router = Router::start(ThreadedNetConfig {
                batch: BatchConfig::stable_time(1_000, u64::MAX, 60_000_000), // would park for a minute
                ..fast(2)
            });
            let a = ServerId::new(DcId(0), PartitionId(0));
            let b = ServerId::new(DcId(1), PartitionId(1));
            rx = router.register(b);
            router.handle().send(Envelope::new(a, b, hb(1)));
            // Router dropped: the parked frame must still arrive.
        }
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("flushed");
        assert!(matches!(got.msg, Msg::ReplicateBatch { .. }));
    }

    fn read_req(tx_seq: u64) -> Msg {
        Msg::ReadSliceReq {
            tx: paris_types::TxId::new(ServerId::new(DcId(0), PartitionId(0)), tx_seq),
            snapshot: Timestamp::ZERO,
            keys: vec![paris_types::Key(1).into()],
        }
    }

    fn commit_tx(tx_seq: u64, coordinator: ServerId) -> Msg {
        Msg::CommitTx {
            tx: paris_types::TxId::new(coordinator, tx_seq),
            ct: Timestamp::from_physical_micros(10),
        }
    }

    #[test]
    fn slice_reads_commits_and_stabilisation_share_the_inbox() {
        let router = Router::start(fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(b);
        let h = router.handle();
        h.send(Envelope::new(a, b, read_req(1)));
        h.send(Envelope::new(a, b, commit_tx(1, a)));
        h.send(Envelope::new(
            a,
            b,
            Msg::GossipDigest {
                reports: vec![],
                roots: vec![],
                ust: Some((Timestamp::ZERO, Timestamp::ZERO)),
                frames: 1,
            },
        ));
        // One server loop drains everything, in link order.
        assert!(matches!(
            inbox.recv_timeout(Duration::from_secs(2)).unwrap().msg,
            Msg::ReadSliceReq { .. }
        ));
        assert!(matches!(
            inbox.recv_timeout(Duration::from_secs(2)).unwrap().msg,
            Msg::CommitTx { .. }
        ));
        assert!(matches!(
            inbox.recv_timeout(Duration::from_secs(2)).unwrap().msg,
            Msg::GossipDigest { .. }
        ));
    }

    #[test]
    fn partitioned_link_holds_and_heal_releases_in_order() {
        let router = Router::start(fast(3));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(1));
        let c = ServerId::new(DcId(2), PartitionId(2));
        let rx_b = router.register(b);
        let rx_c = router.register(c);
        let ctl = router.link_control();
        ctl.apply(FaultKind::PartitionLink(DcId(0), DcId(1)));
        let h = router.handle();
        for i in 0..5 {
            h.send(Envelope::new(a, b, hb(i)));
        }
        // The unrelated 0–2 link is unaffected.
        h.send(Envelope::new(a, c, hb(99)));
        assert_eq!(
            rx_c.recv_timeout(Duration::from_secs(2)).expect("0-2").msg,
            hb(99)
        );
        assert!(
            rx_b.recv_timeout(Duration::from_millis(150)).is_err(),
            "partitioned link must hold traffic"
        );
        ctl.apply(FaultKind::HealLink(DcId(1), DcId(0))); // unordered: either orientation heals
        for i in 0..5 {
            let got = rx_b.recv_timeout(Duration::from_secs(2)).expect("released");
            assert_eq!(got.msg, hb(i), "held traffic must release in order");
        }
    }

    #[test]
    fn isolate_dc_cuts_every_link_and_rejoin_restores() {
        let router = Router::start(fast(3));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(1));
        let rx = router.register(b);
        let ctl = router.link_control();
        ctl.apply(FaultKind::CrashDc(DcId(1)));
        router.handle().send(Envelope::new(a, b, hb(1)));
        assert!(rx.recv_timeout(Duration::from_millis(150)).is_err());
        ctl.apply(FaultKind::RejoinDc(DcId(1)));
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("rejoined");
        assert_eq!(got.msg, hb(1));
    }

    #[test]
    fn slow_link_stretches_delivery_and_restore_undoes_it() {
        let router = Router::start(ThreadedNetConfig {
            matrix: RegionMatrix::uniform(2, 2_000), // 2 ms one-way
            scale: 1.0,
            jitter: 0.0,
            seed: 0,
            batch: BatchConfig::DISABLED,
            wire: WireFormat::default(),
        });
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(1));
        let rx = router.register(b);
        let ctl = router.link_control();
        ctl.apply(FaultKind::SlowLink {
            a: DcId(0),
            b: DcId(1),
            factor: 25.0,
        }); // → 50 ms
        let start = Instant::now();
        router.handle().send(Envelope::new(a, b, hb(1)));
        rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        assert!(
            start.elapsed() >= Duration::from_millis(40),
            "slowdown factor must apply"
        );
        ctl.apply(FaultKind::RestoreLink(DcId(0), DcId(1)));
        let start = Instant::now();
        router.handle().send(Envelope::new(a, b, hb(2)));
        rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        assert!(
            start.elapsed() < Duration::from_millis(40),
            "restore must return to nominal latency"
        );
    }

    #[test]
    fn dropping_a_router_with_held_traffic_releases_it() {
        let rx;
        {
            let router = Router::start(fast(2));
            let a = ServerId::new(DcId(0), PartitionId(0));
            let b = ServerId::new(DcId(1), PartitionId(1));
            rx = router.register(b);
            router
                .link_control()
                .apply(FaultKind::PartitionLink(DcId(0), DcId(1)));
            router.handle().send(Envelope::new(a, b, hb(7)));
            // Router dropped with the link still cut: the held message
            // must not hang the wheel thread, and still arrives.
        }
        let got = rx.recv_timeout(Duration::from_secs(2)).expect("released");
        assert_eq!(got.msg, hb(7));
    }

    #[test]
    fn shutdown_drains_cleanly() {
        let rx;
        {
            let router = Router::start(fast(2));
            let a = ServerId::new(DcId(0), PartitionId(0));
            let b = ServerId::new(DcId(1), PartitionId(1));
            rx = router.register(b);
            for i in 0..10 {
                router.handle().send(Envelope::new(a, b, hb(i)));
            }
            // Router dropped here: wheel must drain pending messages first.
        }
        let mut got = 0;
        while rx.recv_timeout(Duration::from_secs(2)).is_ok() {
            got += 1;
            if got == 10 {
                break;
            }
        }
        assert_eq!(got, 10);
    }
}
