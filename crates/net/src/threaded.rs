//! Real multi-threaded in-process transport.
//!
//! Endpoints register an inbox; a *delay wheel* thread injects the same
//! WAN latencies as the simulated network (optionally scaled down so tests
//! run fast) while preserving per-link FIFO order. This substrate runs the
//! protocol state machines under genuine concurrency and is what the
//! integration tests use to catch races the deterministic simulator
//! cannot.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Mutex;

use paris_proto::wire::encoded_len;
use paris_proto::{Endpoint, Envelope};
use paris_types::{BatchConfig, DcId, WireFormat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batch::{Coalescer, CoalescerStats, Offer};
use crate::sim::RegionMatrix;

/// Configuration of the threaded transport.
#[derive(Debug, Clone)]
pub struct ThreadedNetConfig {
    /// Inter-DC latency matrix.
    pub matrix: RegionMatrix,
    /// Multiplier applied to every latency (e.g. `0.01` compresses a 70 ms
    /// RTT to 0.7 ms so tests finish quickly while preserving relative
    /// latency structure).
    pub scale: f64,
    /// Jitter fraction (±), applied before scaling.
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

impl ThreadedNetConfig {
    /// A fast-test configuration: `dcs` DCs on the AWS matrix compressed
    /// by 100×, no jitter, no batching.
    pub fn fast(dcs: u16) -> Self {
        ThreadedNetConfig {
            matrix: RegionMatrix::aws_10(dcs),
            scale: 0.01,
            jitter: 0.0,
            seed: 0,
            batch: BatchConfig::DISABLED,
            wire: WireFormat::default(),
        }
    }
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

#[derive(Debug, Default)]
struct NetCounters {
    messages: AtomicU64,
    bytes: AtomicU64,
    background_bytes: AtomicU64,
    /// Published by the wheel thread, which owns the coalescer.
    coalescer: Mutex<CoalescerStats>,
}

impl NetCounters {
    fn record(&self, env: &Envelope) {
        let frame = encoded_len(&env.msg) as u64;
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(frame, Ordering::Relaxed);
        if env.msg.is_background() {
            self.background_bytes.fetch_add(frame, Ordering::Relaxed);
        }
    }

    fn snapshot(&self) -> NetStats {
        NetStats {
            messages: self.messages.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            background_bytes: self.background_bytes.load(Ordering::Relaxed),
            coalescer: *self.coalescer.lock().expect("net counters poisoned"),
        }
    }
}

enum WheelCmd {
    Send {
        env: Envelope,
        sent_at: Instant,
    },
    /// Fault injection: reconfigure one inter-DC link. Shares the command
    /// channel with `Send`, so a partition is totally ordered against the
    /// traffic around it.
    SetLink {
        a: DcId,
        b: DcId,
        op: LinkOp,
    },
    Shutdown,
}

enum LinkOp {
    /// Cut the link; cross-DC traffic on it is held (TCP semantics), not
    /// dropped.
    Partition,
    /// Reconnect the link and schedule everything held, in FIFO order.
    Heal,
    /// Multiply the link's one-way latency by the factor (≤ 1.0 restores
    /// the nominal latency).
    Scale(f64),
}

/// The unordered map key of the `a`–`b` link.
fn link_key(a: DcId, b: DcId) -> (DcId, DcId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Every registered endpoint's inbox.
type Registry = HashMap<Endpoint, Sender<Envelope>>;

/// The in-process network router.
///
/// Create one [`Router`], [`Router::register`] every endpoint (each gets a
/// private [`Receiver`]), then hand cloned [`NetHandle`]s to the threads
/// that drive servers and clients. Dropping the router shuts the wheel
/// down after draining.
pub struct Router {
    registry: Arc<Mutex<Registry>>,
    wheel_tx: Sender<WheelCmd>,
    wheel: Option<JoinHandle<()>>,
    counters: Arc<NetCounters>,
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
        let _ = self.wheel_tx.send(WheelCmd::Send {
            env,
            sent_at: Instant::now(),
        });
    }
}

/// A cheap cloneable fault-injection handle: link partition, heal and
/// latency scaling, executed by the delay-wheel thread in arrival order
/// relative to the traffic around each command.
///
/// A partitioned link *holds* cross-DC traffic instead of dropping it
/// (the TCP model, matching the simulated network); healing releases the
/// held messages in FIFO order. Intra-DC traffic is never affected.
#[derive(Clone)]
pub struct LinkControl {
    wheel_tx: Sender<WheelCmd>,
}

impl LinkControl {
    /// Cuts the `a`–`b` link (both directions).
    pub fn partition_link(&self, a: DcId, b: DcId) {
        let _ = self.wheel_tx.send(WheelCmd::SetLink {
            a,
            b,
            op: LinkOp::Partition,
        });
    }

    /// Reconnects the `a`–`b` link, releasing held traffic.
    pub fn heal_link(&self, a: DcId, b: DcId) {
        let _ = self.wheel_tx.send(WheelCmd::SetLink {
            a,
            b,
            op: LinkOp::Heal,
        });
    }

    /// Multiplies the `a`–`b` link latency by `factor` (≥ 1.0); `1.0`
    /// restores the nominal latency.
    pub fn set_link_scale(&self, a: DcId, b: DcId, factor: f64) {
        let _ = self.wheel_tx.send(WheelCmd::SetLink {
            a,
            b,
            op: LinkOp::Scale(factor),
        });
    }

    /// Cuts every link between `dc` and the other `dcs` DCs.
    pub fn isolate_dc(&self, dc: DcId, dcs: u16) {
        for other in 0..dcs {
            if DcId(other) != dc {
                self.partition_link(dc, DcId(other));
            }
        }
    }

    /// Reconnects every link between `dc` and the other `dcs` DCs.
    pub fn rejoin_dc(&self, dc: DcId, dcs: u16) {
        for other in 0..dcs {
            if DcId(other) != dc {
                self.heal_link(dc, DcId(other));
            }
        }
    }
}

impl Router {
    /// Starts the router and its delay-wheel thread.
    pub fn start(config: ThreadedNetConfig) -> Self {
        let registry = Arc::new(Mutex::new(Registry::new()));
        let (wheel_tx, wheel_rx) = channel::<WheelCmd>();
        let wheel_registry = Arc::clone(&registry);
        let counters = Arc::new(NetCounters::default());
        let wheel_counters = Arc::clone(&counters);
        let wheel = std::thread::Builder::new()
            .name("paris-net-wheel".into())
            .spawn(move || wheel_loop(config, wheel_rx, wheel_registry, wheel_counters))
            .expect("spawn delay wheel");
        Router {
            registry,
            wheel_tx,
            wheel: Some(wheel),
            counters,
        }
    }

    /// Traffic scheduled onto the wire so far (post-coalescing).
    pub fn net_stats(&self) -> NetStats {
        self.counters.snapshot()
    }

    /// Registers an endpoint, returning the inbox it should drain.
    ///
    /// Re-registering an endpoint replaces its inbox (the old receiver
    /// starts reporting disconnection once the sender is dropped).
    pub fn register(&self, endpoint: impl Into<Endpoint>) -> Receiver<Envelope> {
        let (tx, rx) = channel();
        self.registry
            .lock()
            .expect("registry poisoned")
            .insert(endpoint.into(), tx);
        rx
    }

    /// Removes an endpoint; in-flight messages to it are dropped on
    /// delivery.
    pub fn deregister(&self, endpoint: impl Into<Endpoint>) {
        self.registry
            .lock()
            .expect("registry poisoned")
            .remove(&endpoint.into());
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

struct Pending {
    due: Instant,
    seq: u64,
    env: Envelope,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(other.due, other.seq))
    }
}

/// The latency-injection state of the wheel: everything needed to turn an
/// accepted envelope into a delayed, per-link-FIFO delivery.
struct WheelState {
    heap: BinaryHeap<Reverse<Pending>>,
    fifo: HashMap<(Endpoint, Endpoint), Instant>,
    rng: StdRng,
    seq: u64,
    counters: Arc<NetCounters>,
    /// Partitioned DC pairs (stored with a ≤ b).
    blocked: HashSet<(DcId, DcId)>,
    /// Traffic held on blocked links, per ordered (src DC, dst DC), FIFO.
    held: HashMap<(DcId, DcId), VecDeque<Envelope>>,
    /// Per-link latency multipliers (stored with a ≤ b); absent = nominal.
    link_scale: HashMap<(DcId, DcId), f64>,
}

impl WheelState {
    fn schedule(&mut self, config: &ThreadedNetConfig, env: Envelope, sent_at: Instant) {
        // Every envelope entering the wheel is one wire message leaving
        // the "NIC" — coalesced traffic was already folded upstream. Held
        // traffic counts as sent (it left the source; the link lost it),
        // matching the simulated network's accounting.
        self.counters.record(&env);
        let (sdc, ddc) = (env.src.dc(), env.dst.dc());
        if sdc != ddc && self.blocked.contains(&link_key(sdc, ddc)) {
            self.held.entry((sdc, ddc)).or_default().push_back(env);
            return;
        }
        self.schedule_now(config, env, sent_at);
    }

    /// Latency injection without the partition check — the release path
    /// for healed traffic, which must not be re-held or re-counted.
    fn schedule_now(&mut self, config: &ThreadedNetConfig, env: Envelope, sent_at: Instant) {
        let (sdc, ddc) = (env.src.dc(), env.dst.dc());
        let mut base = config.matrix.one_way(sdc, ddc) as f64;
        if sdc != ddc {
            if let Some(scale) = self.link_scale.get(&link_key(sdc, ddc)) {
                base *= scale;
            }
        }
        let jittered = if config.jitter > 0.0 {
            base * (1.0 + config.jitter * (self.rng.gen::<f64>() * 2.0 - 1.0))
        } else {
            base
        };
        let delay = Duration::from_micros((jittered * config.scale).max(0.0) as u64);
        let link = (env.src, env.dst);
        let natural = sent_at + delay;
        let due = match self.fifo.get(&link) {
            Some(prev) => natural.max(*prev + Duration::from_nanos(1)),
            None => natural,
        };
        self.fifo.insert(link, due);
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Pending { due, seq, env }));
    }

    fn set_link(&mut self, config: &ThreadedNetConfig, a: DcId, b: DcId, op: LinkOp) {
        let key = link_key(a, b);
        match op {
            LinkOp::Partition => {
                self.blocked.insert(key);
            }
            LinkOp::Heal => {
                self.blocked.remove(&key);
                let now = Instant::now();
                let mut release = Vec::new();
                if let Some(q) = self.held.remove(&(a, b)) {
                    release.extend(q);
                }
                if let Some(q) = self.held.remove(&(b, a)) {
                    release.extend(q);
                }
                for env in release {
                    self.schedule_now(config, env, now);
                }
            }
            LinkOp::Scale(factor) => {
                if factor > 1.0 {
                    self.link_scale.insert(key, factor);
                } else {
                    self.link_scale.remove(&key);
                }
            }
        }
    }

    /// Shutdown path: nothing may stay held past teardown — heal every
    /// link and schedule all held traffic for delivery.
    fn release_all(&mut self, config: &ThreadedNetConfig) {
        self.blocked.clear();
        let now = Instant::now();
        let mut links: Vec<(DcId, DcId)> = self.held.keys().copied().collect();
        links.sort_unstable();
        for link in links {
            if let Some(q) = self.held.remove(&link) {
                for env in q {
                    self.schedule_now(config, env, now);
                }
            }
        }
    }
}

/// Delivers one due envelope to its destination inbox; envelopes to
/// unregistered endpoints are dropped.
fn deliver(registry: &Arc<Mutex<Registry>>, env: Envelope) {
    let inbox = registry
        .lock()
        .expect("registry poisoned")
        .get(&env.dst)
        .cloned();
    if let Some(tx) = inbox {
        let _ = tx.send(env);
    }
}

fn wheel_loop(
    config: ThreadedNetConfig,
    rx: Receiver<WheelCmd>,
    registry: Arc<Mutex<Registry>>,
    counters: Arc<NetCounters>,
) {
    let mut wheel = WheelState {
        heap: BinaryHeap::new(),
        fifo: HashMap::new(),
        rng: StdRng::seed_from_u64(config.seed),
        seq: 0,
        counters,
        blocked: HashSet::new(),
        held: HashMap::new(),
        link_scale: HashMap::new(),
    };
    // The coalescer runs on a wall-clock microsecond timebase anchored at
    // wheel start; envelopes it holds back get their link latency applied
    // from flush time (the batch leaves the "NIC" when it flushes).
    let epoch = Instant::now();
    let mut coalescer = Coalescer::new(config.batch, config.wire);
    let mut shutting_down = false;

    loop {
        // Flush coalescing deadlines that have passed.
        let now_micros = epoch.elapsed().as_micros() as u64;
        for env in coalescer.poll(now_micros) {
            wheel.schedule(&config, env, Instant::now());
        }
        *wheel
            .counters
            .coalescer
            .lock()
            .expect("net counters poisoned") = coalescer.stats();
        // Deliver everything due.
        let now = Instant::now();
        while wheel.heap.peek().is_some_and(|Reverse(p)| p.due <= now) {
            let Reverse(p) = wheel.heap.pop().expect("peeked");
            deliver(&registry, p.env);
        }
        if shutting_down && wheel.heap.is_empty() && coalescer.pending_links() == 0 {
            return;
        }
        // Wait for the next delivery, the next flush deadline, or a new
        // command — whichever comes first.
        let heap_wait = wheel
            .heap
            .peek()
            .map(|Reverse(p)| p.due.saturating_duration_since(Instant::now()));
        let flush_wait = coalescer.next_due().map(|due| {
            Duration::from_micros(due.saturating_sub(epoch.elapsed().as_micros() as u64))
        });
        let timeout = [heap_wait, flush_wait]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(Duration::from_millis(50));
        match rx.recv_timeout(timeout) {
            Ok(WheelCmd::Send { env, sent_at }) if shutting_down => {
                // Past shutdown, nothing may be parked again — a queued
                // frame would hold the wheel (and `Router::drop`) hostage
                // for up to a flush interval.
                wheel.schedule(&config, env, sent_at);
            }
            Ok(WheelCmd::Send { env, sent_at }) => {
                let now_micros = epoch.elapsed().as_micros() as u64;
                match coalescer.offer(env, now_micros) {
                    Offer::Pass(env) => wheel.schedule(&config, env, sent_at),
                    Offer::Flush(envs) => {
                        for env in envs {
                            wheel.schedule(&config, env, sent_at);
                        }
                    }
                    Offer::Queued { .. } => {}
                }
            }
            Ok(WheelCmd::SetLink { a, b, op }) => {
                // Past shutdown a fresh partition would strand traffic in
                // the held queues and hang `Router::drop`; heals and scale
                // changes stay harmless.
                if !(shutting_down && matches!(op, LinkOp::Partition)) {
                    wheel.set_link(&config, a, b, op);
                }
            }
            Ok(WheelCmd::Shutdown) => {
                shutting_down = true;
                // Nothing may stay parked or held past teardown.
                for env in coalescer.flush_all() {
                    wheel.schedule(&config, env, Instant::now());
                }
                wheel.release_all(&config);
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => {
                shutting_down = true;
                for env in coalescer.flush_all() {
                    wheel.schedule(&config, env, Instant::now());
                }
                wheel.release_all(&config);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_proto::Msg;
    use paris_types::{ClientId, DcId, PartitionId, ServerId, Timestamp};

    fn hb(n: u32) -> Msg {
        Msg::Heartbeat {
            partition: PartitionId(n),
            watermark: Timestamp::ZERO,
        }
    }

    #[test]
    fn delivers_to_registered_inbox() {
        let router = Router::start(ThreadedNetConfig::fast(2));
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
            ..ThreadedNetConfig::fast(2)
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
        let router = Router::start(ThreadedNetConfig::fast(2));
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
    fn deregister_stops_delivery() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(1));
        let rx = router.register(b);
        router.deregister(b);
        router.handle().send(Envelope::new(a, b, hb(1)));
        assert!(rx.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn counters_report_scheduled_traffic_in_the_configured_encoding() {
        let router = Router::start(ThreadedNetConfig::fast(2));
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
            ..ThreadedNetConfig::fast(2)
        });
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let rx = router.register(b);
        let h = router.handle();
        for i in 1..=4u64 {
            h.send(Envelope::new(
                a,
                b,
                Msg::Heartbeat {
                    partition: PartitionId(0),
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
            ..ThreadedNetConfig::fast(2)
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
                ..ThreadedNetConfig::fast(2)
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
            reply_to: ServerId::new(DcId(0), PartitionId(0)),
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
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(b);
        let h = router.handle();
        h.send(Envelope::new(a, b, read_req(1)));
        h.send(Envelope::new(a, b, commit_tx(1, a)));
        h.send(Envelope::new(
            a,
            b,
            Msg::UstBroadcast {
                ust: Timestamp::ZERO,
                s_old: Timestamp::ZERO,
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
            Msg::UstBroadcast { .. }
        ));
    }

    #[test]
    fn partitioned_link_holds_and_heal_releases_in_order() {
        let router = Router::start(ThreadedNetConfig::fast(3));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(1));
        let c = ServerId::new(DcId(2), PartitionId(2));
        let rx_b = router.register(b);
        let rx_c = router.register(c);
        let ctl = router.link_control();
        ctl.partition_link(DcId(0), DcId(1));
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
        ctl.heal_link(DcId(1), DcId(0)); // unordered: either orientation heals
        for i in 0..5 {
            let got = rx_b.recv_timeout(Duration::from_secs(2)).expect("released");
            assert_eq!(got.msg, hb(i), "held traffic must release in order");
        }
    }

    #[test]
    fn isolate_dc_cuts_every_link_and_rejoin_restores() {
        let router = Router::start(ThreadedNetConfig::fast(3));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(1));
        let rx = router.register(b);
        let ctl = router.link_control();
        ctl.isolate_dc(DcId(1), 3);
        router.handle().send(Envelope::new(a, b, hb(1)));
        assert!(rx.recv_timeout(Duration::from_millis(150)).is_err());
        ctl.rejoin_dc(DcId(1), 3);
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
        ctl.set_link_scale(DcId(0), DcId(1), 25.0); // → 50 ms
        let start = Instant::now();
        router.handle().send(Envelope::new(a, b, hb(1)));
        rx.recv_timeout(Duration::from_secs(2)).expect("delivered");
        assert!(
            start.elapsed() >= Duration::from_millis(40),
            "slowdown factor must apply"
        );
        ctl.set_link_scale(DcId(0), DcId(1), 1.0);
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
            let router = Router::start(ThreadedNetConfig::fast(2));
            let a = ServerId::new(DcId(0), PartitionId(0));
            let b = ServerId::new(DcId(1), PartitionId(1));
            rx = router.register(b);
            router.link_control().partition_link(DcId(0), DcId(1));
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
            let router = Router::start(ThreadedNetConfig::fast(2));
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
