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
use paris_proto::{Endpoint, Envelope, Msg};
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

struct Registry {
    inboxes: HashMap<Endpoint, Sender<Envelope>>,
    read_tap: Option<ReadTap>,
    write_tap: Option<WriteTap>,
    /// Bumped on every [`Router::set_read_tap`] /
    /// [`Router::set_write_tap`], so a pruning delivery that raced a tap
    /// replacement never removes a healthy lane of the new tap.
    tap_epoch: u64,
}

/// Round-robin fan-out of server-bound read-path deliveries
/// (`ReadSliceReq` and `StartTxReq`) into read-pool lanes (see
/// [`Router::set_read_tap`]).
struct ReadTap {
    lanes: Vec<Sender<Envelope>>,
    next: usize,
    epoch: u64,
}

/// Source-keyed fan-out of server-bound write-path deliveries into
/// write-pool lanes (see [`Router::set_write_tap`]). Unlike the read
/// tap there is no round-robin cursor: the lane is a pure function of
/// the envelope's source, so all traffic of one source stays FIFO on
/// one lane — the ordering the commit and replication handlers rely on.
struct WriteTap {
    lanes: Vec<Sender<Envelope>>,
    epoch: u64,
}

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
        let registry = Arc::new(Mutex::new(Registry {
            inboxes: HashMap::new(),
            read_tap: None,
            write_tap: None,
            tap_epoch: 0,
        }));
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
            .inboxes
            .insert(endpoint.into(), tx);
        rx
    }

    /// Removes an endpoint; in-flight messages to it are dropped on
    /// delivery.
    pub fn deregister(&self, endpoint: impl Into<Endpoint>) {
        self.registry
            .lock()
            .expect("registry poisoned")
            .inboxes
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

    /// Installs the read tap: from now on, read-path envelopes bound for
    /// *server* endpoints — `ReadSliceReq` slice reads and `StartTxReq`
    /// snapshot assignments, both served against shared lock-free state
    /// — are delivered round-robin into `lanes` (after their normal
    /// link latency) instead of the destination inbox; the runtime's
    /// read-thread pool drains the lanes and serves them off the server
    /// loop. All other traffic is unaffected. A lane that has shut down is
    /// pruned from the tap on first failed delivery (the tap uninstalls
    /// itself when the last lane goes), and the envelope is retried on the
    /// surviving lanes, falling back to the server inbox — so no request
    /// is ever lost and dead lanes are not paid for again. Passing an
    /// empty vector uninstalls the tap.
    pub fn set_read_tap(&self, lanes: Vec<Sender<Envelope>>) {
        let mut reg = self.registry.lock().expect("registry poisoned");
        reg.tap_epoch += 1;
        let epoch = reg.tap_epoch;
        reg.read_tap = if lanes.is_empty() {
            None
        } else {
            Some(ReadTap {
                lanes,
                next: 0,
                epoch,
            })
        };
    }

    /// Installs the write tap: from now on, write-path envelopes bound
    /// for *server* endpoints — `PrepareReq`, `CommitTx`, `Replicate`,
    /// `ReplicateBatch` and `Heartbeat` — are delivered (after their
    /// normal link latency) into `lanes[source.route_key() % lanes]`
    /// instead of the destination inbox; the runtime's write-thread pool
    /// drains the lanes and runs the store-touching half of each off the
    /// server loop. Routing is **source-keyed**, never round-robin: a
    /// `CommitTx` must trail its `PrepareReq` and a watermark its
    /// applies, and per-src FIFO on one lane preserves exactly that.
    /// (Stabilisation frames are never tapped: their arrival must reach
    /// `Server::handle`, which forwards the aggregate it moved.) Dead
    /// lanes are pruned like the read tap's — the envelope re-routes by
    /// the shrunken lane set, and when the last lane dies the tap
    /// uninstalls and traffic falls back to the server inboxes. Passing
    /// an empty vector uninstalls the tap.
    pub fn set_write_tap(&self, lanes: Vec<Sender<Envelope>>) {
        let mut reg = self.registry.lock().expect("registry poisoned");
        reg.tap_epoch += 1;
        let epoch = reg.tap_epoch;
        reg.write_tap = if lanes.is_empty() {
            None
        } else {
            Some(WriteTap { lanes, epoch })
        };
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
        if env.src == env.dst {
            // A server's message to itself (the coordinator's own slice,
            // prepare and commit) never touches a wire: due at once — so
            // it still goes through `deliver`, taps and per-link FIFO
            // included — and not counted, exactly as the socket node
            // handles local delivery.
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse(Pending {
                due: sent_at,
                seq,
                env,
            }));
            return;
        }
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

/// Delivers one due envelope: read-tapped traffic (server-bound
/// `ReadSliceReq`/`StartTxReq`) goes to a pool lane (round-robin),
/// write-tapped traffic to its source's lane, the rest to the destination
/// inbox. On the tapped happy path only the lane sender is cloned under
/// the registry lock — the inbox is looked up only when delivery actually
/// falls back. A lane whose receiver is gone is
/// pruned from the tap (uninstalling the tap when the last lane dies) so
/// later deliveries never pay for it again.
fn deliver(registry: &Arc<Mutex<Registry>>, mut env: Envelope) {
    let server_bound = matches!(env.dst, Endpoint::Server(_));
    let is_tapped_read =
        matches!(env.msg, Msg::ReadSliceReq { .. } | Msg::StartTxReq { .. }) && server_bound;
    let is_tapped_write = matches!(
        env.msg,
        Msg::PrepareReq { .. }
            | Msg::CommitTx { .. }
            | Msg::Replicate { .. }
            | Msg::ReplicateBatch { .. }
            | Msg::Heartbeat { .. }
    ) && server_bound;
    if is_tapped_write {
        loop {
            let picked = {
                let mut reg = registry.lock().expect("registry poisoned");
                reg.write_tap.as_mut().map(|tap| {
                    // Source-keyed, not round-robin: one source, one lane,
                    // FIFO (see `set_write_tap`).
                    let idx = (env.src.route_key() as usize) % tap.lanes.len();
                    (tap.epoch, idx, tap.lanes[idx].clone())
                })
            };
            let Some((epoch, idx, lane)) = picked else {
                break; // no tap (or it just uninstalled): inbox fallback
            };
            match lane.send(env) {
                Ok(()) => return,
                Err(std::sync::mpsc::SendError(returned)) => {
                    env = returned;
                    let mut reg = registry.lock().expect("registry poisoned");
                    if let Some(tap) = reg.write_tap.as_mut() {
                        if tap.epoch == epoch {
                            tap.lanes.remove(idx);
                            if tap.lanes.is_empty() {
                                reg.write_tap = None;
                            }
                        }
                    }
                }
            }
        }
    }
    if is_tapped_read {
        loop {
            let picked = {
                let mut reg = registry.lock().expect("registry poisoned");
                reg.read_tap.as_mut().map(|tap| {
                    let idx = tap.next % tap.lanes.len();
                    tap.next = tap.next.wrapping_add(1);
                    (tap.epoch, idx, tap.lanes[idx].clone())
                })
            };
            let Some((epoch, idx, lane)) = picked else {
                break; // no tap (or it just uninstalled): inbox fallback
            };
            match lane.send(env) {
                Ok(()) => return,
                Err(std::sync::mpsc::SendError(returned)) => {
                    env = returned;
                    let mut reg = registry.lock().expect("registry poisoned");
                    if let Some(tap) = reg.read_tap.as_mut() {
                        // Only prune from the tap the dead lane came from;
                        // a replacement installed meanwhile keeps all its
                        // (healthy) lanes.
                        if tap.epoch == epoch {
                            tap.lanes.remove(idx);
                            if tap.lanes.is_empty() {
                                reg.read_tap = None;
                            }
                        }
                    }
                }
            }
        }
    }
    let inbox = {
        let reg = registry.lock().expect("registry poisoned");
        reg.inboxes.get(&env.dst).cloned()
    };
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
    fn self_addressed_envelopes_skip_the_wire() {
        // Stretch the matrix's 250 µs intra-DC hop to 50 ms: a self-delivery
        // that still took the hop would lose the race below.
        let router = Router::start(ThreadedNetConfig {
            scale: 200.0,
            ..ThreadedNetConfig::fast(1)
        });
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(0), PartitionId(1));
        let (rx_a, rx_b) = (router.register(a), router.register(b));
        let h = router.handle();
        h.send(Envelope::new(a, b, hb(0)));
        for i in 1..=50 {
            h.send(Envelope::new(a, a, hb(i)));
        }
        // The fifty self-deliveries arrive in order, and all of them before
        // the one message that crosses the (slow) intra-DC link.
        for i in 1..=50 {
            let got = rx_a
                .recv_timeout(Duration::from_secs(2))
                .expect("delivered");
            assert_eq!(got.msg, hb(i), "self-delivery {i} out of order");
        }
        assert!(rx_b.try_recv().is_err(), "the wire hop is still in flight");
        rx_b.recv_timeout(Duration::from_secs(2))
            .expect("delivered");
        // Only the a→b message was wire traffic.
        let stats = router.net_stats();
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.bytes, encoded_len(&hb(0)) as u64);
    }

    #[test]
    fn batching_coalesces_heartbeats_into_one_frame() {
        let router = Router::start(ThreadedNetConfig {
            batch: BatchConfig::fixed(4, 2_000_000), // force the size trigger
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
            batch: BatchConfig::fixed(1_000, 20_000), // never hit the size trigger
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
                batch: BatchConfig::fixed(1_000, 60_000_000), // would park for a minute
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

    #[test]
    fn read_tap_diverts_slice_reads_round_robin() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(b);
        let (l1_tx, l1) = std::sync::mpsc::channel();
        let (l2_tx, l2) = std::sync::mpsc::channel();
        router.set_read_tap(vec![l1_tx, l2_tx]);
        let h = router.handle();
        for i in 0..4 {
            h.send(Envelope::new(a, b, read_req(i)));
        }
        // Non-read traffic still reaches the inbox.
        h.send(Envelope::new(a, b, hb(9)));
        for lane in [&l1, &l2] {
            for _ in 0..2 {
                let got = lane.recv_timeout(Duration::from_secs(2)).expect("tapped");
                assert!(matches!(got.msg, Msg::ReadSliceReq { .. }));
            }
        }
        let got = inbox.recv_timeout(Duration::from_secs(2)).expect("inbox");
        assert_eq!(got.msg, hb(9));
        assert!(inbox.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn read_tap_falls_back_to_inbox_when_lane_closes() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(b);
        let (lane_tx, lane_rx) = std::sync::mpsc::channel();
        router.set_read_tap(vec![lane_tx]);
        drop(lane_rx); // pool died
        router.handle().send(Envelope::new(a, b, read_req(1)));
        let got = inbox
            .recv_timeout(Duration::from_secs(2))
            .expect("fallback");
        assert!(matches!(got.msg, Msg::ReadSliceReq { .. }));
        // The dead lane took the tap with it (it was the only lane), so
        // later reads go straight to the inbox too.
        router.handle().send(Envelope::new(a, b, read_req(2)));
        let got = inbox
            .recv_timeout(Duration::from_secs(2))
            .expect("tap uninstalled");
        assert!(matches!(got.msg, Msg::ReadSliceReq { .. }));
    }

    #[test]
    fn read_tap_prunes_a_dead_lane_and_keeps_the_survivor() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(b);
        let (l1_tx, l1_rx) = std::sync::mpsc::channel();
        let (l2_tx, l2) = std::sync::mpsc::channel();
        router.set_read_tap(vec![l1_tx, l2_tx]);
        drop(l1_rx); // one pool thread died
        let h = router.handle();
        for i in 0..6 {
            h.send(Envelope::new(a, b, read_req(i)));
        }
        // Every read lands on the surviving lane: the first delivery that
        // hits the dead lane prunes it and retries, and once pruned the
        // dead lane is never offered traffic again (nothing reaches the
        // inbox, which is where a failed lane send would fall back to).
        for i in 0..6 {
            let got = l2
                .recv_timeout(Duration::from_secs(2))
                .unwrap_or_else(|e| panic!("read {i} missing from survivor: {e}"));
            assert!(matches!(got.msg, Msg::ReadSliceReq { .. }));
        }
        assert!(
            inbox.recv_timeout(Duration::from_millis(100)).is_err(),
            "a read fell back to the inbox after the dead lane was pruned"
        );
    }

    #[test]
    fn read_tap_diverts_start_tx_requests() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ClientId::new(DcId(0), 3);
        let b = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(b);
        let (lane_tx, lane) = std::sync::mpsc::channel();
        router.set_read_tap(vec![lane_tx]);
        router.handle().send(Envelope::new(
            a,
            b,
            Msg::StartTxReq {
                client_ust: Timestamp::ZERO,
            },
        ));
        let got = lane.recv_timeout(Duration::from_secs(2)).expect("tapped");
        assert!(matches!(got.msg, Msg::StartTxReq { .. }));
        assert!(inbox.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn client_bound_reads_are_never_tapped() {
        // Defensive: the tap keys on Server destinations only.
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let c = ClientId::new(DcId(1), 7);
        let inbox = router.register(c);
        let (lane_tx, _lane_rx) = std::sync::mpsc::channel();
        router.set_read_tap(vec![lane_tx]);
        router.handle().send(Envelope::new(a, c, read_req(1)));
        let got = inbox.recv_timeout(Duration::from_secs(2)).expect("inbox");
        assert!(matches!(got.msg, Msg::ReadSliceReq { .. }));
    }

    fn commit_tx(tx_seq: u64, coordinator: ServerId) -> Msg {
        Msg::CommitTx {
            tx: paris_types::TxId::new(coordinator, tx_seq),
            ct: Timestamp::from_physical_micros(10),
        }
    }

    #[test]
    fn write_tap_routes_by_source_not_round_robin() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let src_a = ServerId::new(DcId(0), PartitionId(0));
        let src_b = ServerId::new(DcId(0), PartitionId(1));
        let dst = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(dst);
        let (l1_tx, l1) = std::sync::mpsc::channel();
        let (l2_tx, l2) = std::sync::mpsc::channel();
        router.set_write_tap(vec![l1_tx, l2_tx]);
        let h = router.handle();
        // Several messages from each source: all of a source's traffic
        // must land on one lane, in order.
        for i in 0..3 {
            h.send(Envelope::new(src_a, dst, commit_tx(i, src_a)));
            h.send(Envelope::new(src_b, dst, commit_tx(i, src_b)));
        }
        let lane_of = |src: ServerId| (Endpoint::Server(src).route_key() as usize) % 2;
        let lanes = [&l1, &l2];
        for (src, n) in [(src_a, 3u64), (src_b, 3)] {
            let lane = lanes[lane_of(src)];
            for i in 0..n {
                let got = lane.recv_timeout(Duration::from_secs(2)).expect("tapped");
                assert_eq!(got.msg, commit_tx(i, src), "per-src FIFO on one lane");
            }
        }
        assert!(inbox.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn write_tap_diverts_the_whole_write_path_and_nothing_else() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(b);
        let (lane_tx, lane) = std::sync::mpsc::channel();
        router.set_write_tap(vec![lane_tx]);
        let h = router.handle();
        h.send(Envelope::new(a, b, hb(1))); // Heartbeat: tapped (ordering!)
        h.send(Envelope::new(
            a,
            b,
            Msg::Replicate {
                partition: PartitionId(0),
                txs: Vec::new(),
                watermark: Timestamp::ZERO,
            },
        ));
        // Read-path traffic is NOT the write tap's business.
        h.send(Envelope::new(a, b, read_req(1)));
        let got = lane.recv_timeout(Duration::from_secs(2)).expect("tapped");
        assert_eq!(got.msg, hb(1));
        let got = lane.recv_timeout(Duration::from_secs(2)).expect("tapped");
        assert!(matches!(got.msg, Msg::Replicate { .. }));
        let got = inbox.recv_timeout(Duration::from_secs(2)).expect("inbox");
        assert!(matches!(got.msg, Msg::ReadSliceReq { .. }));
        assert!(lane.recv_timeout(Duration::from_millis(100)).is_err());
    }

    #[test]
    fn write_tap_falls_back_to_inbox_when_lane_closes() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(b);
        let (lane_tx, lane_rx) = std::sync::mpsc::channel();
        router.set_write_tap(vec![lane_tx]);
        drop(lane_rx); // pool died
        router.handle().send(Envelope::new(a, b, commit_tx(1, a)));
        let got = inbox
            .recv_timeout(Duration::from_secs(2))
            .expect("fallback");
        assert!(matches!(got.msg, Msg::CommitTx { .. }));
        // The dead lane took the tap with it; later writes skip it.
        router.handle().send(Envelope::new(a, b, commit_tx(2, a)));
        let got = inbox
            .recv_timeout(Duration::from_secs(2))
            .expect("tap uninstalled");
        assert!(matches!(got.msg, Msg::CommitTx { .. }));
    }

    #[test]
    fn read_and_write_taps_coexist() {
        let router = Router::start(ThreadedNetConfig::fast(2));
        let a = ServerId::new(DcId(0), PartitionId(0));
        let b = ServerId::new(DcId(1), PartitionId(0));
        let inbox = router.register(b);
        let (r_tx, r_lane) = std::sync::mpsc::channel();
        let (w_tx, w_lane) = std::sync::mpsc::channel();
        router.set_read_tap(vec![r_tx]);
        router.set_write_tap(vec![w_tx]);
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
        assert!(matches!(
            r_lane.recv_timeout(Duration::from_secs(2)).unwrap().msg,
            Msg::ReadSliceReq { .. }
        ));
        assert!(matches!(
            w_lane.recv_timeout(Duration::from_secs(2)).unwrap().msg,
            Msg::CommitTx { .. }
        ));
        // Loop-owned traffic (stabilization broadcast) is untapped.
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
