//! The hand-pumped deployment of the traced run: the workload's topology
//! built from bare `Server` and `ClientSession` state machines on a virtual
//! clock, one message at a time, on one thread. Nothing waits here, so what
//! it measures is CPU per call — `Server::handle` by message kind, the
//! ticks, the client session, the codec over every envelope, the coalescer
//! — and exact message and byte counts. The same seed gives the same
//! counts, whatever the host.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;

use crate::driver::preload_batches;
use crate::seam::{
    replicated_versions, AppliedVersion, Batcher, ClientEvent, ClientId, Codec, DcId, Endpoint,
    Envelope, Error, Key, Node, ReadStep, ServerId, Session, Shape, Timestamp, TxSpec, TxStream,
    Value, VirtualClock,
};
use crate::trace::Tracer;
use crate::workloads::Workload;

/// Transactions the traced section pumps.
pub const TRACED_TXS: u32 = 2_000;
/// Idle tick rounds pumped with the coalescer bypassed, after the
/// transactions.
const UNBATCHED_ROUNDS: u32 = 200;

/// What the pump hands to the direct measurements and the metric table.
#[derive(Default)]
pub struct Pumped {
    pub txs: u32,
    /// Every version a replication frame carried, in delivery order.
    pub applied: Vec<AppliedVersion>,
    /// Every key the transactions read.
    pub read_keys: Vec<Key>,
    /// The newest commit time seen.
    pub newest: Timestamp,
    /// Per message kind: `(messages, encoded bytes)` over every envelope.
    pub wire: BTreeMap<&'static str, (u64, u64)>,
    /// `(logical frames queued, wire messages flushed)` by the coalescer.
    pub coalescer: (u64, u64),
    /// Nanoseconds the generator spent per transaction.
    pub next_tx_ns: f64,
}

struct Pump<'a> {
    shape: &'a Shape,
    clock: VirtualClock,
    now: u64,
    next_tick: u64,
    next_gc: u64,
    nodes: BTreeMap<ServerId, Node>,
    sessions: Vec<Session>,
    batcher: Batcher,
    codec: Codec,
    queue: VecDeque<Envelope>,
    events: VecDeque<ClientEvent>,
    /// Off during preload.
    tracer: Option<&'a mut Tracer>,
    /// Background frames skip the coalescer (the closing section).
    unbatched: bool,
    root: u32,
    tx: u32,
    out: Pumped,
}

/// The tracer's clock, or 0 while tracing is off. Takes the field, not the
/// pump, so it can be read while a node or a session is borrowed.
fn stamp(tracer: &Option<&mut Tracer>) -> u64 {
    tracer.as_ref().map_or(0, |t| t.now_ns())
}

impl Pump<'_> {
    fn span(&mut self, layer: &'static str, op: &'static str, kind: &'static str, start: u64) {
        if let Some(tracer) = self.tracer.as_deref_mut() {
            let end = tracer.now_ns();
            tracer.record(self.root, self.tx, (layer, op, kind), start, end);
        }
    }

    /// Sends `env`: background traffic is offered to the coalescer,
    /// anything else goes on the wire at once.
    fn route(&mut self, env: Envelope) {
        if self.unbatched {
            self.queue.push_back(env);
            return;
        }
        let background = env.msg.is_background();
        let start = stamp(&self.tracer);
        let ready = self.batcher.offer(env, self.now);
        if background {
            self.span("net", "coalescer_offer", "", start);
        }
        self.queue.extend(ready);
    }

    /// Delivers everything queued, and everything that causes, in FIFO
    /// order. Every envelope crosses the codec once, as it would a socket.
    fn deliver(&mut self) {
        while let Some(env) = self.queue.pop_front() {
            let kind = env.msg.kind();
            let start = stamp(&self.tracer);
            let bytes = self.codec.encode(&env);
            self.span("proto", "encode", kind, start);
            let start = stamp(&self.tracer);
            let env = self.codec.decode(&bytes);
            self.span("proto", "decode", kind, start);
            let counted = self.tracer.is_some() && !self.unbatched;
            if counted {
                let entry = self.out.wire.entry(kind).or_default();
                entry.0 += 1;
                entry.1 += bytes.len() as u64;
                debug_assert_eq!(bytes.len(), self.codec.encoded_len(&env));
            }
            match env.dst {
                Endpoint::Server(id) => {
                    if counted {
                        self.out.applied.extend(replicated_versions(&env.msg));
                    }
                    let node = self.nodes.get_mut(&id).expect("every server is pumped");
                    let start = stamp(&self.tracer);
                    let replies = node.handle(&env, self.now);
                    self.span("core", "handle", kind, start);
                    for reply in replies {
                        self.route(reply);
                    }
                }
                Endpoint::Client(id) => {
                    let session = &mut self.sessions[id.dc.index()];
                    let start = stamp(&self.tracer);
                    let event = session.handle(&env);
                    self.span("core", "client", "handle", start);
                    self.events.extend(event);
                }
            }
        }
    }

    /// Advances virtual time to `now`, firing every tick that is due on
    /// the default schedule and flushing the coalescer links that are due.
    fn advance_to(&mut self, now: u64) {
        self.now = now;
        self.clock.advance_to(now);
        let ids: Vec<ServerId> = self.nodes.keys().copied().collect();
        // Kept apart from the ticks that carry the transactions' traffic.
        let op = if self.unbatched { "idle_tick" } else { "tick" };
        while self.next_tick <= now {
            self.next_tick += self.shape.tick_micros();
            for (tick, roots_only) in [("replicate", false), ("gst", false), ("ust", true)] {
                for id in &ids {
                    if roots_only && !self.shape.is_dc_root(*id) {
                        continue;
                    }
                    let node = self.nodes.get_mut(id).expect("known");
                    let start = stamp(&self.tracer);
                    let sent = match tick {
                        "replicate" => node.tick_replicate(now),
                        "gst" => node.tick_gst(now),
                        _ => node.tick_ust(now),
                    };
                    self.span("core", op, tick, start);
                    for env in sent {
                        self.route(env);
                    }
                }
            }
        }
        if self.next_gc <= now {
            self.next_gc += self.shape.gc_micros();
            for id in &ids {
                let node = self.nodes.get_mut(id).expect("known");
                let start = stamp(&self.tracer);
                node.tick_gc(now);
                self.span("core", op, "gc", start);
            }
        }
        let due = self.batcher.poll(now);
        self.queue.extend(due);
        self.deliver();
    }

    fn expect(&mut self) -> Result<ClientEvent, Error> {
        self.deliver();
        self.events
            .pop_front()
            .ok_or(Error::Transport("the pump produced no client event"))
    }

    /// One transaction of the session in `dc`, after `step` µs of virtual
    /// time. With tracing on, everything that runs until its commit reply
    /// — ticks and background deliveries included — is a child span.
    fn transaction(
        &mut self,
        dc: DcId,
        read_keys: &[Key],
        writes: &[(Key, Value)],
        step: u64,
    ) -> Result<Timestamp, Error> {
        self.tx += 1;
        if let Some(tracer) = self.tracer.as_deref_mut() {
            self.root = tracer.open(self.tx, ("runtime", "pump_tx", ""));
        }
        self.advance_to(self.now + step);

        let start = stamp(&self.tracer);
        let env = self.sessions[dc.index()].begin()?;
        self.span("core", "client", "begin", start);
        self.route(env);
        let ClientEvent::Started { .. } = self.expect()? else {
            return Err(Error::UnknownTransaction);
        };
        if !read_keys.is_empty() {
            let start = stamp(&self.tracer);
            let step = self.sessions[dc.index()].read(read_keys)?;
            self.span("core", "client", "read", start);
            if let ReadStep::Send(env) = step {
                self.route(env);
                let ClientEvent::ReadDone { .. } = self.expect()? else {
                    return Err(Error::UnknownTransaction);
                };
            }
        }
        let start = stamp(&self.tracer);
        self.sessions[dc.index()].write(writes)?;
        let env = self.sessions[dc.index()].commit()?;
        self.span("core", "client", "commit", start);
        self.route(env);
        let ClientEvent::Committed { ct, .. } = self.expect()? else {
            return Err(Error::UnknownTransaction);
        };
        if let Some(tracer) = self.tracer.as_deref_mut() {
            tracer.close(self.root);
        }
        self.out.newest = self.out.newest.max(ct);
        Ok(ct)
    }
}

/// Builds the pumped deployment, preloads it untraced, then pumps the
/// first [`TRACED_TXS`] transactions of the seeded stream with spans on.
///
/// # Errors
///
/// A durable directory could not be opened, or the protocol did not answer
/// (a bug in the pump or the program).
pub fn run(
    w: &Workload,
    shape: &Shape,
    seed: u64,
    durable_dir: Option<PathBuf>,
    tracer: &mut Tracer,
) -> Result<Pumped, Error> {
    let clock = VirtualClock::starting_at(1_000_000);
    let mut nodes = BTreeMap::new();
    for id in shape.all_servers() {
        let dir = durable_dir
            .as_ref()
            .map(|d| d.join(format!("dc{}-p{}", id.dc.0, id.partition.0)));
        nodes.insert(id, Node::new(shape, id, &clock, dir)?);
    }
    let dcs: Vec<DcId> = (0..shape.dcs()).map(DcId).collect();
    let mut pump = Pump {
        shape,
        clock,
        now: 1_000_000,
        next_tick: 1_000_000 + shape.tick_micros(),
        next_gc: 1_000_000 + shape.gc_micros(),
        nodes,
        sessions: dcs
            .iter()
            .map(|dc| Session::new(shape, ClientId::new(*dc, 0)))
            .collect(),
        batcher: Batcher::of(shape),
        codec: Codec::of(shape),
        queue: VecDeque::new(),
        events: VecDeque::new(),
        tracer: None,
        unbatched: false,
        root: 0,
        tx: 0,
        out: Pumped::default(),
    };

    // Preload as the live set-up does, then run the ticks until every
    // server's UST covers it.
    let mut last = Timestamp::ZERO;
    for writes in preload_batches(w, shape) {
        last = pump.transaction(DcId(0), &[], &writes, w.pump_tx_micros)?;
    }
    let mut rounds = 0;
    while pump.nodes.values().any(|n| n.ust() < last) {
        rounds += 1;
        if rounds > 1_000 {
            return Err(Error::Transport("the pumped UST never covered the preload"));
        }
        pump.advance_to(pump.now + shape.tick_micros());
    }

    let mut streams: Vec<TxStream> = dcs
        .iter()
        .map(|dc| TxStream::new(w, shape, seed, *dc))
        .collect();
    let generate = std::time::Instant::now();
    let specs: Vec<TxSpec> = (0..TRACED_TXS as usize)
        .map(|i| streams[i % dcs.len()].next_tx())
        .collect();
    pump.out.next_tx_ns = generate.elapsed().as_nanos() as f64 / f64::from(TRACED_TXS);

    pump.tx = 0;
    pump.tracer = Some(tracer);
    let (frames_before, messages_before) = pump.batcher.frames_and_messages();
    for (i, spec) in specs.iter().enumerate() {
        pump.transaction(
            dcs[i % dcs.len()],
            &spec.read_keys,
            &spec.writes,
            w.pump_tx_micros,
        )?;
        pump.out.read_keys.extend(&spec.read_keys);
    }
    pump.out.txs = TRACED_TXS;
    let (frames, messages) = pump.batcher.frames_and_messages();
    pump.out.coalescer = (frames - frames_before, messages - messages_before);

    // Under the default batching a server never sees a raw `Heartbeat`,
    // `GstReport`, `RootGst` or `UstBroadcast`: the coalescer folds them
    // into `ReplicateBatch` and `GossipDigest` first. Their handlers are
    // what a deployment without batching runs, so put their cost on record
    // too: idle tick rounds with the coalescer bypassed, outside any
    // transaction (`tx` 0) and outside every per-transaction count.
    let due = pump.batcher.poll(u64::MAX);
    pump.queue.extend(due);
    pump.deliver();
    (pump.unbatched, pump.root, pump.tx) = (true, 0, 0);
    for _ in 0..UNBATCHED_ROUNDS {
        pump.advance_to(pump.now + shape.tick_micros());
    }
    Ok(pump.out)
}
