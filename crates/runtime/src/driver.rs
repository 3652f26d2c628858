//! Concurrent protocol drivers shared by the live backends.
//!
//! The threaded backend (one OS thread per server, in-process channels)
//! and the socket backend (one OS *process* per server, TCP frames) run
//! the same loops: a server loop pumping a mailbox and the periodic
//! ticks, an optional read-pool loop serving the tapped read path
//! through [`ReadView`]s, and a closed-loop workload client. This module
//! is those loops, generic over how an envelope leaves the node (a
//! `send` closure) and which [`PhysicalClock`] stamps time — the only
//! two things that differ between the substrates.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use paris_clock::PhysicalClock;
use paris_core::checker::{HistoryChecker, RecordedTx};
use paris_core::{
    ClientEvent, ClientSession, CommitPipeline, ReadStep, ReadView, Server, Topology,
};
use paris_proto::Envelope;
use paris_types::{ClientId, Mode, ServerId};
use paris_workload::stats::Histogram;
use paris_workload::{WorkloadConfig, WorkloadGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One read-pool thread: drains its lane of tapped `ReadSliceReq`s and
/// `StartTxReq`s and serves each through the destination server's
/// [`ReadView`] — Alg. 3 slice reads and Alg. 2 snapshot assignment,
/// executed entirely off the server loop. A read whose snapshot
/// fell below `S_old` (possible only for reads that raced a GC advance)
/// is punted to the authoritative server state machine. `service_micros`
/// models per-read storage/CPU occupancy (see
/// [`crate::ClusterBuilder::read_service_micros`]); starts are pure
/// admission work and are not charged it — the sim models their (small)
/// fixed cost separately.
pub(crate) fn read_pool_loop(
    lane: Receiver<Envelope>,
    views: HashMap<ServerId, ReadView>,
    servers: HashMap<ServerId, Arc<Mutex<Server>>>,
    send: impl Fn(Envelope),
    clock: impl PhysicalClock,
    stop: Arc<AtomicBool>,
    service_micros: u64,
) {
    let punt = |env: &Envelope, sid: ServerId| {
        let out = {
            let mut server = servers[&sid].lock().expect("server poisoned");
            server.handle(env, clock.now_micros())
        };
        for e in out {
            send(e);
        }
    };
    loop {
        match lane.recv_timeout(Duration::from_millis(100)) {
            Ok(env) => {
                let paris_proto::Endpoint::Server(sid) = env.dst else {
                    debug_assert!(false, "read tap delivered a client-bound envelope");
                    continue;
                };
                match env.msg {
                    paris_proto::Msg::ReadSliceReq {
                        tx,
                        snapshot,
                        ref keys,
                        reply_to,
                    } => {
                        if service_micros > 0 {
                            std::thread::sleep(Duration::from_micros(service_micros));
                        }
                        match views[&sid].serve_slice(tx, snapshot, keys, reply_to) {
                            Ok(resp) => send(resp),
                            Err(_) => punt(&env, sid),
                        }
                    }
                    paris_proto::Msg::StartTxReq { client_ust } => {
                        let paris_proto::Endpoint::Client(client) = env.src else {
                            debug_assert!(false, "StartTxReq from a server");
                            continue;
                        };
                        match views[&sid].serve_start_tx(client, client_ust, clock.now_micros()) {
                            Some(resp) => send(resp),
                            // BPR view (cannot happen: pools are PaRiS-
                            // only): the loop owns the HLC.
                            None => punt(&env, sid),
                        }
                    }
                    // The tap only diverts read-path messages; anything
                    // else is handed to the owning server untouched.
                    _ => punt(&env, sid),
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// True when `env` is a write-path message the write pool may carry:
/// prepares, commit decisions, replication frames and heartbeats bound
/// for a server. Shared by the in-process router tap and the socket
/// child's demux so the two backends divert exactly the same set.
pub(crate) fn is_write_path(env: &Envelope) -> bool {
    matches!(
        env.msg,
        paris_proto::Msg::PrepareReq { .. }
            | paris_proto::Msg::CommitTx { .. }
            | paris_proto::Msg::Replicate { .. }
            | paris_proto::Msg::ReplicateBatch { .. }
            | paris_proto::Msg::Heartbeat { .. }
    ) && matches!(env.dst, paris_proto::Endpoint::Server(_))
}

/// The write lane a tapped envelope belongs on: keyed by the **source**
/// endpoint ([`paris_proto::Endpoint::route_key`]), never round-robin.
/// Per-src FIFO is load-bearing twice over — a `CommitTx` must trail its
/// `PrepareReq` (same coordinator), and a `Heartbeat`'s watermark must
/// trail the `Replicate` frames it covers (same peer) — so every message
/// of one source must drain through one lane.
pub(crate) fn write_lane_of(src: paris_proto::Endpoint, lanes: usize) -> usize {
    (src.route_key() as usize) % lanes
}

/// One write-pool thread: drains its (source-keyed) lane of tapped
/// write-path messages and runs the off-loop half of each through the
/// destination server's [`CommitPipeline`] — prepare staging (Alg. 3
/// lines 9–11) and replication apply (Alg. 4 lines 24–28) execute here,
/// concurrently across lanes, while the loop-owned half (HLC stamping,
/// queue moves, version-vector bumps) briefly takes the server mutex.
/// `service_micros` models per-message write occupancy on prepares and
/// replication frames (see
/// [`crate::Tuning::write_service_micros`]); commit decisions and
/// heartbeats are queue moves and are not charged it.
pub(crate) fn write_pool_loop(
    lane: Receiver<Envelope>,
    pipelines: HashMap<ServerId, Arc<CommitPipeline>>,
    servers: HashMap<ServerId, Arc<Mutex<Server>>>,
    send: impl Fn(Envelope),
    clock: impl PhysicalClock,
    stop: Arc<AtomicBool>,
    service_micros: u64,
) {
    let occupancy = || {
        if service_micros > 0 {
            std::thread::sleep(Duration::from_micros(service_micros));
        }
    };
    loop {
        match lane.recv_timeout(Duration::from_millis(100)) {
            Ok(env) => {
                let paris_proto::Endpoint::Server(sid) = env.dst else {
                    debug_assert!(false, "write tap delivered a client-bound envelope");
                    continue;
                };
                match env.msg {
                    paris_proto::Msg::PrepareReq {
                        tx,
                        snapshot,
                        ht,
                        ref writes,
                        reply_to,
                        src_dc,
                    } => {
                        occupancy();
                        // Stage off-lock (UST bump, write-set copy, shard
                        // partitioning), then admit under the server mutex
                        // (HLC stamp, Prepared insert).
                        let staged = pipelines[&sid].stage_prepare(snapshot, writes);
                        let out = {
                            let mut server = servers[&sid].lock().expect("server poisoned");
                            server.admit_prepared(tx, staged, ht, reply_to, src_dc)
                        };
                        for e in out {
                            send(e);
                        }
                    }
                    paris_proto::Msg::Replicate {
                        partition,
                        ref txs,
                        watermark,
                    } => {
                        occupancy();
                        // Apply off-lock through the shard lanes, then
                        // complete (stats, events, watermark bump) under
                        // the mutex — strictly after the writes landed.
                        pipelines[&sid].apply_replicated(txs);
                        let out = {
                            let mut server = servers[&sid].lock().expect("server poisoned");
                            server.note_remote_applied(
                                env.src.dc(),
                                partition,
                                txs,
                                watermark,
                                0,
                                clock.now_micros(),
                            )
                        };
                        for e in out {
                            send(e);
                        }
                    }
                    paris_proto::Msg::ReplicateBatch {
                        partition,
                        ref txs,
                        watermark,
                        frames,
                    } => {
                        occupancy();
                        pipelines[&sid].apply_replicated(txs);
                        let out = {
                            let mut server = servers[&sid].lock().expect("server poisoned");
                            server.note_remote_applied(
                                env.src.dc(),
                                partition,
                                txs,
                                watermark,
                                frames,
                                clock.now_micros(),
                            )
                        };
                        for e in out {
                            send(e);
                        }
                    }
                    // CommitTx, Heartbeat, and anything a dying lane
                    // re-routed here: cheap loop-owned state moves, run
                    // under the mutex via the ordinary handler.
                    _ => {
                        let out = {
                            let mut server = servers[&sid].lock().expect("server poisoned");
                            server.handle(&env, clock.now_micros())
                        };
                        for e in out {
                            send(e);
                        }
                    }
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// One server's protocol loop: pumps the mailbox into the state machine
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
    read_service_micros: u64,
    write_service_micros: u64,
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
                // Loop-served reads pay the same modeled service occupancy
                // as pool-served ones, so read_threads comparisons stay
                // apples-to-apples.
                if read_service_micros > 0
                    && matches!(env.msg, paris_proto::Msg::ReadSliceReq { .. })
                {
                    std::thread::sleep(Duration::from_micros(read_service_micros));
                }
                // Likewise for loop-served writes: prepares and
                // replication applies pay the same modeled occupancy the
                // write pool would, so write_threads ladders measure
                // parallelism, not a vanishing service time.
                if write_service_micros > 0
                    && matches!(
                        env.msg,
                        paris_proto::Msg::PrepareReq { .. }
                            | paris_proto::Msg::Replicate { .. }
                            | paris_proto::Msg::ReplicateBatch { .. }
                    )
                {
                    std::thread::sleep(Duration::from_micros(write_service_micros));
                }
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
    pub(crate) start_latency: Histogram,
}

/// One closed-loop workload client: begin → read → write → commit,
/// retrying on aborts, until `stop` is raised. Statistics count only
/// operations completing after `measure_after` (warmup is untimed);
/// the checker records everything.
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
    let mut start_latency = Histogram::new();
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
        send(session.begin().expect("idle session"));
        let Some(ClientEvent::Started { tx, snapshot }) = wait_event(&mut session) else {
            break;
        };
        // Admission latency of the start phase alone — the pooled
        // StartTxReq path is measured by this.
        if Instant::now() >= measure_after {
            start_latency.record(clock.now_micros().saturating_sub(begin));
        }
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
        let ct = match wait_event(&mut session) {
            Some(ClientEvent::Committed { ct, .. }) => ct,
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
        start_latency,
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
