//! The PaRiS partition server `p_n^m`: a sans-I/O state machine.
//!
//! A [`Server`] implements every server-side role of the paper:
//!
//! * **transaction coordinator** (Alg. 2): snapshot assignment, the
//!   parallel read fan-out of a start form (a client that knows its
//!   snapshot sends its slice reads to the cohorts itself), and the
//!   commit: one phase for a single partition, otherwise decided by a
//!   participant every other participant votes to, or 2PC for a start
//!   form;
//! * **transaction cohort** (Alg. 3): slice reads, prepare, commit, and
//!   the decision of a commit whose votes it gathers;
//! * **replication** (Alg. 4): applying committed transactions in commit
//!   order, pushing them to peer replicas (an empty push is the
//!   heartbeat);
//! * **stabilization** (Alg. 4 lines 34–38): the UST gossip over the
//!   intra-DC tree and the inter-DC root exchange, plus the GC horizon.
//!
//! The state machine is driven entirely through [`Server::handle`] and the
//! `on_*_tick` timer entry points; every call returns the envelopes to
//! send. The same code runs under the deterministic simulator and the
//! threaded runtime, in PaRiS or BPR mode.

mod cohort;
mod coordinator;
mod replication;
mod report_table;
mod roots_table;
mod stabilization;
mod tx_table;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use paris_clock::{Hlc, PhysicalClock};
pub use paris_proto::ServerStats;
use paris_proto::{Endpoint, Envelope, Msg, Opening, ReadKey, ReadResult};
use paris_storage::{DurableConfig, DurableEngine, Engine, MemEngine, RecoveryInfo};
use paris_types::{ClientId, DcId, Mode, PartitionId, ServerId, Timestamp, TxId, WriteSetEntry};

use crate::topology::Topology;

pub(crate) use report_table::ReportTable;
pub(crate) use roots_table::RootsTable;
pub(crate) use tx_table::TxTable;

/// How long a coordinator context may sit idle-since-start before the GC
/// tick reclaims it as abandoned: five minutes, far above any transaction
/// (a workload transaction takes milliseconds; a simulated WAN partition,
/// seconds).
pub const STALE_CONTEXT_MICROS: u64 = 300_000_000;

/// Coordinator-side state of one running transaction (the paper's
/// `TX[id_T]`, Alg. 2 line 4).
#[derive(Debug)]
pub(crate) struct TxContext {
    /// Snapshot assigned at start, or picked by the client.
    pub snapshot: Timestamp,
    /// The client that owns the transaction.
    pub client: ClientId,
    /// The operation currently in flight, if any (clients are sequential,
    /// so at most one).
    pub pending: Option<PendingOp>,
    /// Simulated/real time at which the transaction started (staleness
    /// accounting).
    pub started_at: u64,
}

/// How the request that opened an operation named its transaction, which
/// decides what its reply names besides the id ([`Opening`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Opened {
    /// By id: the reply names nothing more.
    Known,
    /// A start form: the snapshot just assigned.
    Start(Timestamp),
    /// A picked form, with its call: the answering server's UST when it
    /// answers, and the call echoed.
    Picked(u64),
}

impl Opened {
    /// What the reply names, from a server whose UST is `ust`.
    pub(crate) fn opening(self, ust: Timestamp) -> Option<Opening> {
        match self {
            Opened::Known => None,
            Opened::Start(snapshot) => Some(Opening::Start { snapshot }),
            Opened::Picked(call) => Some(Opening::Picked { ust, call }),
        }
    }

    /// A picked form's call.
    pub(crate) fn call(self) -> Option<u64> {
        match self {
            Opened::Picked(call) => Some(call),
            Opened::Known | Opened::Start(_) => None,
        }
    }
}

/// An in-flight fan-out operation at the coordinator.
#[derive(Debug)]
pub(crate) enum PendingOp {
    /// A parallel read awaiting slice responses (Alg. 2 lines 10–15): a
    /// start form's, or one from a session without a topology, which
    /// routes every read through its coordinator.
    Read {
        /// Partitions not yet heard from.
        awaiting: HashSet<PartitionId>,
        /// Accumulated results.
        results: Vec<ReadResult>,
        /// How the request named the transaction.
        opened: Opened,
    },
    /// A 2PC awaiting prepare responses (Alg. 2 lines 21–25).
    Commit {
        /// Partitions not yet heard from.
        awaiting: HashSet<PartitionId>,
        /// Cohort servers contacted (phase-2 targets).
        participants: Vec<ServerId>,
        /// Max proposed timestamp so far (Alg. 2 line 26).
        max_proposed: Timestamp,
        /// How the request named the transaction.
        opened: Opened,
        /// A decider commit: what goes out once the own share is prepared.
        decider: Option<DeciderPlan>,
    },
}

/// A decider commit's fan-out from its coordinator (coordinator docs): sent
/// once the coordinator's own share is prepared, or at once when it holds
/// none.
#[derive(Debug)]
pub(crate) struct DeciderPlan {
    /// The participant that decides, and its writes.
    pub decider: (ServerId, Vec<WriteSetEntry>),
    /// The participants that vote to it, each with its writes; the first
    /// carries it its share.
    pub middles: Vec<(ServerId, Vec<WriteSetEntry>)>,
}

/// A decider commit's votes at its decider, until the carried share and
/// every vote it announces are in (cohort docs).
#[derive(Debug)]
pub(crate) struct Ballot {
    /// The carrying middle's `CommitOne`, once it arrived.
    pub carried: Option<Envelope>,
    /// The middles whose `PrepareResp` arrived, in arrival order.
    pub voters: Vec<ServerId>,
    /// The highest proposal among those votes.
    pub max_vote: Timestamp,
    /// When the first of them arrived.
    pub since: u64,
}

/// A transaction in the prepared queue (Alg. 3 line 13).
#[derive(Debug, Clone)]
pub(crate) struct PreparedTx {
    /// Proposed commit timestamp.
    pub pt: Timestamp,
    /// Writes destined for this partition.
    pub writes: Vec<WriteSetEntry>,
    /// DC where the transaction committed (version source).
    pub src: DcId,
}

/// A transaction in the committed queue awaiting apply (Alg. 3 line 19).
#[derive(Debug, Clone)]
pub(crate) struct CommittedTx {
    /// Writes destined for this partition.
    pub writes: Vec<WriteSetEntry>,
    /// DC where the transaction committed.
    pub src: DcId,
}

/// A read parked by the BPR baseline until the partition has installed the
/// snapshot (§V, "BPR").
#[derive(Debug)]
pub(crate) struct BlockedRead {
    pub tx: TxId,
    pub snapshot: Timestamp,
    pub keys: Vec<ReadKey>,
    pub reader: Endpoint,
    pub blocked_at: u64,
}

/// Timestamped protocol events, recorded when
/// [`ServerOptions::record_events`] is set; the benchmark harness derives
/// update-visibility latency (Fig. 4) and staleness from these.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    /// Coordinator decided commit `(tx, ct)` at time `now`.
    pub commits: Vec<(TxId, Timestamp, u64)>,
    /// A version of transaction `tx` with commit time `ct` was applied on
    /// this server at time `now`.
    pub applies: Vec<(TxId, Timestamp, u64)>,
    /// This server's UST advanced to `ust` at time `now`.
    pub ust_advances: Vec<(Timestamp, u64)>,
}

/// Construction options for a [`Server`].
pub struct ServerOptions {
    /// The server's identity.
    pub id: ServerId,
    /// Cluster topology (shared).
    pub topology: std::sync::Arc<Topology>,
    /// Physical clock source (possibly skewed).
    pub clock: Box<dyn PhysicalClock + Send>,
    /// Protocol variant.
    pub mode: Mode,
    /// Record the [`EventLog`] (costs memory; benches enable it only for
    /// visibility runs).
    pub record_events: bool,
}

/// Storage configuration of a [`Server`]: durability. [`Server::new`]
/// uses the default (in-memory); runtimes pass a per-server durable
/// directory through [`Server::try_with_tuning`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerTuning {
    /// Durable-storage configuration. `None` (the default) keeps the
    /// pure in-memory [`MemEngine`]; `Some` wraps it in a
    /// [`DurableEngine`] — write-ahead log plus stable-prefix checkpoints
    /// under `durable.dir` — and recovers any state already there at
    /// construction ([`Server::recovery`] reports what came back).
    /// Runtimes append a per-server subdirectory, so one base directory
    /// serves a whole cluster.
    pub durable: Option<DurableConfig>,
}

/// The PaRiS partition server state machine. See the module docs.
pub struct Server {
    pub(crate) id: ServerId,
    pub(crate) topo: std::sync::Arc<Topology>,
    pub(crate) mode: Mode,
    pub(crate) clock: Box<dyn PhysicalClock + Send>,
    pub(crate) hlc: Hlc,
    /// The storage engine — in-memory or durable.
    pub(crate) store: Box<dyn Engine>,
    /// Universal stable time `ust_n^m`: monotone (Alg. 3 lines 2 & 11,
    /// Alg. 4 line 38).
    pub(crate) ust: Timestamp,
    /// GC horizon `S_old`: monotone, as the stabilization protocol last
    /// announced it.
    pub(crate) s_old: Timestamp,
    /// `S_old` as of the last GC tick: what the next tick trims the
    /// version chains to.
    pub(crate) next_trim: Timestamp,
    /// The horizon the chains were last trimmed to — `S_old` as of the
    /// previous GC tick, or as recovered — and so the floor of every
    /// snapshot this server may still serve. It trails `S_old` by one GC
    /// period or more, which is what lets a client-picked snapshot the
    /// aggregate has already passed still be read: a UST every server had
    /// learned by time t stays readable here until t plus one GC period.
    pub(crate) trimmed: Timestamp,
    /// Version vector `VV_n^m`: one entry per replica DC of this partition
    /// (keyed by DC for clarity; own DC included).
    pub(crate) vv: BTreeMap<DcId, Timestamp>,
    /// Coordinator contexts + transaction-id sequence (see [`tx_table`]).
    pub(crate) tx_table: TxTable,
    /// Prepared queue (`Prepared_n^m`), with a sorted index for `min pt`.
    pub(crate) prepared: HashMap<TxId, PreparedTx>,
    pub(crate) prepared_index: BTreeSet<(Timestamp, TxId)>,
    /// Decider commits this server decides, still waiting for a vote or
    /// the carried share.
    pub(crate) ballots: HashMap<TxId, Ballot>,
    /// Committed queue (`Committed_n^m`), ordered by (ct, tx).
    pub(crate) committed: BTreeMap<(Timestamp, TxId), CommittedTx>,
    /// BPR: reads blocked until `min(VV) ≥ snapshot`.
    pub(crate) blocked: Vec<BlockedRead>,
    /// Stabilization: freshest report per tree child partition.
    pub(crate) child_reports: ReportTable,
    /// Root only: latest (gst, oldest_active) per DC.
    pub(crate) dc_roots: RootsTable,
    /// Stabilization is push-on-arrival: the deployment batches its links
    /// ([`paris_types::BatchConfig::is_enabled`]), and batching paces them
    /// by stable-time progress, so forwarding every move of the stable
    /// time costs no wire messages (see [`stabilization`]).
    pub(crate) push: bool,
    /// The stable time (subtree minimum; at a root, the GST) this server
    /// last forwarded — what a push must exceed.
    pub(crate) pushed_stable: Timestamp,
    /// What the durable engine recovered at construction, if durability
    /// is on ([`RecoveryInfo::default`]-equal when the directory was
    /// empty).
    pub(crate) recovery: Option<RecoveryInfo>,
    /// DCs this server currently considers unreachable (fed by the
    /// runtime's failure detector; §III-C availability).
    pub(crate) unreachable: HashSet<DcId>,
    /// Statistics.
    pub(crate) stats: ServerStats,
    /// Optional event log.
    pub(crate) events: Option<EventLog>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("id", &self.id)
            .field("mode", &self.mode)
            .field("ust", &self.ust)
            .field("vv", &self.vv)
            .field("prepared", &self.prepared.len())
            .field("committed", &self.committed.len())
            .field("blocked", &self.blocked.len())
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Creates a server with default [`ServerTuning`].
    ///
    /// # Panics
    ///
    /// Panics if the topology does not place this server's partition in
    /// its DC (the server would not exist in the deployment).
    pub fn new(options: ServerOptions) -> Self {
        Server::try_with_tuning(options, ServerTuning::default())
            .expect("an in-memory store opens without I/O")
    }

    /// Creates a server with explicit tuning, surfacing durable-storage
    /// open/recovery failures as [`paris_types::Error::Storage`] instead
    /// of panicking.
    ///
    /// When `tuning.durable` is set, construction is also **recovery**:
    /// the newest intact checkpoint is loaded, the WAL suffix replayed
    /// (truncating a torn tail), and the server's version vector, HLC
    /// floor, UST and `S_old` are re-seeded so the state machine resumes
    /// exactly where the log ends. What came back is reported by
    /// [`Server::recovery`].
    ///
    /// # Panics
    ///
    /// Panics if the topology does not place this server's partition in
    /// its DC.
    pub fn try_with_tuning(
        options: ServerOptions,
        tuning: ServerTuning,
    ) -> Result<Self, paris_types::Error> {
        let ServerOptions {
            id,
            topology,
            clock,
            mode,
            record_events,
        } = options;
        assert!(
            topology.is_replicated_at(id.partition, id.dc),
            "server {id} is not part of the placement"
        );
        let mut vv: BTreeMap<DcId, Timestamp> = topology
            .replicas(id.partition)
            .into_iter()
            .map(|dc| (dc, Timestamp::ZERO))
            .collect();
        let (store, recovery): (Box<dyn Engine>, Option<RecoveryInfo>) = match tuning.durable {
            Some(cfg) => {
                let (engine, info) = DurableEngine::open(cfg, paris_storage::DEFAULT_SHARDS)?;
                (Box::new(engine), Some(info))
            }
            None => (Box::new(MemEngine::new()), None),
        };
        let mut hlc = Hlc::new();
        let (mut ust, mut s_old) = (Timestamp::ZERO, Timestamp::ZERO);
        if let Some(info) = &recovery {
            // Resume where the log ends: recovered versions were committed
            // and acknowledged, so the replication watermark per source DC
            // restarts at the newest recovered update time — peers resend
            // watermarks at or above it, keeping the monotonicity invariant.
            for &(src, ut) in &info.max_ut_by_src {
                if let Some(entry) = vv.get_mut(&src) {
                    *entry = ut;
                }
            }
            // The stable times the checkpoint froze are still valid: every
            // DC had installed `≤ ust` before the crash, and GC may
            // already have trimmed up to `s_old`.
            (ust, s_old) = (info.ust, info.s_old);
            // New commit timestamps must sort after everything persisted.
            hlc.observe(&clock, info.max_recovered());
        }
        let push = topology.config().batch.is_enabled();
        let mut server = Server {
            id,
            topo: topology,
            mode,
            clock,
            hlc,
            store,
            ust,
            s_old,
            next_trim: s_old,
            trimmed: s_old,
            vv,
            tx_table: TxTable::default(),
            prepared: HashMap::new(),
            prepared_index: BTreeSet::new(),
            ballots: HashMap::new(),
            committed: BTreeMap::new(),
            blocked: Vec::new(),
            child_reports: ReportTable::default(),
            dc_roots: RootsTable::default(),
            push,
            pushed_stable: Timestamp::ZERO,
            recovery,
            unreachable: HashSet::new(),
            stats: ServerStats::default(),
            events: record_events.then(EventLog::default),
        };
        // The stabilization aggregate must under-approximate unreported
        // children (see `stabilization`).
        server.seed_child_reports();
        Ok(server)
    }

    /// The server's identity.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// The protocol variant this server runs.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Current universal stable time.
    pub fn ust(&self) -> Timestamp {
        self.ust
    }

    /// Current GC horizon.
    pub fn s_old(&self) -> Timestamp {
        self.s_old
    }

    /// The version vector (per replica DC).
    pub fn version_vector(&self) -> &BTreeMap<DcId, Timestamp> {
        &self.vv
    }

    /// Statistics counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// The recorded event log, if enabled.
    pub fn events(&self) -> Option<&EventLog> {
        self.events.as_ref()
    }

    /// Read-only access to the storage engine (checker, tests).
    pub fn store(&self) -> &dyn Engine {
        &*self.store
    }

    /// What the durable engine recovered at construction: `Some` iff
    /// [`ServerTuning::durable`] was set (an empty data directory yields
    /// a default-valued [`RecoveryInfo`]).
    pub fn recovery(&self) -> Option<&RecoveryInfo> {
        self.recovery.as_ref()
    }

    /// Durable-engine counters (WAL bytes, checkpoints, …), if
    /// durability is on.
    pub fn durable_stats(&self) -> Option<paris_storage::DurableStats> {
        self.store.durable_stats()
    }

    /// Number of currently open coordinator contexts.
    pub fn open_transactions(&self) -> usize {
        self.tx_table.ctxs.len()
    }

    /// Number of decider commits waiting here for a vote or their carried
    /// share.
    pub fn open_vote_sets(&self) -> usize {
        self.ballots.len()
    }

    /// Number of currently blocked reads (BPR).
    pub fn blocked_reads_now(&self) -> usize {
        self.blocked.len()
    }

    /// Handles one incoming envelope at time `now` (microseconds on the
    /// substrate's clock), returning the envelopes to send — never one
    /// addressed to this server, whose own share runs in place.
    pub fn handle(&mut self, env: &Envelope, now: u64) -> Vec<Envelope> {
        self.handle_and(env, now, |_| {})
    }

    /// [`Server::handle`], showing `local` each message it ran in place —
    /// the simulator charges their service time.
    pub fn handle_and(
        &mut self,
        env: &Envelope,
        now: u64,
        local: impl FnMut(&Msg),
    ) -> Vec<Envelope> {
        self.stats.msgs_handled += 1;
        let out = self.dispatch(env, now);
        self.in_place(out, now, local)
    }

    /// Runs every envelope in `out` addressed to this server (the
    /// coordinator's own share) in place, and returns the rest.
    pub(crate) fn in_place(
        &mut self,
        mut out: Vec<Envelope>,
        now: u64,
        mut local: impl FnMut(&Msg),
    ) -> Vec<Envelope> {
        let me = Endpoint::Server(self.id);
        while let Some(i) = out.iter().position(|e| e.dst == me) {
            let env = out.remove(i);
            local(&env.msg);
            let more = self.dispatch(&env, now);
            out.extend(more);
        }
        out
    }

    fn dispatch(&mut self, env: &Envelope, now: u64) -> Vec<Envelope> {
        match &env.msg {
            // Coordinator role.
            Msg::StartTxReq { client_ust } => self.on_start_tx(env, *client_ust, now),
            Msg::ReadReq { tx, keys } => self.on_read_req(env, *tx, keys, now),
            Msg::CommitReq { tx, hwt, writes } => self.on_commit_req(env, *tx, *hwt, writes, now),
            Msg::ReadSliceResp {
                tx,
                partition,
                results,
            } => self.on_read_slice_resp(*tx, *partition, results, now),
            // A vote reaches the decider, never the transaction's
            // coordinator; at the coordinator it answers the prepare.
            Msg::PrepareResp { tx, proposed, .. } if tx.coordinator() != self.id => {
                self.on_vote(env, *tx, *proposed, now)
            }
            Msg::PrepareResp {
                tx,
                partition,
                proposed,
            } => self.on_prepare_resp(*tx, *partition, *proposed, now),

            // Cohort role.
            Msg::ReadSliceReq { tx, snapshot, keys } => {
                self.on_read_slice_req(env, *tx, *snapshot, keys, now)
            }
            Msg::PrepareReq {
                tx,
                snapshot,
                ht,
                writes,
                src_dc,
                vote_to,
            } => self.on_prepare_req(env, *tx, *snapshot, *ht, writes, *src_dc, vote_to),
            Msg::CommitTx { tx, ct } => self.on_commit_tx(*tx, *ct),
            Msg::CommitOne { tx, votes, .. } => self.on_commit_one(env, *tx, *votes, now),

            // Replication.
            Msg::Replicate {
                partition,
                txs,
                watermark,
            } => self.on_replicate(env, *partition, txs, *watermark, 0, now),
            Msg::ReplicateBatch {
                partition,
                txs,
                watermark,
                frames,
            } => self.on_replicate(env, *partition, txs, *watermark, *frames, now),

            // Stabilization.
            Msg::GossipDigest {
                reports,
                roots,
                ust,
                frames,
            } => self.on_gossip_digest(reports, roots, *ust, *frames, now),

            // A cohort refused a slice of this coordinator's fan-out.
            Msg::OpFailed { tx, .. } => self.on_slice_refused(*tx),

            // Client-bound messages never arrive at a server.
            Msg::StartTxResp { .. } | Msg::ReadResp { .. } | Msg::CommitResp { .. } => {
                debug_assert!(false, "client-bound message delivered to server");
                Vec::new()
            }
        }
    }

    /// Marks a remote DC reachable or unreachable. Fed by the runtime's
    /// failure detector; the coordinator routes around unreachable DCs
    /// (§III-C: any replica can serve any operation) and aborts
    /// operations whose target partition has no reachable replica.
    pub fn set_dc_reachability(&mut self, dc: DcId, reachable: bool) {
        if reachable {
            self.unreachable.remove(&dc);
        } else if dc != self.id.dc {
            self.unreachable.insert(dc);
        }
    }

    /// DCs currently considered unreachable.
    pub fn unreachable_dcs(&self) -> &HashSet<DcId> {
        &self.unreachable
    }

    /// Drops coordinator contexts older than `timeout_micros` that have
    /// no operation in flight (§III-C: "contexts corresponding to
    /// transactions of failed clients are cleaned in the background after
    /// a timeout"). Returns the number of contexts dropped. The GC tick
    /// runs it with [`STALE_CONTEXT_MICROS`]; a client that comes back
    /// later gets `OpFailed`.
    pub fn cleanup_stale_contexts(&mut self, now: u64, timeout_micros: u64) -> usize {
        self.tx_table.expire(now, timeout_micros)
    }

    /// Runs periodic garbage collection (the paper's background GC,
    /// §IV-B): trims every version chain to the horizon `S_old` the
    /// stabilization protocol had computed by the *previous* GC tick, one
    /// period late, so a snapshot a client picked from a fresh reply stays
    /// readable (see `trimmed`). Slice reads run on the same loop, so none
    /// is in flight while GC runs. Returns versions removed.
    ///
    /// The same tick first reclaims coordinator contexts abandoned for
    /// [`STALE_CONTEXT_MICROS`]: an open context pins this server's
    /// oldest active snapshot, and with it `S_old` everywhere, so one
    /// client that vanished mid-transaction would otherwise stop GC for
    /// good. So it drops decider vote sets as old: a set missing a vote
    /// or its carried share that long has lost it, and would otherwise
    /// sit in the table for good. It never decides.
    ///
    /// With durability on, the same tick drives checkpointing: the engine
    /// freezes the ≤ UST stable prefix when its interval has elapsed
    /// (`now` is the substrate clock in microseconds), and GC doubles as
    /// the WAL-truncation point — closed segments fully covered by both
    /// the last checkpoint and the GC horizon are deleted.
    pub fn on_gc_tick(&mut self, now: u64) -> usize {
        self.tx_table.expire(now, STALE_CONTEXT_MICROS);
        let open = self.ballots.len();
        self.ballots
            .retain(|_, ballot| now.saturating_sub(ballot.since) < STALE_CONTEXT_MICROS);
        self.stats.abandoned_votes += (open - self.ballots.len()) as u64;
        self.store.maybe_checkpoint(self.ust, now);
        self.trimmed = self.next_trim;
        self.next_trim = self.s_old;
        let removed = self.store.gc(self.trimmed);
        self.stats.gc_removed += removed as u64;
        removed
    }

    /// The minimum entry of the version vector: everything up to this
    /// timestamp has been installed on this partition (local + remote).
    pub(crate) fn installed_watermark(&self) -> Timestamp {
        self.vv.values().copied().min().unwrap_or(Timestamp::ZERO)
    }

    /// Records a UST advance in the event log.
    pub(crate) fn log_ust(&mut self, ust: Timestamp, now: u64) {
        if let Some(log) = self.events.as_mut() {
            log.ust_advances.push((ust, now));
        }
    }
}
