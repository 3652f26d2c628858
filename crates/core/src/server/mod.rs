//! The PaRiS partition server `p_n^m`: a sans-I/O state machine.
//!
//! A [`Server`] implements every server-side role of the paper:
//!
//! * **transaction coordinator** (Alg. 2): snapshot assignment, parallel
//!   read fan-out, 2PC commit;
//! * **transaction cohort** (Alg. 3): slice reads, prepare, commit;
//! * **replication** (Alg. 4): applying committed transactions in commit
//!   order, pushing them to peer replicas, heartbeats;
//! * **stabilization** (Alg. 4 lines 34–38): the UST gossip over the
//!   intra-DC tree and the inter-DC root exchange, plus the GC horizon.
//!
//! The state machine is driven entirely through [`Server::handle`] and the
//! `on_*_tick` timer entry points; every call returns the envelopes to
//! send. The same code runs under the deterministic simulator and the
//! threaded runtime, in PaRiS or BPR mode.

mod cohort;
mod coordinator;
mod pipeline;
mod replication;
mod report_table;
mod root_state;
mod roots_table;
mod stabilization;
mod tx_table;

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use paris_clock::{Hlc, PhysicalClock};
use paris_proto::{Envelope, Msg, ReadKey, ReadResult};
use paris_storage::{
    DurableConfig, DurableEngine, Engine, MemEngine, RecoveryInfo, StableFrontier,
};
use paris_types::{ClientId, DcId, Mode, PartitionId, ServerId, Timestamp, TxId, WriteSetEntry};

use crate::read_view::{ReadView, ReadViewStats};
use crate::topology::Topology;

pub use pipeline::{CommitPipeline, LaneGuard, PipelineStats, StagedPrepare};
pub use root_state::RootState;

pub(crate) use report_table::ReportTable;
pub(crate) use roots_table::RootsTable;
pub(crate) use tx_table::TxTable;

/// Coordinator-side state of one running transaction (the paper's
/// `TX[id_T]`, Alg. 2 line 4).
#[derive(Debug)]
pub(crate) struct TxContext {
    /// Snapshot assigned at start.
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

/// An in-flight fan-out operation at the coordinator.
#[derive(Debug)]
pub(crate) enum PendingOp {
    /// A parallel read awaiting slice responses (Alg. 2 lines 10–15).
    Read {
        /// Partitions not yet heard from.
        awaiting: HashSet<PartitionId>,
        /// Accumulated results.
        results: Vec<ReadResult>,
    },
    /// A 2PC awaiting prepare responses (Alg. 2 lines 21–25).
    Commit {
        /// Partitions not yet heard from.
        awaiting: HashSet<PartitionId>,
        /// Cohort servers contacted (phase-2 targets).
        participants: Vec<ServerId>,
        /// Max proposed timestamp so far (Alg. 2 line 26).
        max_proposed: Timestamp,
    },
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
    pub reply_to: ServerId,
    pub blocked_at: u64,
}

/// Counters exposed by a server, aggregated by the measurement harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerStats {
    /// Messages handled, any kind.
    pub msgs_handled: u64,
    /// Update transactions committed with this server as coordinator.
    pub txs_coordinated: u64,
    /// Slice reads served (including after unblocking).
    pub slice_reads: u64,
    /// Keys returned by slice reads.
    pub keys_read: u64,
    /// Of those, keys answered `Unchanged`: the client's stamp named the
    /// version visible in the snapshot, so no value travelled.
    /// `reads_unchanged / (reads_unchanged + reads_shipped)` is the
    /// validation hit ratio.
    pub reads_unchanged: u64,
    /// Keys answered with a full version (the rest had no visible
    /// version).
    pub reads_shipped: u64,
    /// Prepares handled.
    pub prepares: u64,
    /// Transactions applied locally (as 2PC participant).
    pub applied_local: u64,
    /// Transactions applied from remote replication.
    pub applied_remote: u64,
    /// Replication batches sent.
    pub replicate_batches: u64,
    /// Heartbeats sent.
    pub heartbeats: u64,
    /// Logical frames received folded inside coalesced
    /// `ReplicateBatch`/`GossipDigest` messages (each such message counts
    /// its `frames`, so `coalesced_frames - messages` is the wire saving).
    pub coalesced_frames: u64,
    /// Reads that had to block (BPR only).
    pub blocked_reads: u64,
    /// Total microseconds reads spent blocked (BPR only).
    pub blocked_micros_total: u64,
    /// Maximum single blocking duration (BPR only).
    pub blocked_micros_max: u64,
    /// Versions removed by GC.
    pub gc_removed: u64,
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

/// Concurrency-sizing knobs of a [`Server`]'s shared storage structures.
/// [`Server::new`] uses the defaults; runtimes that know the host's
/// parallelism pass explicit values through [`Server::with_tuning`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerTuning {
    /// Chain-shard count of the [`MemEngine`] (`None` → the store's
    /// default of 16). More shards reduce reader/writer lock overlap.
    pub store_shards: Option<usize>,
    /// Atomic read-slot count of the [`StableFrontier`]'s in-flight
    /// registry (`None` → the frontier's default of 64; `Some(0)`
    /// disables the slots so every read admission takes the mutexed
    /// fallback — the pre-slot behavior, kept measurable for benches).
    pub read_slots: Option<usize>,
    /// Apply-lane count of the [`CommitPipeline`] (`None` → one lane per
    /// store shard — maximal write parallelism). Clamped to
    /// `1..=store_shards`; more lanes than shards buys nothing.
    pub write_lanes: Option<usize>,
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
    /// The storage engine — in-memory or durable — shared with every
    /// [`ReadView`] and the [`CommitPipeline`].
    pub(crate) store: std::sync::Arc<dyn Engine>,
    /// Published stable timestamps (`ust_n^m`, `S_old`) and the in-flight
    /// read registry, shared with every [`ReadView`].
    pub(crate) frontier: std::sync::Arc<StableFrontier>,
    /// Read-path counters shared with every [`ReadView`].
    pub(crate) view_stats: std::sync::Arc<ReadViewStats>,
    /// The per-shard commit pipeline, shared with the runtimes' write
    /// pools; the loop itself stages prepares and applies replication
    /// batches through it, so every backend exercises one write path.
    pub(crate) pipeline: std::sync::Arc<CommitPipeline>,
    /// Loop-owned root state (HLC, installed watermark), published for
    /// lock-free observation off the loop.
    pub(crate) root_state: std::sync::Arc<RootState>,
    /// The server's own cached view (the loop-served read path uses it on
    /// every slice read; cloning three `Arc`s per read would be waste).
    pub(crate) view: ReadView,
    /// Version vector `VV_n^m`: one entry per replica DC of this partition
    /// (keyed by DC for clarity; own DC included).
    pub(crate) vv: BTreeMap<DcId, Timestamp>,
    /// Coordinator contexts + transaction-id sequence, shared with every
    /// [`ReadView`] so snapshot assignment (Alg. 2 lines 1–5) can run on
    /// pool threads (see [`tx_table`]).
    pub(crate) tx_table: std::sync::Arc<TxTable>,
    /// Prepared queue (`Prepared_n^m`), with a sorted index for `min pt`.
    pub(crate) prepared: HashMap<TxId, PreparedTx>,
    pub(crate) prepared_index: BTreeSet<(Timestamp, TxId)>,
    /// Committed queue (`Committed_n^m`), ordered by (ct, tx).
    pub(crate) committed: BTreeMap<(Timestamp, TxId), CommittedTx>,
    /// BPR: reads blocked until `min(VV) ≥ snapshot`.
    pub(crate) blocked: Vec<BlockedRead>,
    /// Stabilization: freshest report per tree child partition.
    pub(crate) child_reports: ReportTable,
    /// Root only: latest (gst, oldest_active) per DC.
    pub(crate) dc_roots: RootsTable,
    /// Stabilization is push-on-arrival: the deployment's links are paced
    /// by stable-time progress ([`paris_types::BatchConfig::is_paced`]),
    /// so forwarding every move of the stable time costs no wire messages
    /// (see [`stabilization`]).
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
            .field("ust", &self.frontier.ust())
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
        Server::with_tuning(options, ServerTuning::default())
    }

    /// Creates a server with explicit storage-concurrency sizing (the
    /// runtimes derive it from the host's parallelism).
    ///
    /// # Panics
    ///
    /// Panics if the topology does not place this server's partition in
    /// its DC (the server would not exist in the deployment), if
    /// `tuning.store_shards` is `Some(0)`, or if `tuning.durable` is set
    /// and the durable store cannot be opened (use
    /// [`Server::try_with_tuning`] to handle that case).
    pub fn with_tuning(options: ServerOptions, tuning: ServerTuning) -> Self {
        match Server::try_with_tuning(options, tuning) {
            Ok(server) => server,
            Err(e) => panic!("{e}"),
        }
    }

    /// Creates a server with explicit tuning, surfacing durable-storage
    /// open/recovery failures as [`paris_types::Error::Storage`] instead
    /// of panicking.
    ///
    /// When `tuning.durable` is set, construction is also **recovery**:
    /// the newest intact checkpoint is loaded, the WAL suffix replayed
    /// (truncating a torn tail), and the server's version vector, HLC
    /// floor, stable frontier and published root state are re-seeded so
    /// the state machine resumes exactly where the log ends. What came
    /// back is reported by [`Server::recovery`].
    ///
    /// # Panics
    ///
    /// Panics if the topology does not place this server's partition in
    /// its DC, or if `tuning.store_shards` is `Some(0)`.
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
        let shards = tuning.store_shards.unwrap_or(paris_storage::DEFAULT_SHARDS);
        let (store, recovery): (std::sync::Arc<dyn Engine>, Option<RecoveryInfo>) =
            match tuning.durable {
                Some(cfg) => {
                    let (engine, info) = DurableEngine::open(cfg, shards)?;
                    (std::sync::Arc::new(engine), Some(info))
                }
                None => (std::sync::Arc::new(MemEngine::with_shards(shards)), None),
            };
        let frontier = std::sync::Arc::new(match tuning.read_slots {
            Some(slots) => StableFrontier::with_slots(slots),
            None => StableFrontier::new(),
        });
        let view_stats = std::sync::Arc::new(ReadViewStats::default());
        let pipeline = std::sync::Arc::new(CommitPipeline::new(
            std::sync::Arc::clone(&store),
            std::sync::Arc::clone(&frontier),
            tuning.write_lanes.unwrap_or_else(|| store.shard_count()),
        ));
        let root_state = std::sync::Arc::new(RootState::default());
        let tx_table = std::sync::Arc::new(TxTable::default());
        let mut hlc = Hlc::new();
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
            // The stable frontier the checkpoint froze is still valid:
            // every DC had installed `≤ ust` before the crash, and GC may
            // already have trimmed up to `s_old`.
            frontier.advance_ust(info.ust);
            frontier.advance_s_old(info.s_old);
            root_state.publish_hlc(info.max_recovered());
            root_state.publish_watermark(vv.values().copied().min().unwrap_or(Timestamp::ZERO));
            // New commit timestamps must sort after everything persisted.
            hlc.observe(&clock, info.max_recovered());
        }
        let view = ReadView::new(
            id,
            mode,
            std::sync::Arc::clone(&store),
            std::sync::Arc::clone(&frontier),
            std::sync::Arc::clone(&view_stats),
            std::sync::Arc::clone(&tx_table),
        );
        let push = topology.config().batch.is_paced();
        let mut server = Server {
            id,
            topo: topology,
            mode,
            clock,
            hlc,
            store,
            frontier,
            view_stats,
            pipeline,
            root_state,
            view,
            vv,
            tx_table,
            prepared: HashMap::new(),
            prepared_index: BTreeSet::new(),
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
        self.frontier.ust()
    }

    /// Current GC horizon.
    pub fn s_old(&self) -> Timestamp {
        self.frontier.s_old()
    }

    /// The version vector (per replica DC).
    pub fn version_vector(&self) -> &BTreeMap<DcId, Timestamp> {
        &self.vv
    }

    /// Statistics counters: the state machine's own plus the shared
    /// read-view counters (slice reads may be served off-loop).
    pub fn stats(&self) -> ServerStats {
        let mut stats = self.stats;
        stats.slice_reads += self.view_stats.slice_reads();
        stats.keys_read += self.view_stats.keys_read();
        stats.reads_unchanged += self.view_stats.reads_unchanged();
        stats.reads_shipped += self.view_stats.reads_shipped();
        stats
    }

    /// The shared per-shard commit pipeline: the write-path counterpart
    /// of [`Server::read_view`]. The threaded runtime hands it to its
    /// write-thread pool (prepare staging and replication apply run
    /// off-loop through its lanes); the deterministic backends exercise
    /// the same path synchronously.
    pub fn commit_pipeline(&self) -> std::sync::Arc<CommitPipeline> {
        std::sync::Arc::clone(&self.pipeline)
    }

    /// The published loop-owned root state (HLC, installed watermark):
    /// lock-free reads of what only the server loop may mutate.
    pub fn root_state(&self) -> std::sync::Arc<RootState> {
        std::sync::Arc::clone(&self.root_state)
    }

    /// A cloneable handle serving Algorithm 3 snapshot reads from this
    /// server's published state, off the server loop. All views of one
    /// server share its store, stable frontier and read counters; the
    /// threaded runtime hands them to its read-thread pool, while the
    /// deterministic backends exercise the same path synchronously.
    pub fn read_view(&self) -> ReadView {
        self.view.clone()
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
        self.tx_table.len()
    }

    /// Number of currently blocked reads (BPR).
    pub fn blocked_reads_now(&self) -> usize {
        self.blocked.len()
    }

    /// Handles one incoming envelope at time `now` (microseconds on the
    /// substrate's clock), returning the envelopes to send.
    pub fn handle(&mut self, env: &Envelope, now: u64) -> Vec<Envelope> {
        self.stats.msgs_handled += 1;
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
            Msg::PrepareResp {
                tx,
                partition,
                proposed,
            } => self.on_prepare_resp(*tx, *partition, *proposed, now),

            // Cohort role.
            Msg::ReadSliceReq {
                tx,
                snapshot,
                keys,
                reply_to,
            } => self.on_read_slice_req(*tx, *snapshot, keys, *reply_to, now),
            Msg::PrepareReq {
                tx,
                snapshot,
                ht,
                writes,
                reply_to,
                src_dc,
            } => self.on_prepare_req(*tx, *snapshot, *ht, writes, *reply_to, *src_dc),
            Msg::CommitTx { tx, ct } => self.on_commit_tx(*tx, *ct),

            // Replication.
            Msg::Replicate {
                partition,
                txs,
                watermark,
            } => self.on_replicate(env, *partition, txs, *watermark, now),
            Msg::Heartbeat {
                partition,
                watermark,
            } => self.on_heartbeat(env, *partition, *watermark, now),
            Msg::ReplicateBatch {
                partition,
                txs,
                watermark,
                frames,
            } => self.on_replicate_batch(env, *partition, txs, *watermark, *frames, now),

            // Stabilization.
            Msg::GstReport {
                partition,
                mins,
                oldest_active,
            } => self.on_gst_report(*partition, mins, *oldest_active, now),
            Msg::RootGst {
                dc,
                gst,
                oldest_active,
            } => self.on_root_gst(*dc, *gst, *oldest_active, now),
            Msg::UstBroadcast { ust, s_old } => self.on_ust_broadcast(*ust, *s_old, now),
            Msg::GossipDigest {
                reports,
                roots,
                ust,
                frames,
            } => self.on_gossip_digest(reports, roots, *ust, *frames, now),

            // Client-bound messages never arrive at a server.
            Msg::StartTxResp { .. }
            | Msg::ReadResp { .. }
            | Msg::CommitResp { .. }
            | Msg::OpFailed { .. } => {
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

    /// Drops coordinator contexts older than `timeout_micros` (§III-C:
    /// "contexts corresponding to transactions of failed clients are
    /// cleaned in the background after a timeout"). Returns the number of
    /// contexts dropped. Call with a timeout far above any legitimate
    /// transaction duration.
    pub fn cleanup_stale_contexts(&mut self, now: u64, timeout_micros: u64) -> usize {
        self.tx_table.expire(now, timeout_micros)
    }

    /// Runs periodic garbage collection (the paper's background GC,
    /// §IV-B): trims every version chain to the horizon `S_old` computed by
    /// the stabilization protocol, further bounded by the oldest snapshot
    /// of any in-flight off-loop read (so the read pool never loses a
    /// version it is entitled to). Returns versions removed.
    ///
    /// With durability on, the same tick drives checkpointing: the engine
    /// freezes the ≤ UST stable prefix when its interval has elapsed
    /// (`now` is the substrate clock in microseconds), and GC doubles as
    /// the WAL-truncation point — closed segments fully covered by both
    /// the last checkpoint and the GC horizon are deleted.
    pub fn on_gc_tick(&mut self, now: u64) -> usize {
        self.store.maybe_checkpoint(self.frontier.ust(), now);
        let removed = self.store.gc(self.frontier.gc_horizon());
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
