//! Cluster runtimes behind one facade: drive the PaRiS state machines
//! over any substrate through the [`Cluster`] trait.
//!
//! * [`SimCluster`] — the deterministic discrete-event runtime that stands
//!   in for the paper's AWS deployment: WAN latency matrix, per-server CPU
//!   service queues, closed-loop clients, fault injection. Every figure of
//!   the paper is regenerated on it, and it is the default backend.
//! * [`ThreadCluster`] — a real multi-threaded in-process deployment: one
//!   thread per server, used by integration tests to exercise the protocol
//!   under genuine concurrency.
//! * [`SocketCluster`] — a real multi-**process** deployment: one OS
//!   process per server speaking protocol frames over loopback TCP — the
//!   paper's one-machine-per-server shape, scaled down to one host.
//!
//! All three execute the same `paris-core` state machines. Build any of
//! them with [`Paris::builder`]; interact through [`Cluster`] and the RAII
//! [`Txn`] handle; measure with [`Cluster::run_workload`], which produces
//! a [`RunReport`] with throughput, latency percentiles, blocking
//! statistics and (when enabled) the consistency checker's verdict.
//!
//! The client path is written once: [`Cluster`]'s raw operations and
//! [`Cluster::begin`] are provided methods over each backend's client
//! sessions and its round trip (see the [`Cluster`] docs), the closed
//! loop of [`Cluster::run_workload`] is one sans-I/O workload client that
//! every backend drives at its own pace, and the thread and socket
//! backends are one live core over two transports: [`Cluster`] is
//! implemented twice, once for the sim and once for that core, whose
//! interactive sessions, `run_workload` and snapshot observers both live
//! backends share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use paris_core::checker::HistoryChecker;
use paris_core::{ClientEvent, ClientSession, Server, Topology, Violation};
use paris_net::sim::RegionMatrix;
use paris_proto::{Envelope, ServerSnapshot};
use paris_types::{
    ClientId, ClusterConfig, DcId, Error, Intervals, Key, Mode, PartitionId, ServerId, VersionOrd,
};

mod builder;
pub mod chaos;
mod driver;
mod facade;
mod host;
mod live;
mod measure;
mod sim_cluster;
mod socket_cluster;
mod thread_cluster;
mod tuning;
mod workload_client;

pub use builder::{Backend, ClusterBuilder, Paris};
pub use chaos::{chaos_scenario, ChaosOutcome, ChaosScenario, CHAOS_SCENARIOS};
pub use facade::{Cluster, Txn};
pub use measure::{visibility_histogram, BlockingStats, ClusterStats, RunReport};
pub use sim_cluster::SimCluster;
pub use socket_cluster::{
    socket_child_main, ChildSpec, SocketCluster, CHILD_SPEC_ENV, SERVER_BIN_ENV,
};
pub use thread_cluster::ThreadCluster;
pub use tuning::Durability;

/// The sim under the name the benchmark's seam still uses; ROADMAP item
/// 1(b) removes it.
#[doc(hidden)]
pub type MiniCluster = SimCluster;

pub use paris_core::{DurableStats, FsyncPolicy, RecoveryInfo};

/// Interactive client sessions get sequence numbers far above the
/// workload clients' `0..clients_per_dc` range so the two populations
/// never collide on ids or inboxes.
pub(crate) const INTERACTIVE_SEQ_BASE: u32 = 1 << 20;

/// How long a thread- or socket-backend operation may wait for its reply
/// before it is a transport failure. Generous: even BPR blocked reads
/// resolve within a few background-protocol periods.
pub(crate) const OP_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(10);

/// One stabilization round, in microseconds: long enough for every
/// periodic protocol to fire at least once and for its messages to cross
/// the (optionally scaled) WAN, plus `slack` for processing. With
/// batching enabled, every hop of the round (replicate, tree report, root
/// exchange, UST broadcast) may additionally sit one flush ceiling in a
/// coalescing queue.
pub(crate) fn gossip_round_micros(
    intervals: &Intervals,
    matrix: &RegionMatrix,
    dcs: u16,
    latency_scale: f64,
    batch: &paris_types::BatchConfig,
    slack: u64,
) -> u64 {
    let mut max_one_way = 0;
    for a in 0..dcs {
        for b in 0..dcs {
            max_one_way = max_one_way.max(matrix.one_way(DcId(a), DcId(b)));
        }
    }
    let wan = (max_one_way as f64 * latency_scale) as u64;
    let flush = if batch.is_enabled() {
        // The ceiling: paced links may flush earlier, never later.
        4 * batch.max_flush_micros
    } else {
        0
    };
    intervals.replication_micros
        + 2 * intervals.gst_micros
        + intervals.ust_micros
        + 2 * wan
        + flush
        + slack
}

/// One server as a [`ServerSnapshot`]: its UST, its counter block and,
/// when `chains` is set, every retained version's order. The node's wire
/// and flush counters stay zero; a socket child fills in its own.
pub(crate) fn server_snapshot(server: &Server, chains: bool) -> ServerSnapshot {
    let mut snap = ServerSnapshot {
        server: Some(server.id()),
        ust: server.ust(),
        stats: server.stats(),
        ..ServerSnapshot::default()
    };
    if chains {
        server.store().for_each_chain(&mut |key, chain| {
            snap.chains
                .push((key, chain.iter().map(|v| v.order()).collect()));
        });
    }
    snap
}

/// The deployment and workload every backend is built from (assembled by
/// the builder; the sim adds its substrate in its own config).
#[derive(Debug, Clone)]
pub(crate) struct BackendConfig {
    pub(crate) cluster: ClusterConfig,
    pub(crate) clients_per_dc: u32,
    pub(crate) workload: paris_workload::WorkloadConfig,
    pub(crate) seed: u64,
    pub(crate) record_history: bool,
    /// Durable storage engine (WAL + checkpoints) for every server; off
    /// (`None`, purely in-memory) by default.
    pub(crate) durability: Option<Durability>,
}

/// An interactive client: its session and the replies queued for it. The
/// session reads them only inside its backend's round trip.
pub(crate) struct Interactive<I> {
    pub(crate) session: ClientSession,
    pub(crate) inbox: I,
    /// When a reply last folded a UST into the session's `ust_c`, in
    /// microseconds on the backend's clock; `None` before the first such
    /// reply and after every [`Cluster::stabilize`].
    refreshed_at: Option<u64>,
}

impl<I> Interactive<I> {
    pub(crate) fn new(session: ClientSession, inbox: I) -> Self {
        Interactive {
            session,
            inbox,
            refreshed_at: None,
        }
    }

    /// Hands `env`, received at `now`, to the session.
    pub(crate) fn handle(&mut self, env: &Envelope, now: u64) -> Option<ClientEvent> {
        let refreshes = self.session.refreshes();
        let event = self.session.handle(env);
        if self.session.refreshes() != refreshes {
            self.refreshed_at = Some(now);
        }
        event
    }

    /// Whether a transaction begun at `now` may pick `ust_c` as its
    /// snapshot ([`Cluster::txn_begin`]): a reply refreshed it less than
    /// half a GC period ago and after the last [`Cluster::stabilize`]. A
    /// replica trims one period behind the `S_old` it learned, so the pick
    /// stays readable everywhere for about another half period.
    pub(crate) fn fresh(&self, now: u64, gc_micros: u64) -> bool {
        self.refreshed_at
            .is_some_and(|at| now.saturating_sub(at) < gc_micros / 2)
    }

    /// [`Cluster::stabilize`] ran: a transaction begun next reads at a
    /// snapshot its coordinator assigns, so it sees what was stabilized.
    pub(crate) fn mark_stale(&mut self) {
        self.refreshed_at = None;
    }
}

/// Client `id`'s session as the runtime opens one: pinned to its
/// coordinator, and reading straight from the replicas unless
/// `via_coordinator` ([`Cluster::open_client_via_coordinator`]). With the
/// value cache every deployment has, or — for the equivalence tests only,
/// see `open_clients_without_value_cache` — with none.
pub(crate) fn open_session(
    id: ClientId,
    topo: &Arc<Topology>,
    mode: Mode,
    value_cache: bool,
    via_coordinator: bool,
) -> ClientSession {
    let coordinator = topo.coordinator_for(id.dc, id.seq);
    let session = if value_cache {
        ClientSession::new(id, coordinator, mode)
    } else {
        ClientSession::with_value_cache_budget(id, coordinator, mode, 0)
    };
    if via_coordinator {
        session
    } else {
        session.with_topology(Arc::clone(topo))
    }
}

impl Interactive<VecDeque<Envelope>> {
    /// Hands the replies queued for the sim's client to the session, at
    /// `now`, until one completes an operation.
    pub(crate) fn next_event(&mut self, now: u64) -> Option<ClientEvent> {
        while let Some(env) = self.inbox.pop_front() {
            if let Some(event) = self.handle(&env, now) {
                return Some(event);
            }
        }
        None
    }
}

/// `kill_server` and `restart_server` on a backend without server
/// processes: an index outside the `servers` is a configuration error, any
/// other index is [`Error::Unsupported`] with `message`, which names the
/// backend.
pub(crate) fn no_server_processes(
    index: usize,
    servers: usize,
    message: &'static str,
) -> Result<(), Error> {
    if index >= servers {
        return Err(paris_types::ConfigError::new("server index out of range").into());
    }
    Err(Error::Unsupported(message))
}

/// Feeds every retained version in `snaps` into the checker's ground
/// truth — shared by every backend's report path.
pub(crate) fn record_ground_truth(checker: &mut HistoryChecker, snaps: &[ServerSnapshot]) {
    for snap in snaps {
        for (key, orders) in &snap.chains {
            checker.record_versions(*key, orders.iter().copied());
        }
    }
}

/// Shared replica-agreement oracle: for every partition, compares the
/// latest version of every key across all replicas' snapshots (taken with
/// their chains).
pub(crate) fn replica_convergence(topo: &Topology, snaps: &[ServerSnapshot]) -> Vec<Violation> {
    let mut by_server: HashMap<ServerId, HashMap<Key, Option<VersionOrd>>> = snaps
        .iter()
        .filter_map(|snap| {
            let latest = snap
                .chains
                .iter()
                .map(|(key, orders)| (*key, orders.first().copied()))
                .collect();
            Some((snap.server?, latest))
        })
        .collect();
    let mut violations = Vec::new();
    for p in 0..topo.partitions() {
        let p = PartitionId(p);
        let maps: Vec<HashMap<Key, Option<VersionOrd>>> = topo
            .replicas(p)
            .into_iter()
            .map(|dc| by_server.remove(&ServerId::new(dc, p)).unwrap_or_default())
            .collect();
        violations.extend(HistoryChecker::check_convergence(&maps));
    }
    violations
}
