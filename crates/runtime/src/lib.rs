//! Cluster runtimes behind one facade: drive the PaRiS state machines
//! over any substrate through the [`Cluster`] trait.
//!
//! * [`MiniCluster`] — a synchronous in-process pump: zero latency, fully
//!   deterministic, the cheapest way to *use* PaRiS as a library.
//! * [`SimCluster`] — the deterministic discrete-event runtime that stands
//!   in for the paper's AWS deployment: WAN latency matrix, per-server CPU
//!   service queues, closed-loop clients, fault injection. Every figure of
//!   the paper is regenerated on it.
//! * [`ThreadCluster`] — a real multi-threaded in-process deployment: one
//!   thread per server, used by integration tests to exercise the protocol
//!   under genuine concurrency.
//! * [`SocketCluster`] — a real multi-**process** deployment: one OS
//!   process per server speaking protocol frames over loopback TCP — the
//!   paper's one-machine-per-server shape, scaled down to one host.
//!
//! All four execute the same `paris-core` state machines. Build any of
//! them with [`Paris::builder`]; interact through [`Cluster`] and the RAII
//! [`Txn`] handle; measure with [`Cluster::run_workload`], which produces
//! a [`RunReport`] with throughput, latency percentiles, blocking
//! statistics and (when enabled) the consistency checker's verdict.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;

use paris_core::checker::HistoryChecker;
use paris_core::{Topology, Violation};
use paris_net::sim::RegionMatrix;
use paris_types::{DcId, Intervals, Key, PartitionId, ServerId, VersionOrd};

mod builder;
pub mod chaos;
mod driver;
mod facade;
mod measure;
mod mini_cluster;
mod sim_cluster;
mod socket_cluster;
mod thread_cluster;
mod tuning;

pub use builder::{Backend, ClusterBuilder, Paris};
pub use chaos::{chaos_scenario, ChaosOutcome, ChaosScenario, CHAOS_SCENARIOS};
pub use facade::{Cluster, Txn};
pub use measure::{visibility_histogram, BlockingStats, ClusterStats, RunReport};
pub use mini_cluster::MiniCluster;
pub use sim_cluster::SimCluster;
pub use socket_cluster::{
    socket_child_main, ChildSpec, SocketCluster, CHILD_SPEC_ENV, SERVER_BIN_ENV,
};
pub use thread_cluster::ThreadCluster;
pub use tuning::{Durability, Tuning};

pub use paris_core::{DurableStats, FsyncPolicy, RecoveryInfo};

/// Interactive client sessions get sequence numbers far above the
/// workload clients' `0..clients_per_dc` range so the two populations
/// never collide on ids or inboxes.
pub(crate) const INTERACTIVE_SEQ_BASE: u32 = 1 << 20;

/// One stabilization round, in microseconds: long enough for every
/// periodic protocol to fire at least once and for its messages to cross
/// the (optionally scaled) WAN, plus `slack` for processing. With
/// batching enabled, every hop of the round (replicate, tree report, root
/// exchange, UST broadcast) may additionally sit one flush interval in a
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
        4 * batch.max_flush_micros()
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

/// Snapshot of each key's freshest version order in one store — the
/// per-server input every backend feeds to [`replica_convergence`].
pub(crate) fn latest_orders(store: &dyn paris_storage::Engine) -> HashMap<Key, Option<VersionOrd>> {
    let mut latest = HashMap::new();
    store.for_each_chain(&mut |k, chain| {
        latest.insert(k, chain.latest_order());
    });
    latest
}

/// An interactive session of a deterministic backend: with the value cache
/// every deployment has, or — for the equivalence tests only, see
/// `open_clients_without_value_cache` — with none.
pub(crate) fn interactive_session(
    id: paris_types::ClientId,
    coordinator: paris_types::ServerId,
    mode: paris_types::Mode,
    value_cache: bool,
) -> paris_core::ClientSession {
    if value_cache {
        paris_core::ClientSession::new(id, coordinator, mode)
    } else {
        paris_core::ClientSession::with_value_cache_budget(id, coordinator, mode, 0)
    }
}

/// Feeds every retained version of one store into the checker's ground
/// truth — shared by every backend's report path.
pub(crate) fn record_store_versions(
    checker: &mut HistoryChecker,
    store: &dyn paris_storage::Engine,
) {
    store.for_each_chain(&mut |key, chain| {
        checker.record_versions(key, chain.iter().map(|v| v.order()));
    });
}

/// Shared replica-agreement oracle: for every partition, compares the
/// latest version of every key across all replicas.
pub(crate) fn replica_convergence<F>(topo: &Topology, mut latest_of: F) -> Vec<Violation>
where
    F: FnMut(ServerId) -> HashMap<Key, Option<VersionOrd>>,
{
    let mut violations = Vec::new();
    for p in 0..topo.partitions() {
        let p = PartitionId(p);
        let maps: Vec<HashMap<Key, Option<VersionOrd>>> = topo
            .replicas(p)
            .into_iter()
            .map(|dc| latest_of(ServerId::new(dc, p)))
            .collect();
        violations.extend(HistoryChecker::check_convergence(&maps));
    }
    violations
}
