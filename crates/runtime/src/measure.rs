//! Measurement extraction: run reports, blocking statistics and update
//! visibility latency (paper §V-E).

use paris_core::{EventLog, Violation};
use paris_types::Timestamp;
use paris_types::{Mode, TxId};
use paris_workload::stats::{Histogram, RunStats};
use std::collections::HashMap;

/// Aggregated BPR read-blocking statistics (paper §V-B reports the mean
/// blocking time of the read phase: 29 ms read-heavy / 41 ms write-heavy
/// at peak throughput).
#[derive(Debug, Clone, Copy, Default)]
pub struct BlockingStats {
    /// Reads that blocked.
    pub blocked_reads: u64,
    /// Total microseconds spent blocked.
    pub total_micros: u64,
    /// Longest single block.
    pub max_micros: u64,
}

impl BlockingStats {
    /// Folds one server's counters into the aggregate.
    pub(crate) fn accumulate(&mut self, stats: &paris_core::ServerStats) {
        self.blocked_reads += stats.blocked_reads;
        self.total_micros += stats.blocked_micros_total;
        self.max_micros = self.max_micros.max(stats.blocked_micros_max);
    }

    /// Mean blocking time in milliseconds (0 when nothing blocked).
    pub fn mean_ms(&self) -> f64 {
        if self.blocked_reads == 0 {
            return 0.0;
        }
        self.total_micros as f64 / self.blocked_reads as f64 / 1_000.0
    }
}

/// A cluster-wide counters snapshot, aggregated over every server of a
/// deployment — the unified statistics surface of
/// [`Cluster::stats`](crate::Cluster::stats).
///
/// Every backend reports through this one struct: the in-process backends
/// fold [`paris_core::ServerStats`] and the commit-pipeline counters
/// directly; the socket backend carries the same numbers over its control
/// plane (`SnapshotCounters`). Counters are cumulative since the cluster
/// was built, so diff two snapshots to meter an interval.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterStats {
    /// Servers folded into this snapshot.
    pub servers: u64,
    /// Messages handled, any kind.
    pub msgs_handled: u64,
    /// Update transactions committed (coordinator side).
    pub txs_coordinated: u64,
    /// Slice reads served.
    pub slice_reads: u64,
    /// Keys returned by slice reads.
    pub keys_read: u64,
    /// Keys answered `Unchanged`: the client's stamp named the version
    /// visible in the snapshot, so no value travelled.
    pub reads_unchanged: u64,
    /// Keys answered with a full version.
    pub reads_shipped: u64,
    /// Prepares handled (2PC cohort side).
    pub prepares: u64,
    /// Transactions applied locally (as 2PC participant).
    pub applied_local: u64,
    /// Transactions applied from remote replication.
    pub applied_remote: u64,
    /// Replication batches sent.
    pub replicate_batches: u64,
    /// Heartbeats sent.
    pub heartbeats: u64,
    /// Logical frames folded inside coalesced messages.
    pub coalesced_frames: u64,
    /// Coalescer flushes released by stable-time progress: the carried
    /// watermark / report minimum / GST / UST crossed a quantum boundary.
    /// With the two counters below, the flush-trigger mix — a healthy
    /// paced deployment is almost all crossings.
    pub crossing_flushes: u64,
    /// Coalescer flushes released by the size bound.
    pub size_flushes: u64,
    /// Coalescer flushes released by a deadline: the fixed interval, or
    /// under the default policy the ceiling — a stalled or partitioned DC
    /// shows up here.
    pub deadline_flushes: u64,
    /// Versions removed by GC.
    pub gc_removed: u64,
    /// Prepares staged through the commit pipelines (on- or off-loop).
    pub staged_prepares: u64,
    /// Replication frames applied through the pipelines' shard lanes.
    pub lane_batches: u64,
    /// Versions inserted through the pipelines' shard lanes.
    pub lane_applies: u64,
    /// Aggregated BPR read-blocking statistics (zero under PaRiS).
    pub blocking: BlockingStats,
    /// Total messages the network carried (0 on the mini backend, whose
    /// synchronous pump has no transport to meter).
    pub net_messages: u64,
    /// Total wire bytes the network carried (0 on the mini backend).
    pub net_bytes: u64,
    /// The minimum universal stable time across all servers.
    pub min_ust: Timestamp,
}

impl ClusterStats {
    /// Folds one server's protocol counters into the aggregate.
    pub(crate) fn fold_server(&mut self, stats: &paris_core::ServerStats) {
        self.servers += 1;
        self.msgs_handled += stats.msgs_handled;
        self.txs_coordinated += stats.txs_coordinated;
        self.slice_reads += stats.slice_reads;
        self.keys_read += stats.keys_read;
        self.reads_unchanged += stats.reads_unchanged;
        self.reads_shipped += stats.reads_shipped;
        self.prepares += stats.prepares;
        self.applied_local += stats.applied_local;
        self.applied_remote += stats.applied_remote;
        self.replicate_batches += stats.replicate_batches;
        self.heartbeats += stats.heartbeats;
        self.coalesced_frames += stats.coalesced_frames;
        self.gc_removed += stats.gc_removed;
        self.blocking.accumulate(stats);
    }

    /// Sets the flush-trigger mix from an in-process coalescer's totals.
    pub(crate) fn set_flush_mix(&mut self, coalescer: &paris_net::CoalescerStats) {
        self.crossing_flushes = coalescer.crossing_flushes;
        self.size_flushes = coalescer.size_flushes;
        self.deadline_flushes = coalescer.deadline_flushes;
    }

    /// Folds one server's commit-pipeline counters into the aggregate.
    pub(crate) fn fold_pipeline(&mut self, stats: &paris_core::PipelineStats) {
        self.staged_prepares += stats.staged_prepares();
        self.lane_batches += stats.lane_batches();
        self.lane_applies += stats.lane_applies();
    }

    /// Folds one socket-child snapshot counter block into the aggregate.
    pub(crate) fn fold_snapshot(&mut self, snap: &paris_proto::ServerSnapshot) {
        self.servers += 1;
        let c = &snap.counters;
        self.msgs_handled += c.msgs_handled;
        self.txs_coordinated += c.txs_coordinated;
        self.slice_reads += c.slice_reads;
        self.keys_read += c.keys_read;
        self.reads_unchanged += c.reads_unchanged;
        self.reads_shipped += c.reads_shipped;
        self.prepares += c.prepares;
        self.applied_local += c.applied_local;
        self.applied_remote += c.applied_remote;
        self.replicate_batches += c.replicate_batches;
        self.heartbeats += c.heartbeats;
        self.coalesced_frames += c.coalesced_frames;
        self.crossing_flushes += c.crossing_flushes;
        self.size_flushes += c.size_flushes;
        self.deadline_flushes += c.deadline_flushes;
        self.gc_removed += c.gc_removed;
        self.staged_prepares += c.staged_prepares;
        self.lane_batches += c.lane_batches;
        self.lane_applies += c.lane_applies;
        self.blocking.blocked_reads += snap.blocked_reads;
        self.blocking.total_micros += snap.blocked_micros_total;
        self.blocking.max_micros = self.blocking.max_micros.max(snap.blocked_micros_max);
        self.net_messages += snap.net_messages;
        self.net_bytes += snap.net_bytes;
    }

    /// Fraction of value-bearing slice-read answers that were validated
    /// instead of shipped: `reads_unchanged / (reads_unchanged +
    /// reads_shipped)` (0 when no read found a version).
    pub fn validation_hit_ratio(&self) -> f64 {
        let answered = self.reads_unchanged + self.reads_shipped;
        if answered == 0 {
            return 0.0;
        }
        self.reads_unchanged as f64 / answered as f64
    }

    /// Fraction of remote applies that went through the per-shard commit
    /// pipeline lanes (1.0 when every apply used the parallel write path;
    /// 0 when nothing was applied).
    pub fn lane_apply_share(&self) -> f64 {
        if self.applied_remote == 0 {
            return 0.0;
        }
        self.lane_applies as f64 / self.applied_remote as f64
    }

    /// One-line summary, e.g. for progress output.
    pub fn summary(&self) -> String {
        format!(
            "{} servers: {} msgs, {} coordinated, {} prepares ({} staged), \
             {} applied remote ({} via lanes), ust {}",
            self.servers,
            self.msgs_handled,
            self.txs_coordinated,
            self.prepares,
            self.staged_prepares,
            self.applied_remote,
            self.lane_applies,
            self.min_ust,
        )
    }
}

/// The outcome of a cluster run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Protocol variant measured.
    pub mode: Mode,
    /// Transaction throughput/latency inside the measurement window.
    pub stats: RunStats,
    /// BPR blocking statistics (zero under PaRiS).
    pub blocking: BlockingStats,
    /// Update-visibility latency histogram (µs), when event recording was
    /// enabled (Fig. 4).
    pub visibility: Option<Histogram>,
    /// Consistency violations, when history recording was enabled.
    pub violations: Vec<Violation>,
    /// Total messages the network carried.
    pub net_messages: u64,
    /// Total wire bytes the network carried.
    pub net_bytes: u64,
}

impl RunReport {
    /// Throughput in KTx/s — the unit of the paper's figures.
    pub fn ktps(&self) -> f64 {
        self.stats.throughput_tps() / 1_000.0
    }

    /// One-line summary, e.g. for progress output.
    pub fn summary(&self) -> String {
        format!(
            "{}: {:.1} KTx/s, mean {:.2} ms, p99 {:.2} ms ({} tx)",
            self.mode,
            self.ktps(),
            self.stats.mean_latency_ms(),
            self.stats.percentile_ms(99.0),
            self.stats.committed
        )
    }
}

/// Derives the update-visibility latency histogram (Fig. 4) from server
/// event logs.
///
/// The visibility latency of update `X` in DC `i` is the wall-clock delta
/// between `X` becoming visible in DC `i` and `X`'s commit in its origin
/// DC (§V-E). An update is visible on a PaRiS server once it is applied
/// *and* the server's UST covers its commit timestamp (transactions read
/// from the UST snapshot); on a BPR server, applying suffices (fresh
/// snapshots expose it immediately).
pub fn visibility_histogram<'a>(
    mode: Mode,
    logs: impl IntoIterator<Item = &'a EventLog>,
) -> Histogram {
    let logs: Vec<&EventLog> = logs.into_iter().collect();
    // Commit wall time per transaction (from the coordinators' logs).
    let mut commit_at: HashMap<TxId, u64> = HashMap::new();
    for log in &logs {
        for (tx, _ct, now) in &log.commits {
            commit_at.entry(*tx).or_insert(*now);
        }
    }
    let mut hist = Histogram::new();
    for log in &logs {
        for (tx, ct, applied_at) in &log.applies {
            let Some(&committed_at) = commit_at.get(tx) else {
                continue;
            };
            let visible_at = match mode {
                Mode::Bpr => *applied_at,
                Mode::Paris => {
                    // First UST advance covering ct (logs are sorted by
                    // time, and UST is monotonic, so also by ust).
                    let idx = log.ust_advances.partition_point(|(ust, _)| *ust < *ct);
                    match log.ust_advances.get(idx) {
                        Some((_, now)) => (*applied_at).max(*now),
                        None => continue, // never became visible in the run
                    }
                }
            };
            hist.record(visible_at.saturating_sub(committed_at));
        }
    }
    hist
}

/// Internal helper for tests: build an event log.
#[cfg(test)]
fn log(
    commits: Vec<(TxId, Timestamp, u64)>,
    applies: Vec<(TxId, Timestamp, u64)>,
    ust_advances: Vec<(Timestamp, u64)>,
) -> EventLog {
    EventLog {
        commits,
        applies,
        ust_advances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::{DcId, PartitionId, ServerId};

    fn tx(seq: u64) -> TxId {
        TxId::new(ServerId::new(DcId(0), PartitionId(0)), seq)
    }

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_physical_micros(t)
    }

    #[test]
    fn blocking_stats_mean() {
        let b = BlockingStats {
            blocked_reads: 4,
            total_micros: 8_000,
            max_micros: 5_000,
        };
        assert!((b.mean_ms() - 2.0).abs() < 1e-9);
        assert_eq!(BlockingStats::default().mean_ms(), 0.0);
    }

    #[test]
    fn bpr_visibility_is_apply_minus_commit() {
        let coordinator = log(vec![(tx(1), ts(100), 1_000)], vec![], vec![]);
        let replica = log(vec![], vec![(tx(1), ts(100), 41_000)], vec![]);
        let h = visibility_histogram(Mode::Bpr, [&coordinator, &replica]);
        assert_eq!(h.count(), 1);
        assert!(h.max() >= 39_000 && h.max() <= 41_000);
    }

    #[test]
    fn paris_visibility_waits_for_ust() {
        let coordinator = log(vec![(tx(1), ts(100), 1_000)], vec![], vec![]);
        // Applied at 41 ms but UST covers ct=100 only at 200 ms.
        let replica = log(
            vec![],
            vec![(tx(1), ts(100), 41_000)],
            vec![(ts(50), 100_000), (ts(150), 200_000)],
        );
        let h = visibility_histogram(Mode::Paris, [&coordinator, &replica]);
        assert_eq!(h.count(), 1);
        let v = h.max();
        assert!((190_000..=200_000).contains(&v), "got {v}");
    }

    #[test]
    fn paris_visibility_skips_never_visible_updates() {
        let coordinator = log(vec![(tx(1), ts(100), 1_000)], vec![], vec![]);
        let replica = log(
            vec![],
            vec![(tx(1), ts(100), 41_000)],
            vec![(ts(50), 100_000)], // UST never reaches 100
        );
        let h = visibility_histogram(Mode::Paris, [&coordinator, &replica]);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn unknown_commits_are_ignored() {
        let replica = log(vec![], vec![(tx(9), ts(5), 10)], vec![]);
        let h = visibility_histogram(Mode::Bpr, [&replica]);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn cluster_stats_folds_servers_and_snapshots_identically() {
        let server_stats = paris_core::ServerStats {
            msgs_handled: 10,
            txs_coordinated: 2,
            slice_reads: 3,
            keys_read: 9,
            reads_unchanged: 6,
            reads_shipped: 2,
            prepares: 4,
            applied_local: 4,
            applied_remote: 5,
            replicate_batches: 6,
            heartbeats: 7,
            coalesced_frames: 8,
            blocked_reads: 1,
            blocked_micros_total: 500,
            blocked_micros_max: 500,
            gc_removed: 11,
        };
        let snap = paris_proto::ServerSnapshot {
            ust: Timestamp::from_physical_micros(50),
            blocked_reads: 1,
            blocked_micros_total: 500,
            blocked_micros_max: 500,
            counters: paris_proto::SnapshotCounters {
                msgs_handled: 10,
                txs_coordinated: 2,
                slice_reads: 3,
                keys_read: 9,
                reads_unchanged: 6,
                reads_shipped: 2,
                prepares: 4,
                applied_local: 4,
                applied_remote: 5,
                replicate_batches: 6,
                heartbeats: 7,
                coalesced_frames: 8,
                crossing_flushes: 12,
                gc_removed: 11,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut direct = ClusterStats::default();
        direct.fold_server(&server_stats);
        let mut wired = ClusterStats::default();
        wired.fold_snapshot(&snap);
        assert_eq!(direct.servers, 1);
        assert_eq!(direct.msgs_handled, wired.msgs_handled);
        assert_eq!(direct.applied_remote, wired.applied_remote);
        assert_eq!(direct.gc_removed, wired.gc_removed);
        assert_eq!(
            (direct.reads_unchanged, direct.reads_shipped),
            (wired.reads_unchanged, wired.reads_shipped)
        );
        assert!((direct.validation_hit_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(
            direct.blocking.blocked_reads, wired.blocking.blocked_reads,
            "blocking folds the same on both paths"
        );
    }

    #[test]
    fn cluster_stats_lane_apply_share() {
        let mut s = ClusterStats::default();
        assert_eq!(s.lane_apply_share(), 0.0, "no applies, no share");
        s.applied_remote = 8;
        s.lane_applies = 8;
        assert!((s.lane_apply_share() - 1.0).abs() < 1e-9);
        s.lane_applies = 2;
        assert!((s.lane_apply_share() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn cluster_stats_summary_mentions_pipeline_counters() {
        let s = ClusterStats {
            servers: 18,
            msgs_handled: 1_000,
            staged_prepares: 42,
            lane_applies: 17,
            ..Default::default()
        };
        let line = s.summary();
        assert!(line.contains("18 servers"), "{line}");
        assert!(
            line.contains("42 staged") || line.contains("(42 staged)"),
            "{line}"
        );
        assert!(line.contains("17 via lanes"), "{line}");
    }

    #[test]
    fn run_report_summary_mentions_mode_and_throughput() {
        let mut stats = RunStats::new(1_000_000);
        stats.committed = 5_000;
        stats.latency.record(2_000);
        let report = RunReport {
            mode: Mode::Paris,
            stats,
            blocking: BlockingStats::default(),
            visibility: None,
            violations: vec![],
            net_messages: 0,
            net_bytes: 0,
        };
        assert!((report.ktps() - 5.0).abs() < 1e-9);
        let s = report.summary();
        assert!(s.contains("PaRiS") && s.contains("5.0 KTx/s"));
    }
}
