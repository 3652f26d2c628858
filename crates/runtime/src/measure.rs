//! Measurement extraction: run reports, blocking statistics and update
//! visibility latency (paper §V-E).

use paris_core::{EventLog, Violation};
use paris_proto::ServerSnapshot;
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
/// Every backend reports through this one struct, folded by one fold
/// from one stats block: each server's [`paris_core::ServerStats`],
/// carried in a [`ServerSnapshot`]. The sim takes the snapshots off its
/// servers directly; on the thread and socket backends each server's own
/// loop answers with one, in-process or across the control plane.
/// Counters are cumulative since the cluster was built, so diff two
/// snapshots to meter an interval.
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
    /// Reads a coordinator fanned out (`ReadReq`s handled). A read whose
    /// client knew its snapshot — picked or assigned — sent its slices
    /// itself and counts none; the start form of a deferred begin's first
    /// read counts one, and so does its retry after a refused pick.
    pub coordinator_reads: u64,
    /// Slice reads refused below the horizon a server's GC last trimmed
    /// its chains to (`S_old` as of its previous GC tick): under PaRiS,
    /// client-picked snapshots GC passed before the read arrived. Each
    /// refused first read costs a workload transaction one retry in the
    /// start form, so `refused_slices` bounds the retries from above; a
    /// facade transaction whose pick is refused aborts.
    pub refused_slices: u64,
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
    /// Heartbeats (empty `Replicate` frames) sent.
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
    /// `CommitTx` messages that found no prepared share: a server lost a
    /// prepare, and with it its share of a committed write set.
    pub orphan_commits: u64,
    /// Decider commits' partial vote sets dropped as abandoned: a vote or
    /// the carried share never reached the decider. 0 in a healthy run.
    pub abandoned_votes: u64,
    /// Aggregated BPR read-blocking statistics (zero under PaRiS).
    pub blocking: BlockingStats,
    /// Total messages the network carried.
    pub net_messages: u64,
    /// Total wire bytes the network carried.
    pub net_bytes: u64,
    /// The minimum universal stable time across all servers.
    pub min_ust: Timestamp,
}

impl ClusterStats {
    /// The cluster view of one snapshot per server — the one fold every
    /// backend uses: every counter block summed, the nodes' wire and flush
    /// counters summed, and the minimum UST. Traffic metered outside the
    /// servers' nodes (the socket parent's client host, an in-process
    /// network) is the caller's to add.
    pub(crate) fn of_snapshots(snaps: &[ServerSnapshot]) -> ClusterStats {
        let mut out = ClusterStats::default();
        for snap in snaps {
            let stats = &snap.stats;
            out.servers += 1;
            out.msgs_handled += stats.msgs_handled;
            out.txs_coordinated += stats.txs_coordinated;
            out.slice_reads += stats.slice_reads;
            out.coordinator_reads += stats.coordinator_reads;
            out.refused_slices += stats.refused_slices;
            out.keys_read += stats.keys_read;
            out.reads_unchanged += stats.reads_unchanged;
            out.reads_shipped += stats.reads_shipped;
            out.prepares += stats.prepares;
            out.applied_local += stats.applied_local;
            out.applied_remote += stats.applied_remote;
            out.replicate_batches += stats.replicate_batches;
            out.heartbeats += stats.heartbeats;
            out.coalesced_frames += stats.coalesced_frames;
            out.gc_removed += stats.gc_removed;
            out.orphan_commits += stats.orphan_commits;
            out.abandoned_votes += stats.abandoned_votes;
            out.blocking.blocked_reads += stats.blocked_reads;
            out.blocking.total_micros += stats.blocked_micros_total;
            out.blocking.max_micros = out.blocking.max_micros.max(stats.blocked_micros_max);
            out.net_messages += snap.net_messages;
            out.net_bytes += snap.net_bytes;
            out.crossing_flushes += snap.crossing_flushes;
            out.size_flushes += snap.size_flushes;
            out.deadline_flushes += snap.deadline_flushes;
        }
        out.min_ust = snaps.iter().map(|s| s.ust).min().unwrap_or(Timestamp::ZERO);
        out
    }

    /// Sets the flush-trigger mix from an in-process coalescer's totals.
    pub(crate) fn set_flush_mix(&mut self, coalescer: &paris_net::CoalescerStats) {
        self.crossing_flushes = coalescer.crossing_flushes;
        self.size_flushes = coalescer.size_flushes;
        self.deadline_flushes = coalescer.deadline_flushes;
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

    /// One-line summary, e.g. for progress output.
    pub fn summary(&self) -> String {
        format!(
            "{} servers: {} msgs, {} coordinated, {} prepares, {} applied remote, \
             {} refused slices, ust {}",
            self.servers,
            self.msgs_handled,
            self.txs_coordinated,
            self.prepares,
            self.applied_remote,
            self.refused_slices,
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
    fn cluster_stats_summary_mentions_write_counters() {
        let s = ClusterStats {
            servers: 18,
            msgs_handled: 1_000,
            prepares: 42,
            applied_remote: 17,
            refused_slices: 3,
            reads_unchanged: 6,
            reads_shipped: 2,
            ..Default::default()
        };
        assert!((s.validation_hit_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(ClusterStats::default().validation_hit_ratio(), 0.0);
        let line = s.summary();
        assert!(line.contains("18 servers"), "{line}");
        assert!(line.contains("42 prepares"), "{line}");
        assert!(line.contains("17 applied remote"), "{line}");
        assert!(line.contains("3 refused slices"), "{line}");
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
