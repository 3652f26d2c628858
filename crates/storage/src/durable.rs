//! The durable engine: a [`MemEngine`] with a WAL and checkpoints.
//!
//! Writes go to memory first (the protocol's visibility rules are
//! unchanged) and every *new* version is appended to the write-ahead log
//! before `apply` returns. Periodically the ≤ UST stable prefix is
//! frozen into an immutable checkpoint file and the log rotates; closed
//! segments fully covered by a checkpoint and below the GC horizon are
//! deleted. Recovery ([`DurableEngine::open`]) loads the newest intact
//! checkpoint, replays every WAL segment (truncating a torn tail), and
//! reports a [`RecoveryInfo`] the server uses to re-seed its version
//! vector, HLC, UST and `S_old` — so a restarted server resumes
//! exactly where its log ends.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use paris_types::{DcId, Key, Timestamp, TxId, Value, Version};

use crate::chain::VersionChain;
use crate::checkpoint::{self, CheckpointMeta};
use crate::engine::{DurableStats, Engine};
use crate::store::{MemEngine, StoreStats};
use crate::wal::{self, ClosedSegment, SegmentWriter};

/// Default checkpoint cadence when none is configured: once per virtual
/// half-second, a few stabilization rounds at the default intervals.
pub const DEFAULT_CHECKPOINT_INTERVAL_MICROS: u64 = 500_000;

/// When to `fsync` the write-ahead log.
///
/// Records always reach the OS page cache per append (surviving a
/// killed process); the policy decides whether they also survive power
/// loss before `apply` acknowledges.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync on the append path: group durability comes from
    /// checkpoints. Cheapest; loses at most the un-checkpointed WAL
    /// suffix on power loss (never on a plain crash).
    #[default]
    Never,
    /// Fsync after every appended record. Strongest; slowest.
    Always,
}

impl FsyncPolicy {
    /// Stable numeric tag for wire/env encodings of configs.
    pub const fn as_u8(self) -> u8 {
        match self {
            FsyncPolicy::Never => 0,
            FsyncPolicy::Always => 1,
        }
    }

    /// Inverse of [`FsyncPolicy::as_u8`].
    pub const fn from_u8(v: u8) -> Option<FsyncPolicy> {
        match v {
            0 => Some(FsyncPolicy::Never),
            1 => Some(FsyncPolicy::Always),
            _ => None,
        }
    }
}

/// Configuration for one server's [`DurableEngine`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableConfig {
    /// Directory holding this server's WAL segments and checkpoints.
    /// Each server must get its own directory.
    pub dir: PathBuf,
    /// WAL fsync policy.
    pub fsync: FsyncPolicy,
    /// Minimum interval between checkpoints, in the server's clock
    /// domain (virtual micros on the sim, wall micros elsewhere).
    pub checkpoint_interval_micros: u64,
}

impl DurableConfig {
    /// A config writing under `dir` with default cadence and no fsync.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurableConfig {
            dir: dir.into(),
            fsync: FsyncPolicy::Never,
            checkpoint_interval_micros: DEFAULT_CHECKPOINT_INTERVAL_MICROS,
        }
    }

    /// Sets the fsync policy.
    pub fn fsync(mut self, fsync: FsyncPolicy) -> Self {
        self.fsync = fsync;
        self
    }

    /// Sets the checkpoint cadence.
    pub fn checkpoint_interval_micros(mut self, micros: u64) -> Self {
        self.checkpoint_interval_micros = micros.max(1);
        self
    }
}

/// What recovery found on disk, for re-seeding the server's protocol
/// state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// UST frozen by the newest intact checkpoint (zero if none).
    pub ust: Timestamp,
    /// GC horizon frozen by that checkpoint.
    pub s_old: Timestamp,
    /// Per-source-DC maximum update timestamp across everything
    /// recovered — seeds the replication version vector and the HLC.
    pub max_ut_by_src: Vec<(DcId, Timestamp)>,
    /// Versions loaded from the checkpoint.
    pub checkpoint_versions: u64,
    /// Records replayed from WAL segments.
    pub replayed_records: u64,
    /// Bytes of torn WAL tail truncated away.
    pub truncated_bytes: u64,
}

impl RecoveryInfo {
    /// The largest update timestamp recovered from any source (at least
    /// the checkpoint UST). A restarted server's clock must start above
    /// this so new commits sort after everything persisted.
    pub fn max_recovered(&self) -> Timestamp {
        self.max_ut_by_src
            .iter()
            .map(|(_, ts)| *ts)
            .fold(self.ust, Timestamp::max)
    }
}

/// Errors from the durable engine's file I/O and decoding.
#[derive(Debug)]
pub enum DurableError {
    /// An operating-system I/O failure.
    Io(std::io::Error),
    /// A file failed structural validation.
    Corrupt(&'static str),
}

impl DurableError {
    pub(crate) fn corrupt(what: &'static str) -> Self {
        DurableError::Corrupt(what)
    }
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "durable storage i/o: {e}"),
            DurableError::Corrupt(what) => write!(f, "durable storage corrupt: {what}"),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableError::Io(e) => Some(e),
            DurableError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<DurableError> for paris_types::Error {
    fn from(e: DurableError) -> Self {
        paris_types::Error::Storage(e.to_string())
    }
}

/// Log-side state serialized behind one mutex: the active segment plus
/// the pruning bookkeeping. The in-memory store keeps its own sharded
/// locks; appenders only contend here for the microseconds one record
/// write takes.
#[derive(Debug)]
struct LogState {
    writer: SegmentWriter,
    closed: Vec<ClosedSegment>,
    last_ckpt_ust: Timestamp,
    /// Cadence baseline; `None` until the first `maybe_checkpoint`
    /// observation so the first interval is measured, not assumed.
    last_ckpt_micros: Option<u64>,
    /// Set when a WAL append failed; durability is degraded and the
    /// failure has been reported once.
    wal_failed: bool,
}

/// A [`MemEngine`] wrapped with an append-only WAL and stable-prefix
/// checkpoints. See the module docs for the layout and invariants.
#[derive(Debug)]
pub struct DurableEngine {
    mem: MemEngine,
    cfg: DurableConfig,
    log: Mutex<LogState>,
    /// Last GC horizon observed, frozen into checkpoint headers.
    last_horizon: AtomicU64,
    wal_bytes: AtomicU64,
    wal_records: AtomicU64,
    wal_syncs: AtomicU64,
    checkpoints: AtomicU64,
    checkpoint_bytes: AtomicU64,
    segments_pruned: AtomicU64,
}

impl DurableEngine {
    /// Opens (or creates) the engine under `cfg.dir` with `shards` chain
    /// shards, running recovery: newest intact checkpoint, then every
    /// WAL segment in sequence order with torn tails truncated.
    ///
    /// # Errors
    ///
    /// Any I/O failure on the directory or its files. Corrupt
    /// checkpoints are skipped (older ones are tried), corrupt WAL
    /// content is truncated — neither is an error.
    pub fn open(
        cfg: DurableConfig,
        shards: usize,
    ) -> Result<(DurableEngine, RecoveryInfo), DurableError> {
        fs::create_dir_all(&cfg.dir)?;
        let mem = MemEngine::with_shards(shards);
        let mut info = RecoveryInfo::default();

        // Inventory the directory.
        let mut ckpts: Vec<(Timestamp, PathBuf)> = Vec::new();
        let mut segs: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&cfg.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(ust) = checkpoint::parse_checkpoint_name(name) {
                ckpts.push((ust, entry.path()));
            } else if let Some(seq) = wal::parse_segment_name(name) {
                segs.push((seq, entry.path()));
            }
        }
        ckpts.sort_by_key(|(ust, _)| *ust);
        segs.sort_by_key(|(seq, _)| *seq);

        // Newest intact checkpoint wins; corrupt ones are skipped.
        for (_, path) in ckpts.iter().rev() {
            match checkpoint::load_checkpoint(path) {
                Ok((meta, versions)) => {
                    info.ust = meta.ust;
                    info.s_old = meta.s_old;
                    info.checkpoint_versions = versions.len() as u64;
                    for v in versions {
                        mem.apply(v.key, v.value, v.ut, v.tx, v.src);
                    }
                    break;
                }
                Err(DurableError::Io(e)) => return Err(DurableError::Io(e)),
                Err(DurableError::Corrupt(_)) => continue,
            }
        }

        // Replay every WAL segment; inserts are idempotent, so records
        // already covered by the checkpoint are harmless.
        let mut closed = Vec::with_capacity(segs.len());
        let mut next_seq = 0u64;
        for (seq, path) in &segs {
            next_seq = next_seq.max(seq + 1);
            let bytes = fs::read(path)?;
            let replay = match wal::replay_segment(&bytes) {
                Ok(r) => r,
                // A segment that is not even structurally a WAL file is
                // rejected whole, never replayed as data.
                Err(DurableError::Corrupt(_)) => continue,
                Err(e) => return Err(e),
            };
            if replay.good_len < bytes.len() {
                info.truncated_bytes += (bytes.len() - replay.good_len) as u64;
                let file = fs::OpenOptions::new().write(true).open(path)?;
                file.set_len(replay.good_len as u64)?;
            }
            let mut max_ut = Timestamp::ZERO;
            for v in replay.versions {
                max_ut = max_ut.max(v.ut);
                info.replayed_records += 1;
                mem.apply(v.key, v.value, v.ut, v.tx, v.src);
            }
            closed.push(ClosedSegment {
                path: path.clone(),
                seq: *seq,
                max_ut,
            });
        }

        // Everything recovered is in memory now; fold the per-source
        // high-water marks the server needs to restart its clocks.
        let mut by_src: std::collections::BTreeMap<DcId, Timestamp> =
            std::collections::BTreeMap::new();
        mem.for_each_chain(|_, chain| {
            for v in chain.iter() {
                let e = by_src.entry(v.src).or_insert(Timestamp::ZERO);
                *e = (*e).max(v.ut);
            }
        });
        info.max_ut_by_src = by_src.into_iter().collect();

        // New writes go to a fresh segment after the replayed ones.
        let writer = SegmentWriter::create(&cfg.dir, next_seq)?;
        let engine = DurableEngine {
            mem,
            log: Mutex::new(LogState {
                writer,
                closed,
                last_ckpt_ust: info.ust,
                last_ckpt_micros: None,
                wal_failed: false,
            }),
            last_horizon: AtomicU64::new(info.s_old.as_u64()),
            cfg,
            wal_bytes: AtomicU64::new(0),
            wal_records: AtomicU64::new(0),
            wal_syncs: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            checkpoint_bytes: AtomicU64::new(0),
            segments_pruned: AtomicU64::new(0),
        };
        Ok((engine, info))
    }

    /// The engine's configuration.
    pub fn config(&self) -> &DurableConfig {
        &self.cfg
    }

    fn append_to_wal(&self, v: &Version) {
        let mut log = self.log.lock().expect("wal state poisoned");
        if log.wal_failed {
            return;
        }
        let result = log.writer.append(v).and_then(|bytes| {
            self.wal_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.wal_records.fetch_add(1, Ordering::Relaxed);
            if self.cfg.fsync == FsyncPolicy::Always {
                self.wal_syncs.fetch_add(1, Ordering::Relaxed);
                log.writer.sync()?;
            }
            Ok(())
        });
        if let Err(e) = result {
            // `apply` cannot fail (the in-memory write already
            // happened); degrade to memory-only and say so once.
            log.wal_failed = true;
            eprintln!(
                "paris-storage: WAL append failed, durability degraded: {e} ({})",
                self.cfg.dir.display()
            );
        }
    }

    /// Deletes closed segments whose every record is both frozen into a
    /// checkpoint and at or below `cover`.
    fn prune_segments(&self, log: &mut LogState, cover: Timestamp) {
        let before = log.closed.len();
        let mut kept = Vec::with_capacity(before);
        for seg in log.closed.drain(..) {
            if seg.max_ut <= cover {
                let _ = fs::remove_file(&seg.path);
            } else {
                kept.push(seg);
            }
        }
        self.segments_pruned
            .fetch_add((before - kept.len()) as u64, Ordering::Relaxed);
        log.closed = kept;
    }

    /// Deletes checkpoint files older than the newest one.
    fn prune_checkpoints(&self, newest: Timestamp) {
        let Ok(entries) = fs::read_dir(&self.cfg.dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(ust) = checkpoint::parse_checkpoint_name(name) {
                if ust < newest {
                    let _ = fs::remove_file(entry.path());
                }
            }
        }
    }
}

impl Engine for DurableEngine {
    fn apply(&self, key: Key, value: Value, ut: Timestamp, tx: TxId, src: DcId) -> bool {
        let inserted = self.mem.apply(key, value.clone(), ut, tx, src);
        if inserted {
            self.append_to_wal(&Version::new(key, value, ut, tx, src));
        }
        inserted
    }

    fn read_at(&self, key: Key, ts: Timestamp) -> Option<Version> {
        self.mem.read_at(key, ts)
    }

    fn latest(&self, key: Key) -> Option<Version> {
        self.mem.latest(key)
    }

    fn chain(&self, key: Key) -> Option<VersionChain> {
        self.mem.chain(key)
    }

    fn gc(&self, s_old: Timestamp) -> usize {
        self.last_horizon
            .fetch_max(s_old.as_u64(), Ordering::Relaxed);
        let removed = self.mem.gc(s_old);
        // Log truncation rides the GC horizon: a closed segment may go
        // once a checkpoint covers it *and* the horizon passed it, so
        // nothing below S_old ever needs the log again.
        let mut log = self.log.lock().expect("wal state poisoned");
        let cover = log.last_ckpt_ust.min(s_old);
        self.prune_segments(&mut log, cover);
        removed
    }

    fn for_each_chain(&self, f: &mut dyn FnMut(Key, &VersionChain)) {
        self.mem.for_each_chain(f);
    }

    fn stats(&self) -> StoreStats {
        self.mem.stats()
    }

    fn maybe_checkpoint(&self, ust: Timestamp, now_micros: u64) -> bool {
        let mut log = self.log.lock().expect("wal state poisoned");
        match log.last_ckpt_micros {
            None => {
                // First observation sets the cadence baseline.
                log.last_ckpt_micros = Some(now_micros);
                return false;
            }
            Some(at) if now_micros.saturating_sub(at) < self.cfg.checkpoint_interval_micros => {
                return false;
            }
            Some(_) => {}
        }
        if ust <= log.last_ckpt_ust || ust == Timestamp::ZERO {
            return false;
        }

        // Collect the stable prefix under the log lock: any version
        // whose WAL record made it into the closing segment was applied
        // to memory before we took this lock, so the scan cannot miss a
        // record the rotation is about to seal (see prune rule below).
        let mut stable: Vec<Version> = Vec::new();
        self.mem.for_each_chain(|_, chain| {
            for v in chain.iter() {
                if v.ut <= ust {
                    stable.push(v.clone());
                }
            }
        });
        let meta = CheckpointMeta {
            ust,
            s_old: Timestamp::from_u64(self.last_horizon.load(Ordering::Relaxed)),
        };
        let sync = self.cfg.fsync == FsyncPolicy::Always;
        match checkpoint::write_checkpoint(&self.cfg.dir, meta, &stable, sync) {
            Ok((_, bytes)) => {
                self.checkpoints.fetch_add(1, Ordering::Relaxed);
                self.checkpoint_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            Err(e) => {
                eprintln!(
                    "paris-storage: checkpoint failed: {e} ({})",
                    self.cfg.dir.display()
                );
                return false;
            }
        }

        // Rotate the log and drop everything the checkpoint now covers.
        let next_seq = log.writer.seq() + 1;
        match SegmentWriter::create(&self.cfg.dir, next_seq) {
            Ok(fresh) => {
                let sealed = std::mem::replace(&mut log.writer, fresh);
                log.closed.push(sealed.close());
            }
            Err(e) => {
                eprintln!(
                    "paris-storage: WAL rotation failed: {e} ({})",
                    self.cfg.dir.display()
                );
            }
        }
        self.prune_segments(&mut log, ust);
        self.prune_checkpoints(ust);
        log.last_ckpt_ust = ust;
        log.last_ckpt_micros = Some(now_micros);
        true
    }

    fn durable_stats(&self) -> Option<DurableStats> {
        Some(DurableStats {
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            wal_records: self.wal_records.load(Ordering::Relaxed),
            wal_syncs: self.wal_syncs.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            checkpoint_bytes: self.checkpoint_bytes.load(Ordering::Relaxed),
            segments_pruned: self.segments_pruned.load(Ordering::Relaxed),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::{PartitionId, ServerId};

    fn tx(src: u16, seq: u64) -> TxId {
        TxId::new(ServerId::new(DcId(src), PartitionId(0)), seq)
    }

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_physical_micros(t)
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("paris-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn cfg(dir: &PathBuf) -> DurableConfig {
        DurableConfig::new(dir).checkpoint_interval_micros(1_000)
    }

    #[test]
    fn reopen_recovers_applied_versions_from_wal_alone() {
        let dir = tmpdir("wal-only");
        {
            let (eng, info) = DurableEngine::open(cfg(&dir), 4).unwrap();
            assert_eq!(info, RecoveryInfo::default());
            for t in 1..=20u64 {
                assert!(eng.apply(Key(t % 5), Value::filled(8, t), ts(t), tx(0, t), DcId(0)));
            }
        }
        let (eng, info) = DurableEngine::open(cfg(&dir), 4).unwrap();
        assert_eq!(info.replayed_records, 20);
        assert_eq!(info.checkpoint_versions, 0);
        assert_eq!(info.max_ut_by_src, vec![(DcId(0), ts(20))]);
        assert_eq!(eng.stats().versions, 20);
        assert_eq!(eng.latest(Key(0)).unwrap().ut, ts(20));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_then_reopen_uses_it_and_prunes_log() {
        let dir = tmpdir("ckpt");
        {
            let (eng, _) = DurableEngine::open(cfg(&dir), 4).unwrap();
            for t in 1..=10u64 {
                eng.apply(Key(t), Value::filled(8, t), ts(t), tx(1, t), DcId(1));
            }
            assert!(
                !eng.maybe_checkpoint(ts(10), 0),
                "first call only arms cadence"
            );
            assert!(eng.maybe_checkpoint(ts(10), 2_000), "interval elapsed");
            // Everything ≤ 10 froze; the pre-rotation segment is gone.
            assert_eq!(eng.durable_stats().unwrap().checkpoints, 1);
            assert_eq!(eng.durable_stats().unwrap().segments_pruned, 1);
            // Writes after the checkpoint land in the fresh segment.
            eng.apply(Key(99), Value::filled(8, 11), ts(11), tx(1, 11), DcId(1));
        }
        let (eng, info) = DurableEngine::open(cfg(&dir), 4).unwrap();
        assert_eq!(info.ust, ts(10));
        assert_eq!(info.checkpoint_versions, 10);
        assert_eq!(info.replayed_records, 1, "only the post-checkpoint suffix");
        assert_eq!(info.max_recovered(), ts(11));
        assert_eq!(eng.stats().versions, 11);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_truncated_on_open() {
        let dir = tmpdir("torn");
        {
            let (eng, _) = DurableEngine::open(cfg(&dir), 4).unwrap();
            for t in 1..=5u64 {
                eng.apply(Key(t), Value::filled(8, t), ts(t), tx(0, t), DcId(0));
            }
        }
        // Tear the last record of the only non-empty segment.
        let seg = wal::segment_path(&dir, 0);
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 2]).unwrap();
        let (eng, info) = DurableEngine::open(cfg(&dir), 4).unwrap();
        assert_eq!(info.replayed_records, 4);
        assert!(info.truncated_bytes > 0);
        assert_eq!(eng.stats().versions, 4);
        assert!(eng.latest(Key(5)).is_none(), "torn record is gone");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_older_or_wal() {
        let dir = tmpdir("fallback");
        {
            let (eng, _) = DurableEngine::open(cfg(&dir), 4).unwrap();
            for t in 1..=6u64 {
                eng.apply(Key(t), Value::filled(8, t), ts(t), tx(0, t), DcId(0));
            }
            assert!(!eng.maybe_checkpoint(ts(6), 0));
            assert!(eng.maybe_checkpoint(ts(6), 5_000));
        }
        // Corrupt the (only) checkpoint: recovery must still rebuild
        // from whatever WAL suffix remains — but the pre-checkpoint
        // segment was pruned, so only post-checkpoint data survives.
        // Write more first, then corrupt.
        {
            let (eng, _) = DurableEngine::open(cfg(&dir), 4).unwrap();
            eng.apply(Key(7), Value::filled(8, 7), ts(7), tx(0, 7), DcId(0));
        }
        let ckpt = checkpoint::checkpoint_path(&dir, ts(6));
        let mut bytes = fs::read(&ckpt).unwrap();
        bytes[6] ^= 0xFF;
        fs::write(&ckpt, &bytes).unwrap();
        let (eng, info) = DurableEngine::open(cfg(&dir), 4).unwrap();
        assert_eq!(info.ust, Timestamp::ZERO, "corrupt checkpoint skipped");
        assert_eq!(info.checkpoint_versions, 0);
        assert_eq!(eng.stats().versions, info.replayed_records as usize);
        assert!(eng.latest(Key(7)).is_some(), "WAL suffix still replayed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_prunes_covered_segments_under_horizon() {
        let dir = tmpdir("gc-prune");
        let (eng, _) = DurableEngine::open(cfg(&dir), 4).unwrap();
        for t in 1..=4u64 {
            eng.apply(Key(t), Value::filled(8, t), ts(t), tx(0, t), DcId(0));
        }
        assert!(!eng.maybe_checkpoint(ts(4), 0));
        assert!(eng.maybe_checkpoint(ts(4), 2_000));
        // Segment 1 gets records above the checkpoint.
        for t in 5..=6u64 {
            eng.apply(Key(t), Value::filled(8, t), ts(t), tx(0, t), DcId(0));
        }
        assert!(eng.maybe_checkpoint(ts(5), 4_000), "second checkpoint at 5");
        // Segment 1's max_ut is 6 > 5: still needed, not pruned.
        assert_eq!(eng.durable_stats().unwrap().segments_pruned, 1);
        // Checkpoint 6 covers it, and GC passing the horizon prunes it.
        assert!(eng.maybe_checkpoint(ts(6), 6_000));
        eng.gc(ts(6));
        assert_eq!(eng.durable_stats().unwrap().segments_pruned, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_engine_is_a_usable_engine_object() {
        let dir = tmpdir("object");
        let (eng, _) = DurableEngine::open(cfg(&dir), 4).unwrap();
        let eng: std::sync::Arc<dyn Engine> = std::sync::Arc::new(eng);
        eng.apply(Key(1), Value::filled(8, 1), ts(1), tx(0, 1), DcId(0));
        assert_eq!(eng.read_at(Key(1), ts(1)).unwrap().ut, ts(1));
        let mut seen = 0;
        eng.for_each_chain(&mut |_, _| seen += 1);
        assert_eq!(seen, 1);
        assert!(eng.durable_stats().unwrap().wal_records == 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
