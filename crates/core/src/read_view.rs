//! The published snapshot-read view: Algorithm 3 slice reads served off
//! the server loop.
//!
//! A [`ReadView`] is a cheap cloneable handle onto a server's shared
//! state — the sharded storage [`Engine`] and the atomic
//! [`StableFrontier`] — that executes the read half of Algorithm 3
//! (`ust ← max(ust, snapshot)`, then the freshest version `≤ snapshot`
//! per key) **without entering the single-writer state machine**. Any
//! number of threads may serve reads through views of the same server
//! concurrently; this is the paper's *parallel non-blocking read*
//! property made concrete:
//!
//! * reads never take the server lock, so they cannot queue behind
//!   commits, replication batches or gossip ticks;
//! * the snapshot is universally stable (`snapshot ≤ UST` at the
//!   coordinator that assigned it), so every version the read needs is
//!   already installed — no waiting, by construction;
//! * safety against the one mutation reads can race — garbage
//!   collection — comes from the frontier: each view read registers its
//!   snapshot (GC honors the oldest in-flight read), and a read below
//!   the published `S_old` is rejected with [`StaleSnapshot`] so the
//!   authoritative single-writer loop serves it instead.
//!
//! The deterministic backends (mini, sim) call the same `serve_slice`
//! synchronously from the cohort handler, so one code path is exercised
//! by every substrate and the cross-backend agreement tests keep their
//! teeth.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use paris_proto::{Envelope, Msg, ReadKey, ReadOutcome, ReadResult};
use paris_storage::{Engine, StableFrontier, StaleSnapshot};
use paris_types::{Key, Mode, ServerId, Timestamp, TxId, Version};

/// How one slice read's keys were answered.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SliceTally {
    /// Keys answered `Unchanged`: the client's stamp named the visible
    /// version.
    pub(crate) unchanged: u64,
    /// Keys answered with a full version.
    pub(crate) shipped: u64,
}

/// The store half of a slice read (Alg. 3 lines 3–8), shared by the view
/// and the server loop so pooled and loop-served reads cannot differ: the
/// freshest version within the snapshot is looked up per key exactly as
/// for an unstamped read, and only then compared with the stamp — a match
/// is answered `Unchanged`, anything else ships what the snapshot holds.
pub(crate) fn read_slice(
    store: &dyn Engine,
    snapshot: Timestamp,
    keys: &[ReadKey],
) -> (Vec<ReadResult>, SliceTally) {
    let mut tally = SliceTally::default();
    let results = keys
        .iter()
        .map(|k| {
            let outcome = match store.read_at(k.key, snapshot) {
                None => ReadOutcome::Absent,
                Some(v) if k.held == Some(v.stamp()) => {
                    tally.unchanged += 1;
                    ReadOutcome::Unchanged
                }
                Some(v) => {
                    tally.shipped += 1;
                    ReadOutcome::Found(v)
                }
            };
            ReadResult {
                key: k.key,
                outcome,
            }
        })
        .collect();
    (results, tally)
}

/// Read-path counters, shared between a server and all its views.
#[derive(Debug, Default)]
pub struct ReadViewStats {
    /// Slice reads served through views (off- or on-loop).
    pub(crate) slice_reads: AtomicU64,
    /// Keys returned by view-served slice reads.
    pub(crate) keys_read: AtomicU64,
    /// Keys those reads answered `Unchanged`.
    pub(crate) reads_unchanged: AtomicU64,
    /// Keys those reads answered with a full version.
    pub(crate) reads_shipped: AtomicU64,
    /// Reads rejected because their snapshot fell below `S_old`.
    pub(crate) stale_rejections: AtomicU64,
}

impl ReadViewStats {
    /// Slice reads served through views so far.
    pub fn slice_reads(&self) -> u64 {
        self.slice_reads.load(Ordering::Relaxed)
    }

    /// Keys served through views so far.
    pub fn keys_read(&self) -> u64 {
        self.keys_read.load(Ordering::Relaxed)
    }

    /// Keys answered `Unchanged` through views so far.
    pub fn reads_unchanged(&self) -> u64 {
        self.reads_unchanged.load(Ordering::Relaxed)
    }

    /// Keys answered with a full version through views so far.
    pub fn reads_shipped(&self) -> u64 {
        self.reads_shipped.load(Ordering::Relaxed)
    }

    /// Stale-snapshot rejections so far.
    pub fn stale_rejections(&self) -> u64 {
        self.stale_rejections.load(Ordering::Relaxed)
    }
}

/// A concurrently-usable handle serving Algorithm 3 snapshot reads from a
/// server's published state. Obtain one with
/// [`Server::read_view`](crate::Server::read_view); clone it freely — all
/// clones share the same store, frontier and counters.
#[derive(Debug, Clone)]
pub struct ReadView {
    id: ServerId,
    mode: Mode,
    store: Arc<dyn Engine>,
    frontier: Arc<StableFrontier>,
    stats: Arc<ReadViewStats>,
}

impl ReadView {
    pub(crate) fn new(
        id: ServerId,
        mode: Mode,
        store: Arc<dyn Engine>,
        frontier: Arc<StableFrontier>,
        stats: Arc<ReadViewStats>,
    ) -> Self {
        ReadView {
            id,
            mode,
            store,
            frontier,
            stats,
        }
    }

    /// The server this view reads from.
    pub fn server(&self) -> ServerId {
        self.id
    }

    /// The server's published universal stable time.
    pub fn ust(&self) -> Timestamp {
        self.frontier.ust()
    }

    /// The server's published GC horizon.
    pub fn s_old(&self) -> Timestamp {
        self.frontier.s_old()
    }

    /// The shared read-path counters.
    pub fn stats(&self) -> &ReadViewStats {
        &self.stats
    }

    /// Serves one `ReadSliceReq` (Alg. 3 lines 1–8): bumps the published
    /// UST to the snapshot (PaRiS only — BPR snapshots are fresh, not
    /// stable, and must never drag the UST forward), reads the freshest
    /// version `≤ snapshot` of every key — answering `Unchanged` where it
    /// is the version the key's stamp names — and returns the
    /// `ReadSliceResp` envelope ready to send.
    ///
    /// # Errors
    ///
    /// Returns [`StaleSnapshot`] when the snapshot is below the published
    /// `S_old`: the caller must punt the request to the server loop,
    /// which serializes with GC and stays authoritative.
    pub fn serve_slice(
        &self,
        tx: TxId,
        snapshot: Timestamp,
        keys: &[ReadKey],
        reply_to: ServerId,
    ) -> Result<Envelope, StaleSnapshot> {
        let _guard = self.frontier.begin_read(snapshot).inspect_err(|_| {
            self.stats.stale_rejections.fetch_add(1, Ordering::Relaxed);
        })?;
        if self.mode == Mode::Paris {
            // Alg. 3 line 2: ust ← max(ust, snapshot).
            self.frontier.max_ust(snapshot);
        }
        let (results, tally) = read_slice(&*self.store, snapshot, keys);
        self.stats.slice_reads.fetch_add(1, Ordering::Relaxed);
        self.stats
            .keys_read
            .fetch_add(keys.len() as u64, Ordering::Relaxed);
        self.stats
            .reads_unchanged
            .fetch_add(tally.unchanged, Ordering::Relaxed);
        self.stats
            .reads_shipped
            .fetch_add(tally.shipped, Ordering::Relaxed);
        Ok(Envelope::new(
            self.id,
            reply_to,
            Msg::ReadSliceResp {
                tx,
                partition: self.id.partition,
                results,
            },
        ))
    }

    /// Reads one key at `snapshot` through the view (stress tests and
    /// direct embedding; the protocol path is [`ReadView::serve_slice`]).
    ///
    /// # Errors
    ///
    /// Returns [`StaleSnapshot`] when the snapshot is below `S_old`.
    pub fn read_at(&self, key: Key, snapshot: Timestamp) -> Result<Option<Version>, StaleSnapshot> {
        let _guard = self.frontier.begin_read(snapshot)?;
        Ok(self.store.read_at(key, snapshot))
    }

    /// Registers an in-flight read at `snapshot` without serving yet: the
    /// returned guard pins the server's GC horizon at or below `snapshot`
    /// until dropped. [`ReadView::serve_slice`] registers internally; this
    /// is for callers that span multiple reads over one snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`StaleSnapshot`] when the snapshot is already below `S_old`.
    pub fn pin(&self, snapshot: Timestamp) -> Result<paris_storage::ReadGuard, StaleSnapshot> {
        self.frontier.begin_read(snapshot)
    }
}
