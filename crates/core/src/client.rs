//! The client session state machine (paper Algorithm 1).
//!
//! A [`ClientSession`] holds the paper's client-side state: the highest
//! stable snapshot seen (`ust_c`), the commit time of the last update
//! transaction (`hwt_c`), the private write cache (`WC_c`) holding the
//! client's own writes not yet covered by the stable snapshot, and — for
//! the open transaction — the read set (`RS_c`) and write set (`WS_c`).
//!
//! The session is sans-I/O: API calls return either an immediately
//! available result or an [`Envelope`] to send; [`ClientSession::handle`]
//! consumes responses and emits [`ClientEvent`]s. Clients are sequential
//! (one outstanding operation), matching §II-C.
//!
//! # The two client caches
//!
//! `WC_c` is part of the protocol: it *answers* reads, because the stable
//! snapshot may not contain the client's own latest writes yet (Alg. 1
//! lines 11 and 29–31), and an entry leaves it the moment the UST covers
//! it (line 6).
//!
//! The **value cache** is not: it never answers a read. It remembers the
//! last version the session observed per key — shipped by a server, or
//! the session's own write at the moment it is pruned from `WC_c` — and
//! stamps every key of a `ReadReq` with the identity `(ut, tx)` of the
//! version it holds. The cohort picks the version visible in the snapshot
//! exactly as it would for an unstamped key; only when that version's
//! identity equals the stamp does it answer
//! [`ReadOutcome::Unchanged`] instead of key, value and metadata, and the
//! session resolves the outcome from its copy into the same
//! [`ClientRead`] (`source: Server`) a shipped version produces. The
//! server decides *which* version the snapshot sees; the client only
//! supplies bytes it holds for exactly that `(key, ut, tx)` — so the
//! cache cannot return stale data whatever it contains, needs no
//! invalidation, and survives [`ClientSession::reset`] untouched.
//!
//! The cache is bounded by a fixed per-session byte budget (values plus a
//! per-entry overhead), evicting the least recently observed key first.
//! A reply can never name an evicted entry: the session is sequential,
//! nothing enters the cache between a `ReadReq` and its `ReadResp`, and
//! the reply's `Unchanged` outcomes are resolved before its shipped
//! versions are admitted.

use std::collections::{BTreeMap, HashMap};

use paris_proto::{Endpoint, Envelope, Msg, ReadKey, ReadOutcome, ReadResult};
use paris_types::{
    ClientId, Error, Key, Mode, ServerId, Timestamp, TxId, Value, Version, VersionStamp,
    WriteSetEntry,
};

/// Where a read result came from, in the priority order of Alg. 1 line 11:
/// write set, then read set, then write cache, then the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadSource {
    /// The open transaction's own buffered (uncommitted) write.
    WriteSet,
    /// A repeat of an earlier read in the same transaction.
    ReadSet,
    /// The client's private cache of committed-but-not-yet-stable writes —
    /// this is what preserves read-your-own-writes over the slightly stale
    /// UST snapshot.
    Cache,
    /// A server slice read from the stable snapshot.
    Server,
}

/// One completed read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientRead {
    /// The key read.
    pub key: Key,
    /// The value, or `None` if no visible version exists.
    pub value: Option<Value>,
    /// The full version tuple when one exists (absent for `WriteSet`
    /// reads, which have no commit timestamp yet).
    pub version: Option<Version>,
    /// Which tier satisfied the read.
    pub source: ReadSource,
}

/// Events produced by [`ClientSession::handle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientEvent {
    /// `START-TX` completed (Alg. 1 lines 1–7).
    Started {
        /// The transaction id.
        tx: TxId,
        /// The assigned snapshot.
        snapshot: Timestamp,
    },
    /// A `READ` completed (Alg. 1 lines 8–20).
    ReadDone {
        /// The transaction id.
        tx: TxId,
        /// Results in no particular order.
        reads: Vec<ClientRead>,
    },
    /// `COMMIT-TX` completed (Alg. 1 lines 26–32).
    Committed {
        /// The transaction id.
        tx: TxId,
        /// Commit timestamp; `Timestamp::ZERO` for read-only transactions.
        ct: Timestamp,
    },
    /// The coordinator aborted the transaction because a target partition
    /// had no reachable replica (§III-C unavailability). The session is
    /// idle again; none of the transaction's writes took effect.
    Aborted {
        /// The transaction id.
        tx: TxId,
    },
}

/// Outcome of [`ClientSession::read`]: either all keys were satisfied
/// locally, or a request must be sent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadStep {
    /// Every key was served from the write set / read set / cache.
    Done(Vec<ClientRead>),
    /// Send this to the coordinator; completion arrives via `handle`.
    Send(Envelope),
}

#[derive(Debug)]
struct OpenTx {
    tx: TxId,
    snapshot: Timestamp,
    /// `RS_c`: completed reads, for repeatable-read semantics.
    read_set: HashMap<Key, ClientRead>,
    /// `WS_c`: buffered writes (last write per key wins, Alg. 1 line 23).
    write_set: HashMap<Key, Value>,
    /// Reads satisfied locally while a server round-trip is in flight.
    pending_local: Vec<ClientRead>,
    /// Whether a server operation is in flight.
    in_flight: bool,
}

/// A cached own-write: value plus the commit timestamp it received.
#[derive(Debug, Clone)]
struct CachedWrite {
    version: Version,
}

/// Bytes one session's value cache may account for. Validation pays on
/// the reads that reach a server, which are the *colder* keys (the hot
/// ones a writing session finds in `WC_c`), so the budget has to cover a
/// working set, not a hot set: this holds some 3 600 one-kilobyte values.
/// A session only ever fills it with keys it actually read, which is what
/// bounds the simulator's thousands of small-value sessions.
const VALUE_CACHE_BUDGET: usize = 4096 * 1024;

/// Bytes charged per cached entry on top of its value: the version's
/// metadata, the two index slots and the value's allocation.
const VALUE_CACHE_ENTRY_OVERHEAD: usize = 128;

/// Wire bytes of one stamp per hop (index gap, time delta, logical part,
/// transaction id), and of what an `Unchanged` answer leaves out per hop
/// besides the value itself (length prefix, update time, transaction id,
/// source DC). Both cross the same hops, so their ratio decides whether a
/// stamp is expected to pay.
const STAMP_WIRE_BYTES: u64 = 10;
const ANSWER_METADATA_WIRE_BYTES: u64 = 16;

/// Server answers for cached keys the session wants to have seen before it
/// lets the measured stability overrule its optimism.
const STABILITY_MIN_SAMPLE: u32 = 8;

/// How often a server's answer for a key the cache already held turned out
/// to be the held version — measured on every such answer, stamped or not
/// (a shipped version is compared with the held one), so the session keeps
/// learning while it is not stamping. Counts decay by halving, so the
/// ratio follows the recent past.
#[derive(Debug, Default)]
struct Stability {
    seen: u32,
    same: u32,
}

impl Stability {
    fn record(&mut self, same: bool) {
        self.seen += 1;
        self.same += u32::from(same);
        if self.seen >= 256 {
            self.seen /= 2;
            self.same /= 2;
        }
    }

    /// Whether stamping a held value of `len` bytes is expected to save
    /// more than the stamp costs: always for a kilobyte value, for an
    /// eight-byte one only while some two in five held versions are still
    /// current when re-read. Under contention that overwrites small values
    /// between two reads the session stops stamping them instead of paying
    /// for stamps that miss.
    fn favours_stamping(&self, len: usize) -> bool {
        self.seen < STABILITY_MIN_SAMPLE
            || u64::from(self.same) * (len as u64 + ANSWER_METADATA_WIRE_BYTES)
                > u64::from(self.seen) * STAMP_WIRE_BYTES
    }
}

/// The last version observed per key, within a byte budget (see the
/// module docs). Eviction is least-recently-observed first.
#[derive(Debug)]
struct ValueCache {
    budget: usize,
    used: usize,
    /// Observation counter; an entry's tick is its place in the eviction
    /// order.
    tick: u64,
    entries: HashMap<Key, (u64, Version)>,
    /// Tick → key, so the first entry is the least recently observed.
    /// (A `BTreeMap`, not the `HashMap`'s iteration order: which entry
    /// goes must not differ between two runs of one seed.)
    order: BTreeMap<u64, Key>,
    stability: Stability,
}

impl ValueCache {
    fn new(budget: usize) -> Self {
        ValueCache {
            budget,
            used: 0,
            tick: 0,
            entries: HashMap::new(),
            order: BTreeMap::new(),
            stability: Stability::default(),
        }
    }

    fn cost(version: &Version) -> usize {
        version.value.len() + VALUE_CACHE_ENTRY_OVERHEAD
    }

    fn get(&self, key: Key) -> Option<&Version> {
        self.entries.get(&key).map(|(_, version)| version)
    }

    /// The stamp to send with a read of `key`: the held version's
    /// identity, if one is held and stamping it is expected to pay.
    fn stamp(&self, key: Key) -> Option<VersionStamp> {
        self.get(key)
            .filter(|held| self.stability.favours_stamping(held.value.len()))
            .map(Version::stamp)
    }

    /// Marks `key`'s entry as just observed again.
    fn touch(&mut self, key: Key) {
        if let Some((at, _)) = self.entries.get_mut(&key) {
            self.order.remove(at);
            self.tick += 1;
            *at = self.tick;
            self.order.insert(self.tick, key);
        }
    }

    /// Records `version` as the one now held for its key, then evicts the
    /// least recently observed entries until the budget holds again. A
    /// version that alone exceeds the budget is not kept; neither is a key
    /// new to the cache while held versions of this size go stale before
    /// they are re-read — a copy would only be dead weight. Keys already
    /// held stay current either way, which keeps the stability measure
    /// alive.
    fn admit(&mut self, version: Version) {
        match self.entries.remove(&version.key) {
            Some((at, old)) => {
                self.order.remove(&at);
                self.used -= Self::cost(&old);
            }
            None if !self.stability.favours_stamping(version.value.len()) => return,
            None => {}
        }
        let cost = Self::cost(&version);
        if cost > self.budget {
            return;
        }
        self.tick += 1;
        self.used += cost;
        self.order.insert(self.tick, version.key);
        self.entries.insert(version.key, (self.tick, version));
        while self.used > self.budget {
            let (_, oldest) = self.order.pop_first().expect("bytes in use, so an entry");
            let (_, evicted) = self.entries.remove(&oldest).expect("indexed entry exists");
            self.used -= Self::cost(&evicted);
        }
    }
}

/// The PaRiS client session (see module docs).
///
/// # Example
///
/// ```
/// use paris_core::{ClientSession, Topology};
/// use paris_types::{ClientId, ClusterConfig, DcId, Mode};
///
/// let topo = Topology::new(ClusterConfig::default());
/// let id = ClientId::new(DcId(0), 7);
/// let coordinator = topo.coordinator_for(id.dc, id.seq);
/// let mut session = ClientSession::new(id, coordinator, Mode::Paris);
/// let start = session.begin()?; // envelope to send to the coordinator
/// assert_eq!(start.dst, coordinator.into());
/// # Ok::<(), paris_types::Error>(())
/// ```
#[derive(Debug)]
pub struct ClientSession {
    id: ClientId,
    coordinator: ServerId,
    mode: Mode,
    /// `ust_c`: highest stable snapshot seen.
    ust: Timestamp,
    /// `hwt_c`: commit time of the last update transaction.
    hwt: Timestamp,
    /// `WC_c`: own committed writes not yet in the stable snapshot.
    cache: HashMap<Key, CachedWrite>,
    /// The value cache: what reads are stamped from and `Unchanged`
    /// outcomes are resolved from (see the module docs).
    values: ValueCache,
    open: Option<OpenTx>,
    /// Waiting for a `StartTxResp`.
    starting: bool,
    /// `StartTxResp`s still owed to begins abandoned by
    /// [`ClientSession::reset`]. `StartTxResp` carries no transaction-id
    /// correlation (the coordinator assigns the id), but the channel is
    /// FIFO, so responses arrive in request order: the next
    /// `discard_starts` of them belong to abandoned begins and must be
    /// dropped, not adopted by a newer begin.
    discard_starts: u32,
    /// Transactions run (stats).
    started_count: u64,
    committed_count: u64,
}

impl ClientSession {
    /// Creates a session pinned to `coordinator` in the client's local DC.
    pub fn new(id: ClientId, coordinator: ServerId, mode: Mode) -> Self {
        ClientSession::with_value_cache_budget(id, coordinator, mode, VALUE_CACHE_BUDGET)
    }

    /// A session whose value cache holds at most `budget` bytes instead of
    /// the fixed default; `0` disables version-validated reads altogether
    /// (every read is shipped in full). For tests that compare the two
    /// behaviours or exercise eviction — deployments have no such knob.
    #[doc(hidden)]
    pub fn with_value_cache_budget(
        id: ClientId,
        coordinator: ServerId,
        mode: Mode,
        budget: usize,
    ) -> Self {
        debug_assert_eq!(id.dc, coordinator.dc, "coordinator must be local");
        ClientSession {
            id,
            coordinator,
            mode,
            ust: Timestamp::ZERO,
            hwt: Timestamp::ZERO,
            cache: HashMap::new(),
            values: ValueCache::new(budget),
            open: None,
            starting: false,
            discard_starts: 0,
            started_count: 0,
            committed_count: 0,
        }
    }

    /// The session id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// The coordinator server.
    pub fn coordinator(&self) -> ServerId {
        self.coordinator
    }

    /// Highest stable snapshot seen (`ust_c`).
    pub fn ust(&self) -> Timestamp {
        self.ust
    }

    /// Commit time of the last update transaction (`hwt_c`).
    pub fn hwt(&self) -> Timestamp {
        self.hwt
    }

    /// Number of entries currently in the private write cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Number of entries currently in the value cache.
    pub fn value_cache_len(&self) -> usize {
        self.values.entries.len()
    }

    /// Bytes the value cache currently accounts for (values plus the
    /// per-entry overhead) — never above its budget.
    pub fn value_cache_bytes(&self) -> usize {
        self.values.used
    }

    /// The open transaction's id, if a transaction is open.
    pub fn open_tx(&self) -> Option<TxId> {
        self.open.as_ref().map(|o| o.tx)
    }

    /// The open transaction's snapshot, if a transaction is open — what
    /// the measurement harness records for the consistency checker.
    pub fn open_snapshot(&self) -> Option<Timestamp> {
        self.open.as_ref().map(|o| o.snapshot)
    }

    /// Transactions started / committed so far.
    pub fn counts(&self) -> (u64, u64) {
        (self.started_count, self.committed_count)
    }

    /// Whether an operation (start, read or commit) is currently waiting
    /// for a coordinator reply. A transport failure mid-operation leaves
    /// the session in this state; see [`ClientSession::reset`].
    pub fn has_operation_in_flight(&self) -> bool {
        self.starting || self.open.as_ref().is_some_and(|o| o.in_flight)
    }

    /// Abandons the open transaction (and any in-flight operation) and
    /// returns the session to idle, so the next [`ClientSession::begin`]
    /// succeeds. The recovery path for a transport-timed-out operation
    /// that would otherwise wedge the session.
    ///
    /// Durable session state survives: `ust_c`, `hwt_c`, the write cache
    /// and the value cache are untouched, so causal ordering of
    /// *completed* transactions is preserved (a value-cache entry is a
    /// fact about one `(key, ut, tx)` and cannot go stale). The abandoned
    /// transaction's buffered writes are discarded; if its commit actually landed server-side and only the
    /// reply was lost, those writes are *not* entered into the write cache
    /// — read-your-own-writes is forfeited for exactly that transaction
    /// until the UST covers it. Late replies for the abandoned
    /// transaction are ignored by [`ClientSession::handle`]: reads and
    /// commits by their transaction-id checks, and a start abandoned
    /// mid-flight by counting it — the channel is FIFO, so the next
    /// `StartTxResp` to arrive is the abandoned one and is dropped
    /// rather than adopted by a newer begin. The coordinator-side
    /// context, if any, is reclaimed by the server's stale-context
    /// cleanup.
    pub fn reset(&mut self) {
        if self.starting {
            self.discard_starts += 1;
        }
        self.starting = false;
        self.open = None;
    }

    // ------------------------------------------------------------ START

    /// `START-TX` (Alg. 1 lines 1–7): returns the request envelope.
    ///
    /// # Errors
    ///
    /// [`Error::TransactionAlreadyOpen`] if a transaction is open or
    /// starting.
    pub fn begin(&mut self) -> Result<Envelope, Error> {
        if self.open.is_some() || self.starting {
            return Err(Error::TransactionAlreadyOpen);
        }
        self.starting = true;
        Ok(Envelope::new(
            self.id,
            self.coordinator,
            Msg::StartTxReq {
                client_ust: self.ust,
            },
        ))
    }

    // ------------------------------------------------------------- READ

    /// `READ` (Alg. 1 lines 8–20): serves keys from the write set, read
    /// set and cache (in that order); missing keys go to the coordinator,
    /// each stamped with the version the value cache holds for it.
    ///
    /// # Errors
    ///
    /// [`Error::NoOpenTransaction`] outside a transaction, or
    /// [`Error::TransactionAlreadyOpen`] if an operation is in flight.
    pub fn read(&mut self, keys: &[Key]) -> Result<ReadStep, Error> {
        let open = self.open.as_mut().ok_or(Error::NoOpenTransaction)?;
        if open.in_flight {
            return Err(Error::TransactionAlreadyOpen);
        }
        let mut local: Vec<ClientRead> = Vec::new();
        let mut remote: Vec<ReadKey> = Vec::new();
        for &key in keys {
            // Alg. 1 line 11: check WS_c, RS_c, WC_c in this order.
            if let Some(value) = open.write_set.get(&key) {
                local.push(ClientRead {
                    key,
                    value: Some(value.clone()),
                    version: None,
                    source: ReadSource::WriteSet,
                });
            } else if let Some(prev) = open.read_set.get(&key) {
                local.push(ClientRead {
                    key,
                    value: prev.value.clone(),
                    version: prev.version.clone(),
                    source: ReadSource::ReadSet,
                });
            } else if self.mode == Mode::Paris && self.cache.contains_key(&key) {
                let cached = &self.cache[&key];
                local.push(ClientRead {
                    key,
                    value: Some(cached.version.value.clone()),
                    version: Some(cached.version.clone()),
                    source: ReadSource::Cache,
                });
            } else {
                remote.push(ReadKey {
                    key,
                    held: self.values.stamp(key),
                });
            }
        }
        if remote.is_empty() {
            for r in &local {
                open.read_set.entry(r.key).or_insert_with(|| r.clone());
            }
            return Ok(ReadStep::Done(local));
        }
        open.in_flight = true;
        open.pending_local = local;
        let tx = open.tx;
        Ok(ReadStep::Send(Envelope::new(
            self.id,
            self.coordinator,
            Msg::ReadReq { tx, keys: remote },
        )))
    }

    // ------------------------------------------------------------ WRITE

    /// `WRITE` (Alg. 1 lines 21–25): buffers the writes locally.
    ///
    /// # Errors
    ///
    /// [`Error::NoOpenTransaction`] outside a transaction.
    pub fn write(&mut self, entries: &[(Key, Value)]) -> Result<(), Error> {
        let open = self.open.as_mut().ok_or(Error::NoOpenTransaction)?;
        for (key, value) in entries {
            open.write_set.insert(*key, value.clone());
        }
        Ok(())
    }

    // ----------------------------------------------------------- COMMIT

    /// `COMMIT-TX` (Alg. 1 lines 26–32): ships the write set to the
    /// coordinator with `hwt_c`. Also used to close read-only
    /// transactions (empty write set), which frees the coordinator's
    /// context (and its hold on the GC horizon).
    ///
    /// # Errors
    ///
    /// [`Error::NoOpenTransaction`] outside a transaction, or
    /// [`Error::TransactionAlreadyOpen`] if an operation is in flight.
    pub fn commit(&mut self) -> Result<Envelope, Error> {
        let open = self.open.as_mut().ok_or(Error::NoOpenTransaction)?;
        if open.in_flight {
            return Err(Error::TransactionAlreadyOpen);
        }
        open.in_flight = true;
        let writes: Vec<WriteSetEntry> = open
            .write_set
            .iter()
            .map(|(k, v)| WriteSetEntry::new(*k, v.clone()))
            .collect();
        Ok(Envelope::new(
            self.id,
            self.coordinator,
            Msg::CommitReq {
                tx: open.tx,
                hwt: self.hwt,
                writes,
            },
        ))
    }

    // ----------------------------------------------------------- HANDLE

    /// Consumes a response from the coordinator.
    ///
    /// Returns the completed event, or `None` for stale/duplicate
    /// messages.
    pub fn handle(&mut self, env: &Envelope) -> Option<ClientEvent> {
        debug_assert_eq!(env.dst, Endpoint::Client(self.id));
        match &env.msg {
            Msg::StartTxResp { tx, snapshot } => {
                if self.discard_starts > 0 {
                    // Owed to a begin abandoned by `reset`; FIFO order
                    // makes this response the abandoned one.
                    self.discard_starts -= 1;
                    return None;
                }
                if !self.starting {
                    return None;
                }
                self.starting = false;
                self.started_count += 1;
                // Alg. 1 line 4: ust_c ← ust. The coordinator guarantees
                // monotonicity (it maxes with the piggybacked ust_c).
                self.ust = self.ust.max(*snapshot);
                // Alg. 1 line 6: prune cache entries covered by ust_c. From
                // here on the servers answer for these keys; the bytes move
                // to the value cache so the next read of an own write only
                // has to be validated, not shipped back. Oldest first, in a
                // seed-stable order.
                let horizon = self.ust;
                let mut covered: Vec<(Timestamp, Key)> = self
                    .cache
                    .iter()
                    .filter(|(_, w)| w.version.ut <= horizon)
                    .map(|(key, w)| (w.version.ut, *key))
                    .collect();
                covered.sort_unstable();
                for (_, key) in covered {
                    if let Some(w) = self.cache.remove(&key) {
                        self.values.admit(w.version);
                    }
                }
                self.open = Some(OpenTx {
                    tx: *tx,
                    snapshot: *snapshot,
                    read_set: HashMap::new(),
                    write_set: HashMap::new(),
                    pending_local: Vec::new(),
                    in_flight: false,
                });
                Some(ClientEvent::Started {
                    tx: *tx,
                    snapshot: *snapshot,
                })
            }
            Msg::ReadResp { tx, results } => {
                let open = self.open.as_mut()?;
                if open.tx != *tx || !open.in_flight {
                    return None;
                }
                open.in_flight = false;
                let mut reads = std::mem::take(&mut open.pending_local);
                // Every `Unchanged` is resolved before any shipped version
                // is admitted (the second pass below): admission evicts, and
                // must not evict what a later outcome of this same reply
                // names.
                for ReadResult { key, outcome } in results {
                    let version = match outcome {
                        ReadOutcome::Absent => None,
                        ReadOutcome::Found(v) => {
                            if let Some(held) = self.values.get(*key) {
                                let same = held.stamp() == v.stamp();
                                self.values.stability.record(same);
                            }
                            Some(v.clone())
                        }
                        ReadOutcome::Unchanged => match self.values.get(*key) {
                            Some(held) => {
                                let held = held.clone();
                                self.values.stability.record(true);
                                self.values.touch(*key);
                                Some(held)
                            }
                            None => {
                                // Only a key stamped from the cache can come
                                // back unchanged, and the cache has not
                                // changed since. A coordinator that says
                                // otherwise is broken; never invent a value.
                                self.open = None;
                                return Some(ClientEvent::Aborted { tx: *tx });
                            }
                        },
                    };
                    reads.push(ClientRead {
                        key: *key,
                        value: version.as_ref().map(|v| v.value.clone()),
                        version,
                        source: ReadSource::Server,
                    });
                }
                for v in results.iter().filter_map(|r| r.outcome.version()) {
                    self.values.admit(v.clone());
                }
                // Alg. 1 line 18: RS_c ← RS_c ∪ D.
                for r in &reads {
                    open.read_set.entry(r.key).or_insert_with(|| r.clone());
                }
                Some(ClientEvent::ReadDone { tx: *tx, reads })
            }
            Msg::CommitResp { tx, ct } => {
                let open = self.open.take()?;
                if open.tx != *tx {
                    self.open = Some(open);
                    return None;
                }
                self.committed_count += 1;
                if *ct != Timestamp::ZERO {
                    match self.mode {
                        Mode::Paris => {
                            // Alg. 1 lines 29–31: hwt_c ← ct; tag WS_c with
                            // ct and move it into the cache.
                            self.hwt = *ct;
                            for (key, value) in open.write_set {
                                self.cache.insert(
                                    key,
                                    CachedWrite {
                                        version: Version::new(key, value, *ct, *tx, self.id.dc),
                                    },
                                );
                            }
                        }
                        Mode::Bpr => {
                            // BPR has no cache: the client instead raises
                            // its snapshot floor so the next transaction
                            // observes (and blocks for) its own writes.
                            self.hwt = *ct;
                            self.ust = self.ust.max(*ct);
                        }
                    }
                }
                Some(ClientEvent::Committed { tx: *tx, ct: *ct })
            }
            Msg::OpFailed { tx } => {
                let open = self.open.take()?;
                if open.tx != *tx {
                    self.open = Some(open);
                    return None;
                }
                // The transaction is gone coordinator-side; drop all local
                // state (nothing committed, cache untouched).
                Some(ClientEvent::Aborted { tx: *tx })
            }
            _ => {
                debug_assert!(false, "unexpected message at client: {}", env.msg.kind());
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::{DcId, PartitionId};

    fn session(mode: Mode) -> ClientSession {
        let id = ClientId::new(DcId(0), 1);
        ClientSession::new(id, ServerId::new(DcId(0), PartitionId(3)), mode)
    }

    fn tx(seq: u64) -> TxId {
        TxId::new(ServerId::new(DcId(0), PartitionId(3)), seq)
    }

    fn started(s: &mut ClientSession, seq: u64, snap: u64) -> TxId {
        let t = tx(seq);
        s.begin().unwrap();
        let ev = s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::StartTxResp {
                tx: t,
                snapshot: Timestamp::from_physical_micros(snap),
            },
        ));
        assert!(matches!(ev, Some(ClientEvent::Started { .. })));
        t
    }

    #[test]
    fn begin_rejects_double_start() {
        let mut s = session(Mode::Paris);
        s.begin().unwrap();
        assert_eq!(s.begin().unwrap_err(), Error::TransactionAlreadyOpen);
    }

    #[test]
    fn read_and_write_require_open_tx() {
        let mut s = session(Mode::Paris);
        assert_eq!(s.read(&[Key(1)]).unwrap_err(), Error::NoOpenTransaction);
        assert_eq!(
            s.write(&[(Key(1), Value::from("x"))]).unwrap_err(),
            Error::NoOpenTransaction
        );
        assert!(s.commit().is_err());
    }

    #[test]
    fn read_own_buffered_write_from_write_set() {
        let mut s = session(Mode::Paris);
        started(&mut s, 1, 100);
        s.write(&[(Key(5), Value::from("mine"))]).unwrap();
        match s.read(&[Key(5)]).unwrap() {
            ReadStep::Done(reads) => {
                assert_eq!(reads.len(), 1);
                assert_eq!(reads[0].source, ReadSource::WriteSet);
                assert_eq!(reads[0].value.as_ref().unwrap().as_bytes(), b"mine");
            }
            ReadStep::Send(_) => panic!("should not hit the server"),
        }
    }

    #[test]
    fn last_write_wins_within_write_set() {
        let mut s = session(Mode::Paris);
        started(&mut s, 1, 100);
        s.write(&[(Key(5), Value::from("a"))]).unwrap();
        s.write(&[(Key(5), Value::from("b"))]).unwrap();
        match s.read(&[Key(5)]).unwrap() {
            ReadStep::Done(reads) => {
                assert_eq!(reads[0].value.as_ref().unwrap().as_bytes(), b"b")
            }
            _ => panic!(),
        }
    }

    #[test]
    fn missing_keys_produce_read_request() {
        let mut s = session(Mode::Paris);
        let t = started(&mut s, 1, 100);
        match s.read(&[Key(1), Key(2)]).unwrap() {
            ReadStep::Send(env) => match env.msg {
                Msg::ReadReq { tx, keys } => {
                    assert_eq!(tx, t);
                    assert_eq!(keys.len(), 2);
                }
                _ => panic!("wrong message"),
            },
            ReadStep::Done(_) => panic!("keys are not local"),
        }
    }

    #[test]
    fn repeatable_reads_from_read_set() {
        let mut s = session(Mode::Paris);
        let t = started(&mut s, 1, 100);
        assert!(matches!(s.read(&[Key(1)]).unwrap(), ReadStep::Send(_)));
        let ver = Version::new(
            Key(1),
            Value::from("v1"),
            Timestamp::from_physical_micros(50),
            tx(99),
            DcId(1),
        );
        let ev = s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::ReadResp {
                tx: t,
                results: vec![ReadResult {
                    key: Key(1),
                    outcome: ReadOutcome::Found(ver),
                }],
            },
        ));
        assert!(matches!(ev, Some(ClientEvent::ReadDone { .. })));
        // Second read of the same key is local and identical.
        match s.read(&[Key(1)]).unwrap() {
            ReadStep::Done(reads) => {
                assert_eq!(reads[0].source, ReadSource::ReadSet);
                assert_eq!(reads[0].value.as_ref().unwrap().as_bytes(), b"v1");
            }
            _ => panic!("read set must satisfy repeat reads"),
        }
    }

    #[test]
    fn commit_moves_writes_to_cache_and_sets_hwt() {
        let mut s = session(Mode::Paris);
        let t = started(&mut s, 1, 100);
        s.write(&[(Key(7), Value::from("w"))]).unwrap();
        let env = s.commit().unwrap();
        assert!(matches!(env.msg, Msg::CommitReq { .. }));
        let ct = Timestamp::from_physical_micros(500);
        let ev = s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::CommitResp { tx: t, ct },
        ));
        assert_eq!(ev, Some(ClientEvent::Committed { tx: t, ct }));
        assert_eq!(s.hwt(), ct);
        assert_eq!(s.cache_len(), 1);
        assert!(s.open_tx().is_none());
    }

    #[test]
    fn cache_serves_read_your_own_writes_across_transactions() {
        let mut s = session(Mode::Paris);
        let t1 = started(&mut s, 1, 100);
        s.write(&[(Key(7), Value::from("w"))]).unwrap();
        s.commit().unwrap();
        s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::CommitResp {
                tx: t1,
                ct: Timestamp::from_physical_micros(500),
            },
        ));
        // Next tx gets a snapshot *older* than the commit: cache must hit.
        started(&mut s, 2, 200);
        match s.read(&[Key(7)]).unwrap() {
            ReadStep::Done(reads) => {
                assert_eq!(reads[0].source, ReadSource::Cache);
                assert_eq!(reads[0].value.as_ref().unwrap().as_bytes(), b"w");
            }
            _ => panic!("cache must satisfy read-your-own-writes"),
        }
    }

    #[test]
    fn cache_prunes_when_snapshot_covers_commit() {
        let mut s = session(Mode::Paris);
        let t1 = started(&mut s, 1, 100);
        s.write(&[(Key(7), Value::from("w"))]).unwrap();
        s.commit().unwrap();
        s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::CommitResp {
                tx: t1,
                ct: Timestamp::from_physical_micros(500),
            },
        ));
        assert_eq!(s.cache_len(), 1);
        // Snapshot ≥ ct: entry pruned (Alg. 1 line 6), server now serves it.
        started(&mut s, 2, 600);
        assert_eq!(s.cache_len(), 0);
        assert!(matches!(s.read(&[Key(7)]).unwrap(), ReadStep::Send(_)));
    }

    #[test]
    fn read_only_commit_keeps_hwt_and_cache_empty() {
        let mut s = session(Mode::Paris);
        let t = started(&mut s, 1, 100);
        s.commit().unwrap();
        let ev = s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::CommitResp {
                tx: t,
                ct: Timestamp::ZERO,
            },
        ));
        assert_eq!(
            ev,
            Some(ClientEvent::Committed {
                tx: t,
                ct: Timestamp::ZERO
            })
        );
        assert_eq!(s.hwt(), Timestamp::ZERO);
        assert_eq!(s.cache_len(), 0);
    }

    #[test]
    fn bpr_mode_has_no_cache_but_raises_snapshot_floor() {
        let mut s = session(Mode::Bpr);
        let t = started(&mut s, 1, 100);
        s.write(&[(Key(7), Value::from("w"))]).unwrap();
        s.commit().unwrap();
        let ct = Timestamp::from_physical_micros(900);
        s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::CommitResp { tx: t, ct },
        ));
        assert_eq!(s.cache_len(), 0, "BPR keeps no write cache");
        assert!(s.ust() >= ct, "snapshot floor must cover own writes");
        // Next begin piggybacks the raised floor.
        let env = s.begin().unwrap();
        match env.msg {
            Msg::StartTxReq { client_ust } => assert!(client_ust >= ct),
            _ => panic!(),
        }
    }

    #[test]
    fn ust_is_monotonic_even_with_stale_coordinator() {
        let mut s = session(Mode::Paris);
        started(&mut s, 1, 1_000);
        // Finish tx 1 (read-only).
        s.commit().unwrap();
        s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::CommitResp {
                tx: tx(1),
                ct: Timestamp::ZERO,
            },
        ));
        // A (buggy) coordinator replies with an older snapshot: ust_c must
        // not regress.
        started(&mut s, 2, 50);
        assert_eq!(s.ust(), Timestamp::from_physical_micros(1_000));
    }

    #[test]
    fn stale_responses_are_ignored() {
        let mut s = session(Mode::Paris);
        let t = started(&mut s, 1, 100);
        // A ReadResp with no read in flight.
        assert!(s
            .handle(&Envelope::new(
                s.coordinator(),
                s.id(),
                Msg::ReadResp {
                    tx: t,
                    results: vec![]
                },
            ))
            .is_none());
        // A CommitResp for a different transaction.
        assert!(s
            .handle(&Envelope::new(
                s.coordinator(),
                s.id(),
                Msg::CommitResp {
                    tx: tx(42),
                    ct: Timestamp::ZERO
                },
            ))
            .is_none());
        assert_eq!(s.open_tx(), Some(t));
    }

    #[test]
    fn reset_recovers_a_wedged_start_and_discards_the_stale_response() {
        let mut s = session(Mode::Paris);
        s.begin().unwrap();
        // The reply has not arrived; the session is stuck starting.
        assert!(s.has_operation_in_flight());
        assert_eq!(s.begin().unwrap_err(), Error::TransactionAlreadyOpen);
        s.reset();
        assert!(!s.has_operation_in_flight());

        // New begin; then the channel (FIFO) delivers the abandoned
        // begin's response first — it must be discarded, not adopted.
        s.begin().unwrap();
        let stale = s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::StartTxResp {
                tx: tx(1),
                snapshot: Timestamp::from_physical_micros(40),
            },
        ));
        assert!(stale.is_none(), "stale StartTxResp was adopted");
        assert!(s.open_tx().is_none());

        // The genuine response for the new begin is accepted.
        let fresh = tx(2);
        let ev = s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::StartTxResp {
                tx: fresh,
                snapshot: Timestamp::from_physical_micros(100),
            },
        ));
        assert!(matches!(ev, Some(ClientEvent::Started { tx, .. }) if tx == fresh));
        assert_eq!(s.open_tx(), Some(fresh));
    }

    #[test]
    fn reset_of_an_idle_or_open_session_discards_nothing() {
        let mut s = session(Mode::Paris);
        // Idle reset: the next begin/response pair works untouched.
        s.reset();
        started(&mut s, 1, 100);
        // Open-transaction reset (no operation in flight): same.
        s.reset();
        started(&mut s, 2, 200);
    }

    #[test]
    fn reset_recovers_a_wedged_commit_and_ignores_the_late_reply() {
        let mut s = session(Mode::Paris);
        let old = started(&mut s, 1, 100);
        s.write(&[(Key(7), Value::from("w"))]).unwrap();
        s.commit().unwrap();
        assert!(s.has_operation_in_flight());
        s.reset();
        let fresh = started(&mut s, 2, 200);
        // The old commit's reply straggles in: it must not complete the
        // new transaction or pollute the cache.
        let ev = s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::CommitResp {
                tx: old,
                ct: Timestamp::from_physical_micros(500),
            },
        ));
        assert!(ev.is_none(), "late reply for an abandoned tx leaked");
        assert_eq!(s.open_tx(), Some(fresh));
        assert_eq!(s.cache_len(), 0, "abandoned writes must not be cached");
    }

    #[test]
    fn reset_preserves_durable_session_state() {
        let mut s = session(Mode::Paris);
        let t1 = started(&mut s, 1, 100);
        s.write(&[(Key(3), Value::from("v"))]).unwrap();
        s.commit().unwrap();
        s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::CommitResp {
                tx: t1,
                ct: Timestamp::from_physical_micros(500),
            },
        ));
        let (ust, hwt, cached) = (s.ust(), s.hwt(), s.cache_len());
        s.begin().unwrap();
        s.reset();
        assert_eq!((s.ust(), s.hwt(), s.cache_len()), (ust, hwt, cached));
    }

    // ------------------------------------------------- the value cache

    fn version(key: u64, len: usize, ut: u64, seq: u64) -> Version {
        Version::new(
            Key(key),
            Value::filled(len, seq),
            Timestamp::from_physical_micros(ut),
            tx(seq),
            DcId(1),
        )
    }

    /// Issues a read that must go to the server; returns the request's keys.
    fn read_remote(s: &mut ClientSession, keys: &[u64]) -> Vec<ReadKey> {
        let keys: Vec<Key> = keys.iter().copied().map(Key).collect();
        match s.read(&keys).unwrap() {
            ReadStep::Send(env) => match env.msg {
                Msg::ReadReq { keys, .. } => keys,
                other => panic!("expected ReadReq, got {}", other.kind()),
            },
            ReadStep::Done(_) => panic!("keys are not local"),
        }
    }

    fn reply(s: &mut ClientSession, t: TxId, results: Vec<ReadResult>) -> Option<ClientEvent> {
        s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::ReadResp { tx: t, results },
        ))
    }

    fn found(v: Version) -> ReadResult {
        ReadResult {
            key: v.key,
            outcome: ReadOutcome::Found(v),
        }
    }

    fn unchanged(key: u64) -> ReadResult {
        ReadResult {
            key: Key(key),
            outcome: ReadOutcome::Unchanged,
        }
    }

    fn reads_of(ev: Option<ClientEvent>) -> Vec<ClientRead> {
        match ev {
            Some(ClientEvent::ReadDone { reads, .. }) => reads,
            other => panic!("expected ReadDone, got {other:?}"),
        }
    }

    /// Closes the open transaction read-only.
    fn finish(s: &mut ClientSession, t: TxId) {
        s.commit().unwrap();
        s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::CommitResp {
                tx: t,
                ct: Timestamp::ZERO,
            },
        ));
    }

    /// One transaction that reads `v.key` from the server and is shipped `v`.
    fn observe(s: &mut ClientSession, seq: u64, snap: u64, v: Version) -> ClientRead {
        let t = started(s, seq, snap);
        read_remote(s, &[v.key.0]);
        let mut reads = reads_of(reply(s, t, vec![found(v)]));
        finish(s, t);
        reads.remove(0)
    }

    #[test]
    fn a_shipped_version_is_stamped_on_the_next_read_and_resolves_unchanged() {
        let mut s = session(Mode::Paris);
        let v = version(1, 8, 50, 99);
        let shipped = observe(&mut s, 1, 100, v.clone());
        assert_eq!(s.value_cache_len(), 1);

        let t = started(&mut s, 2, 200);
        let keys = read_remote(&mut s, &[1, 2]);
        assert_eq!(keys[0].held, Some(v.stamp()), "held version is stamped");
        assert_eq!(keys[1].held, None, "nothing held for key 2");
        let reads = reads_of(reply(
            &mut s,
            t,
            vec![
                unchanged(1),
                ReadResult {
                    key: Key(2),
                    outcome: ReadOutcome::Absent,
                },
            ],
        ));
        // Indistinguishable from the read that shipped the version.
        assert_eq!(reads[0], shipped);
        assert_eq!(reads[0].source, ReadSource::Server);
        assert_eq!(reads[1].value, None);
        // And repeatable within the transaction, like any server read.
        match s.read(&[Key(1)]).unwrap() {
            ReadStep::Done(again) => assert_eq!(again[0].version, Some(v)),
            ReadStep::Send(_) => panic!("read set must satisfy repeat reads"),
        }
    }

    #[test]
    fn an_own_write_moves_to_the_value_cache_when_the_ust_covers_it() {
        let mut s = session(Mode::Paris);
        let t1 = started(&mut s, 1, 100);
        s.write(&[(Key(7), Value::from("mine"))]).unwrap();
        s.commit().unwrap();
        let ct = Timestamp::from_physical_micros(500);
        s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::CommitResp { tx: t1, ct },
        ));
        assert_eq!((s.cache_len(), s.value_cache_len()), (1, 0));
        // Snapshot ≥ ct: pruned from WC_c (Alg. 1 line 6) — into the value
        // cache, so the re-read is validated instead of shipped back.
        let t2 = started(&mut s, 2, 600);
        assert_eq!((s.cache_len(), s.value_cache_len()), (0, 1));
        let keys = read_remote(&mut s, &[7]);
        assert_eq!(keys[0].held, Some(VersionStamp { ut: ct, tx: t1 }));
        let reads = reads_of(reply(&mut s, t2, vec![unchanged(7)]));
        assert_eq!(reads[0].value.as_ref().unwrap().as_bytes(), b"mine");
        let v = reads[0].version.as_ref().unwrap();
        // Exactly the tuple every replica stores for this write.
        assert_eq!((v.ut, v.tx, v.src), (ct, t1, s.id().dc));
        assert_eq!(reads[0].source, ReadSource::Server);
    }

    #[test]
    fn eviction_honours_the_byte_budget_oldest_observation_first() {
        let entry = 100 + VALUE_CACHE_ENTRY_OVERHEAD;
        let id = ClientId::new(DcId(0), 1);
        let coordinator = ServerId::new(DcId(0), PartitionId(3));
        let mut s =
            ClientSession::with_value_cache_budget(id, coordinator, Mode::Paris, 3 * entry + 50);
        for k in 1..=6 {
            observe(&mut s, k, 100 * k, version(k, 100, 10 * k, 90 + k));
            assert!(s.value_cache_bytes() <= 3 * entry + 50, "after key {k}");
        }
        assert_eq!((s.value_cache_len(), s.value_cache_bytes()), (3, 3 * entry));
        // Keys 4–6 survive. Validating key 4 makes it the freshest
        // observation, so the next admission evicts key 5 instead.
        let t = started(&mut s, 7, 700);
        let keys = read_remote(&mut s, &[1, 2, 3, 4, 5, 6]);
        let held: Vec<bool> = keys.iter().map(|k| k.held.is_some()).collect();
        assert_eq!(held, [false, false, false, true, true, true]);
        let results = vec![unchanged(4), found(version(1, 100, 10, 91))];
        reads_of(reply(&mut s, t, results));
        finish(&mut s, t);
        started(&mut s, 8, 800);
        let keys = read_remote(&mut s, &[1, 4, 5, 6]);
        let held: Vec<bool> = keys.iter().map(|k| k.held.is_some()).collect();
        assert_eq!(held, [true, true, false, true]);
        // A value that alone exceeds the budget is never kept (and takes
        // its key's older entry with it: the held version is not current).
        s.reset();
        observe(&mut s, 9, 900, version(6, 4 * entry, 60, 99));
        assert_eq!(s.value_cache_len(), 2);
        assert!(s.value_cache_bytes() <= 3 * entry + 50);
    }

    #[test]
    fn unchanged_outcomes_resolve_before_the_same_reply_can_evict_them() {
        // Room for one entry. Key 1 is held; the reply ships key 2 (whose
        // admission evicts key 1) *before* it says key 1 is unchanged.
        let entry = 100 + VALUE_CACHE_ENTRY_OVERHEAD;
        let id = ClientId::new(DcId(0), 1);
        let coordinator = ServerId::new(DcId(0), PartitionId(3));
        let mut s = ClientSession::with_value_cache_budget(id, coordinator, Mode::Paris, entry);
        let v1 = version(1, 100, 10, 91);
        observe(&mut s, 1, 100, v1.clone());
        let t = started(&mut s, 2, 200);
        read_remote(&mut s, &[2, 1]);
        let v2 = version(2, 100, 20, 92);
        let reads = reads_of(reply(&mut s, t, vec![found(v2.clone()), unchanged(1)]));
        assert_eq!(reads[0].version, Some(v2));
        assert_eq!(reads[1].version, Some(v1), "resolved from the held copy");
        assert_eq!(s.value_cache_len(), 1, "and only then evicted");
    }

    #[test]
    fn unchanged_without_a_held_version_aborts_rather_than_inventing_a_value() {
        // Only a stamped key can come back unchanged, and nothing leaves
        // the cache between request and reply; a coordinator that claims
        // otherwise must not make the session fabricate a read.
        let mut s = session(Mode::Paris);
        let t = started(&mut s, 1, 100);
        let keys = read_remote(&mut s, &[1]);
        assert_eq!(keys[0].held, None);
        assert_eq!(
            reply(&mut s, t, vec![unchanged(1)]),
            Some(ClientEvent::Aborted { tx: t })
        );
        assert!(s.open_tx().is_none(), "the transaction is gone");
        started(&mut s, 2, 200);
    }

    #[test]
    fn reset_keeps_the_value_cache_coherent() {
        let mut s = session(Mode::Paris);
        let v = version(1, 8, 50, 99);
        observe(&mut s, 1, 100, v.clone());
        // A stamped read is abandoned mid-flight.
        let old = started(&mut s, 2, 200);
        assert_eq!(read_remote(&mut s, &[1])[0].held, Some(v.stamp()));
        s.reset();
        assert_eq!(s.value_cache_len(), 1, "reset leaves the cache alone");
        let fresh = started(&mut s, 3, 300);
        // The abandoned read's reply straggles in and is ignored.
        assert!(reply(&mut s, old, vec![unchanged(1)]).is_none());
        // The new transaction validates the same entry as if nothing
        // had happened.
        assert_eq!(read_remote(&mut s, &[1])[0].held, Some(v.stamp()));
        let reads = reads_of(reply(&mut s, fresh, vec![unchanged(1)]));
        assert_eq!(reads[0].version, Some(v));
    }

    #[test]
    fn a_session_without_a_value_cache_never_stamps() {
        let id = ClientId::new(DcId(0), 1);
        let coordinator = ServerId::new(DcId(0), PartitionId(3));
        let mut s = ClientSession::with_value_cache_budget(id, coordinator, Mode::Paris, 0);
        observe(&mut s, 1, 100, version(1, 8, 50, 99));
        assert_eq!((s.value_cache_len(), s.value_cache_bytes()), (0, 0));
        started(&mut s, 2, 200);
        assert_eq!(read_remote(&mut s, &[1])[0].held, None);
    }

    #[test]
    fn small_values_that_keep_changing_are_no_longer_stamped_until_they_settle() {
        let mut s = session(Mode::Paris);
        // Four 8-byte values that other clients overwrite between every two
        // reads of this session, and one stable 1 KiB value. Returns
        // whether the small keys and the big key were stamped.
        let mut seq = 0;
        let mut round = |s: &mut ClientSession, contended: bool| -> (bool, bool) {
            seq += 1;
            let t = started(s, seq, 100 * seq);
            let keys = read_remote(s, &[1, 2, 3, 4, 5]);
            let (ut, writer) = if contended {
                (10 * seq, 1_000 + seq)
            } else {
                (1, 1)
            };
            let mut results: Vec<ReadResult> =
                (1..=4).map(|k| found(version(k, 8, ut, writer))).collect();
            results.push(found(version(5, 1024, 1, 1)));
            reply(s, t, results);
            finish(s, t);
            let small: Vec<bool> = keys[..4].iter().map(|k| k.held.is_some()).collect();
            assert!(small.iter().all(|h| *h == small[0]), "{small:?}");
            (small[0], keys[4].held.is_some())
        };
        assert_eq!(round(&mut s, true), (false, false), "nothing held yet");
        assert_eq!(round(&mut s, true), (true, true), "optimistic at first");
        for _ in 0..4 {
            round(&mut s, true);
        }
        // One held version in five is still current when re-read: an
        // 8-byte answer is cheaper than the stamps that miss, a kilobyte
        // one is not.
        assert_eq!(round(&mut s, true), (false, true));
        // The writers stop. Shipped versions now match the held ones —
        // which the session notices without stamping — and the small
        // values are stamped again.
        for _ in 0..20 {
            round(&mut s, false);
        }
        assert_eq!(round(&mut s, false), (true, true));
    }

    #[test]
    fn counts_track_lifecycle() {
        let mut s = session(Mode::Paris);
        let t = started(&mut s, 1, 100);
        s.commit().unwrap();
        s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::CommitResp {
                tx: t,
                ct: Timestamp::ZERO,
            },
        ));
        assert_eq!(s.counts(), (1, 1));
    }
}
