//! The client session state machine (paper Algorithm 1).
//!
//! A [`ClientSession`] holds the paper's client-side state: the highest
//! stable snapshot seen (`ust_c`), the commit time of the last update
//! transaction (`hwt_c`), the versions it holds — the private write cache
//! (`WC_c`) of own writes not yet covered by the stable snapshot among
//! them — and, for the open transaction, the read set (`RS_c`) and write
//! set (`WS_c`).
//!
//! The session is sans-I/O: API calls return either an immediately
//! available result or the envelopes to send; [`ClientSession::handle`]
//! consumes responses and emits [`ClientEvent`]s. Clients are sequential
//! (one outstanding operation), matching §II-C.
//!
//! # Where reads go
//!
//! The UST names a snapshot every DC has installed, so any replica of a
//! partition can serve a read at it without blocking. A session given the
//! placement ([`ClientSession::with_topology`]) uses that: once its
//! transaction has a snapshot, a read sends one `ReadSliceReq` per
//! partition straight to the replica [`Topology::reachable_target_dc`]
//! picks for the session's DC — the replica the coordinator would pick —
//! and merges the `ReadSliceResp`s into one [`ClientEvent::ReadDone`]: two
//! messages and two hops per partition, where the coordinator's detour
//! (Alg. 2 lines 6–16) costs four hops and carries every key and result
//! twice. A read that carries the start still goes to the coordinator,
//! which alone can assign that snapshot; so does a read for which some
//! partition has no reachable replica, which the coordinator serves by
//! its own view or fails. A session without a topology
//! ([`ClientSession::new`]) sends every read to its coordinator.
//!
//! # Beginning a transaction
//!
//! START (Alg. 1 lines 1–7) is a round trip that only assigns the snapshot
//! `max(ust_c, ust)`. [`ClientSession::begin`] pays it up front: a
//! `StartTxReq`, and the transaction opens on the reply.
//! [`ClientSession::begin_deferred`] opens the transaction locally
//! instead, in one of two ways.
//!
//! * **Picked at the client.** `ust_c` is itself a UST some server
//!   announced, so it names a snapshot every DC has installed: a PaRiS
//!   session with a topology takes it as the snapshot, with no message.
//!   Its reads go straight to the replicas at it, and the coordinator
//!   first hears of the transaction at its commit, whose picked form
//!   ([`TxRef::Picked`]) carries the snapshot: the coordinator opens the
//!   context there and assigns the id. Causality and read-your-writes hold
//!   as with an assigned snapshot: `ust_c` is at least every snapshot the
//!   session read at, and every own write above it is still in `WC_c`,
//!   served locally. Freshness rides on the commit reply: whichever server
//!   answers a picked commit names its own UST where a start form's reply
//!   names the snapshot, and the session folds it into `ust_c`, so the
//!   next pick trails the UST by about one transaction. A picked request
//!   carries a call number the session chose, and its reply echoes it:
//!   the session takes a reply for its request by that number, whichever
//!   server answers and in whatever order. A picked snapshot has no
//!   context to hold the GC horizon down, so a replica whose GC has
//!   already trimmed past it refuses the slice; nothing was read at a
//!   refused first read, so the session gives the pick up and re-sends the
//!   read in the start form ([`ClientEvent::Retry`]). A refusal of a later
//!   read aborts, as for an assigned snapshot.
//! * **Carried by the first operation.** BPR, whose snapshot needs the
//!   coordinator's HLC; a session without a topology; a fresh session,
//!   whose `ust_c` is still zero; and [`ClientSession::begin_carried`]:
//!   the first `ReadReq` or `CommitReq` is sent in its start form
//!   ([`TxRef::Start`], `ust_c` where the transaction id would be), and
//!   its reply names the transaction id and snapshot, which the session
//!   adopts exactly as it adopts a `StartTxResp` — `ust_c` raised (lines
//!   4–6).
//!
//! # The version store
//!
//! The session holds at most one version per key, in one map. An entry's
//! role follows from its update time against `ust_c`; no entry ever moves:
//!
//! * **Above `ust_c`, an own write** — `WC_c`. The stable snapshot may not
//!   contain it yet, so once the snapshot is known a read serves it
//!   locally (Alg. 1 lines 11 and 29–31). It is never evicted, nor
//!   replaced by a shipped version. Line 6's prune is `ust_c` rising past
//!   it.
//! * **At or below `ust_c`, a validation candidate.** It never answers a
//!   read. It is the last version observed for the key — shipped, or an
//!   own write the UST has since covered — and a read of the key is
//!   stamped with its identity `(ut, tx)` while stamping is expected to
//!   pay. The cohort picks the version visible in the snapshot as for an
//!   unstamped key, and answers [`ReadOutcome::Unchanged`] instead of key,
//!   value and metadata only when that version's identity equals the
//!   stamp; the session resolves the outcome from its copy into the same
//!   [`ClientRead`] (`source: Server`) a shipped version produces. The
//!   server decides *which* version the snapshot sees, so a candidate
//!   cannot return stale data, needs no invalidation, and survives
//!   [`ClientSession::reset`].
//!
//! Until a carried start's snapshot is known, the session cannot tell
//! which own writes it covers. So a start-form read stamps every own write
//! it reads (always — correctness, not a byte bet); the coordinator answers
//! a stamp above the snapshot it just assigned `Unchanged` itself. On the
//! reply the own write wins iff its commit time is above the snapshot
//! (`source: Cache`, as if served locally); otherwise `Unchanged` means it
//! *is* the visible version and anything shipped is newer.
//!
//! A fixed per-session byte budget (values plus a per-entry overhead)
//! bounds the candidates, least recently observed evicted first. Eviction
//! runs after every admission — a shipped version, or a commit's own
//! writes — and whenever `ust_c` rises. A reply never names an evicted
//! entry: the session is sequential, and every outcome of a reply is
//! resolved before `ust_c` rises or anything is admitted.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use paris_proto::{Endpoint, Envelope, Msg, Opening, ReadKey, ReadOutcome, ReadResult, TxRef};
use paris_types::{
    ClientId, DcId, Error, Key, Mode, PartitionId, ServerId, Timestamp, TxId, Value, Version,
    VersionStamp, WriteSetEntry,
};

use crate::topology::Topology;

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
    /// An eager `START-TX` completed (Alg. 1 lines 1–7). A deferred begin
    /// reports none: its first operation's event stands for it.
    Started {
        /// The transaction id.
        tx: TxId,
        /// The assigned snapshot.
        snapshot: Timestamp,
    },
    /// A `READ` completed (Alg. 1 lines 8–20).
    ReadDone {
        /// The transaction id — for a transaction reading at a snapshot its
        /// client picked, which has no id until it commits, the id its
        /// slices were sent under.
        tx: TxId,
        /// Results in no particular order.
        reads: Vec<ClientRead>,
    },
    /// `COMMIT-TX` completed (Alg. 1 lines 26–32).
    Committed {
        /// The transaction id.
        tx: TxId,
        /// The snapshot the transaction read from — for a deferred begin
        /// whose first operation was this commit and carried its start,
        /// known only now.
        snapshot: Timestamp,
        /// Commit timestamp; `Timestamp::ZERO` for read-only transactions.
        ct: Timestamp,
    },
    /// The transaction aborted — a target partition had no reachable
    /// replica (§III-C unavailability), the coordinator no longer knew the
    /// transaction, or a replica refused a snapshot below its GC horizon.
    /// The session is idle again; none of the transaction's writes took
    /// effect.
    Aborted {
        /// The transaction id.
        tx: TxId,
    },
    /// A replica refused the client-picked snapshot of the transaction's
    /// first read: its GC has trimmed past it (`S_old` as of the replica's
    /// last GC tick). Nothing was read at it, so the transaction gives the
    /// pick up; send this
    /// envelope — the same read in the start form — and keep waiting. The
    /// read is still in flight: this is neither an abort nor a failure.
    Retry(Envelope),
}

/// Outcome of [`ClientSession::read`]: either all keys were satisfied
/// locally, or requests must be sent (module docs: where reads go).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadStep {
    /// Every key was served from the write set / read set / cache.
    Done(Vec<ClientRead>),
    /// Send this `ReadReq` to the coordinator; completion arrives via
    /// `handle`.
    Send(Envelope),
    /// Send each of these `ReadSliceReq`s, one per partition, to its
    /// replica; completion arrives via `handle` once every one is answered.
    Slices(Vec<Envelope>),
}

#[derive(Debug, Default)]
struct OpenTx {
    /// The transaction id, once a coordinator has assigned it: at an eager
    /// start, or with the reply to the first request that reached one.
    tx: Option<TxId>,
    /// The snapshot: picked at a deferred begin, or assigned with the id;
    /// `None` while a deferred begin's start is still to be carried.
    snapshot: Option<Timestamp>,
    /// `RS_c`: completed reads, for repeatable-read semantics.
    read_set: HashMap<Key, ClientRead>,
    /// `WS_c`: buffered writes (last write per key wins, Alg. 1 line 23).
    write_set: HashMap<Key, Value>,
    /// Reads satisfied locally while a server round-trip is in flight.
    pending_local: Vec<ClientRead>,
    /// Whether a server operation is in flight.
    in_flight: bool,
    /// Of a read sent as slices: the id they name, the partitions still to
    /// answer, and the results of those that did.
    slices_as: Option<TxId>,
    awaiting: Vec<PartitionId>,
    gathered: Vec<ReadResult>,
    /// The keys of a picked transaction's first read while it is in
    /// flight, for re-sending it in the start form should a replica refuse
    /// the pick.
    first_read: Vec<Key>,
    /// The call of the picked form in flight, which its reply echoes.
    call: Option<u64>,
}

impl OpenTx {
    /// How the next request names the transaction: by id; before a
    /// coordinator assigned one, by the snapshot the client picked and a
    /// new call out of `calls`; or by the start it carries.
    fn tx_ref(&mut self, client_ust: Timestamp, calls: &mut u64) -> TxRef {
        match (self.tx, self.snapshot) {
            (Some(tx), _) => TxRef::Known(tx),
            (None, Some(snapshot)) => {
                *calls += 1;
                self.call = Some(*calls);
                TxRef::Picked {
                    snapshot,
                    call: *calls,
                }
            }
            (None, None) => TxRef::Start { client_ust },
        }
    }

    /// Whether the request in flight is a start form, whose reply names
    /// the snapshot the coordinator assigns.
    fn carrying_start(&self) -> bool {
        self.in_flight && self.tx.is_none() && self.snapshot.is_none()
    }
}

/// Bytes one session's validation candidates may account for. Validation
/// pays on the reads that reach a server, which are the *colder* keys (the
/// hot ones a writing session holds as own writes), so the budget has to
/// cover a working set, not a hot set: this holds some 3 600 one-kilobyte
/// values. A session only ever fills it with keys it actually read or
/// wrote, which is what bounds the simulator's thousands of small-value
/// sessions.
const HELD_BUDGET: usize = 4096 * 1024;

/// Bytes charged per held entry on top of its value: the version's
/// metadata, the two index slots and the value's allocation.
const HELD_ENTRY_OVERHEAD: usize = 128;

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

/// How often a server's answer for a key held as a candidate turned out
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

/// The version store (module docs): whether an entry is an own write or a
/// candidate depends on the `ust_c` a method is given.
#[derive(Debug, Default)]
struct Held {
    /// Bytes the candidates may account for.
    budget: usize,
    /// Bytes every entry accounts for.
    used: usize,
    /// Bytes of own writes per commit time, for commit times above
    /// `ust_c`; the rest of `used` is candidates.
    own_bytes: BTreeMap<Timestamp, usize>,
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

impl Held {
    fn cost(version: &Version) -> usize {
        version.value.len() + HELD_ENTRY_OVERHEAD
    }

    fn get(&self, key: Key) -> Option<&Version> {
        self.entries.get(&key).map(|(_, version)| version)
    }

    /// The stamp to send with a read of a key that has no own write: the
    /// candidate's identity, if one is held and stamping it is expected to
    /// pay.
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

    /// Holds `version` for its key, as the most recent observation.
    fn insert(&mut self, version: Version) {
        self.remove(version.key);
        self.tick += 1;
        self.used += Self::cost(&version);
        self.order.insert(self.tick, version.key);
        self.entries.insert(version.key, (self.tick, version));
    }

    fn remove(&mut self, key: Key) {
        if let Some((at, old)) = self.entries.remove(&key) {
            self.order.remove(&at);
            self.used -= Self::cost(&old);
            if let Some(bytes) = self.own_bytes.get_mut(&old.ut) {
                *bytes -= Self::cost(&old);
            }
        }
    }

    /// Alg. 1 lines 29–31: one commit's writes, tagged with its commit
    /// time, become own writes — in key order, so which entry is evicted
    /// first never depends on the write set's hash order.
    fn commit(&mut self, mut writes: Vec<Version>, ust: Timestamp) {
        writes.sort_unstable_by_key(|v| v.key);
        for version in writes {
            if version.ut > ust {
                *self.own_bytes.entry(version.ut).or_default() += Self::cost(&version);
            }
            self.insert(version);
        }
        self.evict(ust);
    }

    /// Holds a `version` a server shipped as the key's candidate, then
    /// evicts. It never replaces an own write. A version that alone
    /// exceeds the budget is not kept; neither is a key new to the store
    /// while held versions of this size go stale before they are re-read
    /// — a copy would only be dead weight. Keys already held stay current
    /// either way, which keeps the stability measure alive.
    fn admit(&mut self, version: Version, ust: Timestamp) {
        match self.get(version.key) {
            Some(held) if held.ut > ust => return,
            None if !self.stability.favours_stamping(version.value.len()) => return,
            _ => {}
        }
        if Self::cost(&version) > self.budget {
            self.remove(version.key);
            return;
        }
        self.insert(version);
        self.evict(ust);
    }

    /// Evicts the least recently observed candidates until they fit the
    /// budget; own writes above `ust` are neither counted nor evicted.
    fn evict(&mut self, ust: Timestamp) {
        self.own_bytes.retain(|ct, _| *ct > ust);
        let own: usize = self.own_bytes.values().sum();
        let mut excess = self.used.saturating_sub(own + self.budget);
        let mut doomed = Vec::new();
        for key in self.order.values() {
            if excess == 0 {
                break;
            }
            let held = &self.entries[key].1;
            if held.ut <= ust {
                excess = excess.saturating_sub(Self::cost(held));
                doomed.push(*key);
            }
        }
        for key in doomed {
            self.remove(key);
        }
    }
}

/// Groups `keys` by partition (Alg. 2 line 9), each with the replica the
/// coordinator of a client in `dc` would read it from; `None` if some
/// partition has no reachable replica.
fn route(
    topology: &Topology,
    dc: DcId,
    unreachable: &HashSet<DcId>,
    keys: &[ReadKey],
) -> Option<Vec<(ServerId, Vec<ReadKey>)>> {
    let mut by_partition: BTreeMap<PartitionId, Vec<ReadKey>> = BTreeMap::new();
    for k in keys {
        let partition = topology.partition_of(k.key);
        by_partition.entry(partition).or_default().push(*k);
    }
    by_partition
        .into_iter()
        .map(|(partition, keys)| {
            let replica = topology.reachable_target_dc(partition, dc, unreachable)?;
            Some((ServerId::new(replica, partition), keys))
        })
        .collect()
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
    /// The placement, for reads sent straight to the replicas; `None`
    /// sends every read to the coordinator.
    topology: Option<Arc<Topology>>,
    /// DCs whose replicas a read must route around.
    unreachable: HashSet<DcId>,
    /// `ust_c`: highest stable snapshot seen.
    ust: Timestamp,
    /// `hwt_c`: commit time of the last update transaction.
    hwt: Timestamp,
    /// The version store: `WC_c` above `ust_c`, candidates at or below.
    held: Held,
    open: Option<OpenTx>,
    /// Waiting for a `StartTxResp`.
    starting: bool,
    /// Replies still owed to starts abandoned by [`ClientSession::reset`]
    /// — a `StartTxReq`, or a deferred begin's start form. A start's reply
    /// carries no correlation the client chose (the coordinator assigns the
    /// id), so they are counted: the next `discard_starts` replies naming
    /// an assigned snapshot are taken for the abandoned starts' and
    /// dropped, not adopted by a newer transaction. That holds while the
    /// replies arrive in the order the starts were sent, which a
    /// `StartTxResp` always does, but a start form answered only after its
    /// fan-out or its 2PC need not. A picked form is never counted: its
    /// reply echoes its call, which no later request carries.
    discard_starts: u32,
    /// The last number the session chose for a picked form's call or for
    /// the id a picked read's slices are sent under: each is new, so a late
    /// answer to an earlier request never completes a later one.
    calls: u64,
    /// Transactions run (stats).
    started_count: u64,
    committed_count: u64,
}

impl ClientSession {
    /// Creates a session pinned to `coordinator` in the client's local DC.
    pub fn new(id: ClientId, coordinator: ServerId, mode: Mode) -> Self {
        ClientSession::with_value_cache_budget(id, coordinator, mode, HELD_BUDGET)
    }

    /// A session whose validation candidates take at most `budget` bytes
    /// instead of the fixed default; `0` disables version-validated reads
    /// altogether (every read outside a start form is shipped in full). For
    /// tests that compare the two behaviours or exercise eviction —
    /// deployments have no such knob.
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
            topology: None,
            unreachable: HashSet::new(),
            ust: Timestamp::ZERO,
            hwt: Timestamp::ZERO,
            held: Held {
                budget,
                ..Held::default()
            },
            open: None,
            starting: false,
            discard_starts: 0,
            calls: 0,
            started_count: 0,
            committed_count: 0,
        }
    }

    /// The same session, reading straight from the replicas once its
    /// transaction has a snapshot (module docs: where reads go).
    #[must_use]
    pub fn with_topology(mut self, topology: Arc<Topology>) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Marks a remote DC reachable or unreachable, as
    /// `Server::set_dc_reachability` does for the session's coordinator:
    /// reads route around an unreachable DC's replicas exactly as the
    /// coordinator's would.
    pub fn set_dc_reachability(&mut self, dc: DcId, reachable: bool) {
        if reachable {
            self.unreachable.remove(&dc);
        } else if dc != self.id.dc {
            self.unreachable.insert(dc);
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

    /// Number of own writes `ust_c` does not cover yet — the private write
    /// cache `WC_c`.
    pub fn cache_len(&self) -> usize {
        let held = self.held.entries.values();
        held.filter(|(_, v)| v.ut > self.ust).count()
    }

    /// The open transaction's id, if a transaction is open and a
    /// coordinator has assigned it.
    pub fn open_tx(&self) -> Option<TxId> {
        self.open.as_ref()?.tx
    }

    /// The open transaction's snapshot, if a transaction is open and the
    /// session picked it or a coordinator assigned it.
    pub fn open_snapshot(&self) -> Option<Timestamp> {
        self.open.as_ref()?.snapshot
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
    /// Durable session state survives: `ust_c`, `hwt_c` and the version
    /// store are untouched, so causal ordering of *completed* transactions
    /// is preserved (a held version is a fact about one `(key, ut, tx)` and
    /// cannot go stale). The abandoned transaction's buffered writes are
    /// discarded; if its commit actually landed server-side and only the
    /// reply was lost, those writes are *not* held as own writes —
    /// read-your-own-writes is forfeited for exactly that transaction until
    /// the UST covers it.
    /// Late replies for the abandoned transaction are ignored by
    /// [`ClientSession::handle`]: reads and commits by their
    /// transaction-id checks, slice reads by the id they were sent under,
    /// a picked form by its call, and a start abandoned mid-flight — a
    /// `StartTxReq`, or a deferred begin's start form — by counting it
    /// (see `discard_starts`). The coordinator-side context, if any, is
    /// reclaimed by the server's stale-context cleanup on its GC tick.
    pub fn reset(&mut self) {
        let start_in_flight = self.open.as_ref().is_some_and(OpenTx::carrying_start);
        if self.starting || start_in_flight {
            self.discard_starts += 1;
        }
        self.starting = false;
        self.open = None;
    }

    // ------------------------------------------------------------ START

    /// `START-TX` (Alg. 1 lines 1–7), eager: returns the `StartTxReq` to
    /// send; the transaction opens on its reply.
    ///
    /// # Errors
    ///
    /// [`Error::TransactionAlreadyOpen`] if a transaction is open or
    /// starting.
    pub fn begin(&mut self) -> Result<Envelope, Error> {
        self.ensure_idle()?;
        self.starting = true;
        Ok(Envelope::new(
            self.id,
            self.coordinator,
            Msg::StartTxReq {
                client_ust: self.ust,
            },
        ))
    }

    /// `START-TX` (Alg. 1 lines 1–7), deferred: opens the transaction
    /// locally, without a message (module docs: beginning a transaction).
    /// A PaRiS session with a topology and a non-zero `ust_c` picks it as
    /// the snapshot: reads go straight to the replicas at it, and the
    /// commit carries it to the coordinator, whose reply assigns the id.
    /// Otherwise it begins as [`ClientSession::begin_carried`] does. Until
    /// the id is assigned [`ClientSession::open_tx`] is `None`, and so is
    /// [`ClientSession::open_snapshot`] unless the session picked it.
    ///
    /// A pick has no coordinator context to hold the replicas' GC below
    /// it, so it suits a transaction that runs straight after the reply
    /// that refreshed `ust_c`, as a closed-loop client's does: a replica
    /// whose GC has passed the pick refuses it, which costs a first read
    /// one retry in the start form and aborts a later read.
    ///
    /// # Errors
    ///
    /// [`Error::TransactionAlreadyOpen`] if a transaction is open or
    /// starting.
    pub fn begin_deferred(&mut self) -> Result<(), Error> {
        self.ensure_idle()?;
        let mut open = OpenTx::default();
        if self.may_pick() {
            open.snapshot = Some(self.ust);
            self.started_count += 1;
        }
        self.open = Some(open);
        Ok(())
    }

    /// `START-TX` (Alg. 1 lines 1–7), deferred and never picked: opens the
    /// transaction locally, without a message, and the first
    /// [`ClientSession::read`] or [`ClientSession::commit`] carries the
    /// start; the reply to it assigns the id and snapshot. From then on
    /// the coordinator's context holds the GC horizon at or below the
    /// snapshot, so no read of the transaction is refused however long it
    /// runs.
    ///
    /// # Errors
    ///
    /// [`Error::TransactionAlreadyOpen`] if a transaction is open or
    /// starting.
    pub fn begin_carried(&mut self) -> Result<(), Error> {
        self.ensure_idle()?;
        self.open = Some(OpenTx::default());
        Ok(())
    }

    /// Whether a deferred begin may pick its snapshot: `ust_c` is a UST
    /// every DC has installed, so reads at it never block — but BPR's
    /// snapshot needs the coordinator's HLC, a session without a topology
    /// cannot reach the replicas itself, and a fresh session's `ust_c` is
    /// zero, no snapshot any server announced.
    fn may_pick(&self) -> bool {
        self.mode == Mode::Paris && self.topology.is_some() && self.ust > Timestamp::ZERO
    }

    fn ensure_idle(&self) -> Result<(), Error> {
        if self.open.is_some() || self.starting {
            return Err(Error::TransactionAlreadyOpen);
        }
        Ok(())
    }

    // ------------------------------------------------------------- READ

    /// `READ` (Alg. 1 lines 8–20): serves keys from the write set, read
    /// set and own writes (in that order); missing keys go to the servers,
    /// each stamped with the candidate held for it — straight to the
    /// replicas once the snapshot is known (picked or assigned) and the
    /// session has a topology, otherwise to the coordinator. A first read
    /// that carries the start sends its own-write keys too (module docs).
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
            } else if let Some(own) = self.held.get(key).filter(|v| v.ut > self.ust) {
                if open.snapshot.is_some() {
                    local.push(ClientRead {
                        key,
                        value: Some(own.value.clone()),
                        version: Some(own.clone()),
                        source: ReadSource::Cache,
                    });
                } else {
                    // No snapshot yet: the coordinator says whether it
                    // holds this own write.
                    remote.push(ReadKey {
                        key,
                        held: Some(own.stamp()),
                    });
                }
            } else {
                remote.push(ReadKey {
                    key,
                    held: self.held.stamp(key),
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
        if let (Some(snapshot), Some(topology)) = (open.snapshot, &self.topology) {
            let routed = route(topology, self.id.dc, &self.unreachable, &remote);
            if let Some(routed) = routed {
                let tx = match open.tx {
                    Some(tx) => tx,
                    None => {
                        // No coordinator assigns an id under a partition
                        // no server hosts, so this one names only this
                        // read.
                        self.calls += 1;
                        let nowhere = PartitionId(topology.partitions());
                        if open.read_set.is_empty() {
                            open.first_read = keys.to_vec();
                        }
                        TxId::new(ServerId::new(self.id.dc, nowhere), self.calls)
                    }
                };
                open.slices_as = Some(tx);
                let mut slices = Vec::with_capacity(routed.len());
                for (replica, keys) in routed {
                    open.awaiting.push(replica.partition);
                    let msg = Msg::ReadSliceReq { tx, snapshot, keys };
                    slices.push(Envelope::new(self.id, replica, msg));
                }
                return Ok(ReadStep::Slices(slices));
            }
        }
        Ok(ReadStep::Send(Envelope::new(
            self.id,
            self.coordinator,
            Msg::ReadReq {
                tx: open.tx_ref(self.ust, &mut self.calls),
                keys: remote,
            },
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
    /// context (and its hold on the GC horizon). The commit of a deferred
    /// begin that has not reached a coordinator yet carries the start, or
    /// the snapshot the session picked.
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
                tx: open.tx_ref(self.ust, &mut self.calls),
                hwt: self.hwt,
                writes,
            },
        ))
    }

    // ----------------------------------------------------------- HANDLE

    /// Consumes a response from the coordinator, from a replica that
    /// served one of the session's slice reads, or from the participant of
    /// a one-phase commit.
    ///
    /// Returns the completed event — or, when a replica refused the picked
    /// snapshot of a first read, the [`ClientEvent::Retry`] to send — or
    /// `None` for stale/duplicate messages.
    pub fn handle(&mut self, env: &Envelope) -> Option<ClientEvent> {
        debug_assert_eq!(env.dst, Endpoint::Client(self.id));
        match &env.msg {
            Msg::StartTxResp { tx, snapshot } => {
                if self.owed_to_abandoned_start() || !self.starting {
                    return None;
                }
                self.starting = false;
                self.open = Some(OpenTx::default());
                self.opened(
                    *tx,
                    Opening::Start {
                        snapshot: *snapshot,
                    },
                );
                Some(ClientEvent::Started {
                    tx: *tx,
                    snapshot: *snapshot,
                })
            }
            Msg::ReadResp {
                tx,
                opening,
                results,
            } => {
                if !self.answers_in_flight(*tx, *opening) {
                    return None;
                }
                self.on_read_resp(*tx, *opening, results)
            }
            Msg::ReadSliceResp {
                tx,
                partition,
                results,
            } => self.on_read_slice_resp(*tx, *partition, results),
            Msg::CommitResp { tx, opening, ct } => {
                if !self.answers_in_flight(*tx, *opening) {
                    return None;
                }
                if let Some(opening) = opening {
                    self.opened(*tx, *opening);
                }
                let open = self.open.take()?;
                let snapshot = open.snapshot?;
                if *ct == Timestamp::ZERO && !open.write_set.is_empty() {
                    // No commit time, so the writes were not committed —
                    // whatever the coordinator meant by answering.
                    return Some(ClientEvent::Aborted { tx: *tx });
                }
                self.committed_count += 1;
                if *ct != Timestamp::ZERO {
                    match self.mode {
                        Mode::Paris => {
                            // Alg. 1 lines 29–31: hwt_c ← ct; WS_c, tagged
                            // with ct, is held as own writes.
                            self.hwt = *ct;
                            let dc = self.id.dc;
                            let writes = open.write_set.into_iter();
                            let writes = writes
                                .map(|(key, value)| Version::new(key, value, *ct, *tx, dc))
                                .collect();
                            self.held.commit(writes, self.ust);
                        }
                        Mode::Bpr => {
                            // BPR holds no own writes: the client instead
                            // raises its snapshot floor so the next
                            // transaction observes (and blocks for) them.
                            self.hwt = *ct;
                            self.ust = self.ust.max(*ct);
                        }
                    }
                }
                Some(ClientEvent::Committed {
                    tx: *tx,
                    snapshot,
                    ct: *ct,
                })
            }
            Msg::OpFailed { tx, opening } => {
                if opening.is_none() && self.refused_first_pick(*tx) {
                    return self.retry_in_start_form(*tx);
                }
                if !self.answers_in_flight(*tx, *opening) {
                    return None;
                }
                // The transaction is gone coordinator-side, or a replica
                // refused a snapshot below its GC horizon; drop all local
                // state (nothing committed, caches untouched).
                self.open = None;
                Some(ClientEvent::Aborted { tx: *tx })
            }
            _ => {
                debug_assert!(false, "unexpected message at client: {}", env.msg.kind());
                None
            }
        }
    }

    /// Consumes one reply owed to a start abandoned by
    /// [`ClientSession::reset`], if one is still owed (see
    /// `discard_starts`).
    fn owed_to_abandoned_start(&mut self) -> bool {
        if self.discard_starts == 0 {
            return false;
        }
        self.discard_starts -= 1;
        true
    }

    /// Whether a reply answers the operation in flight. A reply to a start
    /// form answers the start form in flight, unless it is owed to a start
    /// abandoned by [`ClientSession::reset`]; a reply to a picked form
    /// answers the picked form in flight whose call it echoes; any other
    /// reply must name the open transaction, or the id its slices were
    /// sent under.
    fn answers_in_flight(&mut self, tx: TxId, opening: Option<Opening>) -> bool {
        match opening {
            Some(Opening::Start { .. }) if self.owed_to_abandoned_start() => false,
            Some(Opening::Start { .. }) => self.open.as_ref().is_some_and(OpenTx::carrying_start),
            Some(Opening::Picked { call, .. }) => self
                .open
                .as_ref()
                .is_some_and(|open| open.in_flight && open.call == Some(call)),
            None => self.open.as_ref().is_some_and(|open| {
                open.in_flight && (open.tx == Some(tx) || open.slices_as == Some(tx))
            }),
        }
    }

    /// Takes what the reply to the first request that reached a
    /// coordinator names: the transaction id, and the assigned snapshot (a
    /// `StartTxResp` or a start form's reply, Alg. 1 lines 3–6) or — for a
    /// snapshot the session picked — the answering server's UST. Either
    /// raises `ust_c` (line 4, monotonically), after which the own writes
    /// it covers are candidates (line 6): validated when read, counted
    /// against the budget.
    fn opened(&mut self, tx: TxId, opening: Opening) {
        let ust = match opening {
            Opening::Start { snapshot } => snapshot,
            Opening::Picked { ust, .. } => ust,
        };
        if let Some(open) = self.open.as_mut() {
            open.tx = Some(tx);
            open.call = None;
            if open.snapshot.is_none() {
                open.snapshot = Some(ust);
                self.started_count += 1;
            }
        }
        self.ust = self.ust.max(ust);
        self.held.evict(self.ust);
    }

    /// Whether `tx` names the slices of a picked transaction's first read
    /// in flight — a refusal of which is retried in the start form.
    fn refused_first_pick(&self, tx: TxId) -> bool {
        self.open.as_ref().is_some_and(|open| {
            open.in_flight && open.slices_as == Some(tx) && !open.first_read.is_empty()
        })
    }

    /// A replica refused the pick (its `S_old` passed it) before anything
    /// was read at it: the transaction drops the pick and whatever slices
    /// answered, and re-sends the same read in the start form, whose reply
    /// assigns a snapshot the coordinator's context pins. Late answers to
    /// the refused slices name an id nothing waits for any more.
    fn retry_in_start_form(&mut self, tx: TxId) -> Option<ClientEvent> {
        let open = self.open.as_mut()?;
        let keys = std::mem::take(&mut open.first_read);
        *open = OpenTx {
            write_set: std::mem::take(&mut open.write_set),
            ..OpenTx::default()
        };
        self.started_count -= 1;
        match self.read(&keys) {
            Ok(ReadStep::Send(env)) => Some(ClientEvent::Retry(env)),
            // Keys outside the write set — the read had some — go to the
            // coordinator while the snapshot is unknown.
            _ => {
                debug_assert!(false, "a start-form read sends its keys");
                self.open = None;
                Some(ClientEvent::Aborted { tx })
            }
        }
    }

    /// One replica's answer to a read sent as slices: the read completes
    /// with the last partition's, as if the coordinator had merged them.
    fn on_read_slice_resp(
        &mut self,
        tx: TxId,
        partition: PartitionId,
        results: &[ReadResult],
    ) -> Option<ClientEvent> {
        let open = self.open.as_mut()?;
        if !open.in_flight || open.slices_as != Some(tx) {
            return None;
        }
        let owed = open.awaiting.iter().position(|p| *p == partition)?;
        open.awaiting.swap_remove(owed);
        open.gathered.extend_from_slice(results);
        if !open.awaiting.is_empty() {
            return None;
        }
        open.slices_as = None;
        let results = std::mem::take(&mut open.gathered);
        self.on_read_resp(tx, None, &results)
    }

    /// A reply that answers the read in flight; `opening` is what a reply
    /// to the first request to reach a coordinator names (see
    /// [`ClientSession::opened`]).
    fn on_read_resp(
        &mut self,
        tx: TxId,
        opening: Option<Opening>,
        results: &[ReadResult],
    ) -> Option<ClientEvent> {
        let open = self.open.as_mut()?;
        let assigned = match opening {
            Some(Opening::Start { snapshot }) => Some(snapshot),
            _ => None,
        };
        let snapshot = open.snapshot.or(assigned)?;
        open.in_flight = false;
        open.first_read.clear();
        let mut reads = std::mem::take(&mut open.pending_local);
        // Every outcome is resolved before `ust_c` rises or a shipped
        // version is admitted: either evicts, and must not evict what an
        // outcome of this same reply names.
        for ReadResult { key, outcome } in results {
            let held = self.held.get(*key);
            // Only a start form sends an own write, stamped as no bet
            // (module docs): its answer does not feed `Stability`.
            let own = held.is_some_and(|h| h.ut > self.ust);
            let (version, source) = match (held, outcome) {
                (Some(h), _) if own && h.ut > snapshot => (Some(h.clone()), ReadSource::Cache),
                (Some(h), ReadOutcome::Unchanged) => {
                    let h = h.clone();
                    if !own {
                        self.held.stability.record(true);
                    }
                    self.held.touch(*key);
                    (Some(h), ReadSource::Server)
                }
                (None, ReadOutcome::Unchanged) => {
                    // Only a stamped key can come back unchanged, and the
                    // store has not changed since. A coordinator that says
                    // otherwise is broken; never invent a value.
                    self.open = None;
                    return Some(ClientEvent::Aborted { tx });
                }
                (held, other) => {
                    let shipped = other.version();
                    if let (Some(h), Some(v), false) = (held, shipped, own) {
                        self.held.stability.record(h.stamp() == v.stamp());
                    }
                    (shipped.cloned(), ReadSource::Server)
                }
            };
            reads.push(ClientRead {
                key: *key,
                value: version.as_ref().map(|v| v.value.clone()),
                version,
                source,
            });
        }
        if let Some(opening) = opening {
            self.opened(tx, opening);
        }
        for v in results.iter().filter_map(|r| r.outcome.version()) {
            self.held.admit(v.clone(), self.ust);
        }
        // Alg. 1 line 18: RS_c ← RS_c ∪ D.
        let open = self.open.as_mut()?;
        for r in &reads {
            open.read_set.entry(r.key).or_insert_with(|| r.clone());
        }
        Some(ClientEvent::ReadDone { tx, reads })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::{ClusterConfig, DcId, PartitionId};

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

    /// The coordinator's reply to `t`'s commit: commit time `ct`, or 0 for
    /// a read-only close.
    fn committed(s: &mut ClientSession, t: TxId, ct: u64) -> Option<ClientEvent> {
        let ct = Timestamp::from_physical_micros(ct);
        let reply = Msg::CommitResp {
            tx: t,
            opening: None,
            ct,
        };
        s.handle(&Envelope::new(s.coordinator(), s.id(), reply))
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
            other => panic!("should not hit the server: {other:?}"),
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
                    assert_eq!(tx, TxRef::Known(t));
                    assert_eq!(keys.len(), 2);
                }
                other => panic!("wrong message: {other:?}"),
            },
            other => panic!("keys are not local: {other:?}"),
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
                opening: None,
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
        let ev = committed(&mut s, t, 500);
        assert_eq!(
            ev,
            Some(ClientEvent::Committed {
                tx: t,
                snapshot: Timestamp::from_physical_micros(100),
                ct
            })
        );
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
        committed(&mut s, t1, 500);
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
        committed(&mut s, t1, 500);
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
        let ev = committed(&mut s, t, 0);
        assert_eq!(
            ev,
            Some(ClientEvent::Committed {
                tx: t,
                snapshot: Timestamp::from_physical_micros(100),
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
        committed(&mut s, t, 900);
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
        committed(&mut s, tx(1), 0);
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
        assert!(reply(&mut s, t, vec![]).is_none());
        // A CommitResp for a different transaction.
        assert!(committed(&mut s, tx(42), 0).is_none());
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
        let ev = committed(&mut s, old, 500);
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
        committed(&mut s, t1, 500);
        let (ust, hwt, cached) = (s.ust(), s.hwt(), s.cache_len());
        s.begin().unwrap();
        s.reset();
        assert_eq!((s.ust(), s.hwt(), s.cache_len()), (ust, hwt, cached));
    }

    // ------------------------------------------------- the version store

    /// Entries and bytes the version store holds, own writes included.
    fn held(s: &ClientSession) -> (usize, usize) {
        (s.held.entries.len(), s.held.used)
    }

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
            other => panic!("keys are not local: {other:?}"),
        }
    }

    fn reply(s: &mut ClientSession, t: TxId, results: Vec<ReadResult>) -> Option<ClientEvent> {
        s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::ReadResp {
                tx: t,
                opening: None,
                results,
            },
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
        committed(s, t, 0);
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
        assert_eq!(held(&s).0, 1);

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
            other => panic!("read set must satisfy repeat reads: {other:?}"),
        }
    }

    #[test]
    fn an_own_write_becomes_a_candidate_when_the_ust_covers_it() {
        let mut s = session(Mode::Paris);
        let t1 = started(&mut s, 1, 100);
        s.write(&[(Key(7), Value::from("mine"))]).unwrap();
        s.commit().unwrap();
        let ct = Timestamp::from_physical_micros(500);
        committed(&mut s, t1, 500);
        assert_eq!((s.cache_len(), held(&s).0), (1, 1));
        // Snapshot ≥ ct: no longer in WC_c (Alg. 1 line 6), but still held
        // — a candidate, so the re-read is validated instead of shipped
        // back.
        let t2 = started(&mut s, 2, 600);
        assert_eq!((s.cache_len(), held(&s).0), (0, 1));
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
        let entry = 100 + HELD_ENTRY_OVERHEAD;
        let id = ClientId::new(DcId(0), 1);
        let coordinator = ServerId::new(DcId(0), PartitionId(3));
        let mut s =
            ClientSession::with_value_cache_budget(id, coordinator, Mode::Paris, 3 * entry + 50);
        for k in 1..=6 {
            observe(&mut s, k, 100 * k, version(k, 100, 10 * k, 90 + k));
            assert!(held(&s).1 <= 3 * entry + 50, "after key {k}");
        }
        assert_eq!(held(&s), (3, 3 * entry));
        // Keys 4–6 survive. Validating key 4 makes it the freshest
        // observation, so the next admission evicts key 5 instead.
        let t = started(&mut s, 7, 700);
        let keys = read_remote(&mut s, &[1, 2, 3, 4, 5, 6]);
        let stamped: Vec<bool> = keys.iter().map(|k| k.held.is_some()).collect();
        assert_eq!(stamped, [false, false, false, true, true, true]);
        let results = vec![unchanged(4), found(version(1, 100, 10, 91))];
        reads_of(reply(&mut s, t, results));
        finish(&mut s, t);
        started(&mut s, 8, 800);
        let keys = read_remote(&mut s, &[1, 4, 5, 6]);
        let stamped: Vec<bool> = keys.iter().map(|k| k.held.is_some()).collect();
        assert_eq!(stamped, [true, true, false, true]);
        // A value that alone exceeds the budget is never kept (and takes
        // its key's older entry with it: the held version is not current).
        s.reset();
        observe(&mut s, 9, 900, version(6, 4 * entry, 60, 99));
        assert_eq!(held(&s).0, 2);
        assert!(held(&s).1 <= 3 * entry + 50);
    }

    #[test]
    fn unchanged_outcomes_resolve_before_the_same_reply_can_evict_them() {
        // Room for one entry. Key 1 is held; the reply ships key 2 (whose
        // admission evicts key 1) *before* it says key 1 is unchanged.
        let entry = 100 + HELD_ENTRY_OVERHEAD;
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
        assert_eq!(held(&s).0, 1, "and only then evicted");
    }

    #[test]
    fn unchanged_without_a_held_version_aborts_rather_than_inventing_a_value() {
        // Only a stamped key can come back unchanged, and nothing leaves
        // the store between request and reply; a coordinator that claims
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
        assert_eq!(held(&s).0, 1, "reset leaves the store alone");
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
        assert_eq!(held(&s), (0, 0));
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
        committed(&mut s, t, 0);
        assert_eq!(s.counts(), (1, 1));
    }

    // ------------------------------------------------- the deferred begin

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_physical_micros(t)
    }

    /// An eager transaction (snapshot 100) that writes `writes` and gets
    /// commit time `ct`: the writes land in `WC_c`.
    fn commit_own(s: &mut ClientSession, seq: u64, writes: &[(u64, Value)], ct: u64) {
        let t = started(s, seq, 100);
        let writes: Vec<(Key, Value)> = writes.iter().map(|(k, v)| (Key(*k), v.clone())).collect();
        s.write(&writes).unwrap();
        s.commit().unwrap();
        let ev = committed(s, t, ct);
        assert!(matches!(ev, Some(ClientEvent::Committed { .. })));
    }

    /// A deferred begin and its first read, which must go to the server
    /// in the start form: the `ust_c` it carries and the keys it sends.
    fn deferred_read(s: &mut ClientSession, keys: &[u64]) -> (Timestamp, Vec<ReadKey>) {
        s.begin_deferred().unwrap();
        let keys: Vec<Key> = keys.iter().copied().map(Key).collect();
        match s.read(&keys).unwrap() {
            ReadStep::Send(Envelope {
                msg:
                    Msg::ReadReq {
                        tx: TxRef::Start { client_ust },
                        keys,
                    },
                ..
            }) => (client_ust, keys),
            other => panic!("expected a start-form ReadReq, got {other:?}"),
        }
    }

    /// The reply to a start-form read: transaction `t` at `snap`.
    fn start_reply(
        s: &mut ClientSession,
        t: TxId,
        snap: u64,
        results: Vec<ReadResult>,
    ) -> Option<ClientEvent> {
        s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::ReadResp {
                tx: t,
                opening: Some(Opening::Start { snapshot: ts(snap) }),
                results,
            },
        ))
    }

    fn by_key(mut reads: Vec<ClientRead>) -> Vec<ClientRead> {
        reads.sort_by_key(|r| r.key);
        reads
    }

    #[test]
    fn a_deferred_begin_sends_nothing_until_its_first_read_carries_the_start() {
        let mut s = session(Mode::Paris);
        observe(&mut s, 1, 100, version(1, 8, 50, 99));
        s.begin_deferred().unwrap();
        assert_eq!((s.open_tx(), s.open_snapshot()), (None, None));
        assert!(!s.has_operation_in_flight());
        assert_eq!(s.begin_deferred(), Err(Error::TransactionAlreadyOpen));
        assert_eq!(s.begin().unwrap_err(), Error::TransactionAlreadyOpen);
        // The transaction's own buffered writes need no snapshot.
        s.write(&[(Key(9), Value::from("mine"))]).unwrap();
        assert!(matches!(s.read(&[Key(9)]).unwrap(), ReadStep::Done(_)));
        s.reset();

        let (client_ust, keys) = deferred_read(&mut s, &[1, 2]);
        assert_eq!(client_ust, ts(100), "the start carries ust_c");
        assert_eq!(keys[0].held.map(|h| h.ut), Some(ts(50)), "candidate");
        assert!(s.has_operation_in_flight());
        let t = tx(2);
        let reads = reads_of(start_reply(
            &mut s,
            t,
            150,
            vec![
                unchanged(1),
                ReadResult {
                    key: Key(2),
                    outcome: ReadOutcome::Absent,
                },
            ],
        ));
        assert_eq!(reads[0].version, Some(version(1, 8, 50, 99)));
        // Adopted exactly as a StartTxResp would be.
        assert_eq!((s.open_tx(), s.open_snapshot()), (Some(t), Some(ts(150))));
        assert_eq!((s.ust(), s.counts()), (ts(150), (2, 1)));
        // Later operations name the transaction.
        match s.read(&[Key(3)]).unwrap() {
            ReadStep::Send(env) => {
                assert!(matches!(
                    env.msg,
                    Msg::ReadReq {
                        tx: TxRef::Known(known),
                        ..
                    } if known == t
                ))
            }
            other => panic!("key 3 is not local: {other:?}"),
        }
    }

    #[test]
    fn a_write_only_deferred_transaction_starts_with_its_commit() {
        let mut s = session(Mode::Paris);
        s.begin_deferred().unwrap();
        s.write(&[(Key(7), Value::from("w"))]).unwrap();
        let env = s.commit().unwrap();
        let Msg::CommitReq {
            tx: TxRef::Start { client_ust },
            writes,
            ..
        } = env.msg
        else {
            panic!("expected a start-form CommitReq, got {env:?}");
        };
        assert_eq!((client_ust, writes.len()), (Timestamp::ZERO, 1));
        let t = tx(1);
        let ev = s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::CommitResp {
                tx: t,
                opening: Some(Opening::Start { snapshot: ts(200) }),
                ct: ts(300),
            },
        ));
        assert_eq!(
            ev,
            Some(ClientEvent::Committed {
                tx: t,
                snapshot: ts(200),
                ct: ts(300)
            })
        );
        assert_eq!((s.ust(), s.hwt(), s.cache_len()), (ts(200), ts(300), 1));
        assert_eq!(s.counts(), (1, 1));
        assert!(s.open_tx().is_none());
    }

    #[test]
    fn an_own_write_in_a_deferred_first_read_resolves_as_the_eager_path_would() {
        // Own writes of keys 2 and 3 at ct 300, of key 1 at ct 500; the
        // snapshot will be 400. Key 1: the snapshot does not hold it, the
        // own write wins. Key 2: the snapshot holds it, and it is the
        // visible version. Key 3: the snapshot holds it, but a newer
        // foreign version is visible.
        let own = |s: &mut ClientSession| {
            commit_own(
                s,
                1,
                &[(2, Value::from("two")), (3, Value::from("three"))],
                300,
            );
            commit_own(s, 2, &[(1, Value::from("one"))], 500);
        };
        let foreign = version(3, 8, 350, 77);
        let mut lazy = session(Mode::Paris);
        own(&mut lazy);
        let (_, keys) = deferred_read(&mut lazy, &[1, 2, 3]);
        // Every WC_c key is sent, stamped with the own write — always.
        let stamps: Vec<Option<Timestamp>> = keys.iter().map(|k| k.held.map(|h| h.ut)).collect();
        assert_eq!(stamps, [Some(ts(500)), Some(ts(300)), Some(ts(300))]);
        // The coordinator answered key 1 itself (stamp above 400).
        let results = vec![unchanged(1), unchanged(2), found(foreign.clone())];
        let lazy_reads = by_key(reads_of(start_reply(&mut lazy, tx(3), 400, results)));
        let sources: Vec<ReadSource> = lazy_reads.iter().map(|r| r.source).collect();
        assert_eq!(
            sources,
            [ReadSource::Cache, ReadSource::Server, ReadSource::Server]
        );
        assert_eq!(lazy_reads[0].value, Some(Value::from("one")));
        assert_eq!(lazy_reads[1].value, Some(Value::from("two")));
        assert_eq!(lazy_reads[2].version, Some(foreign.clone()));
        // ust_c rose after the reply: only key 1 is still in WC_c; key 2
        // is a candidate, and key 3 holds the foreign version.
        assert_eq!((lazy.cache_len(), held(&lazy).0), (1, 3));

        // The eager path, same history, same snapshot: same reads.
        let mut eager = session(Mode::Paris);
        own(&mut eager);
        let t = started(&mut eager, 3, 400);
        let keys = read_remote(&mut eager, &[1, 2, 3]);
        assert_eq!(keys.len(), 2, "key 1 served from WC_c");
        let eager_reads = reads_of(reply(&mut eager, t, vec![unchanged(2), found(foreign)]));
        assert_eq!(by_key(eager_reads), lazy_reads);
    }

    #[test]
    fn a_deferred_start_resolves_unchanged_before_its_ust_rise_can_evict() {
        // Room for one candidate. Key 1 is one; WC_c holds an own write of
        // key 2 that the snapshot covers, so once ust_c rises key 2 counts
        // against the budget too and key 1 is evicted — after the reply
        // resolved both.
        let entry = 100 + HELD_ENTRY_OVERHEAD;
        let id = ClientId::new(DcId(0), 1);
        let coordinator = ServerId::new(DcId(0), PartitionId(3));
        let mut s = ClientSession::with_value_cache_budget(id, coordinator, Mode::Paris, entry);
        let v1 = version(1, 100, 10, 91);
        observe(&mut s, 1, 50, v1.clone());
        commit_own(&mut s, 2, &[(2, Value::filled(100, 2))], 300);
        let (_, keys) = deferred_read(&mut s, &[1, 2]);
        assert!(keys.iter().all(|k| k.held.is_some()));
        let reads = by_key(reads_of(start_reply(
            &mut s,
            tx(3),
            400,
            vec![unchanged(1), unchanged(2)],
        )));
        assert_eq!(reads[0].version, Some(v1), "resolved from the held copy");
        assert_eq!(reads[1].value, Some(Value::filled(100, 2)));
        assert_eq!(reads[1].source, ReadSource::Server);
        assert_eq!((s.cache_len(), held(&s).0), (0, 1), "then evicted");
        assert!(s.held.get(Key(2)).is_some(), "the fresher one stays");
    }

    #[test]
    fn an_own_write_above_the_budget_is_served_locally_until_the_ust_covers_it() {
        let id = ClientId::new(DcId(0), 1);
        let coordinator = ServerId::new(DcId(0), PartitionId(3));
        // Room for one 8-byte candidate; the own write takes 100 bytes.
        let entry = 8 + HELD_ENTRY_OVERHEAD;
        let mut s = ClientSession::with_value_cache_budget(id, coordinator, Mode::Paris, entry);
        let mine = Value::filled(100, 7);
        commit_own(&mut s, 1, &[(7, mine.clone())], 500);
        for (seq, snap) in [(2, 200), (3, 300), (4, 499)] {
            let t = started(&mut s, seq, snap);
            match s.read(&[Key(7)]).unwrap() {
                ReadStep::Done(reads) => {
                    assert_eq!(reads[0].source, ReadSource::Cache, "snapshot {snap}");
                    assert_eq!(reads[0].value, Some(mine.clone()));
                }
                other => panic!("an own write must be served locally: {other:?}"),
            }
            // Each shipped candidate evicts the one before it, never the
            // older own write.
            read_remote(&mut s, &[seq]);
            reply(&mut s, t, vec![found(version(seq, 8, snap, 90 + seq))]);
            finish(&mut s, t);
        }
        assert_eq!((s.cache_len(), held(&s).0), (1, 2));
        // Covered, it is the oldest candidate, over the budget: gone, so
        // the next read is shipped in full.
        started(&mut s, 5, 500);
        assert_eq!((s.cache_len(), held(&s)), (0, (1, entry)));
        assert_eq!(read_remote(&mut s, &[7])[0].held, None);
    }

    #[test]
    fn sessions_fed_the_same_history_hold_the_same_keys_under_a_tight_budget() {
        // Room for three candidates. Multi-key commits land in a write set
        // whose iteration order differs between two `HashMap`s; eviction
        // must not depend on it.
        let entry = 8 + HELD_ENTRY_OVERHEAD;
        let run = || {
            let id = ClientId::new(DcId(0), 1);
            let coordinator = ServerId::new(DcId(0), PartitionId(3));
            let mut s =
                ClientSession::with_value_cache_budget(id, coordinator, Mode::Paris, 3 * entry);
            for round in 0..6u64 {
                let base = 10 * round;
                let writes: Vec<(u64, Value)> =
                    (base..base + 4).map(|k| (k, Value::filled(8, k))).collect();
                commit_own(&mut s, 2 * round + 1, &writes, 1_000 * (round + 1));
                let snap = 1_000 * (round + 1);
                let t = started(&mut s, 2 * round + 2, snap);
                let k = 100 + round;
                read_remote(&mut s, &[k]);
                reply(&mut s, t, vec![found(version(k, 8, snap - 1, 50 + round))]);
                finish(&mut s, t);
            }
            let mut keys: Vec<Key> = s.held.entries.keys().copied().collect();
            keys.sort_unstable();
            keys
        };
        let first = run();
        assert_eq!(first.len(), 3);
        for _ in 0..8 {
            assert_eq!(run(), first);
        }
    }

    #[test]
    fn reset_during_a_deferred_first_read_discards_its_late_reply() {
        let mut s = session(Mode::Paris);
        deferred_read(&mut s, &[1]);
        s.reset();
        assert!(!s.has_operation_in_flight());
        // A new deferred transaction; the channel (FIFO) delivers the
        // abandoned first read's reply first — it must not be adopted.
        deferred_read(&mut s, &[2]);
        let absent = |key| ReadResult {
            key: Key(key),
            outcome: ReadOutcome::Absent,
        };
        assert!(start_reply(&mut s, tx(1), 100, vec![absent(1)]).is_none());
        assert_eq!(s.open_tx(), None);
        let reads = reads_of(start_reply(&mut s, tx(2), 100, vec![absent(2)]));
        assert_eq!(reads[0].key, Key(2));
        assert_eq!(s.open_tx(), Some(tx(2)));
        finish(&mut s, tx(2));

        // The same for an eager begin after the reset, and for an abandoned
        // first commit that failed.
        s.begin_deferred().unwrap();
        s.commit().unwrap();
        s.reset();
        s.begin().unwrap();
        let failed = Msg::OpFailed {
            tx: tx(3),
            opening: Some(Opening::Start { snapshot: ts(100) }),
        };
        assert!(s
            .handle(&Envelope::new(s.coordinator(), s.id(), failed))
            .is_none());
        let ev = s.handle(&Envelope::new(
            s.coordinator(),
            s.id(),
            Msg::StartTxResp {
                tx: tx(4),
                snapshot: ts(100),
            },
        ));
        assert!(matches!(ev, Some(ClientEvent::Started { tx: got, .. }) if got == tx(4)));
    }

    #[test]
    fn reset_during_a_one_phase_commit_drops_its_late_reply() {
        // A one-phase commit of a plain transaction is answered by its
        // participant, not the coordinator: the reply may straggle in
        // behind anything the next transaction does.
        let participant = ServerId::new(DcId(0), PartitionId(5));
        let mut s = session(Mode::Paris);
        let old = started(&mut s, 1, 100);
        s.write(&[(Key(7), Value::from("w"))]).unwrap();
        s.commit().unwrap();
        s.reset();
        deferred_read(&mut s, &[2]);
        let late = Msg::CommitResp {
            tx: old,
            opening: None,
            ct: ts(500),
        };
        assert!(s
            .handle(&Envelope::new(participant, s.id(), late.clone()))
            .is_none());
        assert_eq!((s.hwt(), s.cache_len()), (Timestamp::ZERO, 0));
        // The read's own start reply is still the one adopted.
        let absent = ReadResult {
            key: Key(2),
            outcome: ReadOutcome::Absent,
        };
        assert_eq!(
            reads_of(start_reply(&mut s, tx(2), 100, vec![absent])).len(),
            1
        );
        assert_eq!(s.open_tx(), Some(tx(2)));
        // And once that transaction is committing, the reply still names
        // the wrong transaction.
        s.commit().unwrap();
        assert!(s
            .handle(&Envelope::new(participant, s.id(), late))
            .is_none());
        assert!(s.has_operation_in_flight());
        assert!(committed(&mut s, tx(2), 0).is_some());

        // A start-form commit keeps 2PC even on one partition, so it is
        // answered by the coordinator, in request order: its late reply is
        // the start owed to the reset, and the next start's reply is
        // adopted.
        s.begin_deferred().unwrap();
        s.write(&[(Key(8), Value::from("w"))]).unwrap();
        s.commit().unwrap();
        s.reset();
        deferred_read(&mut s, &[3]);
        let late = Msg::CommitResp {
            tx: tx(3),
            opening: Some(Opening::Start { snapshot: ts(150) }),
            ct: ts(600),
        };
        assert!(s
            .handle(&Envelope::new(s.coordinator(), s.id(), late))
            .is_none());
        assert_eq!((s.hwt(), s.cache_len()), (Timestamp::ZERO, 0));
        let absent = ReadResult {
            key: Key(3),
            outcome: ReadOutcome::Absent,
        };
        assert_eq!(
            reads_of(start_reply(&mut s, tx(4), 160, vec![absent])).len(),
            1
        );
        assert_eq!(s.open_snapshot(), Some(ts(160)));
    }

    #[test]
    fn op_failed_on_a_deferred_first_op_aborts_it() {
        let mut s = session(Mode::Paris);
        deferred_read(&mut s, &[1]);
        let reply = |tx, opening| {
            Envelope::new(
                ServerId::new(DcId(0), PartitionId(3)),
                ClientId::new(DcId(0), 1),
                Msg::OpFailed { tx, opening },
            )
        };
        // A failure of some earlier transaction's operation is not this
        // one's: it names no snapshot.
        assert!(s.handle(&reply(tx(9), None)).is_none());
        assert!(s.has_operation_in_flight());
        let ev = s.handle(&reply(tx(5), Some(Opening::Start { snapshot: ts(100) })));
        assert_eq!(ev, Some(ClientEvent::Aborted { tx: tx(5) }));
        assert!(!s.has_operation_in_flight() && s.open_tx().is_none());
        assert_eq!(s.counts(), (0, 0));
        started(&mut s, 6, 100);
    }

    #[test]
    fn a_commit_reply_without_a_commit_time_for_writes_is_an_abort() {
        // A coordinator that lost the transaction once answered so; the
        // writes never committed, whatever the reply claims.
        let mut s = session(Mode::Paris);
        let t = started(&mut s, 1, 100);
        s.write(&[(Key(7), Value::from("lost"))]).unwrap();
        s.commit().unwrap();
        let ev = committed(&mut s, t, 0);
        assert_eq!(ev, Some(ClientEvent::Aborted { tx: t }));
        assert_eq!((s.cache_len(), s.counts()), (0, (1, 0)));
        assert!(s.open_tx().is_none());
    }

    // ------------------------------------------ reads straight to replicas

    /// 3 DCs × 6 partitions, R = 2: DC 0 hosts partitions 0, 2, 3 and 5;
    /// partitions 1 and 4 live in DCs 1 and 2 only.
    fn routed_session() -> (ClientSession, Arc<Topology>) {
        let config = ClusterConfig::builder().dcs(3).partitions(6);
        let config = config.replication_factor(2).build().unwrap();
        let topo = Arc::new(Topology::new(config));
        let id = ClientId::new(DcId(0), 1);
        let coordinator = topo.coordinator_for(id.dc, id.seq);
        let session = ClientSession::new(id, coordinator, Mode::Paris);
        (session.with_topology(Arc::clone(&topo)), topo)
    }

    fn slices_of(step: ReadStep) -> Vec<Envelope> {
        match step {
            ReadStep::Slices(slices) => slices,
            other => panic!("expected slice reads, got {other:?}"),
        }
    }

    /// The replica's answer to `slice`: every key absent.
    fn slice_reply(s: &ClientSession, t: TxId, slice: &Envelope) -> Envelope {
        let Msg::ReadSliceReq { keys, .. } = &slice.msg else {
            panic!("expected a ReadSliceReq, got {}", slice.msg.kind());
        };
        let results = keys
            .iter()
            .map(|k| ReadResult {
                key: k.key,
                outcome: ReadOutcome::Absent,
            })
            .collect();
        let replica = slice.dst.as_server().expect("a server");
        let partition = replica.partition;
        let msg = Msg::ReadSliceResp {
            tx: t,
            partition,
            results,
        };
        Envelope::new(replica, s.id(), msg)
    }

    #[test]
    fn a_known_snapshot_reads_one_slice_per_partition_from_the_coordinators_replica() {
        let (mut s, topo) = routed_session();
        let t = started(&mut s, 1, 100);
        let keys: Vec<Key> = (0..12).map(Key).collect();
        let slices = slices_of(s.read(&keys).unwrap());
        let none = HashSet::new();
        let mut partitions = Vec::new();
        for slice in &slices {
            let replica = slice.dst.as_server().unwrap();
            let picked = topo.reachable_target_dc(replica.partition, DcId(0), &none);
            assert_eq!(Some(replica.dc), picked, "the coordinator's pick");
            let Msg::ReadSliceReq { tx, snapshot, keys } = &slice.msg else {
                panic!("expected a ReadSliceReq");
            };
            assert_eq!((*tx, *snapshot), (t, ts(100)));
            assert!(keys
                .iter()
                .all(|k| topo.partition_of(k.key) == replica.partition));
            assert_eq!(keys.len(), 2);
            partitions.push(replica.partition.0);
        }
        assert_eq!(partitions, [0, 1, 2, 3, 4, 5]);
        assert!(s.has_operation_in_flight());
        assert_eq!(s.read(&keys), Err(Error::TransactionAlreadyOpen));

        // The read completes with the last replica's answer, whatever the
        // order; a repeat of one, or one for another transaction, is not
        // an answer.
        let (last, rest) = slices.split_last().unwrap();
        for slice in rest.iter().rev() {
            assert_eq!(s.handle(&slice_reply(&s, t, slice)), None);
            assert_eq!(s.handle(&slice_reply(&s, t, slice)), None, "a repeat");
            assert_eq!(s.handle(&slice_reply(&s, tx(9), last)), None, "another tx");
        }
        let reads = reads_of(s.handle(&slice_reply(&s, t, last)));
        assert_eq!(
            by_key(reads).iter().map(|r| r.key).collect::<Vec<_>>(),
            keys
        );
        assert!(!s.has_operation_in_flight());
        // Served from the read set from now on, like any server read.
        assert!(matches!(s.read(&keys).unwrap(), ReadStep::Done(_)));
    }

    #[test]
    fn a_routed_read_avoids_an_unreachable_dc_and_leaves_a_partition_without_replicas_to_the_coordinator(
    ) {
        let (mut s, _) = routed_session();
        let dcs_of = |slices: &[Envelope]| -> Vec<(u32, u16)> {
            let replicas = slices.iter().map(|e| e.dst.as_server().unwrap());
            replicas.map(|r| (r.partition.0, r.dc.0)).collect()
        };
        started(&mut s, 1, 100);
        let keys = [Key(1), Key(4)];
        let slices = slices_of(s.read(&keys).unwrap());
        assert_eq!(dcs_of(&slices), [(1, 2), (4, 1)]);
        s.reset();

        s.set_dc_reachability(DcId(1), false);
        s.set_dc_reachability(DcId(0), false);
        started(&mut s, 2, 200);
        let slices = slices_of(s.read(&keys).unwrap());
        assert_eq!(dcs_of(&slices), [(1, 2), (4, 2)], "around DC 1; DC 0 stays");
        s.reset();

        // Neither replica of partitions 1 and 4 is reachable: the
        // coordinator is asked, and fails the read (§III-C) — freeing its
        // context, which a read the session gave up on locally would not.
        s.set_dc_reachability(DcId(2), false);
        let t3 = started(&mut s, 3, 300);
        match s.read(&keys).unwrap() {
            ReadStep::Send(Envelope {
                dst,
                msg: Msg::ReadReq { tx, .. },
                ..
            }) => assert_eq!((dst, tx), (s.coordinator().into(), TxRef::Known(t3))),
            other => panic!("expected a ReadReq to the coordinator, got {other:?}"),
        }
        let failed = Msg::OpFailed {
            tx: t3,
            opening: None,
        };
        let ev = s.handle(&Envelope::new(s.coordinator(), s.id(), failed));
        assert_eq!(ev, Some(ClientEvent::Aborted { tx: t3 }));

        s.set_dc_reachability(DcId(1), true);
        started(&mut s, 4, 400);
        let slices = slices_of(s.read(&keys).unwrap());
        assert_eq!(dcs_of(&slices), [(1, 1), (4, 1)]);
    }

    #[test]
    fn a_deferred_begin_reads_through_the_coordinator_until_it_knows_its_snapshot() {
        // A fresh session: its `ust_c` is zero, as it has learned no UST
        // yet, so it has nothing to pick and carries the start.
        let (mut s, _) = routed_session();
        let (client_ust, keys) = deferred_read(&mut s, &[1, 2]);
        assert_eq!(client_ust, Timestamp::ZERO);
        assert_eq!(keys.len(), 2, "the start form goes to the coordinator");
        let absent = |key| ReadResult {
            key: Key(key),
            outcome: ReadOutcome::Absent,
        };
        reads_of(start_reply(&mut s, tx(1), 150, vec![absent(1), absent(2)]));
        let slices = slices_of(s.read(&[Key(3)]).unwrap());
        assert_eq!(slices.len(), 1);
        assert!(matches!(
            slices[0].msg,
            Msg::ReadSliceReq { tx: t, snapshot, .. } if t == tx(1) && snapshot == ts(150)
        ));
        reads_of(s.handle(&answer(&s, &slices[0])));
        finish(&mut s, tx(1));

        // A coordinator whose UST is still zero names no snapshot to pick:
        // the next begin carries its start again.
        let (mut zero, _) = routed_session();
        let t = started(&mut zero, 1, 0);
        finish(&mut zero, t);
        assert_eq!(deferred_read(&mut zero, &[2]).0, Timestamp::ZERO);

        // With a UST learned, a session still carries the start when it
        // cannot read by itself (no topology) or its snapshot needs the
        // coordinator (BPR).
        let mut plain = session(Mode::Paris);
        observe(&mut plain, 1, 100, version(1, 8, 50, 99));
        assert_eq!(deferred_read(&mut plain, &[2]).0, ts(100));
        let (mut bpr, _) = routed_session();
        bpr.mode = Mode::Bpr;
        let t = started(&mut bpr, 1, 100);
        finish(&mut bpr, t);
        assert_eq!(deferred_read(&mut bpr, &[2]).0, ts(100));
    }

    // ------------------------------------------------ client-picked snapshots

    /// A routed session that learned `ust_c` = 100 from a read-only
    /// transaction.
    fn picking_session() -> (ClientSession, Arc<Topology>) {
        let (mut s, topo) = routed_session();
        let t = started(&mut s, 1, 100);
        finish(&mut s, t);
        (s, topo)
    }

    /// The replica's answer to `slice`, under the id it was sent with:
    /// every key absent.
    fn answer(s: &ClientSession, slice: &Envelope) -> Envelope {
        let Msg::ReadSliceReq { tx, .. } = slice.msg else {
            panic!("expected a ReadSliceReq, got {}", slice.msg.kind());
        };
        slice_reply(s, tx, slice)
    }

    /// The replica of `slice` refusing it (its snapshot is below `S_old`).
    fn refusal(s: &ClientSession, slice: &Envelope) -> Envelope {
        let Msg::ReadSliceReq { tx, .. } = slice.msg else {
            panic!("expected a ReadSliceReq, got {}", slice.msg.kind());
        };
        let replica = slice.dst.as_server().unwrap();
        Envelope::new(replica, s.id(), Msg::OpFailed { tx, opening: None })
    }

    fn slice_tx(slice: &Envelope) -> TxId {
        match slice.msg {
            Msg::ReadSliceReq { tx, .. } => tx,
            _ => panic!("expected a ReadSliceReq"),
        }
    }

    /// The snapshot and call of a picked form.
    fn picked_of(env: &Envelope) -> (Timestamp, u64) {
        match env.msg {
            Msg::ReadReq {
                tx: TxRef::Picked { snapshot, call },
                ..
            }
            | Msg::CommitReq {
                tx: TxRef::Picked { snapshot, call },
                ..
            } => (snapshot, call),
            _ => panic!("expected a picked form, got {env:?}"),
        }
    }

    /// `server`'s reply to the picked commit of `call`, naming `ust`.
    fn picked_commit_reply(
        s: &ClientSession,
        server: ServerId,
        tx: TxId,
        (ust, call): (u64, u64),
        ct: u64,
    ) -> Envelope {
        let opening = Some(Opening::Picked { ust: ts(ust), call });
        let ct = if ct == 0 { Timestamp::ZERO } else { ts(ct) };
        Envelope::new(server, s.id(), Msg::CommitResp { tx, opening, ct })
    }

    #[test]
    fn a_picked_begin_reads_at_ust_c_straight_from_the_replicas_and_commits_picked() {
        let (mut s, topo) = picking_session();
        s.begin_deferred().unwrap();
        assert_eq!((s.open_tx(), s.open_snapshot()), (None, Some(ts(100))));
        assert!(!s.has_operation_in_flight(), "nothing sent to begin");
        let slices = slices_of(s.read(&[Key(0), Key(1)]).unwrap());
        assert_eq!(slices.len(), 2);
        let named = slice_tx(&slices[0]);
        // An id no coordinator assigns: a partition no server hosts.
        assert_eq!(named.partition, PartitionId(topo.partitions()));
        for slice in &slices {
            let Msg::ReadSliceReq { tx, snapshot, .. } = slice.msg else {
                unreachable!()
            };
            assert_eq!((tx, snapshot), (named, ts(100)));
        }
        assert_eq!(s.handle(&answer(&s, &slices[0])), None);
        let reads = reads_of(s.handle(&answer(&s, &slices[1])));
        assert_eq!(reads.len(), 2);

        // The commit carries the pick and a call; its reply names the id,
        // the answering server's UST and the call.
        let env = s.commit().unwrap();
        assert_eq!(env.dst, s.coordinator().into());
        let (picked, call) = picked_of(&env);
        assert_eq!(picked, ts(100));
        let coordinator = s.coordinator();
        let other = picked_commit_reply(&s, coordinator, tx(6), (170, call + 1), 0);
        assert_eq!(s.handle(&other), None, "another call's reply");
        let reply = picked_commit_reply(&s, coordinator, tx(7), (180, call), 0);
        let ev = s.handle(&reply);
        assert_eq!(
            ev,
            Some(ClientEvent::Committed {
                tx: tx(7),
                snapshot: ts(100),
                ct: Timestamp::ZERO
            })
        );
        assert_eq!((s.ust(), s.counts()), (ts(180), (2, 2)));

        // The next transaction picks the fresher UST, and names its
        // slices anew: a late answer to the last read completes nothing.
        s.begin_deferred().unwrap();
        assert_eq!(s.open_snapshot(), Some(ts(180)));
        let again = slices_of(s.read(&[Key(0)]).unwrap());
        assert_ne!(slice_tx(&again[0]), named);
        assert_eq!(s.handle(&answer(&s, &slices[0])), None);
        assert_eq!(reads_of(s.handle(&answer(&s, &again[0]))).len(), 1);
    }

    #[test]
    fn a_refused_first_read_is_resent_once_in_the_start_form_and_completes() {
        let (mut s, _) = picking_session();
        s.begin_deferred().unwrap();
        s.write(&[(Key(9), Value::from("mine"))]).unwrap();
        let slices = slices_of(s.read(&[Key(0), Key(1), Key(9)]).unwrap());
        assert_eq!(slices.len(), 2, "key 9 is the write set's");
        // One replica answers, the other refuses: the gathered answer is
        // dropped and the read goes out again, in the start form.
        assert_eq!(s.handle(&answer(&s, &slices[1])), None);
        let Some(ClientEvent::Retry(env)) = s.handle(&refusal(&s, &slices[0])) else {
            panic!("a refused first read is retried");
        };
        assert_eq!(env.dst, s.coordinator().into());
        let Msg::ReadReq { tx: start, keys } = &env.msg else {
            panic!("expected a ReadReq, got {env:?}");
        };
        assert_eq!(
            *start,
            TxRef::Start {
                client_ust: ts(100)
            }
        );
        let keys: Vec<Key> = keys.iter().map(|k| k.key).collect();
        assert_eq!(keys, [Key(0), Key(1)]);
        assert!(s.has_operation_in_flight());
        assert_eq!((s.open_tx(), s.open_snapshot()), (None, None));
        // The refused read's late answers are nobody's.
        assert_eq!(s.handle(&answer(&s, &slices[0])), None);
        assert_eq!(s.handle(&refusal(&s, &slices[1])), None);
        let absent = |key| ReadResult {
            key: Key(key),
            outcome: ReadOutcome::Absent,
        };
        let reads = by_key(reads_of(start_reply(
            &mut s,
            tx(8),
            120,
            vec![absent(0), absent(1)],
        )));
        let sources: Vec<ReadSource> = reads.iter().map(|r| r.source).collect();
        assert_eq!(
            sources,
            [ReadSource::Server, ReadSource::Server, ReadSource::WriteSet]
        );
        assert_eq!(
            (s.open_tx(), s.open_snapshot()),
            (Some(tx(8)), Some(ts(120)))
        );
        assert_eq!((s.ust(), s.counts()), (ts(120), (2, 1)));
        // The transaction goes on as any other: its commit names the id.
        let Msg::CommitReq { tx: known, .. } = s.commit().unwrap().msg else {
            panic!("expected a CommitReq");
        };
        assert_eq!(known, TxRef::Known(tx(8)));
    }

    #[test]
    fn a_refusal_of_a_later_read_aborts_the_picked_transaction() {
        let (mut s, _) = picking_session();
        s.begin_deferred().unwrap();
        let first = slices_of(s.read(&[Key(0)]).unwrap());
        reads_of(s.handle(&answer(&s, &first[0])));
        let later = slices_of(s.read(&[Key(1), Key(2)]).unwrap());
        let named = slice_tx(&later[0]);
        let ev = s.handle(&refusal(&s, &later[0]));
        assert_eq!(ev, Some(ClientEvent::Aborted { tx: named }));
        assert!(!s.has_operation_in_flight() && s.open_snapshot().is_none());
        assert_eq!(s.handle(&answer(&s, &later[1])), None);
        // Idle again, and the next begin picks as before.
        s.begin_deferred().unwrap();
        assert_eq!(s.open_snapshot(), Some(ts(100)));
    }

    #[test]
    fn a_picked_read_with_no_reachable_replica_asks_the_coordinator_at_the_pick() {
        let (mut s, _) = picking_session();
        s.set_dc_reachability(DcId(1), false);
        s.set_dc_reachability(DcId(2), false);
        s.begin_deferred().unwrap();
        // Partition 1 lives in DCs 1 and 2 only.
        let env = match s.read(&[Key(1)]).unwrap() {
            ReadStep::Send(env) => env,
            other => panic!("expected a ReadReq, got {other:?}"),
        };
        let (picked, call) = picked_of(&env);
        assert_eq!(picked, ts(100));
        let failed = Msg::OpFailed {
            tx: tx(4),
            opening: Some(Opening::Picked { ust: ts(130), call }),
        };
        let ev = s.handle(&Envelope::new(s.coordinator(), s.id(), failed));
        assert_eq!(ev, Some(ClientEvent::Aborted { tx: tx(4) }));
    }

    #[test]
    fn a_picked_commit_reply_raises_ust_c_and_evicts_the_own_writes_it_covers() {
        let (mut s, _) = picking_session();
        commit_own(&mut s, 2, &[(7, Value::from("mine"))], 300);
        assert_eq!((s.ust(), s.cache_len()), (ts(100), 1));
        s.begin_deferred().unwrap();
        // Above the pick: served from WC_c, no message.
        let ReadStep::Done(reads) = s.read(&[Key(7)]).unwrap() else {
            panic!("an own write above the pick is served locally");
        };
        assert_eq!(reads[0].source, ReadSource::Cache);
        let (_, call) = picked_of(&s.commit().unwrap());
        let from = ServerId::new(DcId(0), PartitionId(5));
        let reply = picked_commit_reply(&s, from, tx(3), (400, call), 0);
        assert!(s.handle(&reply).is_some());
        assert_eq!(
            (s.ust(), s.cache_len()),
            (ts(400), 0),
            "covered: a candidate now"
        );
        assert!(s.held.get(Key(7)).is_some(), "kept for validation");
        // A staler server's answer never lowers ust_c.
        s.begin_deferred().unwrap();
        let (_, call) = picked_of(&s.commit().unwrap());
        s.handle(&picked_commit_reply(&s, from, tx(4), (350, call), 0));
        assert_eq!(s.ust(), ts(400));
    }

    #[test]
    fn a_picked_commit_abandoned_by_reset_is_never_taken_for_a_later_request() {
        // A picked commit is answered by its coordinator or by a
        // participant, so its reply may come after the replies to requests
        // sent later; its call tells it apart from all of them.
        let (mut s, _) = picking_session();
        let participant = ServerId::new(DcId(0), PartitionId(5));
        s.begin_deferred().unwrap();
        s.write(&[(Key(7), Value::from("lost"))]).unwrap();
        let (_, abandoned) = picked_of(&s.commit().unwrap());
        s.reset();
        let stale =
            |s: &ClientSession| picked_commit_reply(s, participant, tx(2), (150, abandoned), 140);

        // The next transaction picks again, and its first read is refused,
        // so a start form is in flight: its reply, which overtook the
        // stale one, is not dropped for it, and the stale one is nobody's.
        s.begin_deferred().unwrap();
        assert_eq!(s.open_snapshot(), Some(ts(100)));
        let slices = slices_of(s.read(&[Key(0)]).unwrap());
        let Some(ClientEvent::Retry(_)) = s.handle(&refusal(&s, &slices[0])) else {
            panic!("a refused first read is retried");
        };
        let absent = ReadResult {
            key: Key(0),
            outcome: ReadOutcome::Absent,
        };
        assert_eq!(
            reads_of(start_reply(&mut s, tx(3), 120, vec![absent])).len(),
            1
        );
        assert_eq!(
            (s.open_tx(), s.open_snapshot()),
            (Some(tx(3)), Some(ts(120)))
        );
        assert_eq!(s.handle(&stale(&s)), None);
        finish(&mut s, tx(3));

        // A later picked commit in flight: the stale reply arrives first
        // and is ignored; the commit completes on its own reply.
        s.begin_deferred().unwrap();
        s.write(&[(Key(8), Value::from("kept"))]).unwrap();
        let (_, call) = picked_of(&s.commit().unwrap());
        assert_ne!(call, abandoned);
        assert_eq!(s.handle(&stale(&s)), None);
        assert!(s.has_operation_in_flight());
        let ev = s.handle(&picked_commit_reply(
            &s,
            participant,
            tx(4),
            (160, call),
            170,
        ));
        assert_eq!(
            ev,
            Some(ClientEvent::Committed {
                tx: tx(4),
                snapshot: ts(120),
                ct: ts(170)
            })
        );
        assert_eq!((s.hwt(), s.cache_len()), (ts(170), 1), "only key 8 is held");
    }

    #[test]
    fn a_replica_refusing_the_snapshot_aborts_the_read_and_its_late_slices_are_ignored() {
        let (mut s, _) = routed_session();
        let t = started(&mut s, 1, 100);
        let slices = slices_of(s.read(&[Key(0), Key(1)]).unwrap());
        // Below the replica's GC horizon (cohort docs): refused.
        let refused = Msg::OpFailed {
            tx: t,
            opening: None,
        };
        let replica = slices[0].dst.as_server().unwrap();
        let ev = s.handle(&Envelope::new(replica, s.id(), refused));
        assert_eq!(ev, Some(ClientEvent::Aborted { tx: t }));
        assert!(!s.has_operation_in_flight() && s.open_tx().is_none());
        // The other replica's answer straggles in: nothing to complete.
        let t2 = started(&mut s, 2, 200);
        assert_eq!(s.handle(&slice_reply(&s, t, &slices[1])), None);
        // Nor after a reset mid-read.
        let slices = slices_of(s.read(&[Key(0)]).unwrap());
        s.reset();
        started(&mut s, 3, 300);
        assert_eq!(s.handle(&slice_reply(&s, t2, &slices[0])), None);
        assert_eq!(s.open_tx(), Some(tx(3)));
    }
}
