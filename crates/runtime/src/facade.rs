//! The unified cluster facade: one [`Cluster`] trait over every backend,
//! with RAII [`Txn`] transaction handles.
//!
//! Every runtime — the discrete-event [`crate::SimCluster`], the
//! multi-threaded [`crate::ThreadCluster`] and the multi-process
//! [`crate::SocketCluster`] — exposes the same surface:
//!
//! * [`Cluster::open_client`] to place a client session in a DC,
//! * [`Cluster::begin`] to open a transaction and get a [`Txn`] handle
//!   (`read`/`write`/`commit`, abort-on-drop),
//! * [`Cluster::stabilize`] to let the background protocols (replication,
//!   GST/UST gossip) advance,
//! * [`Cluster::run_workload`] to drive a closed-loop YCSB-style load and
//!   get a [`RunReport`],
//! * [`Cluster::check_convergence`] for the replica-agreement oracle.
//!
//! Backends are built with [`crate::Paris::builder`]; code written against
//! this trait runs unchanged on all of them.
//!
//! The raw transaction operations (`txn_begin`, `txn_read`, `txn_write`,
//! `txn_commit`, `reset_client`) are written once, here, as provided
//! methods. They rest on two primitives every backend implements: its
//! client sessions, and a round trip that sends an operation's envelopes —
//! one request, or a read's slices — and waits for the [`ClientEvent`]
//! that completes the operation. Those primitives live on a sealed
//! supertrait, so [`Cluster`] has exactly the two implementations of this
//! crate: the sim, and the live core that the thread and socket backends
//! both are, each over its own transport ([`crate::live`]).
//!
//! ```
//! use paris_runtime::{Backend, Cluster, Paris};
//! use paris_types::{Key, Value};
//!
//! let mut cluster = Paris::builder()
//!     .dcs(3)
//!     .partitions(6)
//!     .replication(2)
//!     .backend(Backend::Sim)
//!     .build()?;
//! let alice = cluster.open_client(0)?;
//!
//! let mut txn = cluster.begin(alice)?;
//! txn.write(Key(1), Value::from("hello"));
//! txn.commit()?;
//!
//! cluster.stabilize(5);
//! let bob = cluster.open_client(1)?;
//! let mut txn = cluster.begin(bob)?;
//! assert_eq!(txn.read_one(Key(1))?, Some(Value::from("hello")));
//! txn.commit()?;
//! # Ok::<(), paris_types::Error>(())
//! ```

use paris_core::{ClientEvent, ClientRead, ReadSource, ReadStep, Violation};
use paris_types::{ClientId, Error, FaultPlan, Key, Mode, Timestamp, Value};

use crate::measure::{ClusterStats, RunReport};

pub(crate) use sealed::Sessions;

mod sealed {
    use paris_core::{ClientEvent, ClientSession};
    use paris_proto::Envelope;
    use paris_types::{ClientId, Error};

    use super::Cluster;

    /// A backend as the trait object a [`super::Txn`] holds — what lets
    /// [`Cluster::begin`] be written once, for `dyn Cluster` too.
    pub trait AsCluster {
        /// `self` as a `dyn Cluster`.
        fn as_cluster(&mut self) -> &mut dyn Cluster;
    }

    impl<T: Cluster> AsCluster for T {
        fn as_cluster(&mut self) -> &mut dyn Cluster {
            self
        }
    }

    /// The two primitives the raw operations of [`super::Cluster`] rest
    /// on. Public inside a private module: nothing outside this crate can
    /// name it, so nothing outside it can implement `Cluster`.
    pub trait Sessions {
        /// `client`'s session.
        ///
        /// # Errors
        ///
        /// [`Error::UnknownTransaction`] if `client` is not an interactive
        /// session of this cluster.
        fn session(&mut self, client: ClientId) -> Result<&mut ClientSession, Error>;

        /// Sends `envs` on behalf of `client` — one request, or a read's
        /// slices ([`paris_core::ReadStep::Slices`]) — and waits for the
        /// event that completes the operation. Replies queue per client;
        /// the session reads them here, so a stale one (owed to an
        /// operation abandoned by `reset_client`) is discarded on the way.
        ///
        /// # Errors
        ///
        /// [`Error::UnknownTransaction`] for an unknown client, a transport
        /// failure when no reply comes.
        fn round_trip(
            &mut self,
            client: ClientId,
            envs: Vec<Envelope>,
        ) -> Result<ClientEvent, Error>;

        /// Whether a reply folded a UST into `client`'s `ust_c` less than
        /// half a GC period ago on the backend's clock, and after the last
        /// [`Cluster::stabilize`]: whether [`Cluster::txn_begin`] may pick
        /// it.
        ///
        /// # Errors
        ///
        /// [`Error::UnknownTransaction`] for an unknown client.
        fn fresh(&mut self, client: ClientId) -> Result<bool, Error>;
    }
}

/// The error of an operation completed by an event other than the one it
/// waits for: an abort means a participant was unreachable.
fn failed<T>(event: ClientEvent) -> Result<T, Error> {
    match event {
        ClientEvent::Aborted { .. } => Err(Error::PartitionUnreachable),
        _ => Err(Error::UnknownTransaction),
    }
}

/// A PaRiS deployment, independent of the substrate executing it.
///
/// The `txn_*` methods are the raw, client-id-keyed operations, written
/// once for every backend; application code should prefer
/// [`Cluster::begin`] and the [`Txn`] handle, which layer transactional
/// buffering and abort-on-drop on top of them.
///
/// The trait is sealed: the sim and the live core of the thread and
/// socket backends are its only implementations.
pub trait Cluster: Sessions + sealed::AsCluster {
    /// A short name of the backend ("sim", "thread", "socket").
    fn backend_name(&self) -> &'static str;

    /// The protocol variant this deployment runs.
    fn mode(&self) -> Mode;

    /// Opens a client session collocated with a coordinator in DC `dc`.
    ///
    /// # Errors
    ///
    /// Returns a configuration error if `dc` is out of range.
    fn open_client(&mut self, dc: u16) -> Result<ClientId, Error>;

    /// Opens a client session as [`Cluster::open_client`] does, but one
    /// that sends every read through its coordinator, as a session built
    /// without a topology does: the reference the tests compare reads
    /// straight from the replicas against. Deployments open no such
    /// sessions.
    ///
    /// # Errors
    ///
    /// Returns a configuration error if `dc` is out of range.
    #[doc(hidden)]
    fn open_client_via_coordinator(&mut self, dc: u16) -> Result<ClientId, Error>;

    /// Raw operation: starts a transaction for `client`, returning its
    /// snapshot timestamp — final: every read of the transaction runs at
    /// it.
    ///
    /// A PaRiS session whose `ust_c` a reply refreshed less than half a GC
    /// period ago (a START reply, or the commit reply of a picked
    /// transaction), and not before the last [`Cluster::stabilize`], picks
    /// `ust_c` as the snapshot and sends
    /// nothing (see [`paris_core::ClientSession::begin_picked`]). Replicas
    /// trim their versions one GC period behind the horizon they learned,
    /// so the pick stays readable for about another half period; a
    /// transaction still reading later than that may abort with
    /// [`Error::PartitionUnreachable`]. Any other session — BPR, a fresh
    /// or idle one, one just stabilized — begins with Alg. 1's START round
    /// trip, whose snapshot its coordinator's context pins.
    ///
    /// # Errors
    ///
    /// Propagates session errors (unknown client, transaction already
    /// open) and transport failures; an abort is
    /// [`Error::PartitionUnreachable`].
    fn txn_begin(&mut self, client: ClientId) -> Result<Timestamp, Error> {
        if self.fresh(client)? {
            if let Some(snapshot) = self.session(client)?.begin_picked()? {
                return Ok(snapshot);
            }
        }
        self.txn_begin_assigned(client)
    }

    /// Starts a transaction with Alg. 1's START round trip whatever the
    /// session's freshness: the snapshot its coordinator assigns. Exposed
    /// for the tests that compare picked snapshots with assigned ones.
    ///
    /// # Errors
    ///
    /// As [`Cluster::txn_begin`].
    #[doc(hidden)]
    fn txn_begin_assigned(&mut self, client: ClientId) -> Result<Timestamp, Error> {
        let env = self.session(client)?.begin()?;
        match self.round_trip(client, vec![env])? {
            ClientEvent::Started { snapshot, .. } => Ok(snapshot),
            other => failed(other),
        }
    }

    /// Opens a transaction whose first operation carries its start (see
    /// [`paris_core::ClientSession::begin_carried`]) — how a
    /// `run_workload` session's first transaction begins. Exposed for the
    /// tests that compare it with the assigned
    /// [`Cluster::txn_begin_assigned`].
    ///
    /// # Errors
    ///
    /// Propagates session errors (unknown client, transaction already
    /// open).
    #[doc(hidden)]
    fn txn_begin_deferred(&mut self, client: ClientId) -> Result<(), Error> {
        self.session(client)?.begin_carried()
    }

    /// The open transaction's snapshot, once it is known; `None` for an
    /// unknown client too.
    #[doc(hidden)]
    fn txn_snapshot(&mut self, client: ClientId) -> Option<Timestamp> {
        self.session(client).ok()?.open_snapshot()
    }

    /// `client`'s `ust_c`: what its next fresh [`Cluster::txn_begin`]
    /// picks. `None` for an unknown client.
    #[doc(hidden)]
    fn client_ust(&mut self, client: ClientId) -> Option<Timestamp> {
        Some(self.session(client).ok()?.ust())
    }

    /// Raw operation: reads `keys` within the open transaction, at its
    /// snapshot.
    ///
    /// # Errors
    ///
    /// Propagates session errors and transport failures; an abort is
    /// [`Error::PartitionUnreachable`] — a target partition had no
    /// reachable replica, or a replica's GC had passed a picked snapshot.
    fn txn_read(&mut self, client: ClientId, keys: &[Key]) -> Result<Vec<ClientRead>, Error> {
        let sent = match self.session(client)?.read(keys)? {
            ReadStep::Done(reads) => return Ok(reads),
            ReadStep::Send(env) => vec![env],
            ReadStep::Slices(slices) => slices,
        };
        // No facade transaction is retried: its pick was handed out final,
        // and every other snapshot is assigned.
        match self.round_trip(client, sent)? {
            ClientEvent::ReadDone { reads, .. } => Ok(reads),
            other => failed(other),
        }
    }

    /// Raw operation: buffers `entries` in the open transaction's write
    /// set.
    ///
    /// # Errors
    ///
    /// Propagates session errors.
    fn txn_write(&mut self, client: ClientId, entries: &[(Key, Value)]) -> Result<(), Error> {
        self.session(client)?.write(entries)
    }

    /// Raw operation: commits the open transaction, returning its commit
    /// timestamp ([`Timestamp::ZERO`] for read-only transactions).
    ///
    /// # Errors
    ///
    /// Propagates session errors and transport failures; an abort is
    /// [`Error::PartitionUnreachable`].
    fn txn_commit(&mut self, client: ClientId) -> Result<Timestamp, Error> {
        let env = self.session(client)?.commit()?;
        match self.round_trip(client, vec![env])? {
            ClientEvent::Committed { ct, .. } => Ok(ct),
            other => failed(other),
        }
    }

    /// Abandons `client`'s open transaction and any in-flight operation,
    /// returning the session to idle so the next [`Cluster::begin`]
    /// succeeds — the recovery path after a transport-timed-out operation
    /// (e.g. [`Txn::commit`] returning [`Error::Transport`]) wedged the
    /// session.
    ///
    /// Durable session state (`ust_c`, `hwt_c`, the write cache) is
    /// preserved, so causal ordering of completed transactions holds. If
    /// the abandoned commit actually landed server-side and only its
    /// reply was lost, read-your-own-writes is forfeited for exactly that
    /// transaction until the UST covers it. Late replies for the
    /// abandoned transaction stay queued for the client and are discarded
    /// by the session when its next operation reads them; the orphaned
    /// coordinator context is reclaimed by the server's background
    /// stale-context cleanup.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownTransaction`] if `client` is not an
    /// interactive session of this cluster.
    fn reset_client(&mut self, client: ClientId) -> Result<(), Error> {
        self.session(client)?.reset();
        Ok(())
    }

    /// Advances the background protocols (replication, GST/UST gossip)
    /// for `rounds` full rounds; after 3–5 rounds all previously committed
    /// writes are in every DC's stable snapshot.
    fn stabilize(&mut self, rounds: usize);

    /// The minimum Universal Stable Time across all servers.
    fn min_ust(&self) -> Timestamp;

    /// Runs the configured closed-loop workload: `warmup_micros` of
    /// untimed warmup, then a measured window of `window_micros`
    /// (simulated time on the sim, wall-clock time on the thread and
    /// socket backends).
    ///
    /// # Errors
    ///
    /// Returns transport failures; the report itself carries consistency
    /// violations when history recording is enabled.
    fn run_workload(&mut self, warmup_micros: u64, window_micros: u64) -> Result<RunReport, Error>;

    /// A cluster-wide [`ClusterStats`] counters snapshot, aggregated over
    /// every server: protocol message counts, 2PC roles, replication
    /// applies, BPR blocking and network accounting. Counters are
    /// cumulative since the cluster was built — diff two snapshots to
    /// meter an interval.
    ///
    /// # Errors
    ///
    /// Returns transport failures on backends that must reach server
    /// processes (the socket backend pulls snapshots over its control
    /// plane); the in-process backends are infallible.
    fn stats(&mut self) -> Result<ClusterStats, Error>;

    /// Checks that all replicas of every partition agree on the latest
    /// version of every key. Meaningful after [`Cluster::stabilize`] (or a
    /// settled workload); returns the disagreements found.
    ///
    /// # Errors
    ///
    /// Returns transport failures on backends that must reach servers.
    fn check_convergence(&mut self) -> Result<Vec<Violation>, Error>;

    /// Forcibly kills the server at `index` (in
    /// [`paris_core::Topology::all_servers`] order) without any shutdown
    /// handshake — the fault-injection half of a crash-recovery drill.
    ///
    /// Only the socket backend hosts servers in killable processes; the
    /// in-process backends report [`Error::Unsupported`].
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] on backends without server processes,
    /// [`Error::Transport`] if the process cannot be killed.
    fn kill_server(&mut self, index: usize) -> Result<(), Error>;

    /// Relaunches the server at `index` after [`Cluster::kill_server`].
    /// With durability configured the replacement process recovers its
    /// pre-crash state from the newest checkpoint plus WAL replay before
    /// serving a single request; without durability it comes back empty
    /// and relies on replication to repopulate.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] on backends without server processes,
    /// [`Error::Transport`] if the replacement cannot be spawned or fails
    /// to rejoin the deployment.
    fn restart_server(&mut self, index: usize) -> Result<(), Error>;

    /// Installs a scripted [`FaultPlan`]: each event fires at its
    /// plan-relative time — virtual time on the deterministic simulator
    /// (same seed + same plan ⇒ bit-identical run), wall-clock time on
    /// the threaded backend (a chaos thread drives the router's link
    /// controls). Prefer `ClusterBuilder::fault_plan`, which validates
    /// and installs the plan at build time; this method is the facade
    /// path for plans constructed after the cluster is up.
    ///
    /// The socket backend injects real process faults through
    /// [`Cluster::kill_server`] / [`Cluster::restart_server`] instead and
    /// reports [`Error::Unsupported`].
    ///
    /// # Errors
    ///
    /// A configuration error when the plan targets a DC or link outside
    /// the deployment, [`Error::Unsupported`] on backends without
    /// scripted fault injection.
    fn install_fault_plan(&mut self, plan: FaultPlan) -> Result<(), Error>;

    /// Starts a transaction and returns its RAII [`Txn`] handle.
    ///
    /// Dropping the handle without [`Txn::commit`] aborts the
    /// transaction: buffered writes are discarded and the coordinator's
    /// context is released.
    ///
    /// # Errors
    ///
    /// Propagates [`Cluster::txn_begin`] errors.
    fn begin(&mut self, client: ClientId) -> Result<Txn<'_>, Error> {
        Txn::begin_on(self.as_cluster(), client)
    }
}

/// An open transaction on a [`Cluster`].
///
/// Writes are buffered in the handle and only shipped on [`Txn::commit`];
/// dropping the handle (or calling [`Txn::abort`]) closes the transaction
/// without publishing any buffered write — none of them takes effect,
/// matching the coordinator-side abort semantics of §III-C.
///
/// Reads observe the handle's own buffered writes first (the `WS_c` tier
/// of Algorithm 1 line 11), then fall through to the session's read set,
/// write cache and the servers.
pub struct Txn<'a> {
    cluster: &'a mut (dyn Cluster + 'a),
    client: ClientId,
    snapshot: Timestamp,
    writes: Vec<(Key, Value)>,
    finished: bool,
}

impl<'a> Txn<'a> {
    /// Starts a transaction on `cluster` — the one implementation of
    /// [`Cluster::begin`].
    ///
    /// # Errors
    ///
    /// Propagates [`Cluster::txn_begin`] errors.
    pub(crate) fn begin_on(
        cluster: &'a mut (dyn Cluster + 'a),
        client: ClientId,
    ) -> Result<Self, Error> {
        let snapshot = cluster.txn_begin(client)?;
        Ok(Txn {
            cluster,
            client,
            snapshot,
            writes: Vec::new(),
            finished: false,
        })
    }

    /// The client this transaction belongs to.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// The stable snapshot this transaction reads from. It never moves:
    /// picked at the client from a fresh reply, or assigned by the
    /// coordinator ([`Cluster::txn_begin`]). A picked one stays readable
    /// for about half a GC period; a read later than that may abort.
    pub fn snapshot(&self) -> Timestamp {
        self.snapshot
    }

    /// Reads a set of keys, serving keys written earlier in this
    /// transaction from the local write buffer.
    ///
    /// # Errors
    ///
    /// Propagates session and transport errors.
    pub fn read(&mut self, keys: &[Key]) -> Result<Vec<ClientRead>, Error> {
        let mut out: Vec<ClientRead> = Vec::with_capacity(keys.len());
        let mut remote: Vec<Key> = Vec::new();
        for &key in keys {
            // Last write per key wins, as in the session write set.
            match self.writes.iter().rev().find(|(k, _)| *k == key) {
                Some((_, value)) => out.push(ClientRead {
                    key,
                    value: Some(value.clone()),
                    version: None,
                    source: ReadSource::WriteSet,
                }),
                None => remote.push(key),
            }
        }
        if !remote.is_empty() {
            out.extend(self.cluster.txn_read(self.client, &remote)?);
        }
        Ok(out)
    }

    /// Reads one key's value.
    ///
    /// # Errors
    ///
    /// Propagates session and transport errors.
    pub fn read_one(&mut self, key: Key) -> Result<Option<Value>, Error> {
        Ok(self
            .read(&[key])?
            .into_iter()
            .find(|r| r.key == key)
            .and_then(|r| r.value))
    }

    /// Buffers a write; it is shipped on [`Txn::commit`] and discarded on
    /// abort.
    pub fn write(&mut self, key: Key, value: Value) {
        self.writes.push((key, value));
    }

    /// Commits: ships the buffered writes and waits for the commit
    /// timestamp ([`Timestamp::ZERO`] for read-only transactions).
    ///
    /// # Errors
    ///
    /// Propagates session and transport errors. On error the handle still
    /// attempts the abort-on-drop closure; a transport-level failure
    /// mid-commit can leave the session with the operation in flight —
    /// call [`Cluster::reset_client`] to recover the session instead of
    /// abandoning it.
    pub fn commit(mut self) -> Result<Timestamp, Error> {
        let writes = std::mem::take(&mut self.writes);
        if !writes.is_empty() {
            // On failure, Drop still runs and closes the transaction
            // without the writes.
            self.cluster.txn_write(self.client, &writes)?;
        }
        let ct = self.cluster.txn_commit(self.client)?;
        self.finished = true;
        Ok(ct)
    }

    /// Explicitly aborts: buffered writes are discarded and the
    /// coordinator context is released. Equivalent to dropping the handle,
    /// but reports closure failures instead of swallowing them.
    ///
    /// # Errors
    ///
    /// Propagates transport failures encountered while closing the
    /// server-side context.
    pub fn abort(mut self) -> Result<(), Error> {
        self.finished = true;
        self.writes.clear();
        // A commit with an empty write set publishes nothing and frees
        // the coordinator's transaction context (and its hold on the GC
        // horizon) — the sans-I/O core stays untouched.
        self.cluster.txn_commit(self.client).map(drop)
    }
}

impl Drop for Txn<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.writes.clear();
            // Best effort: a failed abort (e.g. transport teardown) only
            // leaks the server-side context, which GC bounds anyway.
            let _ = self.cluster.txn_commit(self.client);
        }
    }
}
