//! Message definitions.
//!
//! Foreground traffic (client operations, slice reads, 2PC) has a variant
//! per step of the paper's algorithms. Background traffic has two shapes:
//! replication ([`Msg::Replicate`], and [`Msg::ReplicateBatch`] once the
//! batching layer folded several frames into one) and stabilisation
//! ([`Msg::GossipDigest`]). The paper's four logical background frames map
//! onto them: a heartbeat (Alg. 4 line 21) is a `Replicate` with no
//! transactions, and a tree report, a root's GST and the UST broadcast
//! (§IV-B) are each a one-entry digest with `frames: 1`.

use paris_types::{
    ClientId, DcId, Key, PartitionId, ServerId, Timestamp, TxId, Version, VersionStamp,
    WriteSetEntry,
};

/// A network endpoint: either a partition server or a client session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Endpoint {
    /// A partition server `p_n^m`.
    Server(ServerId),
    /// A client session.
    Client(ClientId),
}

impl Endpoint {
    /// The DC this endpoint lives in.
    pub fn dc(&self) -> DcId {
        match self {
            Endpoint::Server(s) => s.dc,
            Endpoint::Client(c) => c.dc,
        }
    }

    /// The server id, if this endpoint is a server.
    pub fn as_server(&self) -> Option<ServerId> {
        match self {
            Endpoint::Server(s) => Some(*s),
            Endpoint::Client(_) => None,
        }
    }
}

impl From<ServerId> for Endpoint {
    fn from(s: ServerId) -> Self {
        Endpoint::Server(s)
    }
}

impl From<ClientId> for Endpoint {
    fn from(c: ClientId) -> Self {
        Endpoint::Client(c)
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Server(s) => write!(f, "{s}"),
            Endpoint::Client(c) => write!(f, "{c}"),
        }
    }
}

/// A message in flight between two endpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Sender.
    pub src: Endpoint,
    /// Receiver.
    pub dst: Endpoint,
    /// Payload.
    pub msg: Msg,
}

impl Envelope {
    /// Creates an envelope.
    pub fn new(src: impl Into<Endpoint>, dst: impl Into<Endpoint>, msg: Msg) -> Self {
        Envelope {
            src: src.into(),
            dst: dst.into(),
            msg,
        }
    }
}

/// One key of a read request, optionally stamped with the identity of the
/// version the client already holds for it (see [`VersionStamp`]). The
/// stamp never influences *which* version the snapshot read selects — only
/// whether the reply has to carry that version's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadKey {
    /// The key to read.
    pub key: Key,
    /// The version of `key` the requesting client holds, if any.
    pub held: Option<VersionStamp>,
}

impl From<Key> for ReadKey {
    fn from(key: Key) -> Self {
        ReadKey { key, held: None }
    }
}

/// The transaction a client request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxRef {
    /// A transaction the coordinator already started.
    Known(TxId),
    /// The request is the transaction's first operation and carries its
    /// start (Alg. 1 lines 1–7 fused into it): the coordinator assigns
    /// the id and the snapshot exactly as for a [`Msg::StartTxReq`], and
    /// the reply names both.
    Start {
        /// The client's `ust_c`.
        client_ust: Timestamp,
    },
    /// The client picked the transaction's snapshot itself — its `ust_c`,
    /// a UST every DC has installed — and read straight from the replicas
    /// at it; this request is the first the coordinator hears of the
    /// transaction. The coordinator opens the context at `snapshot` and
    /// assigns the id; the reply names the id and [`Opening::Picked`].
    Picked {
        /// The snapshot the client picked.
        snapshot: Timestamp,
        /// A number the client chose for this request, echoed by the
        /// reply: whichever server answers, in whatever order, the client
        /// tells the reply to this request from any other.
        call: u64,
    },
}

/// What the reply to a transaction's opening request — a start form or a
/// picked form, the first request to reach a coordinator — names besides
/// the transaction id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opening {
    /// The reply to a start form: the snapshot the coordinator assigned.
    Start {
        /// The assigned snapshot.
        snapshot: Timestamp,
    },
    /// The reply to a picked form: the answering server's UST, which keeps
    /// the client's `ust_c` fresh, and the request's call number.
    Picked {
        /// The answering server's UST.
        ust: Timestamp,
        /// The [`TxRef::Picked`] request's `call`.
        call: u64,
    },
}

/// What a snapshot read found for one key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadOutcome {
    /// No version is visible in the snapshot (the paper returns only found
    /// items; carrying the miss explicitly lets the client distinguish
    /// "absent" from "lost").
    Absent,
    /// The freshest visible version, shipped in full.
    Found(Version),
    /// The freshest visible version is exactly the one the request's
    /// [`ReadKey::held`] stamp names: the client resolves it from its own
    /// copy, so neither value nor metadata travel.
    Unchanged,
}

impl ReadOutcome {
    /// The shipped version, if this outcome carries one.
    pub fn version(&self) -> Option<&Version> {
        match self {
            ReadOutcome::Found(v) => Some(v),
            ReadOutcome::Absent | ReadOutcome::Unchanged => None,
        }
    }
}

/// Per-key outcome of a slice read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadResult {
    /// The requested key.
    pub key: Key,
    /// What the snapshot holds for it. A [`ReadOutcome::Found`] version
    /// always belongs to `key`.
    pub outcome: ReadOutcome,
}

/// One transaction inside a replication batch (Alg. 4 lines 9–16): the
/// updates a replica applied locally and now pushes to its peer replicas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicatedTx {
    /// The transaction id.
    pub tx: TxId,
    /// Its commit timestamp (= update time of every written version).
    pub ct: Timestamp,
    /// Source DC that committed the updates (the coordinator's DC).
    pub src: DcId,
    /// The writes that hit the sending partition.
    pub writes: Vec<WriteSetEntry>,
}

/// One subtree report inside a [`Msg::GossipDigest`]: a tree child's
/// aggregate, sent to its parent — the freshest a coalescing window saw
/// from that reporting partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestReport {
    /// Reporting partition.
    pub partition: PartitionId,
    /// `(source DC, min VV entry)` per DC the subtree replicates with.
    pub mins: Vec<(DcId, Timestamp)>,
    /// Oldest active snapshot in the subtree.
    pub oldest_active: Timestamp,
}

/// Every PaRiS protocol message.
///
/// Naming follows the paper's algorithms. A request is answered to its
/// envelope's source, so the state machines need no transport-level
/// correlation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    // ------------------------------------------------------ client ↔ server
    /// Client → coordinator: start a transaction, piggybacking the highest
    /// stable snapshot the client has seen (Alg. 1 line 2).
    StartTxReq {
        /// The client's `ust_c`.
        client_ust: Timestamp,
    },
    /// Coordinator → client: transaction id and assigned snapshot
    /// (Alg. 2 line 5).
    StartTxResp {
        /// Fresh transaction id.
        tx: TxId,
        /// Snapshot timestamp visible to the transaction.
        snapshot: Timestamp,
    },
    /// Client → coordinator: read a set of keys within a transaction
    /// (Alg. 1 line 15) — or, in its start form, start the transaction
    /// and read; or, in its picked form, open the context at the
    /// client's snapshot and read.
    ReadReq {
        /// The transaction, or the start it carries.
        tx: TxRef,
        /// Keys not satisfied from the client-local sets, each stamped
        /// with the version the client holds for it (in a start form, a
        /// key of `WC_c` with the client's own write).
        keys: Vec<ReadKey>,
    },
    /// Coordinator → client: the assembled read results (Alg. 2 line 16).
    ReadResp {
        /// Transaction id.
        tx: TxId,
        /// Present when the request was a start or picked form.
        opening: Option<Opening>,
        /// Per-key results.
        results: Vec<ReadResult>,
    },
    /// Client → coordinator: commit the transaction's buffered writes
    /// (Alg. 1 line 27) — or, in its start form, start the transaction
    /// and commit; or, in its picked form, open the context at the
    /// snapshot the client read from and commit.
    CommitReq {
        /// The transaction, or the start it carries.
        tx: TxRef,
        /// Commit time of the client's previous update transaction
        /// (`hwt_c`), so commit timestamps reflect session order.
        hwt: Timestamp,
        /// The buffered write set.
        writes: Vec<WriteSetEntry>,
    },
    /// Coordinator or deciding participant → client: the commit timestamp
    /// (Alg. 2 line 29; see [`Msg::CommitOne`]).
    CommitResp {
        /// Transaction id.
        tx: TxId,
        /// Present when the request was a start or picked form.
        opening: Option<Opening>,
        /// Commit timestamp.
        ct: Timestamp,
    },
    /// Coordinator → client: the operation could not be completed and the
    /// transaction is aborted — when *no* replica of a target partition is
    /// reachable (§III-C: "If all replicas of one partition cannot be
    /// reached by a DC, then PaRiS cannot complete remote operations that
    /// target that partition, thus leading to unavailability"), or when
    /// the coordinator holds no context for the transaction (it restarted,
    /// or reclaimed the context as abandoned). Also cohort → sender of a
    /// `ReadSliceReq` whose snapshot is below the cohort's GC horizon:
    /// no open context pins that snapshot — a client-picked one never had
    /// one — so GC may have trimmed what it would see.
    OpFailed {
        /// Transaction id.
        tx: TxId,
        /// Present when the request was a start or picked form.
        opening: Option<Opening>,
    },

    // ---------------------------------------------------- to and from cohorts
    /// Client or coordinator → cohort: read `keys` at `snapshot` (Alg. 2
    /// line 12). A client that knows its transaction's snapshot — one it
    /// picked, or one a coordinator assigned — sends its slices itself; a
    /// start form's slices come from the coordinator. The cohort may be in
    /// any DC that replicates the partition, and answers the envelope's
    /// source.
    ReadSliceReq {
        /// Transaction id, for correlation only: a picked transaction,
        /// which has no id until it commits, names its read by one its
        /// client chose.
        tx: TxId,
        /// Snapshot to read at.
        snapshot: Timestamp,
        /// Keys owned by the cohort's partition, with the client's stamps.
        keys: Vec<ReadKey>,
    },
    /// Cohort → the slice read's sender: slice results (Alg. 3 line 8).
    ReadSliceResp {
        /// Transaction id.
        tx: TxId,
        /// Partition that served the slice.
        partition: PartitionId,
        /// Per-key results.
        results: Vec<ReadResult>,
    },
    /// Coordinator → cohort: first phase of 2PC (Alg. 2 line 23), for a
    /// start form or two or more remote partitions (one remote partition
    /// takes [`Msg::CommitOne`]).
    PrepareReq {
        /// Transaction id.
        tx: TxId,
        /// Transaction snapshot timestamp.
        snapshot: Timestamp,
        /// `ht`: max(snapshot, client's `hwt`) (Alg. 2 line 19).
        ht: Timestamp,
        /// Writes owned by the cohort's partition.
        writes: Vec<WriteSetEntry>,
        /// DC of the committing client/coordinator — recorded as the
        /// version's source (`sr`) consistently at every replica.
        src_dc: DcId,
    },
    /// Cohort → coordinator: proposed prepare timestamp (Alg. 3 line 14).
    PrepareResp {
        /// Transaction id.
        tx: TxId,
        /// Partition that prepared.
        partition: PartitionId,
        /// Proposed commit timestamp.
        proposed: Timestamp,
    },
    /// Second phase of 2PC with the final commit timestamp (Alg. 2 line
    /// 27): coordinator → cohort, or — after a [`Msg::CommitOne`] whose
    /// `coordinator_share` is set — the deciding participant → the
    /// coordinator, which holds the other share prepared.
    CommitTx {
        /// Transaction id.
        tx: TxId,
        /// Final commit timestamp (max over proposals).
        ct: Timestamp,
    },
    /// Coordinator → the one remote participant of a plain commit's write
    /// set: prepare and commit in one step, `ct` = its proposal, answered
    /// to the client. The participant decides: every other proposal is
    /// already folded into `ht`.
    CommitOne {
        /// Transaction id.
        tx: TxId,
        /// `ht`: max(snapshot, client's `hwt`) (Alg. 2 line 19), raised to
        /// the coordinator's own proposal when it holds a share.
        ht: Timestamp,
        /// The participant's writes.
        writes: Vec<WriteSetEntry>,
        /// DC of the committing client/coordinator (the versions' `sr`).
        src_dc: DcId,
        /// The client that gets the `CommitResp`.
        client: ClientId,
        /// The coordinator holds the rest of the write set prepared, and
        /// gets a [`Msg::CommitTx`] with the decided `ct`.
        coordinator_share: bool,
        /// The call of the client's [`TxRef::Picked`] request, when the
        /// client picked the transaction's snapshot: the `CommitResp` names
        /// it and this server's UST ([`Opening::Picked`]).
        picked: Option<u64>,
    },
    /// Replica → peer replicas of the same partition: transactions applied
    /// locally, in commit-timestamp order, plus the sender's new version
    /// clock (Alg. 4 lines 15 and 23–30). With no transactions it is the
    /// heartbeat that keeps the version clock moving in write-free periods
    /// (Alg. 4 line 21).
    Replicate {
        /// Partition the batch belongs to.
        partition: PartitionId,
        /// Applied transactions, ascending by `ct`.
        txs: Vec<ReplicatedTx>,
        /// Sender's version clock after the batch (`ub`): the receiver may
        /// set `VV[sender] = watermark`, as no later update from the sender
        /// can carry a smaller timestamp.
        watermark: Timestamp,
    },
    /// Several [`Msg::Replicate`] frames (heartbeats included) on one link,
    /// coalesced into a single wire message by the batching layer. FIFO channels make the fold exact:
    /// transactions stay in ascending `ct` order across the merged frames
    /// and the surviving watermark is the newest one, so the receiver
    /// applies the batch in one pass and advances the sender's
    /// version-vector entry once.
    ReplicateBatch {
        /// Partition the batch belongs to.
        partition: PartitionId,
        /// Applied transactions, ascending by `ct`, concatenated across
        /// the coalesced frames.
        txs: Vec<ReplicatedTx>,
        /// The newest sender version clock among the coalesced frames.
        watermark: Timestamp,
        /// Number of logical frames folded into this message (accounting:
        /// `frames − 1` wire messages were saved).
        frames: u32,
    },

    // ------------------------------------------------- stabilization tree
    /// Stabilization traffic: tree child → parent reports, DC root → other
    /// roots GSTs, DC root → its DC the UST. A server sends each as a
    /// one-entry digest with `frames: 1`; the batching layer folds the
    /// digests of one link into one. Every component is monotonic and its
    /// handler keeps only the freshest value, so the fold keeps the latest
    /// report per partition, the latest GST per DC and the maximum UST —
    /// semantically identical to delivering the digests individually, in
    /// order.
    GossipDigest {
        /// Freshest subtree report per reporting partition (tree edges).
        reports: Vec<DigestReport>,
        /// Freshest `(dc, gst, oldest_active)` per DC (root exchange): the
        /// DC's Global Stable Time — the minimum over its GSV entries —
        /// and its oldest active snapshot.
        roots: Vec<(DcId, Timestamp, Timestamp)>,
        /// Freshest `(ust, s_old)` broadcast, if any: the universal stable
        /// time and the GC horizon, the oldest snapshot visible to any
        /// running transaction system-wide.
        ust: Option<(Timestamp, Timestamp)>,
        /// Number of logical frames folded into this message.
        frames: u32,
    },
}

impl Msg {
    /// Short human-readable tag, for traces and stats.
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::StartTxReq { .. } => "StartTxReq",
            Msg::StartTxResp { .. } => "StartTxResp",
            Msg::ReadReq { .. } => "ReadReq",
            Msg::ReadResp { .. } => "ReadResp",
            Msg::CommitReq { .. } => "CommitReq",
            Msg::CommitResp { .. } => "CommitResp",
            Msg::OpFailed { .. } => "OpFailed",
            Msg::ReadSliceReq { .. } => "ReadSliceReq",
            Msg::ReadSliceResp { .. } => "ReadSliceResp",
            Msg::PrepareReq { .. } => "PrepareReq",
            Msg::PrepareResp { .. } => "PrepareResp",
            Msg::CommitTx { .. } => "CommitTx",
            Msg::CommitOne { .. } => "CommitOne",
            Msg::Replicate { .. } => "Replicate",
            Msg::ReplicateBatch { .. } => "ReplicateBatch",
            Msg::GossipDigest { .. } => "GossipDigest",
        }
    }

    /// Whether this is a background (stabilization/replication) message as
    /// opposed to foreground transaction traffic.
    pub fn is_background(&self) -> bool {
        matches!(
            self,
            Msg::Replicate { .. } | Msg::ReplicateBatch { .. } | Msg::GossipDigest { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::Value;

    #[test]
    fn endpoint_dc_and_conversions() {
        let s = ServerId::new(DcId(1), PartitionId(2));
        let c = ClientId::new(DcId(3), 4);
        assert_eq!(Endpoint::from(s).dc(), DcId(1));
        assert_eq!(Endpoint::from(c).dc(), DcId(3));
        assert_eq!(Endpoint::from(s).as_server(), Some(s));
        assert_eq!(Endpoint::from(c).as_server(), None);
    }

    #[test]
    fn endpoint_display() {
        let s = Endpoint::from(ServerId::new(DcId(1), PartitionId(2)));
        assert_eq!(s.to_string(), "dc1/p2");
        let c = Endpoint::from(ClientId::new(DcId(0), 9));
        assert_eq!(c.to_string(), "c0.9");
    }

    #[test]
    fn envelope_new_converts_endpoints() {
        let s = ServerId::new(DcId(0), PartitionId(0));
        let c = ClientId::new(DcId(0), 1);
        let env = Envelope::new(
            c,
            s,
            Msg::StartTxReq {
                client_ust: Timestamp::ZERO,
            },
        );
        assert_eq!(env.src, Endpoint::Client(c));
        assert_eq!(env.dst, Endpoint::Server(s));
    }

    #[test]
    fn msg_kind_covers_background_classification() {
        let hb = Msg::Replicate {
            partition: PartitionId(0),
            txs: vec![],
            watermark: Timestamp::ZERO,
        };
        assert_eq!(hb.kind(), "Replicate");
        assert!(hb.is_background());

        let rr = Msg::ReadReq {
            tx: TxRef::Known(TxId::new(ServerId::new(DcId(0), PartitionId(0)), 1)),
            keys: vec![Key(1).into()],
        };
        assert_eq!(rr.kind(), "ReadReq");
        assert!(!rr.is_background());
        // A start form is the same kind of message.
        let start = Msg::ReadReq {
            tx: TxRef::Start {
                client_ust: Timestamp::ZERO,
            },
            keys: vec![Key(1).into()],
        };
        assert_eq!(start.kind(), "ReadReq");
    }

    #[test]
    fn replicated_tx_holds_batch_fields() {
        let tx = TxId::new(ServerId::new(DcId(0), PartitionId(0)), 1);
        let r = ReplicatedTx {
            tx,
            ct: Timestamp::from_physical_micros(10),
            src: DcId(0),
            writes: vec![WriteSetEntry::new(Key(1), Value::from("x"))],
        };
        assert_eq!(r.writes.len(), 1);
        assert_eq!(r.ct.physical_micros(), 10);
    }
}
