//! Transaction-coordinator role (paper Algorithm 2).
//!
//! Reads reach a coordinator only when the client cannot send them to the
//! cohorts itself: a start form, whose snapshot only the coordinator can
//! assign, a read some partition of which has no replica the client can
//! reach, and every read of a session built without a topology. A client
//! that knows its snapshot and the placement sends one `ReadSliceReq` per
//! partition to the replica
//! [`Topology::reachable_target_dc`](crate::Topology::reachable_target_dc)
//! picks — the one this coordinator would pick — and merges the replies:
//! two hops instead of four (client docs). A PaRiS client that picked its
//! transaction's snapshot (`ust_c`) reads that way from the first read on,
//! so for such a transaction the coordinator only commits.
//!
//! Snapshot assignment (Alg. 2 lines 1–5) has one implementation,
//! [`Server::begin_tx`], reached two ways: an eager `StartTxReq` (the
//! facade's `Cluster::txn_begin`), or the *start form* of a transaction's
//! first `ReadReq` / `CommitReq` ([`TxRef::Start`]), which carries `ust_c`
//! instead of a transaction id. A start form is handled exactly like the
//! plain operation on a transaction begun the moment it arrives, and its
//! reply names the assigned snapshot — so a transaction whose client
//! begins lazily costs one round trip less than the paper's START.
//!
//! The *picked form* ([`TxRef::Picked`]) carries the snapshot the client
//! picked and read at, and a call number: the coordinator opens the
//! context at the snapshot, assigns the id, and handles the operation as
//! the plain one. Its reply ([`Opening::Picked`](paris_proto::Opening))
//! names the answering server's UST where a start form's names the
//! snapshot, which keeps the client's `ust_c` fresh, and echoes the call,
//! by which the client tells it from the reply to any other request. A
//! picked context pins nothing the
//! client needs — its reads are done, or the cohorts refuse what GC has
//! trimmed — so it may sit below `S_old`.
//!
//! A start-form read may carry stamps of the client's own writes (`WC_c`,
//! Alg. 1 line 6: the client cannot tell which of them a snapshot it does
//! not know yet covers), each an identity stamp. An identity stamp above
//! the snapshot just assigned names an own write the snapshot does not
//! contain; it is answered `Unchanged` here, with no fan-out, and the
//! client serves it from `WC_c`. Every other stamp — the client's own
//! write or a validation candidate, by identity or by when a read last
//! showed it — is relayed to the cohorts as it came; the coordinator never
//! interprets them further.
//!
//! A plain commit — known or picked form — whose writes land on one
//! partition is one `CommitOne` (cohort docs). One whose writes land on
//! n ≥ 2 partitions is a *decider commit*: one participant, the decider D,
//! decides `ct`, and every other participant votes to D instead of back
//! here, which spares this server's round of `PrepareResp`s and
//! `CommitTx`s without adding a hop. D is, among the participants other
//! than this server and in this server's DC first, the one with the
//! smallest share — the share that travels twice — and then the first
//! cyclically by partition from this server's (`decider_plan`); the rest
//! are its *middles*.
//!
//! * When this server holds a share, it prepares it first (Alg. 3 lines
//!   10–13, proposal `pt_c`) and raises `ht` to `pt_c`, so its vote rides
//!   in whatever it sends on. Until the `CommitTx` lands, the prepared
//!   share holds this partition's watermark — and so the UST — below
//!   `pt_c < ct`, as any participant's prepared share does.
//! * With no middle — two partitions, one of them this server's: the
//!   *last agent* — D gets its share in a `CommitOne`.
//! * Otherwise each middle gets a `PrepareReq` naming D
//!   ([`VoteTo`](paris_proto::VoteTo)), and the first — in this DC when
//!   one is — also carries D's share and what D needs to decide: how many
//!   other votes to wait for, the client, the call, and whether this
//!   server holds a share. Each middle prepares and votes to D: with a
//!   `PrepareResp`, or, the carrier, with a `CommitOne` of D's share. Like
//!   D, a middle skips Alg. 3 line 11's `ust` bump, since `ht` covers the
//!   snapshot, so its `PrepareReq` carries no snapshot.
//!
//! D decides once every vote is in (cohort docs). Counting `CommitReq` and
//! `CommitResp`, a commit costs 2 messages on one partition, 4 on two and
//! 3n − 3 on more when this server holds a share; 3 on one partition and
//! 3n − 1 on more when it holds none — where 2PC costs 3n − 1 and 3n + 2.
//! The client waits client → C → middle → D → client, 2PC's four hops. D
//! answers the client, so where D is outside this DC — no other
//! participant is in it — the votes must reach D from D's own DC for the
//! hops to cost what 2PC's do; a commit whose other participants span
//! several remote DCs keeps 2PC (`no_hop_added`). A start form keeps 2PC,
//! as only the coordinator's reply may name the snapshot it assigned; so
//! does BPR, but for the last-agent shape. A
//! picked form keeps every shortcut: its `CommitOne` and carried share
//! carry the call, and D names its own UST and the call in the reply. The
//! own share runs in place ([`Server::in_place`]).
//!
//! Which server a picked commit reaches is the client's choice: see
//! "Where commits go" in `client.rs`.
//!
//! Coordinator state lives in the [`TxTable`](super::TxTable).

use std::collections::{BTreeMap, HashSet};

use paris_proto::{
    Carry, Endpoint, Envelope, Msg, ReadKey, ReadOutcome, ReadResult, TxRef, VoteTo,
};
use paris_types::{
    ClientId, HeldStamp, Mode, PartitionId, ServerId, Timestamp, TxId, WriteSetEntry,
};

use super::{DeciderPlan, Opened, PendingOp, Server};

/// The client that sent a request, if a client did.
fn client_of(env: &Envelope) -> Option<ClientId> {
    match env.src {
        Endpoint::Client(c) => Some(c),
        Endpoint::Server(_) => {
            debug_assert!(false, "{} from a server", env.msg.kind());
            None
        }
    }
}

/// Whether a decider commit coordinated at `me` costs the client no more
/// WAN hops than 2PC: its decider answers the client, so one outside `me`'s
/// DC — there when no other participant is in it — must hear every other
/// vote from its own DC.
fn no_hop_added(me: ServerId, participants: &[ServerId]) -> bool {
    let mut dcs = participants.iter().filter(|p| **p != me).map(|p| p.dc);
    let Some(first) = dcs.clone().next() else {
        return true;
    };
    dcs.clone().any(|dc| dc == me.dc) || dcs.all(|dc| dc == first)
}

/// Who decides a decider commit coordinated at `me` among the participants
/// other than `me`, and who carries it its share. Both come from `me`'s DC
/// first, so that the votes' paths are 2PC's own. The decider is the one
/// with the smallest share, which is the share that travels twice; ties,
/// and the carrier, go cyclically by partition from `me`'s — never by the
/// write set's order.
fn decider_plan(
    me: ServerId,
    partitions: u32,
    mut shares: Vec<(ServerId, Vec<WriteSetEntry>)>,
) -> DeciderPlan {
    let from = me.partition.0;
    shares.sort_by_key(|(p, _)| {
        (
            p.dc != me.dc,
            (p.partition.0 + partitions - from) % partitions,
        )
    });
    // The first of the smallest: ties keep the order just sorted.
    let size =
        |writes: &[WriteSetEntry]| -> usize { writes.iter().map(|w| 1 + w.value.len()).sum() };
    let decider = (0..shares.len())
        .min_by_key(|&i| (shares[i].0.dc != me.dc, size(&shares[i].1)))
        .expect("a participant besides the coordinator");
    DeciderPlan {
        decider: shares.remove(decider),
        middles: shares,
    }
}

impl Server {
    /// Alg. 2 lines 1–5: assigns a snapshot and a fresh transaction id
    /// and registers the transaction's context.
    ///
    /// * PaRiS: `ust ← max(ust, ust_c)`, snapshot = `ust` — a stable
    ///   snapshot installed everywhere, hence non-blocking reads.
    /// * BPR: snapshot = `max(ust_c, HLC)` — fresh, but reads must block
    ///   until the serving partition installs it (§V).
    fn begin_tx(&mut self, client: ClientId, client_ust: Timestamp, now: u64) -> (TxId, Timestamp) {
        let snapshot = match self.mode {
            Mode::Paris => {
                self.ust = self.ust.max(client_ust);
                self.ust
            }
            Mode::Bpr => client_ust.max(self.hlc.peek(&self.clock)),
        };
        (
            self.tx_table.begin(self.id, client, snapshot, now),
            snapshot,
        )
    }

    /// The transaction a request names: begun here if the request is a
    /// start form, opened at the client's snapshot if it is a picked form
    /// — and how it was named, which decides what the reply names.
    fn resolve_tx(&mut self, env: &Envelope, tx: TxRef, now: u64) -> Option<(TxId, Opened)> {
        match tx {
            TxRef::Known(tx) => Some((tx, Opened::Known)),
            TxRef::Start { client_ust } => {
                let (tx, snapshot) = self.begin_tx(client_of(env)?, client_ust, now);
                Some((tx, Opened::Start(snapshot)))
            }
            TxRef::Picked { snapshot, call } => {
                // A UST value, so the UST here is at least as high.
                self.ust = self.ust.max(snapshot);
                let client = client_of(env)?;
                let tx = self.tx_table.begin(self.id, client, snapshot, now);
                Some((tx, Opened::Picked(call)))
            }
        }
    }

    /// `StartTxReq` (Alg. 2 lines 1–5): the eager start.
    pub(super) fn on_start_tx(
        &mut self,
        env: &Envelope,
        client_ust: Timestamp,
        now: u64,
    ) -> Vec<Envelope> {
        let Some(client) = client_of(env) else {
            return Vec::new();
        };
        let (tx, snapshot) = self.begin_tx(client, client_ust, now);
        vec![Envelope::new(
            self.id,
            client,
            Msg::StartTxResp { tx, snapshot },
        )]
    }

    /// `ReadReq` (Alg. 2 lines 6–16): fan the keys out to one replica per
    /// partition, local when possible, otherwise the preferred remote DC.
    /// Only start forms, reads the client could not route and sessions
    /// without a topology send one (module docs).
    pub(super) fn on_read_req(
        &mut self,
        env: &Envelope,
        tx: TxRef,
        keys: &[ReadKey],
        now: u64,
    ) -> Vec<Envelope> {
        self.stats.coordinator_reads += 1;
        let Some((tx, opened)) = self.resolve_tx(env, tx, now) else {
            return Vec::new();
        };
        let start = matches!(opened, Opened::Start(_));
        let opening = opened.opening(self.ust);
        let ctxs = &mut self.tx_table.ctxs;
        let Some(ctx) = ctxs.get(&tx) else {
            // Unknown transaction (the coordinator restarted, or reclaimed
            // the context as abandoned): its snapshot is gone, so nothing
            // can be read at it.
            return vec![Envelope::new(
                self.id,
                env.src,
                Msg::OpFailed { tx, opening: None },
            )];
        };
        debug_assert!(ctx.pending.is_none(), "client issued overlapping ops");
        let snapshot = ctx.snapshot;
        let client = ctx.client;

        // Group keys by partition (Alg. 2 line 9) — except, in a start
        // form, an own write above the snapshot (module docs).
        let mut results = Vec::new();
        let mut by_partition: BTreeMap<PartitionId, Vec<ReadKey>> = BTreeMap::new();
        for &k in keys {
            if start && matches!(k.held, Some(HeldStamp::Identity(own)) if own.ut > snapshot) {
                results.push(ReadResult {
                    key: k.key,
                    outcome: ReadOutcome::Unchanged,
                });
            } else {
                by_partition
                    .entry(self.topo.partition_of(k.key))
                    .or_default()
                    .push(k);
            }
        }
        // Resolve a reachable replica per partition; if any partition has
        // none, the operation cannot complete (§III-C) and the
        // transaction aborts.
        let mut targets = Vec::with_capacity(by_partition.len());
        for partition in by_partition.keys() {
            match self
                .topo
                .reachable_target_dc(*partition, self.id.dc, &self.unreachable)
            {
                Some(dc) => targets.push(paris_types::ServerId::new(dc, *partition)),
                None => {
                    ctxs.remove(&tx);
                    return vec![Envelope::new(
                        self.id,
                        client,
                        Msg::OpFailed { tx, opening },
                    )];
                }
            }
        }
        if by_partition.is_empty() {
            return vec![Envelope::new(
                self.id,
                client,
                Msg::ReadResp {
                    tx,
                    opening,
                    results,
                },
            )];
        }

        let awaiting: HashSet<PartitionId> = by_partition.keys().copied().collect();
        ctxs.get_mut(&tx).expect("context checked above").pending = Some(PendingOp::Read {
            awaiting,
            results,
            opened,
        });

        // One slice request per involved partition, in parallel
        // (Alg. 2 lines 10–15).
        by_partition
            .into_values()
            .zip(targets)
            .map(|(keys, target)| {
                Envelope::new(self.id, target, Msg::ReadSliceReq { tx, snapshot, keys })
            })
            .collect()
    }

    /// `ReadSliceResp`: accumulate; when all partitions answered, reply to
    /// the client (Alg. 2 line 16).
    pub(super) fn on_read_slice_resp(
        &mut self,
        tx: TxId,
        partition: PartitionId,
        results: &[ReadResult],
        _now: u64,
    ) -> Vec<Envelope> {
        let ctxs = &mut self.tx_table.ctxs;
        let Some(ctx) = ctxs.get_mut(&tx) else {
            return Vec::new(); // stale response for a finished transaction
        };
        let Some(PendingOp::Read {
            awaiting,
            results: acc,
            ..
        }) = ctx.pending.as_mut()
        else {
            return Vec::new();
        };
        if !awaiting.remove(&partition) {
            return Vec::new(); // duplicate
        }
        acc.extend_from_slice(results);
        if !awaiting.is_empty() {
            return Vec::new();
        }
        let (results, opened) = match ctx.pending.take() {
            Some(PendingOp::Read {
                results, opened, ..
            }) => (results, opened),
            _ => unreachable!("checked above"),
        };
        vec![Envelope::new(
            self.id,
            ctx.client,
            Msg::ReadResp {
                tx,
                opening: opened.opening(self.ust),
                results,
            },
        )]
    }

    /// A cohort refused a slice of this coordinator's fan-out: the
    /// snapshot is below its GC horizon, which only a picked context's can
    /// be (an assigned one pins `S_old` at or below it). The read fails
    /// and the transaction aborts, as a client-sent slice's refusal of a
    /// read after the first does.
    pub(super) fn on_slice_refused(&mut self, tx: TxId) -> Vec<Envelope> {
        let ctxs = &mut self.tx_table.ctxs;
        let Some(ctx) = ctxs.get(&tx) else {
            return Vec::new();
        };
        let Some(PendingOp::Read { opened, .. }) = ctx.pending else {
            return Vec::new();
        };
        let client = ctx.client;
        ctxs.remove(&tx);
        vec![Envelope::new(
            self.id,
            client,
            Msg::OpFailed {
                tx,
                opening: opened.opening(self.ust),
            },
        )]
    }

    /// `CommitReq` (Alg. 2 lines 17–25): the one-phase forward of a
    /// single-partition write set, a decider commit's own prepare or
    /// fan-out, or the first phase of 2PC (module docs).
    ///
    /// Read-only transactions (empty write set) are finalized immediately:
    /// the context is dropped — releasing its snapshot from the GC
    /// aggregate — and the client gets `ct = 0`.
    pub(super) fn on_commit_req(
        &mut self,
        env: &Envelope,
        tx: TxRef,
        hwt: Timestamp,
        writes: &[WriteSetEntry],
        now: u64,
    ) -> Vec<Envelope> {
        let Some((tx, opened)) = self.resolve_tx(env, tx, now) else {
            return Vec::new();
        };
        let opening = opened.opening(self.ust);
        // Only the coordinator's reply can name an assigned snapshot, so a
        // start form keeps 2PC; a picked form's participant names its own
        // UST and echoes the call.
        let start = matches!(opened, Opened::Start(_));
        let picked = opened.call();
        let ctxs = &mut self.tx_table.ctxs;
        let Some(ctx) = ctxs.get(&tx) else {
            // Unknown transaction: its writes would be dropped, so the
            // commit fails rather than report a success that never was.
            return vec![Envelope::new(
                self.id,
                env.src,
                Msg::OpFailed { tx, opening: None },
            )];
        };
        debug_assert!(ctx.pending.is_none(), "client issued overlapping ops");

        // ht: the max timestamp seen by the client (Alg. 2 line 19).
        let snapshot = ctx.snapshot;
        let client = ctx.client;
        if writes.is_empty() {
            ctxs.remove(&tx);
            return vec![Envelope::new(
                self.id,
                client,
                Msg::CommitResp {
                    tx,
                    opening,
                    ct: Timestamp::ZERO,
                },
            )];
        }
        let ht = snapshot.max(hwt);

        // Group writes by partition (Alg. 2 line 20).
        let mut by_partition: BTreeMap<PartitionId, Vec<WriteSetEntry>> = BTreeMap::new();
        for w in writes {
            by_partition
                .entry(self.topo.partition_of(w.key))
                .or_default()
                .push(w.clone());
        }
        // Resolve a reachable participant per partition, aborting if some
        // partition has no reachable replica (§III-C).
        let mut participants = Vec::with_capacity(by_partition.len());
        for partition in by_partition.keys() {
            match self
                .topo
                .reachable_target_dc(*partition, self.id.dc, &self.unreachable)
            {
                Some(dc) => participants.push(paris_types::ServerId::new(dc, *partition)),
                None => {
                    ctxs.remove(&tx);
                    return vec![Envelope::new(
                        self.id,
                        client,
                        Msg::OpFailed { tx, opening },
                    )];
                }
            }
        }
        if let ([participant], false) = (&participants[..], start) {
            ctxs.remove(&tx); // Alg. 2 line 28: the participant answers
            let writes = by_partition.into_values().next().expect("one partition");
            let msg = Msg::CommitOne {
                tx,
                ht,
                writes,
                src_dc: self.id.dc,
                client,
                coordinator_share: false,
                picked,
                votes: 0,
            };
            return vec![Envelope::new(self.id, *participant, msg)];
        }
        // A decider commit (module docs) — unless its decider would add a
        // WAN hop; BPR keeps the two-partition one with an own share only,
        // the last-agent shape that needs no vote.
        let own = participants.contains(&self.id);
        let decides = !start
            && no_hop_added(self.id, &participants)
            && match self.mode {
                Mode::Paris => true,
                Mode::Bpr => own && participants.len() == 2,
            };
        if decides {
            let mut shares: Vec<_> = participants
                .into_iter()
                .zip(by_partition.into_values())
                .collect();
            let own_writes = shares
                .iter()
                .position(|(p, _)| *p == self.id)
                .map(|i| shares.remove(i).1);
            let plan = decider_plan(self.id, self.topo.partitions(), shares);
            let Some(writes) = own_writes else {
                ctxs.remove(&tx); // Alg. 2 line 28: the decider answers
                return self.to_decider(tx, ht, plan, client, picked, false);
            };
            // The own share is prepared first, by the usual self-addressed
            // `PrepareReq` that `in_place` runs within this same `handle`
            // call rather than a direct `on_prepare_req`, so that
            // `handle_and`'s `local` sees it and the simulator charges it;
            // the plan waits in the pending op for that `PrepareResp`.
            ctxs.get_mut(&tx).expect("context checked above").pending = Some(PendingOp::Commit {
                awaiting: HashSet::from([self.id.partition]),
                participants: vec![self.id],
                max_proposed: Timestamp::ZERO,
                opened,
                decider: Some(plan),
            });
            let msg = Msg::PrepareReq {
                tx,
                snapshot,
                ht,
                writes,
                src_dc: self.id.dc,
                vote_to: None,
            };
            return vec![Envelope::new(self.id, self.id, msg)];
        }
        let awaiting: HashSet<PartitionId> = by_partition.keys().copied().collect();
        ctxs.get_mut(&tx).expect("context checked above").pending = Some(PendingOp::Commit {
            awaiting,
            participants: participants.clone(),
            max_proposed: Timestamp::ZERO,
            opened,
            decider: None,
        });

        // PrepareReq to each involved partition (Alg. 2 lines 21–25).
        by_partition
            .into_values()
            .zip(participants)
            .map(|(writes, target)| {
                Envelope::new(
                    self.id,
                    target,
                    Msg::PrepareReq {
                        tx,
                        snapshot,
                        ht,
                        writes,
                        src_dc: self.id.dc,
                        vote_to: None,
                    },
                )
            })
            .collect()
    }

    /// A decider commit's fan-out, `ht` carrying the own proposal if this
    /// server holds a share: the decider's share straight to it when no
    /// other participant votes; otherwise a `PrepareReq` naming it to
    /// every middle, the first also carrying its share and how many
    /// `PrepareResp` votes to wait for. A middle, like the decider, skips
    /// Alg. 3 line 11's `ust` bump — `ht` covers the snapshot — so its
    /// prepare carries none.
    fn to_decider(
        &self,
        tx: TxId,
        ht: Timestamp,
        plan: DeciderPlan,
        client: ClientId,
        picked: Option<u64>,
        coordinator_share: bool,
    ) -> Vec<Envelope> {
        let DeciderPlan {
            decider: (decider, writes),
            middles,
        } = plan;
        let Some(votes) = middles.len().checked_sub(1) else {
            let msg = Msg::CommitOne {
                tx,
                ht,
                writes,
                src_dc: self.id.dc,
                client,
                coordinator_share,
                picked,
                votes: 0,
            };
            return vec![Envelope::new(self.id, decider, msg)];
        };
        let mut carry = Some(Carry {
            writes,
            votes: u32::try_from(votes).expect("fewer middles than partitions"),
            client,
            coordinator_share,
            picked,
        });
        middles
            .into_iter()
            .map(|(middle, writes)| {
                let vote_to = VoteTo {
                    decider,
                    carry: carry.take(),
                };
                let msg = Msg::PrepareReq {
                    tx,
                    snapshot: Timestamp::ZERO,
                    ht,
                    writes,
                    src_dc: self.id.dc,
                    vote_to: Some(Box::new(vote_to)),
                };
                Envelope::new(self.id, middle, msg)
            })
            .collect()
    }

    /// `PrepareResp`: gather proposals; when all arrived, pick the max as
    /// commit time, notify cohorts and the client (Alg. 2 lines 26–29) —
    /// or, in a decider commit, send the own proposal on to the decider.
    pub(super) fn on_prepare_resp(
        &mut self,
        tx: TxId,
        partition: PartitionId,
        proposed: Timestamp,
        now: u64,
    ) -> Vec<Envelope> {
        let (participants, ct, client, opened) = {
            let ctxs = &mut self.tx_table.ctxs;
            let Some(ctx) = ctxs.get_mut(&tx) else {
                return Vec::new();
            };
            let Some(PendingOp::Commit {
                awaiting,
                max_proposed,
                ..
            }) = ctx.pending.as_mut()
            else {
                return Vec::new();
            };
            if !awaiting.remove(&partition) {
                return Vec::new(); // duplicate
            }
            *max_proposed = (*max_proposed).max(proposed);
            if !awaiting.is_empty() {
                return Vec::new();
            }

            let (participants, ct, opened, decider) = match ctx.pending.take() {
                Some(PendingOp::Commit {
                    participants,
                    max_proposed,
                    opened,
                    decider,
                    ..
                }) => (participants, max_proposed, opened, decider),
                _ => unreachable!("checked above"),
            };
            let client = ctx.client;
            ctxs.remove(&tx); // Alg. 2 line 28
            if let Some(plan) = decider {
                // The own proposal rides in `ht`; the decider decides.
                return self.to_decider(tx, ct, plan, client, opened.call(), true);
            }
            (participants, ct, client, opened)
        };
        self.stats.txs_coordinated += 1;
        if let Some(log) = self.events.as_mut() {
            log.commits.push((tx, ct, now));
        }

        let mut out: Vec<Envelope> = participants
            .into_iter()
            .map(|p| Envelope::new(self.id, p, Msg::CommitTx { tx, ct }))
            .collect();
        out.push(Envelope::new(
            self.id,
            client,
            Msg::CommitResp {
                tx,
                opening: opened.opening(self.ust),
                ct,
            },
        ));
        out
    }

    /// The oldest snapshot among transactions coordinated here, or the
    /// current UST when idle — this server's contribution to the `S_old`
    /// aggregate (§IV-B, garbage collection).
    pub(crate) fn oldest_active_snapshot(&self) -> Timestamp {
        self.tx_table.oldest_active_snapshot(self.ust)
    }
}
