//! Transaction-cohort role (paper Algorithm 3).
//!
//! A cohort answers every request to the envelope's source. A slice read
//! comes from the client itself once its transaction has a snapshot —
//! picked at the client, or assigned — and from the coordinator for a
//! start form's first read (coordinator docs); the cohort serves both
//! alike. It refuses a snapshot below the horizon its chains were last
//! trimmed to — `S_old` as of the previous GC tick — with an `OpFailed`: GC
//! may have trimmed what such a snapshot would see, and a read served from
//! what is left could miss the version the snapshot holds. Above that
//! horizon every chain still holds the newest version at or below the
//! snapshot, so the read is served even where the `S_old` aggregate has
//! moved past it. An open context pins `S_old` at or below its snapshot
//! everywhere, so only a snapshot no context pins is refused: a
//! client-picked one (which has no context while it reads), or one whose
//! context the coordinator reclaimed as abandoned
//! ([`STALE_CONTEXT_MICROS`](super::STALE_CONTEXT_MICROS)). The client
//! re-sends a refused first read in the start form; a coordinator's
//! fan-out, refused only at a picked context, fails the read.
//!
//! A write set on one partition commits in one phase ([`Msg::CommitOne`]):
//! PaRiS never aborts, and the `max` over one proposal is that proposal,
//! `ct = pt`. It exceeds `ht` and the HLC, which bounds every watermark
//! announced here, so it skips the prepared queue. It skips line 11's
//! `ust` bump too: `ht ≥ snapshot` already puts `ct` above the snapshot.
//!
//! The same message makes this server the *decider* of a write set on
//! several partitions (coordinator docs): `ht` then carries the proposal of
//! the participant that sent it — the coordinator, or the middle that
//! carried this share, whose proposal exceeds the coordinator's — and the
//! message says how many more votes, `PrepareResp`s of the other middles,
//! to wait for. A small per-transaction table of ballots holds them until
//! all are in; only then is `ct = pt` proposed above `ht` and every vote,
//! so it is the max over every proposal (Alg. 2 line 26) and, above the
//! HLC, skips the prepared queue as a one-phase commit does. This server
//! decides, answers the client and sends every other participant a
//! `CommitTx`. The GC tick drops a ballot still incomplete after
//! [`STALE_CONTEXT_MICROS`](super::STALE_CONTEXT_MICROS), as coordinators
//! reclaim abandoned contexts
//! ([`ServerStats::abandoned_votes`](super::ServerStats::abandoned_votes)).
//! A middle prepares as for 2PC, but votes to the decider its `PrepareReq`
//! names. Which server a picked commit reaches is the client's choice: see
//! "Where commits go" in `client.rs`.
//!
//! A `CommitTx` that finds no prepared share here is counted
//! ([`ServerStats::orphan_commits`](super::ServerStats::orphan_commits)),
//! never silently dropped: the server restarted between prepare and
//! commit, and its share of the writes is lost.

use paris_proto::{Endpoint, Envelope, Msg, Opening, ReadKey, ReadOutcome, ReadResult, VoteTo};
use paris_types::{DcId, Mode, ServerId, Timestamp, TxId, WriteSetEntry};

use super::{Ballot, BlockedRead, CommittedTx, PreparedTx, Server};

impl Server {
    /// `ReadSliceReq` (Alg. 3 lines 1–8), answered to `env.src`.
    ///
    /// PaRiS serves immediately: the snapshot is universally stable, so the
    /// freshest version `≤ snapshot` is guaranteed present — the
    /// non-blocking read property. It needs no thread of its own: the
    /// read runs on the server loop, which also runs GC, so no read ever
    /// races the horizon. BPR must first check that the partition has
    /// *installed* the (fresh) snapshot — `min(VV) ≥ snapshot` — and
    /// parks the read otherwise (§V). A snapshot below the horizon the
    /// chains were trimmed to is refused (module docs).
    pub(super) fn on_read_slice_req(
        &mut self,
        env: &Envelope,
        tx: TxId,
        snapshot: Timestamp,
        keys: &[ReadKey],
        now: u64,
    ) -> Vec<Envelope> {
        let reader = env.src;
        if snapshot < self.trimmed {
            self.stats.refused_slices += 1;
            let refused = Msg::OpFailed { tx, opening: None };
            return vec![Envelope::new(self.id, reader, refused)];
        }
        match self.mode {
            Mode::Paris => {
                // Alg. 3 line 2: ust ← max(ust, snapshot).
                self.ust = self.ust.max(snapshot);
                vec![self.serve_slice(tx, snapshot, keys, reader)]
            }
            Mode::Bpr => {
                if self.installed_watermark() >= snapshot {
                    vec![self.serve_slice(tx, snapshot, keys, reader)]
                } else {
                    self.stats.blocked_reads += 1;
                    self.blocked.push(BlockedRead {
                        tx,
                        snapshot,
                        keys: keys.to_vec(),
                        reader,
                        blocked_at: now,
                    });
                    Vec::new()
                }
            }
        }
    }

    /// Serves a slice read from the store (Alg. 3 lines 3–8): the
    /// freshest version within the snapshot per key, looked up exactly as
    /// for an unstamped read and only then compared with the client's
    /// stamp — a match is answered `Unchanged`, anything else ships what
    /// the snapshot holds. A seen stamp `T` matches when `T` is at or
    /// below the snapshot and the version the snapshot sees has `ut ≤ T`:
    /// the store holds every version at or below the snapshot, so nothing
    /// was written between `T` and the snapshot, and the version visible
    /// at `T` — the client's — is the one visible now. GC keeps the newest
    /// version at or below its horizon, so a held version it trimmed has a
    /// newer one above `T`, which ships.
    pub(super) fn serve_slice(
        &mut self,
        tx: TxId,
        snapshot: Timestamp,
        keys: &[ReadKey],
        reader: Endpoint,
    ) -> Envelope {
        self.stats.slice_reads += 1;
        self.stats.keys_read += keys.len() as u64;
        let results = keys
            .iter()
            .map(|k| {
                let outcome = match self.store.read_at(k.key, snapshot) {
                    None => ReadOutcome::Absent,
                    Some(v) if k.held.is_some_and(|held| held.matches(&v, snapshot)) => {
                        self.stats.reads_unchanged += 1;
                        ReadOutcome::Unchanged
                    }
                    Some(v) => {
                        self.stats.reads_shipped += 1;
                        ReadOutcome::Found(v)
                    }
                };
                ReadResult {
                    key: k.key,
                    outcome,
                }
            })
            .collect();
        Envelope::new(
            self.id,
            reader,
            Msg::ReadSliceResp {
                tx,
                partition: self.id.partition,
                results,
            },
        )
    }

    /// Re-examines blocked reads after the installed watermark advanced
    /// (BPR); returns the responses for reads that can now be served.
    pub(super) fn drain_blocked(&mut self, now: u64) -> Vec<Envelope> {
        if self.blocked.is_empty() {
            return Vec::new();
        }
        let watermark = self.installed_watermark();
        let mut out = Vec::new();
        let mut still_blocked = Vec::with_capacity(self.blocked.len());
        for b in std::mem::take(&mut self.blocked) {
            if b.snapshot <= watermark {
                let waited = now.saturating_sub(b.blocked_at);
                self.stats.blocked_micros_total += waited;
                self.stats.blocked_micros_max = self.stats.blocked_micros_max.max(waited);
                out.push(self.serve_slice(b.tx, b.snapshot, &b.keys, b.reader));
            } else {
                still_blocked.push(b);
            }
        }
        self.blocked = still_blocked;
        self.in_place(out, now, |_| {})
    }

    /// `PrepareReq` (Alg. 3 lines 9–14): propose a commit timestamp that
    /// exceeds the transaction snapshot, the client's last commit (`ht`)
    /// and everything this server has seen (`HLC`), then queue the
    /// transaction as prepared and answer the coordinator, `env.src` — or,
    /// as a decider commit's middle, vote to the decider (module docs).
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_prepare_req(
        &mut self,
        env: &Envelope,
        tx: TxId,
        snapshot: Timestamp,
        ht: Timestamp,
        writes: &[WriteSetEntry],
        src_dc: DcId,
        vote_to: &Option<Box<VoteTo>>,
    ) -> Vec<Envelope> {
        self.stats.prepares += 1;
        // Alg. 3 line 11: ust ← max(ust, snapshot).
        self.ust = self.ust.max(snapshot);
        // Alg. 3 lines 10 & 12: strictly above `ht`, the UST and the
        // previous HLC value, and at least the physical clock.
        let pt = self.hlc.now_after(&self.clock, ht.max(self.ust));
        self.prepared.insert(
            tx,
            PreparedTx {
                pt,
                writes: writes.to_vec(),
                src: src_dc,
            },
        );
        self.prepared_index.insert((pt, tx));
        let vote = Msg::PrepareResp {
            tx,
            partition: self.id.partition,
            proposed: pt,
        };
        let Some(vote_to) = vote_to.as_deref() else {
            return vec![Envelope::new(self.id, env.src, vote)];
        };
        // `pt > ht`, and `ht` carries the coordinator's proposal: this
        // vote is the max over both.
        let vote = match &vote_to.carry {
            None => vote,
            Some(carry) => Msg::CommitOne {
                tx,
                ht: pt,
                writes: carry.writes.clone(),
                src_dc,
                client: carry.client,
                coordinator_share: carry.coordinator_share,
                picked: carry.picked,
                votes: carry.votes,
            },
        };
        vec![Envelope::new(self.id, vote_to.decider, vote)]
    }

    /// `CommitTx` (Alg. 3 lines 15–19): move the transaction from the
    /// prepared to the committed queue under its final commit timestamp.
    pub(super) fn on_commit_tx(&mut self, tx: TxId, ct: Timestamp) -> Vec<Envelope> {
        // Alg. 3 line 16: HLC ← max(HLC, ct, Clock).
        self.hlc.observe(&self.clock, ct);
        let Some(p) = self.prepared.remove(&tx) else {
            self.stats.orphan_commits += 1;
            return Vec::new();
        };
        self.prepared_index.remove(&(p.pt, tx));
        debug_assert!(ct >= p.pt, "commit time below proposal");
        self.committed.insert(
            (ct, tx),
            CommittedTx {
                writes: p.writes,
                src: p.src,
            },
        );
        Vec::new()
    }

    /// `CommitOne` (module docs): decide now, unless the carrying middle
    /// announced votes still to come.
    pub(super) fn on_commit_one(
        &mut self,
        env: &Envelope,
        tx: TxId,
        votes: u32,
        now: u64,
    ) -> Vec<Envelope> {
        if votes == 0 {
            return self.decide(env, Timestamp::ZERO, Vec::new(), now);
        }
        self.ballot(tx, now).carried = Some(env.clone());
        self.decide_if_complete(tx, now)
    }

    /// A middle's vote (`PrepareResp`) for a decider commit this server
    /// decides.
    pub(super) fn on_vote(
        &mut self,
        env: &Envelope,
        tx: TxId,
        proposed: Timestamp,
        now: u64,
    ) -> Vec<Envelope> {
        let Some(voter) = env.src.as_server() else {
            return Vec::new();
        };
        let ballot = self.ballot(tx, now);
        if !ballot.voters.contains(&voter) {
            ballot.voters.push(voter);
            ballot.max_vote = ballot.max_vote.max(proposed);
        }
        self.decide_if_complete(tx, now)
    }

    fn ballot(&mut self, tx: TxId, now: u64) -> &mut Ballot {
        self.ballots.entry(tx).or_insert_with(|| Ballot {
            carried: None,
            voters: Vec::new(),
            max_vote: Timestamp::ZERO,
            since: now,
        })
    }

    /// Decides once the carried share and every vote it announces are in.
    fn decide_if_complete(&mut self, tx: TxId, now: u64) -> Vec<Envelope> {
        let complete = self.ballots.get(&tx).is_some_and(|b| match &b.carried {
            Some(Envelope {
                msg: Msg::CommitOne { votes, .. },
                ..
            }) => *votes as usize == b.voters.len(),
            _ => false,
        });
        if !complete {
            return Vec::new();
        }
        let ballot = self.ballots.remove(&tx).expect("checked above");
        let carried = ballot.carried.expect("checked above");
        self.decide(&carried, ballot.max_vote, ballot.voters, now)
    }

    /// Proposes as [`Server::on_prepare_req`] does, above `ht` and every
    /// vote, commits under the proposal and answers the client — naming
    /// this server's UST when the client picked the snapshot — then every
    /// other participant: the coordinator when it holds a share, the
    /// middle that carried the `CommitOne` and the `voters`.
    fn decide(
        &mut self,
        carried: &Envelope,
        max_vote: Timestamp,
        voters: Vec<ServerId>,
        now: u64,
    ) -> Vec<Envelope> {
        let Msg::CommitOne {
            tx,
            ht,
            writes,
            src_dc,
            client,
            coordinator_share,
            picked,
            ..
        } = &carried.msg
        else {
            unreachable!("a decision is carried by a CommitOne");
        };
        let tx = *tx;
        self.stats.prepares += 1;
        self.stats.txs_coordinated += 1;
        // Alg. 3 lines 10 & 12, and line 16's HLC update with it.
        let ct = self
            .hlc
            .now_after(&self.clock, (*ht).max(max_vote).max(self.ust));
        self.committed.insert(
            (ct, tx),
            CommittedTx {
                writes: writes.clone(),
                src: *src_dc,
            },
        );
        if let Some(log) = self.events.as_mut() {
            log.commits.push((tx, ct, now));
        }
        let msg = Msg::CommitResp {
            tx,
            opening: picked.map(|call| Opening::Picked {
                ust: self.ust,
                call,
            }),
            ct,
        };
        let coordinator = tx.coordinator();
        // A `CommitOne` from another server than the coordinator came from
        // the middle that carried it, which holds a share prepared.
        let carrier = carried.src.as_server().filter(|s| *s != coordinator);
        let shares = coordinator_share.then_some(coordinator).into_iter();
        let mut out = vec![Envelope::new(self.id, *client, msg)];
        out.extend(
            shares
                .chain(carrier)
                .chain(voters)
                .map(|p| Envelope::new(self.id, p, Msg::CommitTx { tx, ct })),
        );
        out
    }

    /// Lowest proposed timestamp among prepared transactions, if any: the
    /// bound that holds this server's watermark below it (Alg. 4 line 7).
    pub fn min_prepared(&self) -> Option<Timestamp> {
        self.prepared_index.iter().next().map(|(pt, _)| *pt)
    }
}
