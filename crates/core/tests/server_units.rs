//! Envelope-level unit tests of the server state machine: one handler at
//! a time, including duplicate, stale and out-of-order message cases that
//! the happy-path protocol tests never produce.

use std::sync::Arc;

use paris_clock::SimClock;
use paris_core::{Mode, Server, ServerOptions, Topology, STALE_CONTEXT_MICROS};
use paris_proto::{
    DigestReport, Endpoint, Envelope, Msg, Opening, ReadKey, ReadOutcome, ReplicatedTx, TxRef,
};
use paris_types::{
    BatchConfig, ClientId, ClusterConfig, DcId, Key, PartitionId, ServerId, Timestamp, TxId, Value,
    VersionStamp, WriteSetEntry,
};

fn topo() -> Arc<Topology> {
    Arc::new(Topology::new(
        ClusterConfig::builder()
            .dcs(3)
            .partitions(6)
            .replication_factor(2)
            .build()
            .unwrap(),
    ))
}

fn server_at(topo: &Arc<Topology>, clock: &SimClock, dc: u16, p: u32, mode: Mode) -> Server {
    Server::new(ServerOptions {
        id: ServerId::new(DcId(dc), PartitionId(p)),
        topology: Arc::clone(topo),
        clock: Box::new(clock.clone()),
        mode,
        record_events: true,
    })
}

/// A heartbeat: a replication push with no transactions.
fn heartbeat(partition: u32, watermark: u64) -> Msg {
    Msg::Replicate {
        partition: PartitionId(partition),
        txs: vec![],
        watermark: Timestamp::from_physical_micros(watermark),
    }
}

fn is_heartbeat(msg: &Msg) -> bool {
    matches!(msg, Msg::Replicate { txs, .. } if txs.is_empty())
}

/// A one-entry digest, as a server sends its report, GST or UST.
fn digest(
    reports: Vec<DigestReport>,
    roots: Vec<(DcId, Timestamp, Timestamp)>,
    ust: Option<(Timestamp, Timestamp)>,
) -> Msg {
    Msg::GossipDigest {
        reports,
        roots,
        ust,
        frames: 1,
    }
}

fn ust_broadcast(ust: Timestamp, s_old: Timestamp) -> Msg {
    digest(vec![], vec![], Some((ust, s_old)))
}

fn client() -> ClientId {
    ClientId::new(DcId(0), 0)
}

fn start_tx(server: &mut Server, client_ust: u64) -> (TxId, Timestamp) {
    let env = Envelope::new(
        client(),
        server.id(),
        Msg::StartTxReq {
            client_ust: Timestamp::from_physical_micros(client_ust),
        },
    );
    let out = server.handle(&env, 0);
    assert_eq!(out.len(), 1);
    match &out[0].msg {
        Msg::StartTxResp { tx, snapshot } => (*tx, *snapshot),
        other => panic!("expected StartTxResp, got {}", other.kind()),
    }
}

#[test]
fn start_assigns_snapshot_from_ust_in_paris_mode() {
    let topo = topo();
    let clock = SimClock::new();
    clock.advance_to(50_000);
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    // Fresh server: ust = 0, so the snapshot is 0 regardless of the clock.
    let (_, snap) = start_tx(&mut s, 0);
    assert_eq!(snap, Timestamp::ZERO);
    // The client's piggybacked ust pulls the server's ust forward
    // (Alg. 2 line 2).
    let (_, snap) = start_tx(&mut s, 30_000);
    assert_eq!(snap.physical_micros(), 30_000);
    assert_eq!(s.ust().physical_micros(), 30_000);
}

#[test]
fn start_assigns_fresh_clock_snapshot_in_bpr_mode() {
    let topo = topo();
    let clock = SimClock::new();
    clock.advance_to(50_000);
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Bpr);
    let (_, snap) = start_tx(&mut s, 0);
    assert_eq!(snap.physical_micros(), 50_000, "BPR snapshot ≈ now");
}

#[test]
fn transaction_ids_are_unique_and_coordinator_tagged() {
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 1, 1, Mode::Paris);
    let (t1, _) = start_tx(&mut s, 0);
    let (t2, _) = start_tx(&mut s, 0);
    assert_ne!(t1, t2);
    assert_eq!(t1.coordinator(), s.id());
    assert_eq!(s.open_transactions(), 2);
}

#[test]
fn read_req_for_unknown_tx_fails_the_operation() {
    // E.g. after the coordinator restarted: an empty `ReadResp` would make
    // the requested keys silently vanish from the client's result.
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let bogus = TxId::new(s.id(), 999);
    let out = s.handle(
        &Envelope::new(
            client(),
            s.id(),
            Msg::ReadReq {
                tx: TxRef::Known(bogus),
                keys: vec![Key(0).into()],
            },
        ),
        0,
    );
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].dst, Endpoint::Client(client()));
    assert_eq!(
        out[0].msg,
        Msg::OpFailed {
            tx: bogus,
            opening: None
        }
    );
}

#[test]
fn commit_req_for_unknown_tx_fails_instead_of_faking_success() {
    // `CommitResp { ct: ZERO }` here told the client its writes committed
    // when they were dropped.
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let bogus = TxId::new(s.id(), 999);
    let out = s.handle(
        &Envelope::new(
            client(),
            s.id(),
            Msg::CommitReq {
                tx: TxRef::Known(bogus),
                hwt: Timestamp::ZERO,
                writes: vec![WriteSetEntry::new(Key(0), Value::from("lost"))],
            },
        ),
        0,
    );
    assert_eq!(
        out.iter().map(|e| &e.msg).collect::<Vec<_>>(),
        [&Msg::OpFailed {
            tx: bogus,
            opening: None
        }]
    );
    assert_eq!(s.stats().prepares, 0);
}

#[test]
fn a_start_form_read_begins_the_transaction_and_names_its_snapshot() {
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let ust = Timestamp::from_physical_micros(30_000);
    let out = s.handle(
        &Envelope::new(
            client(),
            s.id(),
            Msg::ReadReq {
                tx: TxRef::Start { client_ust: ust },
                keys: vec![Key(2).into()],
            },
        ),
        0,
    );
    // Assigned exactly as a `StartTxReq` would (Alg. 2 line 2), and the
    // context is open before the fan-out.
    assert_eq!(s.ust(), ust);
    assert_eq!(s.open_transactions(), 1);
    let [Envelope {
        msg: Msg::ReadSliceReq { tx, snapshot, .. },
        ..
    }] = out.as_slice()
    else {
        panic!("expected one ReadSliceReq, got {out:?}");
    };
    assert_eq!((*snapshot, tx.coordinator()), (ust, s.id()));
    let out = s.handle(
        &Envelope::new(
            ServerId::new(DcId(0), PartitionId(2)),
            s.id(),
            Msg::ReadSliceResp {
                tx: *tx,
                partition: PartitionId(2),
                results: vec![],
            },
        ),
        0,
    );
    assert_eq!(
        out[0].msg,
        Msg::ReadResp {
            tx: *tx,
            opening: Some(Opening::Start { snapshot: ust }),
            results: vec![]
        }
    );
}

#[test]
fn a_stamp_above_the_assigned_snapshot_is_answered_without_any_slice_read() {
    // A start-form read carries the client's own writes stamped: the
    // client could not prune WC_c against a snapshot it did not know.
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let ust = Timestamp::from_physical_micros(30_000);
    let own = |ut: u64| {
        Some(VersionStamp {
            ut: Timestamp::from_physical_micros(ut),
            tx: TxId::new(s.id(), 1),
        })
    };
    let keys = vec![
        // Partition 1: an own write the snapshot does not hold.
        ReadKey {
            key: Key(1),
            held: own(30_001),
        },
        // Partition 2: one it does — the cohort decides.
        ReadKey {
            key: Key(2),
            held: own(29_000),
        },
    ];
    let out = s.handle(
        &Envelope::new(
            client(),
            s.id(),
            Msg::ReadReq {
                tx: TxRef::Start { client_ust: ust },
                keys: keys.clone(),
            },
        ),
        0,
    );
    let slices: Vec<&Vec<ReadKey>> = out
        .iter()
        .map(|e| match &e.msg {
            Msg::ReadSliceReq { keys, .. } => keys,
            other => panic!("expected ReadSliceReq, got {}", other.kind()),
        })
        .collect();
    assert_eq!(slices, [&vec![keys[1]]], "only key 2 fans out");
    let Msg::ReadSliceReq { tx, .. } = out[0].msg else {
        unreachable!()
    };
    let out = s.handle(
        &Envelope::new(
            ServerId::new(DcId(0), PartitionId(2)),
            s.id(),
            Msg::ReadSliceResp {
                tx,
                partition: PartitionId(2),
                results: vec![paris_proto::ReadResult {
                    key: Key(2),
                    outcome: ReadOutcome::Unchanged,
                }],
            },
        ),
        0,
    );
    let Msg::ReadResp {
        opening, results, ..
    } = &out[0].msg
    else {
        panic!("expected ReadResp");
    };
    assert_eq!(*opening, Some(Opening::Start { snapshot: ust }));
    let outcomes: Vec<(Key, &ReadOutcome)> = results.iter().map(|r| (r.key, &r.outcome)).collect();
    assert_eq!(
        outcomes,
        [
            (Key(1), &ReadOutcome::Unchanged),
            (Key(2), &ReadOutcome::Unchanged)
        ]
    );

    // All of a read's keys above the snapshot: answered at once.
    let out = s.handle(
        &Envelope::new(
            client(),
            s.id(),
            Msg::ReadReq {
                tx: TxRef::Start { client_ust: ust },
                keys: vec![keys[0]],
            },
        ),
        0,
    );
    assert!(matches!(
        &out[..],
        [Envelope {
            msg: Msg::ReadResp { opening: Some(Opening::Start { snapshot: snap }), .. },
            ..
        }] if *snap == ust
    ));
    assert_eq!(s.stats().slice_reads, 0);
}

#[test]
fn a_start_form_commit_names_the_snapshot_it_committed_on() {
    let topo = topo();
    let clock = SimClock::new();
    clock.advance_to(10_000);
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let ust = Timestamp::from_physical_micros(5_000);
    let commit = |writes| {
        Envelope::new(
            client(),
            ServerId::new(DcId(0), PartitionId(0)),
            Msg::CommitReq {
                tx: TxRef::Start { client_ust: ust },
                hwt: Timestamp::ZERO,
                writes,
            },
        )
    };
    // Nothing to write: assigned, answered, and no context left behind.
    let out = s.handle(&commit(vec![]), 0);
    assert!(matches!(
        out[0].msg,
        Msg::CommitResp { opening: Some(Opening::Start { snapshot: snap }), ct, .. } if snap == ust && ct == Timestamp::ZERO
    ));
    assert_eq!(s.open_transactions(), 0);
    // A write-only transaction on the coordinator's own partition: one
    // round trip for start, commit and reply — all of it in place.
    let out = s.handle(
        &commit(vec![WriteSetEntry::new(Key(0), Value::from("w"))]),
        0,
    );
    assert!(matches!(
        &out[..],
        [Envelope {
            dst: Endpoint::Client(_),
            msg: Msg::CommitResp { opening: Some(Opening::Start { snapshot: snap }), ct, .. },
            ..
        }] if *snap == ust && *ct > ust
    ));
    assert_eq!(s.open_transactions(), 0);
    // On another partition it keeps 2PC: the participant's proposal comes
    // back to the coordinator, whose reply names the snapshot.
    let participant = ServerId::new(DcId(0), PartitionId(2));
    let out = s.handle(
        &commit(vec![WriteSetEntry::new(Key(2), Value::from("w"))]),
        0,
    );
    let [Envelope {
        dst,
        msg: Msg::PrepareReq { tx, .. },
        ..
    }] = &out[..]
    else {
        panic!("expected one PrepareReq, got {out:?}");
    };
    assert_eq!(*dst, Endpoint::Server(participant));
    assert_eq!(s.open_transactions(), 1, "held for the snapshot");
    let out = s.handle(
        &Envelope::new(
            ServerId::new(DcId(0), PartitionId(2)),
            s.id(),
            Msg::PrepareResp {
                tx: *tx,
                partition: PartitionId(2),
                proposed: Timestamp::from_physical_micros(10_001),
            },
        ),
        0,
    );
    assert_eq!(
        out.iter().map(|e| (e.dst, &e.msg)).collect::<Vec<_>>(),
        [
            (
                Endpoint::Server(participant),
                &Msg::CommitTx {
                    tx: *tx,
                    ct: Timestamp::from_physical_micros(10_001)
                }
            ),
            (
                Endpoint::Client(client()),
                &Msg::CommitResp {
                    tx: *tx,
                    opening: Some(Opening::Start { snapshot: ust }),
                    ct: Timestamp::from_physical_micros(10_001)
                }
            )
        ]
    );
    assert_eq!(s.open_transactions(), 0);

    // The own partition plus another keeps 2PC too, the coordinator's
    // share prepared in place: one PrepareReq, to p2 only.
    let prepares = s.stats().prepares;
    let out = s.handle(
        &commit(vec![
            WriteSetEntry::new(Key(0), Value::from("a")),
            WriteSetEntry::new(Key(2), Value::from("b")),
        ]),
        0,
    );
    let [Envelope {
        dst,
        msg: Msg::PrepareReq { tx, .. },
        ..
    }] = &out[..]
    else {
        panic!("expected one PrepareReq, got {out:?}");
    };
    assert_eq!(*dst, Endpoint::Server(participant));
    assert_eq!(
        s.stats().prepares,
        prepares + 1,
        "the own share is prepared"
    );
    let own = s.min_prepared().expect("the own share waits prepared");
    // A low remote proposal: the own one is the max, and phase two goes to
    // p2 only, at the same `ct` as the reply.
    let out = s.handle(
        &Envelope::new(
            participant,
            s.id(),
            Msg::PrepareResp {
                tx: *tx,
                partition: PartitionId(2),
                proposed: Timestamp::from_physical_micros(1),
            },
        ),
        0,
    );
    assert_eq!(
        out.iter().map(|e| (e.dst, &e.msg)).collect::<Vec<_>>(),
        [
            (
                Endpoint::Server(participant),
                &Msg::CommitTx { tx: *tx, ct: own }
            ),
            (
                Endpoint::Client(client()),
                &Msg::CommitResp {
                    tx: *tx,
                    opening: Some(Opening::Start { snapshot: ust }),
                    ct: own
                }
            )
        ]
    );
    assert_eq!(s.open_transactions(), 0);
    // The own share committed in place at that `ct`: the next tick
    // applies it.
    assert_eq!(s.min_prepared(), None);
    s.on_replicate_tick(0);
    assert_eq!(s.store().latest(Key(0)).unwrap().ut, own);
}

#[test]
fn read_fan_out_targets_one_replica_per_partition() {
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let (tx, _) = start_tx(&mut s, 0);
    // Keys on partitions 0..6: exactly one slice request per partition.
    // One key carries the client's held-version stamp.
    let held = Some(VersionStamp {
        ut: Timestamp::from_physical_micros(7),
        tx,
    });
    let mut keys: Vec<ReadKey> = (0..12).map(|k| Key(k).into()).collect();
    keys[7].held = held;
    let out = s.handle(
        &Envelope::new(
            client(),
            s.id(),
            Msg::ReadReq {
                tx: TxRef::Known(tx),
                keys,
            },
        ),
        0,
    );
    // The coordinator's own partition 0 is read in place.
    assert_eq!(out.len(), 5);
    let mut partitions: Vec<u32> = out
        .iter()
        .map(|e| e.dst.as_server().unwrap().partition.0)
        .collect();
    partitions.sort_unstable();
    assert_eq!(partitions, vec![1, 2, 3, 4, 5]);
    assert_eq!(s.stats().slice_reads, 1);
    for env in &out {
        let dst = env.dst.as_server().unwrap();
        assert!(topo.is_replicated_at(dst.partition, dst.dc));
        match &env.msg {
            Msg::ReadSliceReq { keys, .. } => {
                assert_eq!(env.src, Endpoint::Server(s.id()));
                // The stamp is relayed with its key, and only with it.
                for k in keys {
                    assert_eq!(k.held, if k.key == Key(7) { held } else { None });
                }
            }
            other => panic!("expected ReadSliceReq, got {}", other.kind()),
        }
    }
}

#[test]
fn duplicate_read_slice_resp_is_ignored() {
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let (tx, _) = start_tx(&mut s, 0);
    let out = s.handle(
        &Envelope::new(
            client(),
            s.id(),
            Msg::ReadReq {
                tx: TxRef::Known(tx),
                keys: vec![Key(2).into(), Key(3).into()],
            },
        ),
        0,
    );
    assert_eq!(out.len(), 2);
    let from_p2 = Envelope::new(
        ServerId::new(DcId(0), PartitionId(2)),
        s.id(),
        Msg::ReadSliceResp {
            tx,
            partition: PartitionId(2),
            results: vec![],
        },
    );
    // First copy: still waiting for partition 3 → no client reply.
    assert!(s.handle(&from_p2, 0).is_empty());
    // Duplicate: still nothing, and no panic/double-count.
    assert!(s.handle(&from_p2, 0).is_empty());
    // The real second partition completes the read.
    let from_p3 = Envelope::new(
        ServerId::new(DcId(0), PartitionId(3)),
        s.id(),
        Msg::ReadSliceResp {
            tx,
            partition: PartitionId(3),
            results: vec![],
        },
    );
    let out = s.handle(&from_p3, 0);
    assert_eq!(out.len(), 1);
    assert!(matches!(out[0].msg, Msg::ReadResp { .. }));
}

#[test]
fn stale_read_slice_resp_after_tx_finished_is_dropped() {
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let (tx, _) = start_tx(&mut s, 0);
    // Finish the tx (read-only commit drops the context).
    let out = s.handle(
        &Envelope::new(
            client(),
            s.id(),
            Msg::CommitReq {
                tx: TxRef::Known(tx),
                hwt: Timestamp::ZERO,
                writes: vec![],
            },
        ),
        0,
    );
    assert!(matches!(out[0].msg, Msg::CommitResp { .. }));
    assert_eq!(s.open_transactions(), 0);
    // A late slice response must be ignored.
    let late = Envelope::new(
        ServerId::new(DcId(0), PartitionId(1)),
        s.id(),
        Msg::ReadSliceResp {
            tx,
            partition: PartitionId(1),
            results: vec![],
        },
    );
    assert!(s.handle(&late, 0).is_empty());
}

#[test]
fn commit_collects_max_proposal_and_notifies_cohorts_and_client() {
    let topo = topo();
    let clock = SimClock::new();
    clock.advance_to(10_000);
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let (tx, _) = start_tx(&mut s, 0);
    // Two remote participants (the own partition 0 is not written): full
    // 2PC, the coordinator decides.
    let writes = vec![
        WriteSetEntry::new(Key(2), Value::from("a")), // partition 2
        WriteSetEntry::new(Key(3), Value::from("b")), // partition 3
    ];
    let out = s.handle(
        &Envelope::new(
            client(),
            s.id(),
            Msg::CommitReq {
                tx: TxRef::Known(tx),
                hwt: Timestamp::ZERO,
                writes,
            },
        ),
        0,
    );
    assert_eq!(out.len(), 2, "one PrepareReq per partition");
    // Answer with two different proposals; the commit must pick the max.
    let p1 = Timestamp::from_physical_micros(11_000);
    let p2 = Timestamp::from_physical_micros(12_345);
    assert!(s
        .handle(
            &Envelope::new(
                ServerId::new(DcId(0), PartitionId(2)),
                s.id(),
                Msg::PrepareResp {
                    tx,
                    partition: PartitionId(2),
                    proposed: p1
                },
            ),
            0,
        )
        .is_empty());
    let out = s.handle(
        &Envelope::new(
            ServerId::new(DcId(0), PartitionId(3)),
            s.id(),
            Msg::PrepareResp {
                tx,
                partition: PartitionId(3),
                proposed: p2,
            },
        ),
        0,
    );
    // 2 CommitTx + 1 CommitResp.
    assert_eq!(out.len(), 3);
    let commit_ts: Vec<Timestamp> = out
        .iter()
        .filter_map(|e| match &e.msg {
            Msg::CommitTx { ct, .. } => Some(*ct),
            Msg::CommitResp { ct, .. } => Some(*ct),
            _ => None,
        })
        .collect();
    assert!(commit_ts.iter().all(|ct| *ct == p2), "max proposal wins");
    assert_eq!(s.open_transactions(), 0, "context cleared (Alg. 2 line 28)");
    assert_eq!(s.stats().txs_coordinated, 1);
}

/// A plain commit of `writes` in a fresh transaction at `s`, whose
/// client has already committed at `hwt`.
fn commit_known(s: &mut Server, hwt: u64, writes: Vec<WriteSetEntry>) -> (TxId, Vec<Envelope>) {
    let (tx, _) = start_tx(s, 0);
    let out = s.handle(
        &Envelope::new(
            client(),
            s.id(),
            Msg::CommitReq {
                tx: TxRef::Known(tx),
                hwt: Timestamp::from_physical_micros(hwt),
                writes,
            },
        ),
        0,
    );
    (tx, out)
}

/// A picked commit opens its context at the client's snapshot and keeps
/// the one-phase and last-agent shortcuts: whichever server answers names
/// its own UST where a start form's reply names the snapshot.
#[test]
fn a_picked_commit_is_answered_with_the_answering_servers_ust() {
    let topo = topo();
    let clock = SimClock::new();
    clock.advance_to(10_000);
    let mut coordinator = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let mut participant = server_at(&topo, &clock, 0, 2, Mode::Paris);
    let root = ServerId::new(DcId(0), PartitionId(0));
    let (low, high) = (ts(3_000), ts(4_000));
    for (server, ust) in [(&mut coordinator, low), (&mut participant, high)] {
        server.handle(
            &Envelope::new(root, server.id(), ust_broadcast(ust, ust)),
            0,
        );
    }
    let picked = |writes| {
        let commit = Msg::CommitReq {
            tx: TxRef::Picked {
                snapshot: ts(2_000),
                call: 7,
            },
            hwt: Timestamp::ZERO,
            writes,
        };
        Envelope::new(client(), ServerId::new(DcId(0), PartitionId(0)), commit)
    };
    let reply = |out: &[Envelope]| match out {
        [Envelope {
            dst: Endpoint::Client(_),
            msg: Msg::CommitResp { tx, opening, ct },
            ..
        }] => (*tx, *opening, *ct),
        other => panic!("expected one CommitResp, got {other:?}"),
    };

    // Read-only: the coordinator answers at once, with its UST.
    let answered = |ust| Some(Opening::Picked { ust, call: 7 });
    let (_, opening, ct) = reply(&coordinator.handle(&picked(vec![]), 0));
    assert_eq!((opening, ct), (answered(low), Timestamp::ZERO));

    // One remote partition: a picked `CommitOne`, answered by the
    // participant with its UST.
    let write = WriteSetEntry::new(Key(2), Value::from("w"));
    let out = coordinator.handle(&picked(vec![write.clone()]), 0);
    let [forward] = &out[..] else {
        panic!("expected one forward, got {out:?}");
    };
    let Msg::CommitOne {
        tx,
        ht,
        coordinator_share: false,
        picked: Some(7),
        ..
    } = forward.msg
    else {
        panic!("expected a picked CommitOne, got {forward:?}");
    };
    assert_eq!(ht, ts(2_000), "ht is the picked snapshot");
    assert_eq!(coordinator.open_transactions(), 0);
    let (t, opening, ct) = reply(&participant.handle(forward, 0));
    assert_eq!((t, opening), (tx, answered(high)));
    assert!(ct > high);

    // The own partition and one other: last agent, the decider answers.
    let both = vec![WriteSetEntry::new(Key(0), Value::from("a")), write];
    let out = coordinator.handle(&picked(both), 0);
    let [forward] = &out[..] else {
        panic!("expected one forward, got {out:?}");
    };
    assert!(matches!(
        forward.msg,
        Msg::CommitOne {
            coordinator_share: true,
            picked: Some(7),
            ..
        }
    ));
    let out = participant.handle(forward, 0);
    let to_client: Vec<Envelope> = out
        .into_iter()
        .filter(|e| matches!(e.dst, Endpoint::Client(_)))
        .collect();
    assert_eq!(reply(&to_client).1, answered(high));
}

#[test]
fn a_remote_single_partition_commit_is_one_forward_and_a_direct_reply() {
    let topo = topo();
    let clock = SimClock::new();
    clock.advance_to(10_000);
    let mut coordinator = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let mut participant = server_at(&topo, &clock, 0, 2, Mode::Paris);
    // The participant announces a watermark first (Alg. 4 line 18).
    let announced = participant
        .on_replicate_tick(0)
        .iter()
        .find_map(|e| match &e.msg {
            Msg::Replicate { watermark, .. } if is_heartbeat(&e.msg) => Some(*watermark),
            _ => None,
        })
        .expect("a heartbeat to the peer replica");

    let write = WriteSetEntry::new(Key(2), Value::from("one"));
    let (tx, out) = commit_known(&mut coordinator, 9_000, vec![write.clone()]);
    let ht = Timestamp::from_physical_micros(9_000);
    // Exactly one forward, and the context is gone (Alg. 2 line 28).
    let [forward] = &out[..] else {
        panic!("expected one forward, got {out:?}");
    };
    assert_eq!(forward.dst, Endpoint::Server(participant.id()));
    assert_eq!(
        forward.msg,
        Msg::CommitOne {
            tx,
            ht,
            writes: vec![write],
            src_dc: DcId(0),
            client: client(),
            coordinator_share: false,
            picked: None,
        }
    );
    assert_eq!(coordinator.open_transactions(), 0);

    // The participant's proposal is the commit time, and it answers the
    // client itself.
    let out = participant.handle(forward, 0);
    let [Envelope {
        dst: Endpoint::Client(c),
        msg:
            Msg::CommitResp {
                tx: t,
                opening: None,
                ct,
            },
        ..
    }] = &out[..]
    else {
        panic!("expected one CommitResp to the client, got {out:?}");
    };
    assert_eq!((*c, *t), (client(), tx));
    assert!(*ct > ht, "above ht");
    assert!(*ct > announced, "above the announced watermark (Prop. 2)");
    assert_eq!(participant.stats().txs_coordinated, 1);
    assert_eq!(participant.events().unwrap().commits, [(tx, *ct, 0)]);
    // Committed, not prepared: the next tick applies it.
    participant.on_replicate_tick(0);
    assert_eq!(participant.store().latest(Key(2)).unwrap().ut, *ct);
}

#[test]
fn a_local_single_partition_commit_emits_only_the_client_reply() {
    let topo = topo();
    let clock = SimClock::new();
    clock.advance_to(10_000);
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let (tx, out) = commit_known(
        &mut s,
        0,
        vec![WriteSetEntry::new(Key(0), Value::from("x"))],
    );
    let [Envelope {
        dst: Endpoint::Client(_),
        msg:
            Msg::CommitResp {
                tx: t,
                opening: None,
                ct,
            },
        ..
    }] = &out[..]
    else {
        panic!("expected only the CommitResp, got {out:?}");
    };
    assert_eq!(*t, tx);
    assert!(ct.physical_micros() >= 10_000);
    assert_eq!(s.open_transactions(), 0);
    s.on_replicate_tick(0);
    assert_eq!(s.store().latest(Key(0)).unwrap().ut, *ct);
}

#[test]
fn the_coordinators_own_partition_is_read_and_committed_in_place() {
    let topo = topo();
    let clock = SimClock::new();
    clock.advance_to(10_000);
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let remote = ServerId::new(DcId(0), PartitionId(2));
    let only_remote = |out: &[Envelope]| {
        out.iter()
            .filter_map(|e| e.dst.as_server())
            .all(|dst| dst == remote)
    };

    // A read of partitions 0 (own) and 2: one slice request, to p2.
    let (tx, _) = start_tx(&mut s, 0);
    let out = s.handle(
        &Envelope::new(
            client(),
            s.id(),
            Msg::ReadReq {
                tx: TxRef::Known(tx),
                keys: vec![Key(0).into(), Key(2).into()],
            },
        ),
        0,
    );
    assert_eq!(out.len(), 1);
    assert!(only_remote(&out));
    let out = s.handle(
        &Envelope::new(
            remote,
            s.id(),
            Msg::ReadSliceResp {
                tx,
                partition: PartitionId(2),
                results: vec![paris_proto::ReadResult {
                    key: Key(2),
                    outcome: ReadOutcome::Absent,
                }],
            },
        ),
        0,
    );
    let [Envelope {
        msg: Msg::ReadResp { results, .. },
        ..
    }] = &out[..]
    else {
        panic!("expected the ReadResp, got {out:?}");
    };
    assert_eq!(results.len(), 2, "the local slice was folded in");

    // A commit over partitions 0 and 2: prepared here in place, and one
    // CommitOne hands p2 the decision, the own proposal riding in `ht`.
    let writes = vec![
        WriteSetEntry::new(Key(0), Value::from("a")),
        WriteSetEntry::new(Key(2), Value::from("b")),
    ];
    let open = s.open_transactions();
    let (tx, out) = commit_known(&mut s, 0, writes);
    let [Envelope {
        msg:
            Msg::CommitOne {
                ht: pt_c,
                coordinator_share: true,
                ..
            },
        ..
    }] = &out[..]
    else {
        panic!("expected one CommitOne, got {out:?}");
    };
    assert!(only_remote(&out));
    assert_eq!(s.stats().prepares, 1, "the own share is prepared");
    assert_eq!(s.min_prepared(), Some(*pt_c));
    assert_eq!(
        s.open_transactions(),
        open,
        "the decider answers the client"
    );
    // The decision comes back: the own share commits in place, and the
    // next tick applies it.
    let ct = Timestamp::from_physical_micros(pt_c.physical_micros() + 1);
    assert!(s
        .handle(&Envelope::new(remote, s.id(), Msg::CommitTx { tx, ct }), 0)
        .is_empty());
    assert_eq!(s.min_prepared(), None);
    s.on_replicate_tick(0);
    assert_eq!(s.store().latest(Key(0)).unwrap().ut, ct);
}

/// The coordinator's own partition plus one other: the last-agent commit.
#[test]
fn a_two_partition_commit_with_the_own_share_is_decided_by_the_other_participant() {
    let topo = topo();
    let clock = SimClock::new();
    clock.advance_to(10_000);
    let mut coordinator = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let mut participant = server_at(&topo, &clock, 0, 2, Mode::Paris);

    let writes = vec![
        WriteSetEntry::new(Key(0), Value::from("own")),
        WriteSetEntry::new(Key(2), Value::from("other")),
    ];
    // Envelope 1: the CommitReq. Envelope 2: the only thing it sends.
    let (tx, out) = commit_known(&mut coordinator, 9_000, writes);
    let [forward] = &out[..] else {
        panic!("expected one forward, got {out:?}");
    };
    assert_eq!(forward.dst, Endpoint::Server(participant.id()));
    let Msg::CommitOne {
        ht: pt_c,
        ref writes,
        coordinator_share: true,
        ..
    } = forward.msg
    else {
        panic!("expected a CommitOne with the coordinator's share");
    };
    assert_eq!(writes, &[WriteSetEntry::new(Key(2), Value::from("other"))]);
    assert!(pt_c > Timestamp::from_physical_micros(9_000), "above ht");
    assert_eq!(coordinator.open_transactions(), 0, "the context is gone");
    assert_eq!(coordinator.min_prepared(), Some(pt_c));
    assert_eq!(coordinator.stats().txs_coordinated, 0, "it decides nothing");

    // Envelopes 3 and 4: the participant answers the client and the
    // coordinator.
    let out = participant.handle(forward, 0);
    let [Envelope {
        dst: Endpoint::Client(c),
        msg: Msg::CommitResp { ct, .. },
        ..
    }, back] = &out[..]
    else {
        panic!("expected CommitResp + CommitTx, got {out:?}");
    };
    assert_eq!(*c, client());
    assert_eq!(back.dst, Endpoint::Server(coordinator.id()));
    assert_eq!(back.msg, Msg::CommitTx { tx, ct: *ct });
    assert!(*ct > pt_c, "the max over both proposals is the decider's");
    assert_eq!(participant.stats().txs_coordinated, 1);
    assert_eq!(participant.events().unwrap().commits, [(tx, *ct, 0)]);

    // Until the decision lands, the prepared share holds the coordinator's
    // watermark below its proposal.
    clock.advance_to(50_000);
    coordinator.on_replicate_tick(0);
    assert_eq!(coordinator.min_prepared(), Some(pt_c));
    assert!(coordinator.version_vector()[&DcId(0)] < pt_c);
    assert!(coordinator.store().latest(Key(0)).is_none());

    // Then both shares apply at exactly `ct`.
    assert!(coordinator.handle(back, 0).is_empty());
    assert_eq!(coordinator.min_prepared(), None);
    coordinator.on_replicate_tick(0);
    participant.on_replicate_tick(0);
    assert_eq!(coordinator.store().latest(Key(0)).unwrap().ut, *ct);
    assert_eq!(participant.store().latest(Key(2)).unwrap().ut, *ct);
    let prepares = coordinator.stats().prepares + participant.stats().prepares;
    assert_eq!(prepares, 2);
    assert_eq!(coordinator.stats().orphan_commits, 0);
}

#[test]
fn a_commit_tx_with_no_prepared_share_is_counted() {
    // A restarted participant, say: the decision finds nothing to commit.
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let coordinator = ServerId::new(DcId(0), PartitionId(3));
    let stray = Msg::CommitTx {
        tx: TxId::new(coordinator, 7),
        ct: Timestamp::from_physical_micros(5_000),
    };
    assert!(s
        .handle(&Envelope::new(coordinator, s.id(), stray), 0)
        .is_empty());
    assert_eq!(s.stats().orphan_commits, 1);
    assert_eq!(s.min_prepared(), None);
}

#[test]
fn cohort_prepare_proposes_above_ht_snapshot_and_ust() {
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let coordinator = ServerId::new(DcId(0), PartitionId(3));
    let tx = TxId::new(coordinator, 1);
    let snapshot = Timestamp::from_physical_micros(5_000);
    let ht = Timestamp::from_physical_micros(9_000);
    let out = s.handle(
        &Envelope::new(
            coordinator,
            s.id(),
            Msg::PrepareReq {
                tx,
                snapshot,
                ht,
                writes: vec![WriteSetEntry::new(Key(0), Value::from("x"))],
                src_dc: DcId(0),
            },
        ),
        0,
    );
    assert_eq!(out.len(), 1);
    let proposed = match &out[0].msg {
        Msg::PrepareResp { proposed, .. } => *proposed,
        other => panic!("expected PrepareResp, got {}", other.kind()),
    };
    assert!(proposed > ht, "proposal reflects session order");
    assert!(proposed > snapshot, "proposal above the snapshot (Lemma 1)");
    assert!(s.ust() >= snapshot, "Alg. 3 line 11 updates the ust");
}

#[test]
fn cohort_commit_applies_on_next_replicate_tick_in_ct_order() {
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let coordinator = ServerId::new(DcId(0), PartitionId(3));
    // Two transactions prepared, committed out of order.
    let mut cts = Vec::new();
    for seq in 0..2 {
        let tx = TxId::new(coordinator, seq);
        let out = s.handle(
            &Envelope::new(
                coordinator,
                s.id(),
                Msg::PrepareReq {
                    tx,
                    snapshot: Timestamp::ZERO,
                    ht: Timestamp::ZERO,
                    writes: vec![WriteSetEntry::new(Key(0), Value::filled(8, seq))],
                    src_dc: DcId(0),
                },
            ),
            0,
        );
        let proposed = match &out[0].msg {
            Msg::PrepareResp { proposed, .. } => *proposed,
            _ => unreachable!(),
        };
        cts.push((tx, proposed));
    }
    // Commit the SECOND one first: nothing applies while tx0 is prepared.
    s.handle(
        &Envelope::new(
            coordinator,
            s.id(),
            Msg::CommitTx {
                tx: cts[1].0,
                ct: cts[1].1,
            },
        ),
        0,
    );
    let out = s.on_replicate_tick(10);
    assert!(
        out.iter().all(|e| is_heartbeat(&e.msg)),
        "tx1 must wait behind tx0's outstanding proposal"
    );
    assert!(s.store().latest(Key(0)).is_none());
    // Now commit tx0: the next tick applies both, in ct order.
    s.handle(
        &Envelope::new(
            coordinator,
            s.id(),
            Msg::CommitTx {
                tx: cts[0].0,
                ct: cts[0].1,
            },
        ),
        0,
    );
    let out = s.on_replicate_tick(20);
    let replicate = out
        .iter()
        .find_map(|e| match &e.msg {
            Msg::Replicate { txs, .. } => Some(txs.clone()),
            _ => None,
        })
        .expect("a replication batch");
    assert_eq!(replicate.len(), 2);
    assert!(replicate[0].ct < replicate[1].ct, "ascending ct order");
    assert_eq!(s.stats().applied_local, 2);
}

#[test]
fn replicate_batch_applies_and_advances_peer_clock() {
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 1, 0, Mode::Paris); // replica of p0 at dc1
    let peer = ServerId::new(DcId(0), PartitionId(0));
    let tx = TxId::new(ServerId::new(DcId(0), PartitionId(3)), 1);
    let ct = Timestamp::from_physical_micros(7_000);
    let out = s.handle(
        &Envelope::new(
            peer,
            s.id(),
            Msg::Replicate {
                partition: PartitionId(0),
                txs: vec![ReplicatedTx {
                    tx,
                    ct,
                    src: DcId(0),
                    writes: vec![WriteSetEntry::new(Key(0), Value::from("r"))],
                }],
                watermark: Timestamp::from_physical_micros(8_000),
            },
        ),
        0,
    );
    assert!(out.is_empty(), "PaRiS replication produces no responses");
    assert_eq!(s.store().latest(Key(0)).unwrap().ut, ct);
    assert_eq!(
        s.version_vector()[&DcId(0)],
        Timestamp::from_physical_micros(8_000)
    );
    assert_eq!(s.stats().applied_remote, 1);
}

#[test]
fn heartbeat_advances_clock_without_data() {
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 1, 0, Mode::Paris);
    let peer = ServerId::new(DcId(0), PartitionId(0));
    s.handle(&Envelope::new(peer, s.id(), heartbeat(0, 9_000)), 0);
    assert_eq!(
        s.version_vector()[&DcId(0)],
        Timestamp::from_physical_micros(9_000)
    );
    assert_eq!(s.store().stats().versions, 0);
}

#[test]
fn bpr_read_blocks_then_drains_in_blocked_order() {
    let topo = topo();
    let clock = SimClock::new();
    clock.advance_to(10_000);
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Bpr);
    let coordinator = ServerId::new(DcId(0), PartitionId(3));
    // Two reads at increasing snapshots, both above the installed
    // watermark (0): both block.
    for (seq, snap) in [(1u64, 4_000u64), (2, 6_000)] {
        let out = s.handle(
            &Envelope::new(
                coordinator,
                s.id(),
                Msg::ReadSliceReq {
                    tx: TxId::new(coordinator, seq),
                    snapshot: Timestamp::from_physical_micros(snap),
                    keys: vec![Key(0).into()],
                },
            ),
            100,
        );
        assert!(out.is_empty());
    }
    assert_eq!(s.blocked_reads_now(), 2);
    // Watermark to 5_000: only the first read drains.
    let peer = ServerId::new(DcId(1), PartitionId(0));
    s.handle(&Envelope::new(peer, s.id(), heartbeat(0, 5_000)), 200);
    // Local clock must also advance: replicate tick raises VV[own].
    let out = s.on_replicate_tick(300);
    let served: usize = out
        .iter()
        .filter(|e| matches!(e.msg, Msg::ReadSliceResp { .. }))
        .count();
    assert_eq!(served, 1, "only the ≤-watermark read unblocks");
    assert_eq!(s.blocked_reads_now(), 1);
    assert_eq!(s.stats().blocked_reads, 2);
    assert!(s.stats().blocked_micros_total > 0);
}

#[test]
fn bpr_read_at_installed_snapshot_serves_immediately() {
    let topo = topo();
    let clock = SimClock::new();
    clock.advance_to(10_000);
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Bpr);
    let peer = ServerId::new(DcId(1), PartitionId(0));
    s.handle(&Envelope::new(peer, s.id(), heartbeat(0, 20_000)), 0);
    s.on_replicate_tick(10); // VV[own] ≈ clock
    let coordinator = ServerId::new(DcId(0), PartitionId(3));
    let out = s.handle(
        &Envelope::new(
            coordinator,
            s.id(),
            Msg::ReadSliceReq {
                tx: TxId::new(coordinator, 9),
                snapshot: Timestamp::from_physical_micros(9_000),
                keys: vec![Key(0).into()],
            },
        ),
        20,
    );
    assert_eq!(out.len(), 1);
    assert!(matches!(out[0].msg, Msg::ReadSliceResp { .. }));
    assert_eq!(s.stats().blocked_reads, 0);
}

#[test]
fn ust_broadcast_is_monotonic() {
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 0, 3, Mode::Paris);
    let root = ServerId::new(DcId(0), PartitionId(0));
    let fresh = Timestamp::from_physical_micros(5_000);
    let stale = Timestamp::from_physical_micros(1_000);
    s.handle(&Envelope::new(root, s.id(), ust_broadcast(fresh, stale)), 0);
    assert_eq!(s.ust(), fresh);
    // A stale broadcast (reordered root messages) must not regress it.
    s.handle(&Envelope::new(root, s.id(), ust_broadcast(stale, stale)), 0);
    assert_eq!(s.ust(), fresh);
    assert_eq!(s.s_old(), stale);
}

#[test]
fn root_does_not_broadcast_until_every_dc_reported() {
    let topo = topo();
    let clock = SimClock::new();
    clock.advance_to(10_000);
    // dc0/p0 is the root of DC0 in this topology.
    let mut root = server_at(&topo, &clock, 0, 0, Mode::Paris);
    assert!(topo.tree_parent(root.id()).is_none());
    // Own aggregation exists after a gst tick, but DCs 1 and 2 are silent.
    let out = root.on_gst_tick(0);
    assert!(out
        .iter()
        .all(|e| matches!(&e.msg, Msg::GossipDigest { roots, .. } if roots.len() == 1)));
    assert!(root.on_ust_tick(0).is_empty(), "must wait for all DCs");
    // Reports from the other roots arrive.
    for dc in [1u16, 2] {
        root.handle(
            &Envelope::new(
                topo.dc_root(DcId(dc)),
                root.id(),
                digest(
                    vec![],
                    vec![(
                        DcId(dc),
                        Timestamp::from_physical_micros(4_000),
                        Timestamp::from_physical_micros(4_000),
                    )],
                    None,
                ),
            ),
            0,
        );
    }
    let out = root.on_ust_tick(0);
    assert!(!out.is_empty(), "now the UST can be computed and broadcast");
    assert!(out
        .iter()
        .all(|e| matches!(e.msg, Msg::GossipDigest { ust: Some(_), .. })));
    // The UST is the minimum over DCs — bounded by the root's own VV (0,
    // since nothing replicated yet).
    assert_eq!(root.ust(), Timestamp::ZERO);
}

#[test]
fn non_root_ust_tick_is_a_no_op() {
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 0, 2, Mode::Paris);
    assert!(topo.tree_parent(s.id()).is_some());
    assert!(s.on_ust_tick(0).is_empty());
}

#[test]
fn gst_tick_from_leaf_reports_to_parent() {
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 0, 2, Mode::Paris);
    let out = s.on_gst_tick(0);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].dst, Endpoint::Server(topo.dc_root(DcId(0))));
    match &out[0].msg {
        Msg::GossipDigest { reports, .. } if reports.len() == 1 => {
            let DigestReport {
                partition, mins, ..
            } = &reports[0];
            assert_eq!(*partition, PartitionId(2));
            // p2's replicas are dc2 and dc0: both DCs appear in the report.
            let dcs: Vec<u16> = mins.iter().map(|(d, _)| d.0).collect();
            assert!(dcs.contains(&0) && dcs.contains(&2));
        }
        other => panic!("expected a one-report digest, got {other:?}"),
    }
}

#[test]
fn event_log_records_commits_applies_and_ust() {
    let topo = topo();
    let clock = SimClock::new();
    clock.advance_to(10_000);
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    // Local prepare + commit + apply.
    let coordinator = ServerId::new(DcId(0), PartitionId(3));
    let tx = TxId::new(coordinator, 1);
    let out = s.handle(
        &Envelope::new(
            coordinator,
            s.id(),
            Msg::PrepareReq {
                tx,
                snapshot: Timestamp::ZERO,
                ht: Timestamp::ZERO,
                writes: vec![WriteSetEntry::new(Key(0), Value::from("e"))],
                src_dc: DcId(0),
            },
        ),
        5,
    );
    let pt = match &out[0].msg {
        Msg::PrepareResp { proposed, .. } => *proposed,
        _ => unreachable!(),
    };
    s.handle(
        &Envelope::new(coordinator, s.id(), Msg::CommitTx { tx, ct: pt }),
        6,
    );
    s.on_replicate_tick(7);
    let root = ServerId::new(DcId(0), PartitionId(0));
    let _ = root; // s IS the root here; broadcast to self not needed
    s.handle(
        &Envelope::new(
            topo.dc_root(DcId(1)),
            s.id(),
            ust_broadcast(Timestamp::from_physical_micros(1), Timestamp::ZERO),
        ),
        8,
    );
    let log = s.events().expect("recording enabled");
    assert_eq!(log.applies.len(), 1);
    assert_eq!(log.applies[0].0, tx);
    assert_eq!(log.ust_advances.len(), 1);
}

#[test]
fn server_debug_is_informative() {
    let topo = topo();
    let clock = SimClock::new();
    let s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let dbg = format!("{s:?}");
    assert!(dbg.contains("Server") && dbg.contains("ust"));
}

/// A 2 DC × 2 partition deployment (R = 2) for the slice-read tests:
/// server dc0-p0, whose only peer replica is dc1-p0.
fn slice_server(mode: Mode) -> (Server, SimClock) {
    let topo = Arc::new(Topology::new(
        ClusterConfig::builder()
            .dcs(2)
            .partitions(2)
            .replication_factor(2)
            .build()
            .unwrap(),
    ));
    let clock = SimClock::new();
    let s = server_at(&topo, &clock, 0, 0, mode);
    (s, clock)
}

fn ts(t: u64) -> Timestamp {
    Timestamp::from_physical_micros(t)
}

fn peer_tx(seq: u64) -> TxId {
    TxId::new(ServerId::new(DcId(1), PartitionId(0)), seq)
}

/// Installs a version of `key` at `ut` through the replication path.
fn install(s: &mut Server, key: Key, ut: u64, seq: u64) {
    let peer = ServerId::new(DcId(1), PartitionId(0));
    let env = Envelope::new(
        peer,
        s.id(),
        Msg::Replicate {
            partition: PartitionId(0),
            txs: vec![ReplicatedTx {
                tx: peer_tx(seq),
                ct: ts(ut),
                src: DcId(1),
                writes: vec![WriteSetEntry {
                    key,
                    value: Value::filled(8, seq),
                }],
            }],
            watermark: ts(ut),
        },
    );
    s.handle(&env, 0);
}

/// Sends one `ReadSliceReq` at `snapshot` and returns the slice's results.
fn slice_read(s: &mut Server, snapshot: u64, keys: &[ReadKey]) -> Vec<paris_proto::ReadResult> {
    let sender = ServerId::new(DcId(0), PartitionId(1));
    let out = s.handle(
        &Envelope::new(
            sender,
            s.id(),
            Msg::ReadSliceReq {
                tx: peer_tx(9),
                snapshot: ts(snapshot),
                keys: keys.to_vec(),
            },
        ),
        0,
    );
    assert_eq!(out.len(), 1, "one reply: {out:?}");
    assert_eq!(out[0].dst, Endpoint::Server(sender));
    match &out[0].msg {
        Msg::ReadSliceResp { results, .. } => results.clone(),
        other => panic!("expected ReadSliceResp, got {}", other.kind()),
    }
}

#[test]
fn slice_read_serves_the_freshest_version_within_the_snapshot() {
    let (mut s, _clock) = slice_server(Mode::Paris);
    install(&mut s, Key(0), 10, 1);
    install(&mut s, Key(0), 20, 2);
    let results = slice_read(&mut s, 15, &[Key(0).into(), Key(2).into()]);
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].outcome.version().unwrap().ut, ts(10));
    assert_eq!(results[1].outcome, ReadOutcome::Absent, "unwritten key");
    // Alg. 3 line 2: serving at snapshot 15 advanced the UST.
    assert_eq!(s.ust(), ts(15));
    let stats = s.stats();
    assert_eq!((stats.slice_reads, stats.keys_read), (1, 2));
}

/// Version-validated reads: the cohort looks up the version visible in the
/// snapshot exactly as for an unstamped key, and answers `Unchanged` only
/// when that version is the one the stamp names — in PaRiS and in BPR.
#[test]
fn stamped_keys_are_validated_against_the_visible_version_in_both_modes() {
    let stamp = |ut, seq| {
        Some(VersionStamp {
            ut: ts(ut),
            tx: peer_tx(seq),
        })
    };
    let keys = [
        // Holds the visible version (ut 10 at snapshot 15).
        ReadKey {
            key: Key(0),
            held: stamp(10, 1),
        },
        // Holds a version the snapshot does not see yet (ut 20 > 15):
        // the visible one is shipped.
        ReadKey {
            key: Key(0),
            held: stamp(20, 2),
        },
        // Right update time, wrong transaction: not the same version.
        ReadKey {
            key: Key(0),
            held: stamp(10, 7),
        },
        // A stamp for a key with no visible version.
        ReadKey {
            key: Key(2),
            held: stamp(10, 1),
        },
        Key(0).into(),
    ];
    for mode in [Mode::Paris, Mode::Bpr] {
        let (mut s, clock) = slice_server(mode);
        install(&mut s, Key(0), 10, 1);
        install(&mut s, Key(0), 20, 2);
        // BPR serves a slice only once the snapshot is installed: move the
        // server's own version clock past it (the peer's is at 20).
        clock.advance_to(1_000);
        s.on_replicate_tick(1_000);
        let results = slice_read(&mut s, 15, &keys);
        assert_eq!(results[0].outcome, ReadOutcome::Unchanged, "{mode:?}");
        for shipped in [1, 2, 4] {
            let v = results[shipped].outcome.version().expect("shipped in full");
            assert_eq!((v.ut, v.tx), (ts(10), peer_tx(1)), "{mode:?} key {shipped}");
        }
        assert_eq!(results[3].outcome, ReadOutcome::Absent, "{mode:?}");
        let stats = s.stats();
        assert_eq!((stats.reads_unchanged, stats.reads_shipped), (1, 3));
        assert_eq!(stats.keys_read, 5);
    }
}

/// The GC guard: a slice read at a snapshot below the cohort's horizon
/// comes from a transaction whose context was reclaimed, and GC may have
/// trimmed the version that snapshot sees — here it has.
#[test]
fn a_direct_read_below_the_gc_horizon_is_refused_never_served_from_a_trimmed_chain() {
    let (mut s, _clock) = slice_server(Mode::Paris);
    install(&mut s, Key(0), 10, 1);
    // A transaction begins here at snapshot 15, which sees version 10;
    // its client goes quiet, and version 20 lands.
    let (tx, snapshot) = start_tx(&mut s, 15);
    assert_eq!(snapshot, ts(15));
    install(&mut s, Key(0), 20, 2);
    // Past the stale-context timeout the GC tick reclaims the context, the
    // horizon passes the snapshot, and GC trims version 10.
    s.on_gc_tick(STALE_CONTEXT_MICROS);
    assert_eq!(s.open_transactions(), 0);
    let root = ServerId::new(DcId(0), PartitionId(0));
    let moved = ust_broadcast(ts(30), ts(25));
    s.handle(&Envelope::new(root, s.id(), moved), 0);
    assert_eq!(s.on_gc_tick(STALE_CONTEXT_MICROS), 1, "version 10 trimmed");
    assert!(s.store().read_at(Key(0), snapshot).is_none());

    // The client comes back and reads straight from this replica at its
    // snapshot: refused, to the client — never answered `Absent` from what
    // is left.
    let read = |snapshot| Msg::ReadSliceReq {
        tx,
        snapshot,
        keys: vec![Key(0).into()],
    };
    let out = s.handle(&Envelope::new(client(), s.id(), read(snapshot)), 0);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].dst, Endpoint::Client(client()));
    assert_eq!(out[0].msg, Msg::OpFailed { tx, opening: None });
    assert_eq!(s.stats().slice_reads, 0, "nothing served");
    assert_eq!(s.ust(), ts(30), "nor the UST touched");
    // At the horizon, the replica serves, and answers the client.
    let out = s.handle(&Envelope::new(client(), s.id(), read(ts(25))), 0);
    assert_eq!(out[0].dst, Endpoint::Client(client()));
    match &out[0].msg {
        Msg::ReadSliceResp { results, .. } => {
            assert_eq!(results[0].outcome.version().unwrap().ut, ts(20));
        }
        other => panic!("expected ReadSliceResp, got {}", other.kind()),
    }
}

/// A client-picked snapshot has no context to pin `S_old`, so the
/// aggregate may pass it while its client reads. Until GC trims past it
/// the chains still hold what it sees, and it is served; once GC has, it
/// is refused and counted — never answered from a trimmed chain. A picked
/// read that reaches the coordinator instead fails the same way.
#[test]
fn a_picked_slice_below_s_old_is_refused_once_gc_trimmed_never_served_from_a_trimmed_chain() {
    let (mut s, _clock) = slice_server(Mode::Paris);
    install(&mut s, Key(0), 10, 1);
    install(&mut s, Key(0), 20, 2);
    let picked = ts(15);
    let root = ServerId::new(DcId(0), PartitionId(0));
    s.handle(
        &Envelope::new(root, s.id(), ust_broadcast(ts(30), ts(25))),
        0,
    );
    assert_eq!(s.s_old(), ts(25));
    // The id a picked read is sent under: no server hosts partition 2.
    let named = TxId::new(ServerId::new(DcId(0), PartitionId(2)), 1);
    let read = Msg::ReadSliceReq {
        tx: named,
        snapshot: picked,
        keys: vec![Key(0).into()],
    };
    let read = Envelope::new(client(), s.id(), read);
    // Below the aggregate, above what GC trimmed to: version 10.
    let out = s.handle(&read, 0);
    match &out[0].msg {
        Msg::ReadSliceResp { tx, results, .. } => {
            assert_eq!(*tx, named);
            assert_eq!(results[0].outcome.version().unwrap().ut, ts(10));
        }
        other => panic!("expected ReadSliceResp, got {}", other.kind()),
    }
    // GC trims to 25, and version 10 goes: now refused, to the client.
    assert_eq!(s.on_gc_tick(0), 1, "version 10 trimmed");
    let out = s.handle(&read, 0);
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].dst, Endpoint::Client(client()));
    assert_eq!(
        out[0].msg,
        Msg::OpFailed {
            tx: named,
            opening: None
        }
    );
    let stats = s.stats();
    assert_eq!((stats.slice_reads, stats.refused_slices), (1, 1));

    // Through the coordinator: the context opens at the pick, its own
    // slice is refused in place, and the client is failed — with this
    // server's UST where a picked form's reply names it.
    let picked_read = Msg::ReadReq {
        tx: TxRef::Picked {
            snapshot: picked,
            call: 3,
        },
        keys: vec![Key(0).into()],
    };
    let out = s.handle(&Envelope::new(client(), s.id(), picked_read), 0);
    let [Envelope {
        dst: Endpoint::Client(c),
        msg:
            Msg::OpFailed {
                opening: Some(Opening::Picked { ust, call: 3 }),
                ..
            },
        ..
    }] = &out[..]
    else {
        panic!("expected the client failed, got {out:?}");
    };
    assert_eq!((*c, *ust), (client(), ts(30)));
    assert_eq!(s.open_transactions(), 0, "the context is dropped");
    let stats = s.stats();
    assert_eq!((stats.slice_reads, stats.refused_slices), (1, 2));
}

/// Every background envelope a server emits — from its ticks, and from
/// the pushes its arrivals trigger behind batched links — is a `Replicate`
/// or a one-entry `GossipDigest` with `frames: 1`: the shapes the
/// coalescer folds into a `ReplicateBatch` and a digest, and the only
/// background shapes the wire has.
#[test]
fn background_traffic_is_a_replicate_or_a_one_entry_digest() {
    let at = Timestamp::from_physical_micros;
    for batching in [false, true] {
        let mut cfg = ClusterConfig::builder()
            .dcs(3)
            .partitions(6)
            .replication_factor(2);
        if !batching {
            cfg = cfg.batch(BatchConfig::DISABLED);
        }
        let topo = Arc::new(Topology::new(cfg.build().unwrap()));
        for mode in [Mode::Paris, Mode::Bpr] {
            // The root of DC0, and one of its children.
            for p in [0, 2] {
                let clock = SimClock::new();
                let mut s = server_at(&topo, &clock, 0, p, mode);
                let root = topo.tree_parent(s.id()).is_none();
                assert_eq!(root, p == 0);
                let mut out = Vec::new();
                for step in 1..=3u64 {
                    let now = step * 10_000;
                    clock.advance_to(now);
                    out.extend(s.on_replicate_tick(now));
                    out.extend(s.on_gst_tick(now));
                    out.extend(s.on_ust_tick(now));
                    // Arrivals: a heartbeat from every peer replica, a
                    // report from every tree child, and the other roots'
                    // GSTs at a root or the UST elsewhere.
                    let mut arrivals: Vec<(ServerId, Msg)> = Vec::new();
                    for peer in topo.peer_replicas(s.id()) {
                        arrivals.push((peer, heartbeat(p, now)));
                    }
                    for child in topo.tree_children(s.id()) {
                        let report = DigestReport {
                            partition: child.partition,
                            mins: topo
                                .replicas(child.partition)
                                .into_iter()
                                .map(|dc| (dc, at(now)))
                                .collect(),
                            oldest_active: at(now),
                        };
                        arrivals.push((child, digest(vec![report], vec![], None)));
                    }
                    if root {
                        for other in topo.all_roots().into_iter().filter(|r| r.dc != DcId(0)) {
                            let gst = (other.dc, at(now), at(now));
                            arrivals.push((other, digest(vec![], vec![gst], None)));
                        }
                    } else {
                        let ust = ust_broadcast(at(now - 5_000), Timestamp::ZERO);
                        arrivals.push((topo.dc_root(DcId(0)), ust));
                    }
                    for (src, msg) in arrivals {
                        out.extend(s.handle(&Envelope::new(src, s.id(), msg), now));
                    }
                }
                let case = format!("batching {batching}, {mode:?}, {}", s.id());
                let (mut heartbeats, mut reports, mut gsts, mut usts) = (0, 0, 0, 0);
                for env in &out {
                    match &env.msg {
                        Msg::Replicate { txs, .. } => {
                            assert!(txs.is_empty(), "{case}: nothing was written");
                            heartbeats += 1;
                        }
                        Msg::GossipDigest {
                            reports: r,
                            roots,
                            ust,
                            frames,
                        } => {
                            assert_eq!(*frames, 1, "{case}");
                            let entries = r.len() + roots.len() + usize::from(ust.is_some());
                            assert_eq!(entries, 1, "{case}: one entry per digest");
                            reports += r.len();
                            gsts += roots.len();
                            usts += usize::from(ust.is_some());
                        }
                        other => assert!(!other.is_background(), "{case}: {}", other.kind()),
                    }
                }
                // Each role's frames were all there to be checked.
                assert!(heartbeats > 0, "{case}: no heartbeat");
                if root {
                    assert_eq!(reports, 0, "{case}: a root reports to no one");
                    assert!(gsts > 0 && usts > 0, "{case}: {gsts} GSTs, {usts} USTs");
                } else {
                    assert!(reports > 0, "{case}: no report");
                    assert_eq!(gsts + usts, 0, "{case}: only roots send GSTs and USTs");
                }
            }
        }
    }
}
