//! Envelope-level unit tests of the server state machine: one handler at
//! a time, including duplicate, stale and out-of-order message cases that
//! the happy-path protocol tests never produce.

use std::sync::Arc;

use paris_clock::SimClock;
use paris_core::{Mode, Server, ServerOptions, Topology};
use paris_proto::{Endpoint, Envelope, Msg, ReadKey, ReplicatedTx};
use paris_types::{
    ClientId, ClusterConfig, DcId, Key, PartitionId, ServerId, Timestamp, TxId, Value,
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
fn read_req_for_unknown_tx_returns_empty_response() {
    let topo = topo();
    let clock = SimClock::new();
    let mut s = server_at(&topo, &clock, 0, 0, Mode::Paris);
    let bogus = TxId::new(s.id(), 999);
    let out = s.handle(
        &Envelope::new(
            client(),
            s.id(),
            Msg::ReadReq {
                tx: bogus,
                keys: vec![Key(0).into()],
            },
        ),
        0,
    );
    assert_eq!(out.len(), 1);
    match &out[0].msg {
        Msg::ReadResp { results, .. } => assert!(results.is_empty()),
        other => panic!("expected ReadResp, got {}", other.kind()),
    }
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
        &Envelope::new(client(), s.id(), Msg::ReadReq { tx, keys }),
        0,
    );
    assert_eq!(out.len(), 6);
    let mut partitions: Vec<u32> = out
        .iter()
        .map(|e| e.dst.as_server().unwrap().partition.0)
        .collect();
    partitions.sort_unstable();
    assert_eq!(partitions, vec![0, 1, 2, 3, 4, 5]);
    for env in &out {
        let dst = env.dst.as_server().unwrap();
        assert!(topo.is_replicated_at(dst.partition, dst.dc));
        match &env.msg {
            Msg::ReadSliceReq { reply_to, keys, .. } => {
                assert_eq!(*reply_to, s.id());
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
                tx,
                keys: vec![Key(0).into(), Key(1).into()],
            },
        ),
        0,
    );
    assert_eq!(out.len(), 2);
    let from_p0 = Envelope::new(
        ServerId::new(DcId(0), PartitionId(0)),
        s.id(),
        Msg::ReadSliceResp {
            tx,
            partition: PartitionId(0),
            results: vec![],
        },
    );
    // First copy: still waiting for partition 1 → no client reply.
    assert!(s.handle(&from_p0, 0).is_empty());
    // Duplicate: still nothing, and no panic/double-count.
    assert!(s.handle(&from_p0, 0).is_empty());
    // The real second partition completes the read.
    let from_p1 = Envelope::new(
        ServerId::new(DcId(0), PartitionId(1)),
        s.id(),
        Msg::ReadSliceResp {
            tx,
            partition: PartitionId(1),
            results: vec![],
        },
    );
    let out = s.handle(&from_p1, 0);
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
                tx,
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
    let writes = vec![
        WriteSetEntry::new(Key(0), Value::from("a")), // partition 0
        WriteSetEntry::new(Key(1), Value::from("b")), // partition 1
    ];
    let out = s.handle(
        &Envelope::new(
            client(),
            s.id(),
            Msg::CommitReq {
                tx,
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
                ServerId::new(DcId(0), PartitionId(0)),
                s.id(),
                Msg::PrepareResp {
                    tx,
                    partition: PartitionId(0),
                    proposed: p1
                },
            ),
            0,
        )
        .is_empty());
    let out = s.handle(
        &Envelope::new(
            ServerId::new(DcId(0), PartitionId(1)),
            s.id(),
            Msg::PrepareResp {
                tx,
                partition: PartitionId(1),
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
                reply_to: coordinator,
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
                    reply_to: coordinator,
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
        out.iter().all(|e| matches!(e.msg, Msg::Heartbeat { .. })),
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
    s.handle(
        &Envelope::new(
            peer,
            s.id(),
            Msg::Heartbeat {
                partition: PartitionId(0),
                watermark: Timestamp::from_physical_micros(9_000),
            },
        ),
        0,
    );
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
                    reply_to: coordinator,
                },
            ),
            100,
        );
        assert!(out.is_empty());
    }
    assert_eq!(s.blocked_reads_now(), 2);
    // Watermark to 5_000: only the first read drains.
    let peer = ServerId::new(DcId(1), PartitionId(0));
    s.handle(
        &Envelope::new(
            peer,
            s.id(),
            Msg::Heartbeat {
                partition: PartitionId(0),
                watermark: Timestamp::from_physical_micros(5_000),
            },
        ),
        200,
    );
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
    s.handle(
        &Envelope::new(
            peer,
            s.id(),
            Msg::Heartbeat {
                partition: PartitionId(0),
                watermark: Timestamp::from_physical_micros(20_000),
            },
        ),
        0,
    );
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
                reply_to: coordinator,
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
    s.handle(
        &Envelope::new(
            root,
            s.id(),
            Msg::UstBroadcast {
                ust: fresh,
                s_old: stale,
            },
        ),
        0,
    );
    assert_eq!(s.ust(), fresh);
    // A stale broadcast (reordered root messages) must not regress it.
    s.handle(
        &Envelope::new(
            root,
            s.id(),
            Msg::UstBroadcast {
                ust: stale,
                s_old: stale,
            },
        ),
        0,
    );
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
    assert!(out.iter().all(|e| matches!(e.msg, Msg::RootGst { .. })));
    assert!(root.on_ust_tick(0).is_empty(), "must wait for all DCs");
    // Reports from the other roots arrive.
    for dc in [1u16, 2] {
        root.handle(
            &Envelope::new(
                topo.dc_root(DcId(dc)),
                root.id(),
                Msg::RootGst {
                    dc: DcId(dc),
                    gst: Timestamp::from_physical_micros(4_000),
                    oldest_active: Timestamp::from_physical_micros(4_000),
                },
            ),
            0,
        );
    }
    let out = root.on_ust_tick(0);
    assert!(!out.is_empty(), "now the UST can be computed and broadcast");
    assert!(out
        .iter()
        .all(|e| matches!(e.msg, Msg::UstBroadcast { .. })));
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
        Msg::GstReport {
            partition, mins, ..
        } => {
            assert_eq!(*partition, PartitionId(2));
            // p2's replicas are dc2 and dc0: both DCs appear in the report.
            let dcs: Vec<u16> = mins.iter().map(|(d, _)| d.0).collect();
            assert!(dcs.contains(&0) && dcs.contains(&2));
        }
        other => panic!("expected GstReport, got {}", other.kind()),
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
                reply_to: coordinator,
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
            Msg::UstBroadcast {
                ust: Timestamp::from_physical_micros(1),
                s_old: Timestamp::ZERO,
            },
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
