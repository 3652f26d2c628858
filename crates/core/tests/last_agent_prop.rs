//! Property test of the last-agent commit on bare servers: the
//! coordinator prepares its own share, the other participant decides `ct`
//! and sends `CommitTx` back — and that `CommitTx` is held back across
//! arbitrary replicate ticks on clocks with arbitrary skew. Both shares
//! must apply under the one `ct`, and until the `CommitTx` lands the
//! coordinator's installed watermark must stay below `ct`: no snapshot the
//! UST could name may see one share without the other.
//!
//! The commit's coordinator is the one the client's session chooses: its
//! own coordinator for an eagerly begun transaction, or — for a snapshot
//! the session picked — the written partition that comes first after the
//! session's coordinator, which may be either of the two.

use std::collections::VecDeque;
use std::sync::Arc;

use paris_clock::SimClock;
use paris_core::{ClientEvent, ClientSession, Mode, Server, ServerOptions, Topology};
use paris_proto::{Endpoint, Envelope, Msg, TxRef};
use paris_types::{ClientId, ClusterConfig, DcId, Key, PartitionId, ServerId, Timestamp, Value};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Per transaction: keys written on partitions 0 and 1 (1–3 each), then
/// the clock advance of every replicate tick the `CommitTx` is held across.
type TxSpec = (usize, usize, Vec<u64>);

fn arb_txs() -> impl Strategy<Value = Vec<TxSpec>> {
    pvec((1usize..4, 1usize..4, pvec(0u64..400, 0..6)), 1..5)
}

fn server(topo: &Arc<Topology>, clock: &SimClock, partition: u32) -> Server {
    Server::new(ServerOptions {
        id: ServerId::new(DcId(0), PartitionId(partition)),
        topology: Arc::clone(topo),
        clock: Box::new(clock.clone()),
        mode: Mode::Paris,
        record_events: false,
    })
}

/// The installed watermark: one DC, so the own version-vector entry.
fn watermark(s: &Server) -> Timestamp {
    s.version_vector().values().copied().min().unwrap()
}

/// Delivers `out` among `servers` (indexed by partition) until quiet.
fn deliver(servers: &mut [Server], out: Vec<Envelope>, now: u64) {
    let mut queue = VecDeque::from(out);
    while let Some(env) = queue.pop_front() {
        let dst = env.dst.as_server().expect("server traffic only");
        queue.extend(servers[dst.partition.index()].handle(&env, now));
    }
}

/// One stabilization round, so that every server knows a non-zero UST.
fn stabilize(servers: &mut [Server], now: u64) {
    let ticks: [fn(&mut Server, u64) -> Vec<Envelope>; 4] = [
        Server::on_replicate_tick,
        Server::on_gst_tick,
        Server::on_gst_tick,
        Server::on_ust_tick,
    ];
    for tick in ticks {
        let out = servers.iter_mut().flat_map(|s| tick(s, now)).collect();
        deliver(servers, out, now);
    }
}

proptest! {
    #[test]
    fn both_shares_apply_under_one_ct_and_not_before_the_commit_tx(
        txs in arb_txs(),
        skew in 0u64..2_000,
        first_ahead in any::<bool>(),
        home in proptest::option::of(0u32..3),
    ) {
        // Partition 2 is written by no transaction: a session coordinated
        // there commits on partition 0, the first written after it.
        let topo = Arc::new(Topology::new(
            ClusterConfig::builder()
                .dcs(1)
                .partitions(3)
                .replication_factor(1)
                .build()
                .unwrap(),
        ));
        let keys_of = |p: u32| -> Vec<Key> {
            (0..64)
                .map(Key)
                .filter(|k| topo.partition_of(*k) == PartitionId(p))
                .take(3)
                .collect()
        };
        let keys = [keys_of(0), keys_of(1)];
        let (first, second) = (SimClock::new(), SimClock::new());
        let mut now = 10_000u64;
        let advance = |now: u64| {
            first.advance_to(if first_ahead { now + skew } else { now });
            second.advance_to(if first_ahead { now } else { now + skew });
        };
        advance(now);
        let mut servers = vec![
            server(&topo, &first, 0),
            server(&topo, &second, 1),
            server(&topo, &first, 2),
        ];
        stabilize(&mut servers, now);

        // Eager: coordinated by partition 0. Picked: by the written
        // partition first after `home`.
        let client = ClientId::new(DcId(0), 0);
        let session_home = ServerId::new(DcId(0), PartitionId(home.unwrap_or(0)));
        let mut session = ClientSession::new(client, session_home, Mode::Paris);
        let expected = PartitionId(match home {
            Some(1) => 1,
            _ => 0,
        });
        let eager_begin = |session: &mut ClientSession, servers: &mut [Server], now: u64| {
            let start = session.begin().unwrap();
            let reply = servers[session_home.partition.index()].handle(&start, now);
            let event = session.handle(&reply[0]);
            assert!(matches!(event, Some(ClientEvent::Started { .. })));
        };
        if home.is_some() {
            // Learn the UST, so the next begins pick it.
            session = session.with_topology(Arc::clone(&topo));
            eager_begin(&mut session, &mut servers, now);
            let close = session.commit().unwrap();
            let reply = servers[session_home.partition.index()].handle(&close, now);
            let event = session.handle(&reply[0]);
            assert!(matches!(event, Some(ClientEvent::Committed { .. })));
            prop_assert!(session.ust() > Timestamp::ZERO);
        }

        for (i, (n0, n1, held_ticks)) in txs.iter().enumerate() {
            if home.is_some() {
                session.begin_deferred().unwrap();
                prop_assert!(session.open_snapshot().is_some(), "picked");
            } else {
                eager_begin(&mut session, &mut servers, now);
            }
            let value = Value::filled(4, i as u64);
            let written = keys[0][..*n0].iter().chain(&keys[1][..*n1]);
            let writes: Vec<(Key, Value)> = written.map(|k| (*k, value.clone())).collect();
            session.write(&writes).unwrap();
            let req = session.commit().unwrap();
            let Msg::CommitReq { tx: form, .. } = req.msg else {
                panic!("expected a CommitReq");
            };
            prop_assert_eq!(matches!(form, TxRef::Picked { .. }), home.is_some());
            let coord = req.dst.as_server().expect("a server");
            prop_assert_eq!(coord.partition, expected);
            let (c, p) = (coord.partition.index(), 1 - coord.partition.index());
            let (own, other) = (&keys[c][..[*n0, *n1][c]], &keys[p][..[*n0, *n1][p]]);

            let out = servers[c].handle(&req, now);
            prop_assert_eq!(out.len(), 1);
            let Msg::CommitOne { ht: pt_c, coordinator_share: true, .. } = out[0].msg else {
                panic!("expected a last-agent CommitOne, got {:?}", out[0].msg);
            };
            prop_assert_eq!(servers[c].min_prepared(), Some(pt_c));

            let replies = servers[p].handle(&out[0], now);
            prop_assert_eq!(replies.len(), 2);
            let Some(ClientEvent::Committed { tx, ct, .. }) = session.handle(&replies[0]) else {
                panic!("expected the client's CommitResp first");
            };
            prop_assert_eq!(tx.coordinator(), coord);
            prop_assert!(ct > pt_c, "ct is the max over both proposals");
            let back = replies[1].clone();
            prop_assert_eq!(back.dst, Endpoint::Server(coord));

            // The CommitTx is held back; both servers keep ticking.
            for step in held_ticks {
                now += step;
                advance(now);
                servers[c].on_replicate_tick(now);
                servers[p].on_replicate_tick(now);
                prop_assert!(watermark(&servers[c]) < ct);
                prop_assert_eq!(servers[c].min_prepared(), Some(pt_c));
                for k in own {
                    prop_assert!(servers[c].store().latest(*k).is_none_or(|v| v.ut < ct));
                }
            }

            prop_assert!(servers[c].handle(&back, now).is_empty());
            now += 1;
            advance(now);
            servers[c].on_replicate_tick(now);
            servers[p].on_replicate_tick(now);
            prop_assert!(watermark(&servers[c]) >= ct);
            for (s, keys) in [(&servers[c], own), (&servers[p], other)] {
                for k in keys {
                    let v = s.store().latest(*k).expect("applied");
                    prop_assert_eq!((v.ut, v.tx), (ct, tx));
                }
            }
        }
        let orphans: u64 = servers.iter().map(|s| s.stats().orphan_commits).sum();
        prop_assert_eq!(orphans, 0);
        // The decider is the participant other than the chosen coordinator,
        // the same for every transaction; no other server decides one.
        let decider = 1 - expected.index();
        for (i, s) in servers.iter().enumerate() {
            let decided = if i == decider { txs.len() as u64 } else { 0 };
            prop_assert_eq!(s.stats().txs_coordinated, decided, "server {}", i);
        }
    }
}
