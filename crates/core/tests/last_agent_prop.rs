//! Property test of decider commits on bare servers, on two to five
//! partitions: the coordinator prepares its own share when it holds one,
//! the decider — the last agent — decides `ct`, and every other
//! participant votes to it and gets a `CommitTx` back. Every message is
//! delivered in an arbitrary order, so the votes reach the decider in any
//! order; then every `CommitTx` is held back across arbitrary replicate
//! ticks on clocks with arbitrary skew, and lands in an arbitrary order.
//! Every share must apply under the one `ct`, above every proposal; the
//! decider must never decide while a vote is missing; and until its
//! `CommitTx` lands, no participant's installed watermark may reach `ct`:
//! no snapshot the UST could name may see one share without the others.
//!
//! The commit's coordinator is the one the client's session chooses: its
//! own coordinator for an eagerly begun transaction, which may hold no
//! share, or — for a snapshot the session picked — the written partition
//! that comes first after the session's coordinator. The decider is the
//! other participant with the smallest share, the first after the
//! coordinator among equals.

use std::sync::Arc;

use paris_clock::SimClock;
use paris_core::{ClientEvent, ClientSession, Mode, Server, ServerOptions, Topology};
use paris_proto::{Endpoint, Envelope, Msg, TxRef};
use paris_types::{ClientId, ClusterConfig, DcId, Key, PartitionId, ServerId, Timestamp, Value};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

const PARTITIONS: u32 = 6;

/// Per transaction: how many partitions it writes (2–5) and the picks that
/// draw them, the keys it writes on each (1–3), the choices that order
/// every delivery, and the clock advance of every replicate tick the
/// `CommitTx`s are held across.
type TxSpec = (usize, Vec<usize>, Vec<usize>, Vec<usize>, Vec<u64>);

fn arb_txs() -> impl Strategy<Value = Vec<TxSpec>> {
    let tx = (
        2usize..6,
        pvec(any::<usize>(), 5),
        pvec(1usize..4, 5),
        pvec(any::<usize>(), 40),
        pvec(0u64..400, 0..8),
    );
    pvec(tx, 1..5)
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
    let mut queue = std::collections::VecDeque::from(out);
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

/// The partition first after `from`, cyclically, among `partitions`.
fn first_after(from: u32, partitions: impl Iterator<Item = u32>) -> u32 {
    partitions
        .min_by_key(|p| (p + PARTITIONS - from) % PARTITIONS)
        .expect("a partition")
}

proptest! {
    #[test]
    fn every_share_applies_under_one_ct_and_not_before_its_commit_tx(
        txs in arb_txs(),
        skews in pvec(0u64..2_000, PARTITIONS as usize),
        home in proptest::option::of(0u32..PARTITIONS),
    ) {
        let topo = Arc::new(Topology::new(
            ClusterConfig::builder()
                .dcs(1)
                .partitions(PARTITIONS)
                .replication_factor(1)
                .build()
                .unwrap(),
        ));
        let keys_of = |p: u32| -> Vec<Key> {
            (0..256)
                .map(Key)
                .filter(|k| topo.partition_of(*k) == PartitionId(p))
                .take(3)
                .collect()
        };
        let clocks: Vec<SimClock> = skews.iter().map(|_| SimClock::new()).collect();
        let mut now = 10_000u64;
        let advance = |now: u64| {
            for (clock, skew) in clocks.iter().zip(&skews) {
                clock.advance_to(now + skew);
            }
        };
        advance(now);
        let mut servers: Vec<Server> = (0..PARTITIONS)
            .map(|p| server(&topo, &clocks[p as usize], p))
            .collect();
        stabilize(&mut servers, now);

        // Eager: coordinated by the session's partition 0. Picked: by the
        // written partition first after `home`.
        let client = ClientId::new(DcId(0), 0);
        let session_home = ServerId::new(DcId(0), PartitionId(home.unwrap_or(0)));
        let mut session = ClientSession::new(client, session_home, Mode::Paris);
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

        for (i, (n, picks, key_counts, choices, held_ticks)) in txs.iter().enumerate() {
            let mut choices = choices.iter().copied().cycle();
            let mut left: Vec<u32> = (0..PARTITIONS).collect();
            let written: Vec<u32> = picks[..*n]
                .iter()
                .map(|pick| left.remove(pick % left.len()))
                .collect();
            if home.is_some() {
                session.begin_deferred().unwrap();
                prop_assert!(session.open_snapshot().is_some(), "picked");
            } else {
                eager_begin(&mut session, &mut servers, now);
            }
            let value = Value::filled(4, i as u64);
            let mut writes: Vec<(Key, Value)> = Vec::new();
            for (p, count) in written.iter().zip(key_counts) {
                writes.extend(keys_of(*p)[..*count].iter().map(|k| (*k, value.clone())));
            }
            session.write(&writes).unwrap();
            let req = session.commit().unwrap();
            let Msg::CommitReq { tx: form, .. } = req.msg else {
                panic!("expected a CommitReq");
            };
            prop_assert_eq!(matches!(form, TxRef::Picked { .. }), home.is_some());
            let coordinator = req.dst.as_server().expect("a server").partition.0;
            let expected = match home {
                Some(home) => first_after(home, written.iter().copied()),
                None => 0,
            };
            prop_assert_eq!(coordinator, expected);
            // The decider: the other participant with the fewest writes (all
            // values are alike), the first after the coordinator among them.
            let fewest = written
                .iter()
                .zip(key_counts)
                .filter(|(p, _)| **p != coordinator)
                .map(|(_, count)| *count)
                .min()
                .expect("another participant");
            let fewest = written
                .iter()
                .zip(key_counts)
                .filter(|(p, count)| **p != coordinator && **count == fewest);
            let decider = first_after(coordinator, fewest.map(|(p, _)| *p));
            let decided_before: Vec<u64> =
                servers.iter().map(|s| s.stats().txs_coordinated).collect();

            // Everything but the decisions lands, in an arbitrary order.
            let (mut in_flight, mut held, mut decision) = (vec![req], Vec::new(), None);
            while !in_flight.is_empty() {
                let env = in_flight.swap_remove(choices.next().unwrap() % in_flight.len());
                match (env.dst, &env.msg) {
                    (Endpoint::Client(_), _) => {
                        let Some(ClientEvent::Committed { tx, ct, .. }) = session.handle(&env) else {
                            panic!("expected the client's CommitResp, got {env:?}");
                        };
                        decision = Some((tx, ct));
                    }
                    (Endpoint::Server(_), Msg::CommitTx { .. }) => held.push(env),
                    (Endpoint::Server(s), _) => {
                        let out = servers[s.partition.index()].handle(&env, now);
                        if let Some(Msg::CommitResp { ct, .. }) = out.first().map(|e| &e.msg) {
                            // Decided: every other participant has voted.
                            prop_assert_eq!(s.partition.0, decider);
                            for p in written.iter().filter(|p| **p != decider) {
                                let pt = servers[*p as usize].min_prepared();
                                prop_assert!(pt.is_some_and(|pt| pt < *ct), "partition {}", p);
                            }
                        }
                        in_flight.extend(out);
                    }
                }
            }
            let (tx, ct) = decision.expect("the client was answered");
            prop_assert_eq!(tx.coordinator().partition.0, coordinator);
            let mut waiting: Vec<u32> =
                held.iter().map(|e| e.dst.as_server().unwrap().partition.0).collect();
            waiting.sort_unstable();
            let mut voters: Vec<u32> = written.iter().copied().filter(|p| *p != decider).collect();
            voters.sort_unstable();
            prop_assert_eq!(waiting, voters, "a CommitTx per other participant");

            // The `CommitTx`s are held back across the ticks, and land one
            // by one in an arbitrary order; every server keeps ticking.
            let mut steps = held_ticks.iter().copied();
            while !held.is_empty() {
                if let Some(step) = steps.next() {
                    now += step;
                    advance(now);
                    for s in servers.iter_mut() {
                        s.on_replicate_tick(now);
                    }
                    for env in &held {
                        let s = &servers[env.dst.as_server().unwrap().partition.index()];
                        prop_assert!(watermark(s) < ct);
                        prop_assert!(s.min_prepared().is_some_and(|pt| pt < ct));
                        for (k, _) in &writes {
                            if topo.partition_of(*k) == s.id().partition {
                                prop_assert!(s.store().latest(*k).is_none_or(|v| v.ut < ct));
                            }
                        }
                    }
                    if choices.next().unwrap() % 2 == 0 {
                        continue;
                    }
                }
                let env = held.swap_remove(choices.next().unwrap() % held.len());
                let s = env.dst.as_server().unwrap();
                prop_assert!(servers[s.partition.index()].handle(&env, now).is_empty());
            }

            now += 1;
            advance(now);
            for s in servers.iter_mut() {
                s.on_replicate_tick(now);
            }
            for (k, _) in &writes {
                let s = &servers[topo.partition_of(*k).index()];
                prop_assert!(watermark(s) >= ct);
                let v = s.store().latest(*k).expect("applied");
                prop_assert_eq!((v.ut, v.tx), (ct, tx));
            }
            // Only the decider decided.
            for (p, s) in servers.iter().enumerate() {
                let decided = s.stats().txs_coordinated - decided_before[p];
                prop_assert_eq!(decided, u64::from(p as u32 == decider), "server {}", p);
            }
        }
        for s in &servers {
            prop_assert_eq!(s.stats().orphan_commits, 0);
            prop_assert_eq!(s.open_vote_sets(), 0);
            prop_assert_eq!(s.min_prepared(), None);
        }
    }
}
