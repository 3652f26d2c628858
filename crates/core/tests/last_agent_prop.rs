//! Property test of the last-agent commit on two bare servers: the
//! coordinator prepares its own share, the other participant decides `ct`
//! and sends `CommitTx` back — and that `CommitTx` is held back across
//! arbitrary replicate ticks on clocks with arbitrary skew. Both shares
//! must apply under the one `ct`, and until the `CommitTx` lands the
//! coordinator's installed watermark must stay below `ct`: no snapshot the
//! UST could name may see one share without the other.

use std::sync::Arc;

use paris_clock::SimClock;
use paris_core::{Mode, Server, ServerOptions, Topology};
use paris_proto::{Endpoint, Envelope, Msg, TxRef};
use paris_types::{
    ClientId, ClusterConfig, DcId, Key, PartitionId, ServerId, Timestamp, Value, WriteSetEntry,
};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Per transaction: keys written on each partition (1–3 each), then the
/// clock advance of every replicate tick the `CommitTx` is held across.
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

proptest! {
    #[test]
    fn both_shares_apply_under_one_ct_and_not_before_the_commit_tx(
        txs in arb_txs(),
        skew in 0u64..2_000,
        participant_ahead in any::<bool>(),
    ) {
        let topo = Arc::new(Topology::new(
            ClusterConfig::builder()
                .dcs(1)
                .partitions(2)
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
        let (own_keys, other_keys) = (keys_of(0), keys_of(1));
        let (c_clock, p_clock) = (SimClock::new(), SimClock::new());
        let (mut now, offset) = (10_000u64, skew);
        let advance = |now: u64| {
            c_clock.advance_to(if participant_ahead { now } else { now + offset });
            p_clock.advance_to(if participant_ahead { now + offset } else { now });
        };
        advance(now);
        let mut coordinator = server(&topo, &c_clock, 0);
        let mut participant = server(&topo, &p_clock, 1);
        let client = ClientId::new(DcId(0), 0);
        let mut hwt = Timestamp::ZERO;

        for (i, (own_n, other_n, held_ticks)) in txs.iter().enumerate() {
            let value = Value::filled(4, i as u64);
            let writes: Vec<WriteSetEntry> = own_keys[..*own_n]
                .iter()
                .chain(&other_keys[..*other_n])
                .map(|k| WriteSetEntry::new(*k, value.clone()))
                .collect();
            let start = Envelope::new(
                client,
                coordinator.id(),
                Msg::StartTxReq { client_ust: Timestamp::ZERO },
            );
            let Msg::StartTxResp { tx, .. } = coordinator.handle(&start, now)[0].msg else {
                panic!("expected StartTxResp");
            };
            let req = Envelope::new(
                client,
                coordinator.id(),
                Msg::CommitReq { tx: TxRef::Known(tx), hwt, writes },
            );
            let out = coordinator.handle(&req, now);
            prop_assert_eq!(out.len(), 1);
            let Msg::CommitOne { ht: pt_c, coordinator_share: true, .. } = out[0].msg else {
                panic!("expected a last-agent CommitOne, got {:?}", out[0].msg);
            };
            prop_assert_eq!(coordinator.min_prepared(), Some(pt_c));

            let replies = participant.handle(&out[0], now);
            prop_assert_eq!(replies.len(), 2);
            let Msg::CommitResp { ct, .. } = replies[0].msg else {
                panic!("expected the client's CommitResp first");
            };
            prop_assert!(ct > pt_c, "ct is the max over both proposals");
            let back = replies[1].clone();
            prop_assert_eq!(back.dst, Endpoint::Server(coordinator.id()));

            // The CommitTx is held back; both servers keep ticking.
            for step in held_ticks {
                now += step;
                advance(now);
                coordinator.on_replicate_tick(now);
                participant.on_replicate_tick(now);
                prop_assert!(watermark(&coordinator) < ct);
                prop_assert_eq!(coordinator.min_prepared(), Some(pt_c));
                for k in &own_keys[..*own_n] {
                    prop_assert!(coordinator.store().latest(*k).is_none_or(|v| v.ut < ct));
                }
            }

            prop_assert!(coordinator.handle(&back, now).is_empty());
            now += 1;
            advance(now);
            coordinator.on_replicate_tick(now);
            participant.on_replicate_tick(now);
            prop_assert!(watermark(&coordinator) >= ct);
            for (s, keys) in [(&coordinator, &own_keys[..*own_n]), (&participant, &other_keys[..*other_n])] {
                for k in keys {
                    let v = s.store().latest(*k).expect("applied");
                    prop_assert_eq!((v.ut, v.tx), (ct, tx));
                }
            }
            hwt = ct;
        }
        prop_assert_eq!(coordinator.stats().orphan_commits, 0);
        prop_assert_eq!(participant.stats().txs_coordinated, txs.len() as u64);
    }
}
