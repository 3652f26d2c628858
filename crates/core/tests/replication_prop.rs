//! Property test of the replication apply path under at-least-once
//! delivery: handing a server a `ReplicateBatch` it has already applied
//! (same transactions, same watermark) through `Server::handle` must
//! change nothing — chain inserts are idempotent and the version-vector
//! bump is monotone.

use std::collections::HashMap;
use std::sync::Arc;

use paris_clock::SimClock;
use paris_core::{Mode, Server, ServerOptions, Topology};
use paris_proto::{Envelope, Msg, ReplicatedTx};
use paris_types::{
    ClusterConfig, DcId, Key, PartitionId, ServerId, Timestamp, TxId, Value, WriteSetEntry,
};
use proptest::collection::vec as pvec;
use proptest::prelude::*;

/// Distinct keys per case, all owned by partition 0.
const KEYS: usize = 6;

/// Per batch, per transaction, the written (key index, value byte) pairs.
type StreamSpec = Vec<Vec<Vec<(usize, u8)>>>;

fn arb_stream() -> impl Strategy<Value = StreamSpec> {
    pvec(pvec(pvec((0usize..KEYS, any::<u8>()), 1..4), 1..3), 1..5)
}

/// Every retained version of every key, chain order included (chains are
/// newest-first).
fn chains(server: &Server) -> HashMap<Key, Vec<(Timestamp, TxId, DcId, Value)>> {
    let mut out = HashMap::new();
    server.store().for_each_chain(&mut |key, chain| {
        out.insert(
            key,
            chain
                .iter()
                .map(|v| (v.ut, v.tx, v.src, v.value.clone()))
                .collect(),
        );
    });
    out
}

proptest! {
    /// A stream of batches from DC 1's replica of partition 0, in
    /// ascending `ct` order, each delivered once or twice in a row to
    /// server (0, 0): the second delivery leaves chains and version
    /// vector exactly as the first left them.
    #[test]
    fn redelivered_replicate_batch_changes_nothing(
        stream in arb_stream(),
        dups in pvec(any::<bool>(), 4..10),
    ) {
        let topo = Arc::new(Topology::new(
            ClusterConfig::builder()
                .dcs(2)
                .partitions(2)
                .replication_factor(2)
                .build()
                .unwrap(),
        ));
        let clock = SimClock::new();
        clock.advance_to(10_000);
        let mut server = Server::new(ServerOptions {
            id: ServerId::new(DcId(0), PartitionId(0)),
            topology: Arc::clone(&topo),
            clock: Box::new(clock),
            mode: Mode::Paris,
            record_events: false,
        });
        let src = ServerId::new(DcId(1), PartitionId(0));

        let mut seq = 0u64;
        for (i, batch) in stream.iter().enumerate() {
            let txs: Vec<ReplicatedTx> = batch
                .iter()
                .map(|writes| {
                    seq += 1;
                    ReplicatedTx {
                        tx: TxId::new(src, seq),
                        ct: Timestamp::from_physical_micros(100_000 + seq * 7),
                        src: DcId(1),
                        writes: writes
                            .iter()
                            .map(|&(k, v)| {
                                WriteSetEntry::new(
                                    topo.key_at(PartitionId(0), k as u64),
                                    Value(vec![v]),
                                )
                            })
                            .collect(),
                    }
                })
                .collect();
            let env = Envelope::new(
                src,
                server.id(),
                Msg::ReplicateBatch {
                    partition: PartitionId(0),
                    watermark: txs.last().expect("non-empty batch").ct,
                    frames: txs.len() as u32,
                    txs,
                },
            );
            prop_assert!(server.handle(&env, 10_000).is_empty(), "PaRiS never blocks");
            if dups[i % dups.len()] {
                let (before, vv) = (chains(&server), server.version_vector().clone());
                prop_assert!(server.handle(&env, 10_000).is_empty());
                prop_assert_eq!(chains(&server), before, "re-delivery changed a chain");
                prop_assert_eq!(server.version_vector(), &vv);
            }
        }
    }
}
