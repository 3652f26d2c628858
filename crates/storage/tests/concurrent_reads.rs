//! Multi-threaded stress test for the sharded snapshot-read path: N reader
//! threads race the single writer through the shared store, asserting
//! every observed version respects the snapshot rule and that reads make
//! progress while writes are applied. The store's shard locks are shared
//! between the server loop and its readers (stats, the checker), so they
//! must hold up under real concurrency.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use paris_storage::MemEngine;
use paris_types::{DcId, Key, PartitionId, ServerId, Timestamp, TxId, Value};

const KEYS: u64 = 32;
const WRITES: u64 = 20_000;
const READERS: usize = 4;

fn tx(seq: u64) -> TxId {
    TxId::new(ServerId::new(DcId(0), PartitionId(0)), seq)
}

fn ts(t: u64) -> Timestamp {
    Timestamp::from_physical_micros(t)
}

/// The protocol invariant the writer maintains: a version with `ut = t`
/// is applied *before* the UST advances to `t`, so every read at
/// `snapshot = ust` is guaranteed to find the freshest version `≤ snapshot`
/// already present.
#[test]
fn readers_race_writer_and_respect_the_snapshot_rule() {
    let store = Arc::new(MemEngine::new());
    // The published UST, packed.
    let ust = Arc::new(AtomicU64::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let reads_served = Arc::new(AtomicU64::new(0));

    let writer = {
        let store = Arc::clone(&store);
        let ust = Arc::clone(&ust);
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            for t in 1..=WRITES {
                let key = Key(t % KEYS);
                store.apply(key, Value::filled(8, t), ts(t), tx(t), DcId(0));
                // Install first, publish second — the stabilization
                // protocol's ordering.
                ust.fetch_max(ts(t).as_u64(), Ordering::SeqCst);
            }
            done.store(true, Ordering::SeqCst);
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let store = Arc::clone(&store);
            let ust = Arc::clone(&ust);
            let done = Arc::clone(&done);
            let reads_served = Arc::clone(&reads_served);
            std::thread::spawn(move || {
                // Per-key freshest order seen so far: snapshots are
                // monotonic (UST never regresses), so observed versions
                // must be monotonic per key too.
                let mut last_seen = vec![None; KEYS as usize];
                let mut served = 0u64;
                let mut k = r as u64; // stagger readers over keys
                while !done.load(Ordering::SeqCst) {
                    let snapshot = Timestamp::from_u64(ust.load(Ordering::SeqCst));
                    let key = Key(k % KEYS);
                    k += 1;
                    if let Some(v) = store.read_at(key, snapshot) {
                        assert!(
                            v.ut <= snapshot,
                            "version {:?} above snapshot {snapshot:?}",
                            v.ut
                        );
                        let slot = &mut last_seen[key.as_u64() as usize];
                        if let Some(prev) = *slot {
                            assert!(
                                v.order() >= prev,
                                "non-monotonic read at {key}: {prev:?} then {:?}",
                                v.order()
                            );
                        }
                        *slot = Some(v.order());
                        served += 1;
                    }
                    // The freshest write ≤ snapshot of the key written at
                    // `snapshot` itself must be visible (installed-before-
                    // published).
                    let hot = Key(snapshot.physical_micros() % KEYS);
                    if snapshot.physical_micros() >= 1 {
                        assert!(
                            store.read_at(hot, snapshot).is_some(),
                            "published version missing at its own snapshot"
                        );
                    }
                }
                reads_served.fetch_add(served, Ordering::Relaxed);
            })
        })
        .collect();

    writer.join().expect("writer panicked");
    for r in readers {
        r.join().expect("reader panicked");
    }
    assert!(
        reads_served.load(Ordering::Relaxed) > 0,
        "readers made progress while the writer ran"
    );
    // Everything is visible at the final UST.
    let final_ust = Timestamp::from_u64(ust.load(Ordering::SeqCst));
    for k in 0..KEYS {
        let v = store.read_at(Key(k), final_ust).expect("key written");
        assert_eq!(v.ut.physical_micros() % KEYS, k, "freshest write of {k}");
    }
    assert_eq!(store.stats().applied, WRITES);
    assert_eq!(store.stats().versions as u64, WRITES, "no GC ran");
}
