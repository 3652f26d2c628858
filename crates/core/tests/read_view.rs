//! Tests of the published [`ReadView`]: Algorithm 3 slice reads served
//! off the server loop, non-blocking with respect to the server lock,
//! GC-safe, and agreeing with the loop-served path.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use paris_clock::SimClock;
use paris_core::{Mode, Server, ServerOptions, Topology};
use paris_proto::{Endpoint, Envelope, Msg, ReadKey, ReadOutcome, ReplicatedTx};
use paris_types::{
    ClientId, ClusterConfig, DcId, Key, PartitionId, ServerId, Timestamp, TxId, Value,
    VersionStamp, WriteSetEntry,
};

fn topo() -> Arc<Topology> {
    Arc::new(Topology::new(
        ClusterConfig::builder()
            .dcs(2)
            .partitions(2)
            .replication_factor(2)
            .build()
            .unwrap(),
    ))
}

fn server(mode: Mode) -> (Server, SimClock) {
    let clock = SimClock::new();
    let s = Server::new(ServerOptions {
        id: ServerId::new(DcId(0), PartitionId(0)),
        topology: topo(),
        clock: Box::new(clock.clone()),
        mode,
        record_events: false,
    });
    (s, clock)
}

fn ts(t: u64) -> Timestamp {
    Timestamp::from_physical_micros(t)
}

fn tx(seq: u64) -> TxId {
    TxId::new(ServerId::new(DcId(1), PartitionId(0)), seq)
}

/// Installs a version via the replication path (the single-writer apply).
fn install(s: &mut Server, key: Key, ut: u64, seq: u64) {
    let peer = ServerId::new(DcId(1), PartitionId(0));
    let env = Envelope::new(
        peer,
        s.id(),
        Msg::Replicate {
            partition: PartitionId(0),
            txs: vec![ReplicatedTx {
                tx: tx(seq),
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

#[test]
fn view_serves_the_freshest_version_within_the_snapshot() {
    let (mut s, _clock) = server(Mode::Paris);
    install(&mut s, Key(0), 10, 1);
    install(&mut s, Key(0), 20, 2);
    let view = s.read_view();
    let reply_to = ServerId::new(DcId(0), PartitionId(1));
    let env = view
        .serve_slice(tx(9), ts(15), &[Key(0).into(), Key(2).into()], reply_to)
        .expect("snapshot above S_old");
    let Msg::ReadSliceResp { results, .. } = &env.msg else {
        panic!("expected ReadSliceResp, got {}", env.msg.kind());
    };
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].outcome.version().unwrap().ut, ts(10));
    assert_eq!(results[1].outcome, ReadOutcome::Absent, "unwritten key");
    // Alg. 3 line 2: serving at snapshot 15 advanced the published UST.
    assert_eq!(s.ust(), ts(15));
    assert_eq!(view.stats().slice_reads(), 1);
    assert_eq!(view.stats().keys_read(), 2);
}

/// The headline property: a view read completes while another thread
/// holds the server lock mid-commit — reads do not block on commits,
/// replication batches or any other server-loop work.
#[test]
fn view_reads_do_not_block_on_a_held_server_lock() {
    let (mut s, _clock) = server(Mode::Paris);
    install(&mut s, Key(0), 10, 1);
    let view = s.read_view();
    let server = Arc::new(Mutex::new(s));

    // Take the server lock, as the threaded runtime does for every commit
    // / replication / gossip step, and hold it for the whole test.
    let guard = server.lock().unwrap();

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let env = view
            .serve_slice(
                tx(7),
                ts(10),
                &[Key(0).into()],
                ServerId::new(DcId(0), PartitionId(1)),
            )
            .expect("view read is lock-free");
        done_tx.send(env).expect("main thread alive");
    });

    // The read must complete while the lock is still held.
    let env = done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("read completed without the server lock");
    drop(guard);
    reader.join().expect("reader panicked");
    let Msg::ReadSliceResp { results, .. } = &env.msg else {
        panic!("expected ReadSliceResp");
    };
    assert_eq!(results[0].outcome.version().unwrap().ut, ts(10));
}

/// A snapshot below the published `S_old` is rejected by the view (its
/// versions may be reclaimed); the loop-served fallback still answers.
#[test]
fn view_rejects_snapshots_below_the_gc_horizon() {
    let (mut s, _clock) = server(Mode::Paris);
    install(&mut s, Key(0), 10, 1);
    install(&mut s, Key(0), 20, 2);
    // Drive the published S_old up via the stabilization broadcast.
    let root = ServerId::new(DcId(0), PartitionId(1));
    s.handle(
        &Envelope::new(
            root,
            s.id(),
            Msg::UstBroadcast {
                ust: ts(30),
                s_old: ts(15),
            },
        ),
        0,
    );
    let view = s.read_view();
    let reply_to = ServerId::new(DcId(0), PartitionId(1));
    let err = view
        .serve_slice(tx(9), ts(14), &[Key(0).into()], reply_to)
        .unwrap_err();
    assert_eq!(err.s_old, ts(15));
    assert_eq!(view.stats().stale_rejections(), 1);
    // At the horizon is fine (GC keeps the freshest version ≤ S_old).
    assert!(view
        .serve_slice(tx(9), ts(15), &[Key(0).into()], reply_to)
        .is_ok());
    // The server loop path serves the stale snapshot authoritatively
    // (cohort falls back internally on rejection).
    let out = s.handle(
        &Envelope::new(
            reply_to,
            s.id(),
            Msg::ReadSliceReq {
                tx: tx(9),
                snapshot: ts(14),
                keys: vec![Key(0).into()],
                reply_to,
            },
        ),
        0,
    );
    assert_eq!(out.len(), 1);
    let Msg::ReadSliceResp { results, .. } = &out[0].msg else {
        panic!("expected ReadSliceResp");
    };
    assert_eq!(results[0].outcome.version().unwrap().ut, ts(10));
}

/// Version-validated reads: the cohort looks up the version visible in the
/// snapshot exactly as for an unstamped key, and answers `Unchanged` only
/// when that version is the one the stamp names. The view (pooled reads)
/// and the server loop (BPR, and PaRiS below `S_old`) agree key by key.
#[test]
fn stamped_keys_are_validated_against_the_visible_version_on_both_paths() {
    let stamp = |ut, seq| {
        Some(VersionStamp {
            ut: ts(ut),
            tx: tx(seq),
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
    let expect = |results: &[paris_proto::ReadResult]| {
        assert_eq!(results[0].outcome, ReadOutcome::Unchanged);
        for shipped in [1, 2, 4] {
            let v = results[shipped].outcome.version().expect("shipped in full");
            assert_eq!((v.ut, v.tx), (ts(10), tx(1)), "key {shipped}");
        }
        assert_eq!(results[3].outcome, ReadOutcome::Absent);
    };
    let reply_to = ServerId::new(DcId(0), PartitionId(1));
    for mode in [Mode::Paris, Mode::Bpr] {
        let (mut s, clock) = server(mode);
        install(&mut s, Key(0), 10, 1);
        install(&mut s, Key(0), 20, 2);
        // BPR serves a slice only once the snapshot is installed: move the
        // server's own version clock past it (the peer's is at 20).
        clock.advance_to(1_000);
        s.on_replicate_tick(1_000);
        let env = s
            .read_view()
            .serve_slice(tx(9), ts(15), &keys, reply_to)
            .expect("snapshot above S_old");
        let Msg::ReadSliceResp { results, .. } = &env.msg else {
            panic!("expected ReadSliceResp");
        };
        expect(results);
        // The loop path: BPR serves from the state machine itself.
        let out = s.handle(
            &Envelope::new(
                reply_to,
                s.id(),
                Msg::ReadSliceReq {
                    tx: tx(9),
                    snapshot: ts(15),
                    keys: keys.to_vec(),
                    reply_to,
                },
            ),
            0,
        );
        let Msg::ReadSliceResp { results, .. } = &out[0].msg else {
            panic!("expected ReadSliceResp");
        };
        expect(results);
        let stats = s.stats();
        assert_eq!((stats.reads_unchanged, stats.reads_shipped), (2, 6));
        assert_eq!(stats.keys_read, 10);
    }
}

/// Pooled snapshot assignment (Alg. 2 lines 1–5 off the server loop):
/// the view assigns the snapshot, and the context it registers in the
/// shared transaction table is immediately visible to the loop, which
/// serves the transaction's subsequent read fan-out.
#[test]
fn pooled_start_context_is_visible_to_the_loop() {
    let (mut s, _clock) = server(Mode::Paris);
    install(&mut s, Key(0), 10, 1);
    let view = s.read_view();
    let client = ClientId::new(DcId(0), 7);
    let env = view
        .serve_start_tx(client, ts(5), 0)
        .expect("PaRiS views serve starts");
    let Msg::StartTxResp { tx, snapshot } = env.msg else {
        panic!("expected StartTxResp, got {}", env.msg.kind());
    };
    assert_eq!(env.dst, Endpoint::Client(client));
    assert_eq!(snapshot, s.ust(), "snapshot is the post-advance UST");
    assert!(snapshot >= ts(5), "ust ← max(ust, ust_c)");
    assert_eq!(s.open_transactions(), 1, "context registered");
    assert_eq!(view.stats().start_txs(), 1);
    // The loop recognizes the pooled transaction and fans its read out.
    let out = s.handle(
        &Envelope::new(
            client,
            s.id(),
            Msg::ReadReq {
                tx,
                keys: vec![Key(0).into()],
            },
        ),
        0,
    );
    assert!(!out.is_empty());
    assert!(
        out.iter()
            .all(|e| matches!(e.msg, Msg::ReadSliceReq { .. })),
        "an unknown tx would have produced an empty ReadResp"
    );
}

/// Snapshot assignment completes while another thread holds the server
/// lock — starts, like reads, never queue behind loop work.
#[test]
fn pooled_start_does_not_block_on_a_held_server_lock() {
    let (s, _clock) = server(Mode::Paris);
    let view = s.read_view();
    let server = Arc::new(Mutex::new(s));
    let guard = server.lock().unwrap();

    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let starter = std::thread::spawn(move || {
        let env = view
            .serve_start_tx(ClientId::new(DcId(0), 1), ts(3), 0)
            .expect("PaRiS view");
        done_tx.send(env).expect("main thread alive");
    });
    let env = done_rx
        .recv_timeout(Duration::from_secs(5))
        .expect("start completed without the server lock");
    drop(guard);
    starter.join().expect("starter panicked");
    assert!(matches!(env.msg, Msg::StartTxResp { .. }));
}

/// BPR snapshots are fresh (HLC-derived) and belong to the loop: views
/// refuse to assign them.
#[test]
fn bpr_views_never_assign_snapshots() {
    let (s, _clock) = server(Mode::Bpr);
    let view = s.read_view();
    assert!(view
        .serve_start_tx(ClientId::new(DcId(0), 1), ts(5), 0)
        .is_none());
    assert_eq!(s.open_transactions(), 0, "no context was registered");
}

/// An in-flight view read pins the GC horizon: `on_gc_tick` must not
/// reclaim versions a registered read may still return.
#[test]
fn inflight_view_read_pins_gc() {
    let (mut s, _clock) = server(Mode::Paris);
    for (ut, seq) in [(10, 1), (20, 2), (30, 3)] {
        install(&mut s, Key(0), ut, seq);
    }
    let view = s.read_view();
    // An in-flight read at snapshot 20, registered while S_old is still 0.
    let pin = view.pin(ts(20)).expect("S_old is zero");
    // S_old then advances to 30: GC alone would trim versions 10 and 20.
    let root = ServerId::new(DcId(0), PartitionId(1));
    s.handle(
        &Envelope::new(
            root,
            s.id(),
            Msg::UstBroadcast {
                ust: ts(30),
                s_old: ts(30),
            },
        ),
        0,
    );
    // The pin caps the horizon at 20, so only version 10 is reclaimed and
    // the pinned read still finds its version.
    assert_eq!(s.on_gc_tick(0), 1);
    assert_eq!(s.store().stats().versions, 2);
    // The version the pinned read is entitled to is still in the store
    // (a fresh registration at 20 would rightly be rejected — the pin
    // protects the read that registered before S_old advanced).
    let v = s.store().read_at(Key(0), ts(20)).expect("pinned visible");
    assert_eq!(v.ut, ts(20));
    // Releasing the pin lets the next GC trim to S_old.
    drop(pin);
    assert_eq!(s.on_gc_tick(0), 1);
    assert_eq!(s.store().stats().versions, 1);
    assert!(view.read_at(Key(0), ts(30)).unwrap().is_some());
}
