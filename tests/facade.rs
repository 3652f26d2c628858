//! Facade-specific behaviour: RAII transaction handles (abort-on-drop),
//! session sequencing, builder validation, and cross-backend agreement on
//! the same causal scenario.

use paris::types::{Key, Value};
use paris::{Backend, Cluster, Error, Mode, Paris};

fn sim() -> paris::SimCluster {
    Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .build_sim()
        .expect("valid deployment")
}

#[test]
fn txn_abort_on_drop_discards_buffered_writes() {
    let mut cluster = sim();
    let a = cluster.open_client(0).unwrap();

    {
        let mut txn = cluster.begin(a).unwrap();
        txn.write(Key(1), Value::from("doomed"));
        // Dropped without commit: aborted.
    }
    cluster.stabilize(5);

    // The same session can immediately run the next transaction, and the
    // write never became visible anywhere.
    for dc in 0..3u16 {
        let r = cluster.open_client(dc).unwrap();
        let mut txn = cluster.begin(r).unwrap();
        assert_eq!(txn.read_one(Key(1)).unwrap(), None, "aborted write leaked");
        txn.commit().unwrap();
    }
}

#[test]
fn txn_explicit_abort_behaves_like_drop() {
    let mut cluster = sim();
    let a = cluster.open_client(0).unwrap();
    let mut txn = cluster.begin(a).unwrap();
    txn.write(Key(2), Value::from("doomed"));
    txn.abort().unwrap();

    let mut txn = cluster.begin(a).unwrap();
    assert_eq!(txn.read_one(Key(2)).unwrap(), None);
    txn.commit().unwrap();
}

#[test]
fn txn_reads_its_own_buffered_writes() {
    let mut cluster = sim();
    let a = cluster.open_client(0).unwrap();
    let mut txn = cluster.begin(a).unwrap();
    txn.write(Key(3), Value::from("first"));
    txn.write(Key(3), Value::from("second"));
    // Last write wins, served from the handle's buffer.
    assert_eq!(txn.read_one(Key(3)).unwrap(), Some(Value::from("second")));
    txn.commit().unwrap();
}

#[test]
fn double_begin_is_rejected_per_session() {
    let mut cluster = sim();
    let a = cluster.open_client(0).unwrap();
    // Raw-level: a session with an open transaction rejects a second
    // begin (sessions are sequential, §II-C).
    cluster.txn_begin(a).unwrap();
    assert_eq!(
        cluster.txn_begin(a).unwrap_err(),
        Error::TransactionAlreadyOpen
    );
    // Closing the transaction frees the session again.
    cluster.txn_commit(a).unwrap();
    cluster.txn_begin(a).unwrap();
    cluster.txn_commit(a).unwrap();
}

#[test]
fn operations_on_unknown_clients_fail() {
    // The raw operations are written once for every backend: each of them
    // rejects a client id the deployment never opened, the same way.
    for backend in [Backend::Sim, Backend::Thread, Backend::Socket] {
        let mut cluster = Paris::builder()
            .dcs(3)
            .partitions(6)
            .replication(2)
            .keys_per_partition(100)
            .clients_per_dc(0)
            .uniform_latency_micros(5_000)
            .backend(backend)
            .build()
            .unwrap();
        let a = cluster.open_client(0).unwrap();
        let bogus = paris::types::ClientId::new(a.dc, a.seq + 999);
        let unknown = Error::UnknownTransaction;
        assert_eq!(
            cluster.txn_begin(bogus).unwrap_err(),
            unknown,
            "{backend:?}"
        );
        assert_eq!(
            cluster.txn_read(bogus, &[Key(1)]).unwrap_err(),
            unknown,
            "{backend:?}"
        );
        assert_eq!(
            cluster
                .txn_write(bogus, &[(Key(1), Value::from("x"))])
                .unwrap_err(),
            unknown,
            "{backend:?}"
        );
        assert_eq!(
            cluster.txn_commit(bogus).unwrap_err(),
            unknown,
            "{backend:?}"
        );
        assert_eq!(
            cluster.reset_client(bogus).unwrap_err(),
            unknown,
            "{backend:?}"
        );
        // The known client is untouched by all of that.
        let mut txn = cluster.begin(a).unwrap();
        txn.write(Key(1), Value::from("known"));
        txn.commit().unwrap();
    }
}

#[test]
fn builder_validation_errors() {
    // Replication factor above DC count.
    let err = Paris::builder().dcs(2).partitions(4).replication(3).build();
    assert!(matches!(err.err().expect("must fail"), Error::Config(_)));

    // Zero partitions.
    let err = Paris::builder().dcs(3).partitions(0).replication(2).build();
    assert!(matches!(err.err().expect("must fail"), Error::Config(_)));

    // Out-of-range jitter.
    let err = Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .jitter(1.5)
        .build();
    assert!(matches!(err.err().expect("must fail"), Error::Config(_)));

    // A shape that leaves DCs without servers.
    let err = Paris::builder()
        .dcs(10)
        .partitions(2)
        .replication(2)
        .build();
    assert!(matches!(err.err().expect("must fail"), Error::Config(_)));

    // Sim-only knobs are rejected, not silently ignored, on other
    // backends.
    let err = Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .record_events(true)
        .backend(Backend::Thread)
        .build();
    assert!(matches!(
        err.err().expect("must fail"),
        Error::Unsupported(_)
    ));
    let err = Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .stab_branching(2)
        .backend(Backend::Thread)
        .build();
    assert!(matches!(
        err.err().expect("must fail"),
        Error::Unsupported(_)
    ));

    // The batch policy derives from the final intervals, capped below
    // the GC period — so interval choices (here 600 ms ticks, where six
    // ticks would overrun the 1 s GC period) can never invalidate it.
    assert!(Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .intervals(paris::types::Intervals {
            replication_micros: 600_000,
            gst_micros: 5_000,
            ust_micros: 5_000,
            gc_micros: 1_000_000,
        })
        .build()
        .is_ok());

    // Out-of-range client DC on a valid deployment.
    let mut cluster = Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .build()
        .unwrap();
    assert!(matches!(
        cluster.open_client(7).unwrap_err(),
        Error::Config(_)
    ));
}

#[test]
fn boxed_cluster_supports_txn_handles() {
    // `build()` returns Box<dyn Cluster>; begin() works on the trait
    // object too.
    let mut cluster = Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .backend(Backend::Sim)
        .build()
        .unwrap();
    let a = cluster.open_client(0).unwrap();
    let mut txn = cluster.begin(a).unwrap();
    txn.write(Key(9), Value::from("boxed"));
    txn.commit().unwrap();
    cluster.stabilize(5);
    let b = cluster.open_client(1).unwrap();
    let mut txn = cluster.begin(b).unwrap();
    assert_eq!(txn.read_one(Key(9)).unwrap(), Some(Value::from("boxed")));
    txn.commit().unwrap();
}

/// Runs the same causal-chain scenario on any backend and returns what
/// the third observer saw: (y, x).
fn causal_chain(cluster: &mut dyn Cluster) -> (Option<Value>, Option<Value>) {
    let a = cluster.open_client(0).unwrap();
    let b = cluster.open_client(1).unwrap();
    let c = cluster.open_client(2).unwrap();

    let mut txn = cluster.begin(a).unwrap();
    txn.write(Key(0), Value::from("x"));
    let ct_x = txn.commit().unwrap();
    cluster.stabilize(5);

    let mut txn = cluster.begin(b).unwrap();
    let x = txn.read_one(Key(0)).unwrap();
    assert!(x.is_some(), "writer's commit must be stable after gossip");
    txn.write(Key(1), Value::from("y"));
    let ct_y = txn.commit().unwrap();
    assert!(ct_y > ct_x, "dependent write must be timestamped later");
    cluster.stabilize(5);

    let mut txn = cluster.begin(c).unwrap();
    let y = txn.read_one(Key(1)).unwrap();
    let x = txn.read_one(Key(0)).unwrap();
    txn.commit().unwrap();
    if y.is_some() {
        assert!(x.is_some(), "effect visible without its cause");
    }
    (y, x)
}

#[test]
fn sim_and_thread_backends_agree_on_causal_chain() {
    let scenario_builder = |backend| {
        Paris::builder()
            .dcs(3)
            .partitions(6)
            .replication(2)
            .keys_per_partition(100)
            .clients_per_dc(0) // interactive only
            .uniform_latency_micros(5_000)
            .jitter(0.0)
            .seed(17)
            .backend(backend)
    };

    let mut sim = scenario_builder(Backend::Sim).build().unwrap();
    let mut thread = scenario_builder(Backend::Thread).build().unwrap();

    let from_sim = causal_chain(sim.as_mut());
    let from_thread = causal_chain(thread.as_mut());

    assert_eq!(
        from_sim, from_thread,
        "sim and thread backends must observe the same causal chain"
    );
    assert_eq!(from_sim.0, Some(Value::from("y")));
    assert_eq!(from_sim.1, Some(Value::from("x")));

    // Both backends converge to identical replica contents.
    assert!(sim.check_convergence().unwrap().is_empty());
    assert!(thread.check_convergence().unwrap().is_empty());
}

#[test]
fn cluster_stats_unifies_all_backends() {
    // One snapshot type and fold for every backend, the socket's across
    // its control plane: after the same workload, `Cluster::stats()` must
    // report a live write path and counters consistent with the run — and
    // a second snapshot must be monotone (cumulative since build).
    for backend in [Backend::Sim, Backend::Thread, Backend::Socket] {
        let mut cluster = Paris::builder()
            .dcs(3)
            .partitions(6)
            .replication(2)
            .keys_per_partition(100)
            .clients_per_dc(2)
            .uniform_latency_micros(5_000)
            .seed(13)
            .backend(backend)
            .build()
            .unwrap();
        let report = cluster.run_workload(100_000, 400_000).unwrap();
        assert!(report.stats.committed > 0, "{backend:?}: no progress");

        let first = cluster.stats().unwrap();
        assert_eq!(first.servers, 12, "{backend:?}: 6 partitions × R=2");
        assert!(first.txs_coordinated > 0, "{backend:?}: no transactions");
        assert!(
            first.prepares >= first.txs_coordinated,
            "{backend:?}: every committed update prepared at least once"
        );
        assert!(
            first.applied_remote > 0,
            "{backend:?}: peers never applied remote batches"
        );
        assert!(
            first.summary().contains("servers"),
            "{backend:?}: summary must be human-readable"
        );

        // Cumulative counters: a later snapshot never goes backwards.
        let a = cluster.open_client(0).unwrap();
        let mut txn = cluster.begin(a).unwrap();
        txn.write(Key(17), Value::from("more"));
        txn.commit().unwrap();
        let second = cluster.stats().unwrap();
        assert!(
            second.msgs_handled > first.msgs_handled
                && second.prepares > first.prepares
                && second.applied_remote >= first.applied_remote,
            "{backend:?}: stats regressed between snapshots"
        );
    }
}

#[test]
fn a_read_goes_straight_to_the_replicas_on_every_backend() {
    // Exact counts of one facade read over two partitions, from the
    // servers' counters: a slice read served is one `ReadSliceReq` and its
    // one `ReadSliceResp`; a coordinator read is one `ReadReq`, its one
    // `ReadResp`, and the gathering of its slices' `ReadSliceResp`s. A
    // session that knows its snapshot sends 0 `ReadReq` and 2
    // `ReadSliceReq`, and receives 0 `ReadResp` and both `ReadSliceResp`s.
    // The reference session through the coordinator shows what a detour
    // counts.
    for backend in [Backend::Sim, Backend::Thread, Backend::Socket] {
        let mut cluster = Paris::builder()
            .dcs(3)
            .partitions(6)
            .replication(2)
            .keys_per_partition(100)
            .backend(backend)
            .build()
            .unwrap();
        let routed = cluster.open_client(0).unwrap();
        let detour = cluster.open_client_via_coordinator(0).unwrap();
        // Keys 0 and 1: partition 0 has a replica in DC 0, partition 1
        // lives in DCs 1 and 2 only.
        let mut count = |client| {
            cluster.txn_begin(client).unwrap();
            let before = cluster.stats().unwrap();
            let reads = cluster.txn_read(client, &[Key(0), Key(1)]).unwrap();
            let after = cluster.stats().unwrap();
            cluster.txn_commit(client).unwrap();
            assert_eq!(reads.len(), 2, "{backend:?}");
            (
                after.coordinator_reads - before.coordinator_reads,
                after.slice_reads - before.slice_reads,
            )
        };
        assert_eq!(
            count(routed),
            (0, 2),
            "{backend:?}: straight to the replicas"
        );
        assert_eq!(
            count(detour),
            (1, 2),
            "{backend:?}: the coordinator's detour"
        );
    }
}

#[test]
fn workload_reads_go_straight_to_the_replicas_at_picked_snapshots_on_every_backend() {
    // 2 DCs × 2 partitions, R = 2, stabilized, so the UST is non-zero
    // when the sessions start. A `run_workload` session's first
    // transaction carries its start in its read (its `ust_c` is still
    // zero); every later one picks `ust_c` as its snapshot, reads straight
    // from the replicas and reaches the coordinator only to commit. So the
    // coordinator handles at most one `ReadReq` per session, plus one per
    // first read a replica refused below its GC horizon — on the sim,
    // whose run is seeded, exactly one per session. (A session never picks
    // a UST of zero: until the deployment's first UST round, every
    // transaction carries its start.)
    let sessions = 2 * 2;
    for backend in [Backend::Sim, Backend::Thread, Backend::Socket] {
        let mut cluster = Paris::builder()
            .dcs(2)
            .partitions(2)
            .replication(2)
            .keys_per_partition(100)
            .clients_per_dc(2)
            .uniform_latency_micros(2_000)
            .record_history(true)
            .seed(9)
            .backend(backend)
            .build()
            .unwrap();
        cluster.stabilize(4);
        let before = cluster.stats().unwrap();
        let report = cluster.run_workload(50_000, 300_000).unwrap();
        assert!(report.stats.committed > 0, "{backend:?}: no progress");
        assert_eq!(report.stats.aborted, 0, "{backend:?}");
        assert!(
            report.violations.is_empty(),
            "{backend:?} violated TCC: {:#?}",
            report.violations
        );
        let after = cluster.stats().unwrap();
        let coordinator_reads = after.coordinator_reads - before.coordinator_reads;
        let refused = after.refused_slices - before.refused_slices;
        assert!(
            after.slice_reads - before.slice_reads > report.stats.committed,
            "{backend:?}: the reads went to the replicas"
        );
        if backend == Backend::Sim {
            assert_eq!((coordinator_reads, refused), (sessions, 0));
        } else {
            assert!(
                coordinator_reads <= sessions + refused,
                "{backend:?}: {coordinator_reads} coordinator reads, {refused} refusals"
            );
        }
    }
}

/// The two batching configurations every combination test sweeps:
/// explicitly off, and the stable-time default.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Batching {
    Off,
    Default,
}

#[test]
fn backends_agree_on_causal_chain_under_every_batching_policy() {
    // The coalescing layer may delay and merge background frames but must
    // never change what any observer can read: the same causal chain has
    // to come out of every (backend, batching policy) combination —
    // including the default (paced by stable time, on).
    let scenario_builder = |backend, batching: Batching| {
        let b = Paris::builder()
            .dcs(3)
            .partitions(6)
            .replication(2)
            .keys_per_partition(100)
            .clients_per_dc(0)
            .uniform_latency_micros(5_000)
            .jitter(0.0)
            .seed(23)
            .backend(backend);
        match batching {
            Batching::Off => b.no_batching(),
            Batching::Default => b, // on by default
        }
    };

    let mut outcomes = Vec::new();
    for backend in [Backend::Sim, Backend::Thread] {
        for batching in [Batching::Off, Batching::Default] {
            let mut cluster = scenario_builder(backend, batching).build().unwrap();
            let outcome = causal_chain(cluster.as_mut());
            assert!(
                cluster.check_convergence().unwrap().is_empty(),
                "{backend:?} {batching:?}: replicas diverged"
            );
            outcomes.push(((backend, batching), outcome));
        }
    }
    for ((backend, batching), outcome) in &outcomes {
        assert_eq!(
            *outcome,
            (Some(Value::from("y")), Some(Value::from("x"))),
            "{backend:?} {batching:?}: wrong causal observation"
        );
    }
}

#[test]
fn batching_reduces_network_messages_at_equal_load() {
    let run = |batching: Batching| {
        let b = Paris::builder()
            .dcs(3)
            .partitions(9)
            .replication(2)
            .keys_per_partition(100)
            .clients_per_dc(2)
            .uniform_latency_micros(5_000)
            .seed(7)
            .record_history(true)
            .backend(Backend::Sim);
        let b = match batching {
            Batching::Off => b.no_batching(),
            Batching::Default => b, // on by default
        };
        let mut cluster = b.build().unwrap();
        cluster.run_workload(100_000, 400_000).unwrap()
    };
    let off = run(Batching::Off);
    let default = run(Batching::Default);
    for (report, name) in [(&off, "off"), (&default, "default")] {
        assert!(report.stats.committed > 0, "{name}: no progress");
        assert!(
            report.violations.is_empty(),
            "{name}: checker violations {:?}",
            report.violations
        );
    }
    // The untouched default must batch: this is what "on by default"
    // means at the wire.
    assert!(
        (default.net_messages as f64) < off.net_messages as f64 * 0.75,
        "default batching saved too little: {} -> {} messages",
        off.net_messages,
        default.net_messages
    );
}

#[test]
fn reset_client_recovers_a_wedged_session() {
    let mut cluster = sim();
    let a = cluster.open_client(0).unwrap();

    // Wedge: the session has an open transaction (as after a transport
    // failure stranded a Txn mid-operation) and rejects every new begin.
    cluster.txn_begin(a).unwrap();
    assert_eq!(
        cluster.txn_begin(a).unwrap_err(),
        Error::TransactionAlreadyOpen
    );

    // Recovery: reset returns the session to idle; the next transaction
    // runs normally and the abandoned one's writes never surface.
    cluster
        .txn_write(a, &[(Key(11), Value::from("stranded"))])
        .unwrap();
    cluster.reset_client(a).unwrap();
    let mut txn = cluster.begin(a).unwrap();
    assert_eq!(
        txn.read_one(Key(11)).unwrap(),
        None,
        "abandoned write leaked"
    );
    txn.write(Key(12), Value::from("recovered"));
    txn.commit().unwrap();
    cluster.stabilize(5);
    let b = cluster.open_client(1).unwrap();
    let mut txn = cluster.begin(b).unwrap();
    assert_eq!(
        txn.read_one(Key(12)).unwrap(),
        Some(Value::from("recovered"))
    );
    txn.commit().unwrap();

    // Unknown clients are rejected.
    let bogus = paris::types::ClientId::new(paris::types::DcId(0), 9_999_999);
    assert!(matches!(
        cluster.reset_client(bogus).unwrap_err(),
        Error::UnknownTransaction
    ));
}

#[test]
fn reset_client_works_on_every_backend() {
    for backend in [Backend::Sim, Backend::Thread, Backend::Socket] {
        let mut cluster = Paris::builder()
            .dcs(3)
            .partitions(6)
            .replication(2)
            .keys_per_partition(100)
            .clients_per_dc(0)
            .uniform_latency_micros(5_000)
            .backend(backend)
            .build()
            .unwrap();
        let a = cluster.open_client(0).unwrap();
        cluster.txn_begin(a).unwrap();
        assert!(cluster.txn_begin(a).is_err(), "{backend:?}: not wedged");
        cluster.reset_client(a).unwrap();
        let mut txn = cluster.begin(a).unwrap();
        txn.write(Key(5), Value::from("after-reset"));
        txn.commit()
            .unwrap_or_else(|e| panic!("{backend:?}: post-reset commit failed: {e}"));
    }
}

#[test]
fn workload_runs_on_every_backend() {
    for backend in [Backend::Sim, Backend::Thread] {
        let mut cluster = Paris::builder()
            .dcs(3)
            .partitions(6)
            .replication(2)
            .keys_per_partition(100)
            .clients_per_dc(2)
            .uniform_latency_micros(5_000)
            .record_history(true)
            .seed(5)
            .backend(backend)
            .build()
            .unwrap();
        let report = cluster.run_workload(100_000, 400_000).unwrap();
        assert!(report.stats.committed > 0, "{backend:?} made no progress");
        assert!(
            report.violations.is_empty(),
            "{backend:?} violated TCC: {:#?}",
            report.violations
        );
    }
}

#[test]
fn sim_run_workload_runs_window_after_window() {
    let mut cluster = Paris::builder()
        .dcs(2)
        .partitions(2)
        .keys_per_partition(100)
        .clients_per_dc(2)
        .record_history(true)
        .build_sim()
        .unwrap();
    for window in 0..3 {
        let report = cluster.run_workload(0, 20_000).unwrap();
        assert!(
            report.stats.committed > 0,
            "window {window} made no progress"
        );
        assert!(report.violations.is_empty(), "{:#?}", report.violations);
    }
}

#[test]
fn two_partition_commits_are_decided_by_the_last_agent_on_every_backend() {
    // 2 DCs × 2 partitions, fully replicated: every write set spans the
    // coordinator's own partition and the other one, and the read that
    // comes first makes each commit a plain one. So every update commits
    // last-agent: one prepare at the coordinator, one proposal at the
    // participant that decides — never a coordinator-decided 2PC.
    let workload = paris::workload::WorkloadConfig {
        reads_per_tx: 1,
        writes_per_tx: 2,
        partitions_per_tx: 2,
        local_tx_ratio: 1.0,
        ..paris::workload::WorkloadConfig::read_heavy()
    };
    for backend in [Backend::Sim, Backend::Thread, Backend::Socket] {
        let mut cluster = Paris::builder()
            .dcs(2)
            .partitions(2)
            .replication(2)
            .keys_per_partition(100)
            .workload(workload.clone())
            .clients_per_dc(2)
            .uniform_latency_micros(2_000)
            .record_history(true)
            .seed(31)
            .backend(backend)
            .build()
            .unwrap();
        let report = cluster.run_workload(50_000, 300_000).unwrap();
        assert!(report.stats.committed > 0, "{backend:?}: no progress");
        assert!(
            report.violations.is_empty(),
            "{backend:?} violated TCC: {:#?}",
            report.violations
        );
        // Let every decision in flight at the window's end land.
        cluster.stabilize(5);
        let stats = cluster.stats().unwrap();
        assert!(
            stats.txs_coordinated > 0,
            "{backend:?}: no update committed"
        );
        assert_eq!(
            stats.prepares,
            2 * stats.txs_coordinated,
            "{backend:?}: two proposals per decided commit"
        );
        assert_eq!(stats.orphan_commits, 0, "{backend:?}");
        assert!(
            cluster.check_convergence().unwrap().is_empty(),
            "{backend:?}"
        );
    }
}

#[test]
fn bpr_mode_works_through_the_facade_on_all_backends() {
    for backend in [Backend::Sim, Backend::Thread, Backend::Socket] {
        let mut cluster = Paris::builder()
            .dcs(3)
            .partitions(6)
            .replication(2)
            .keys_per_partition(100)
            .clients_per_dc(0)
            .uniform_latency_micros(5_000)
            .mode(Mode::Bpr)
            .backend(backend)
            .build()
            .unwrap();
        let a = cluster.open_client(0).unwrap();
        let mut txn = cluster.begin(a).unwrap();
        txn.write(Key(0), Value::from("b"));
        txn.commit().unwrap();
        cluster.stabilize(3);
        let b = cluster.open_client(1).unwrap();
        let mut txn = cluster.begin(b).unwrap();
        assert_eq!(
            txn.read_one(Key(0)).unwrap(),
            Some(Value::from("b")),
            "{backend:?}: BPR read must block until installed, then return"
        );
        txn.commit().unwrap();
    }
}

#[test]
fn durable_sim_cluster_survives_a_rebuild_from_the_same_directory() {
    let dir = std::env::temp_dir().join(format!("paris-facade-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let build = || {
        Paris::builder()
            .dcs(2)
            .partitions(2)
            .replication(2)
            .keys_per_partition(100)
            .durability(paris::Durability::new(&dir))
            .build_sim()
            .expect("valid durable deployment")
    };

    // First life: commit, stabilize, shut the whole cluster down.
    let mut cluster = build();
    let a = cluster.open_client(0).unwrap();
    let mut txn = cluster.begin(a).unwrap();
    txn.write(Key(0), Value::from("persisted"));
    txn.write(Key(1), Value::from("also persisted"));
    txn.commit().unwrap();
    cluster.stabilize(5);
    drop(cluster);

    // Second life: every server recovers from its WAL; after gossip
    // lifts the fresh UST over the recovered timestamps, the data is
    // back and the cluster keeps working.
    let mut cluster = build();
    cluster.stabilize(5);
    let b = cluster.open_client(1).unwrap();
    let mut txn = cluster.begin(b).unwrap();
    assert_eq!(
        txn.read_one(Key(0)).unwrap(),
        Some(Value::from("persisted"))
    );
    assert_eq!(
        txn.read_one(Key(1)).unwrap(),
        Some(Value::from("also persisted"))
    );
    txn.write(Key(2), Value::from("second life"));
    txn.commit().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_sim_stabilize_collects_garbage_and_writes_checkpoints() {
    let dir = std::env::temp_dir().join(format!("paris-facade-gc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cluster = Paris::builder()
        .dcs(2)
        .partitions(2)
        .replication(2)
        .keys_per_partition(100)
        .durability(paris::Durability::new(&dir).checkpoint_interval_micros(0))
        .build_sim()
        .expect("valid durable deployment");
    let a = cluster.open_client(0).unwrap();
    for value in ["first", "second"] {
        let mut txn = cluster.begin(a).unwrap();
        txn.write(Key(0), Value::from(value));
        txn.commit().unwrap();
        cluster.stabilize(5);
    }
    // GC trims to the horizon of the previous tick: one more GC period
    // (five rounds span one) for the tick that trims past "first".
    cluster.stabilize(5);
    let gc_removed = cluster.stats().unwrap().gc_removed;
    assert!(gc_removed > 0, "the overwritten version is collected");
    for id in cluster.topology().all_servers() {
        let durable = cluster.server(id).durable_stats();
        let checkpoints = durable.expect("a durable server").checkpoints;
        assert!(checkpoints >= 1, "{id}: no checkpoint at interval 0");
    }
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}
