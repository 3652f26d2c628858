//! Facade-specific behaviour: RAII transaction handles (abort-on-drop),
//! session sequencing, builder validation, and cross-backend agreement on
//! the same causal scenario.

use paris::types::{Key, Value};
use paris::{Backend, Cluster, Error, Mode, Paris, Tuning};

fn mini() -> paris::MiniCluster {
    Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .build_mini()
        .expect("valid deployment")
}

#[test]
fn txn_abort_on_drop_discards_buffered_writes() {
    let mut cluster = mini();
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
    let mut cluster = mini();
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
    let mut cluster = mini();
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
    let mut cluster = mini();
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
    let mut cluster = mini();
    let a = cluster.open_client(0).unwrap();
    drop(cluster);
    let mut other = mini();
    // A client id from another deployment is unknown here.
    let bogus = paris::types::ClientId::new(paris::types::DcId(0), a.seq + 999);
    assert!(other.txn_begin(bogus).is_err());
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

    // A store with zero chain shards cannot exist.
    let err = Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .tuning(Tuning::default().store_shards(0))
        .build();
    assert!(matches!(err.err().expect("must fail"), Error::Config(_)));

    // Zero read-admission *slots* is legal: it selects the mutex-only
    // fallback registry (what fig_reads measures the slots against).
    assert!(Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .tuning(Tuning::default().read_slots(0))
        .build()
        .is_ok());

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
        .backend(Backend::Mini)
        .build();
    assert!(matches!(
        err.err().expect("must fail"),
        Error::Unsupported(_)
    ));

    // Batching with fixed flush interval 0 means "default: two
    // replication ticks", resolved at build time regardless of call
    // order.
    assert!(Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .batch_size(8)
        .flush_interval_micros(0)
        .build()
        .is_ok());
    // An *unset* flush policy derives from the final intervals, capped
    // below the GC period — so interval choices (here 600 ms ticks,
    // where six ticks would overrun the 1 s GC period) can never
    // invalidate a deadline the user did not pick.
    assert!(Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .batch_size(8)
        .intervals(paris::types::Intervals {
            replication_micros: 600_000,
            gst_micros: 5_000,
            ust_micros: 5_000,
            gc_micros: 1_000_000,
        })
        .build()
        .is_ok());
    // An *explicit* fixed deadline resolving above the GC period is
    // still a clear error, never a silent adjustment.
    let err = Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .batch_size(8)
        .flush_interval_micros(0) // = 2 × 600 ms, above the gc period
        .intervals(paris::types::Intervals {
            replication_micros: 600_000,
            gst_micros: 5_000,
            ust_micros: 5_000,
            gc_micros: 1_000_000,
        })
        .build();
    assert!(matches!(err.err().expect("must fail"), Error::Config(_)));

    // Flush interval at/above the GC period.
    let err = Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .batch_size(8)
        .flush_interval_micros(1_000_000)
        .build();
    assert!(matches!(err.err().expect("must fail"), Error::Config(_)));

    // With batching disabled an explicit deadline is moot, not an error.
    assert!(Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .no_batching()
        .flush_interval_micros(1_000_000)
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
        .backend(Backend::Mini)
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
fn sim_and_thread_backends_agree_on_causal_chain_with_read_pool() {
    // Same scenario, but with `read_threads > 1`: the thread backend
    // serves slice reads on its read pool (off the server loop), the sim
    // executes the identical ReadView path synchronously — observers on
    // both must still see the same causal chain.
    let scenario_builder = |backend| {
        Paris::builder()
            .dcs(3)
            .partitions(6)
            .replication(2)
            .keys_per_partition(100)
            .clients_per_dc(0)
            .uniform_latency_micros(5_000)
            .jitter(0.0)
            .seed(29)
            .tuning(Tuning::default().read_threads(2))
            .backend(backend)
    };

    let mut sim = scenario_builder(Backend::Sim).build().unwrap();
    let mut thread = scenario_builder(Backend::Thread).build().unwrap();

    let from_sim = causal_chain(sim.as_mut());
    let from_thread = causal_chain(thread.as_mut());

    assert_eq!(
        from_sim, from_thread,
        "sim and thread must observe the same causal chain with read_threads > 1"
    );
    assert_eq!(from_sim, (Some(Value::from("y")), Some(Value::from("x"))));
    assert!(sim.check_convergence().unwrap().is_empty());
    assert!(thread.check_convergence().unwrap().is_empty());
}

#[test]
fn sim_and_thread_backends_agree_on_causal_chain_with_write_pool() {
    // Same scenario, but with `write_threads > 1`: the thread backend
    // runs prepares and replication applies on its write pool (staging
    // and lane applies off the server loop), the sim executes the
    // identical CommitPipeline path through deterministic write lanes —
    // observers on both must still see the same causal chain.
    let scenario_builder = |backend| {
        Paris::builder()
            .dcs(3)
            .partitions(6)
            .replication(2)
            .keys_per_partition(100)
            .clients_per_dc(0)
            .uniform_latency_micros(5_000)
            .jitter(0.0)
            .seed(31)
            .tuning(Tuning::default().write_threads(2))
            .backend(backend)
    };

    let mut sim = scenario_builder(Backend::Sim).build().unwrap();
    let mut thread = scenario_builder(Backend::Thread).build().unwrap();

    let from_sim = causal_chain(sim.as_mut());
    let from_thread = causal_chain(thread.as_mut());

    assert_eq!(
        from_sim, from_thread,
        "sim and thread must observe the same causal chain with write_threads > 1"
    );
    assert_eq!(from_sim, (Some(Value::from("y")), Some(Value::from("x"))));
    assert!(sim.check_convergence().unwrap().is_empty());
    assert!(thread.check_convergence().unwrap().is_empty());

    // The pipeline carried the write path on both backends, and the
    // unified stats surface says so through the same API.
    for (cluster, name) in [(&mut sim, "sim"), (&mut thread, "thread")] {
        let stats = cluster.stats().unwrap();
        assert!(stats.staged_prepares > 0, "{name}: no prepares staged");
        assert_eq!(
            stats.staged_prepares, stats.prepares,
            "{name}: every prepare goes through the pipeline"
        );
        assert!(stats.lane_batches > 0, "{name}: no lane applies");
    }
}

#[test]
fn cluster_stats_unifies_all_backends() {
    // One snapshot type for every backend: after the same workload,
    // `Cluster::stats()` must report a live write pipeline and counters
    // consistent with the run — and a second snapshot must be monotone
    // (counters are cumulative since build).
    for backend in [Backend::Mini, Backend::Sim, Backend::Thread] {
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
        assert_eq!(
            first.staged_prepares, first.prepares,
            "{backend:?}: every prepare must be staged through the pipeline"
        );
        assert!(
            first.lane_batches > 0 && first.lane_applies > 0,
            "{backend:?}: replication must flow through the apply lanes"
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
                && second.prepares >= first.prepares
                && second.staged_prepares >= first.staged_prepares,
            "{backend:?}: stats regressed between snapshots"
        );
    }
}

#[test]
fn builder_rejects_read_pool_with_bpr() {
    let err = match Paris::builder()
        .mode(Mode::Bpr)
        .tuning(Tuning::default().read_threads(4))
        .backend(Backend::Thread)
        .build()
    {
        Ok(_) => panic!("BPR + read_threads must be rejected"),
        Err(err) => err,
    };
    assert!(err.to_string().contains("read_threads"), "{err}");
}

/// The three batching configurations every combination test sweeps:
/// explicitly off, fixed-deadline, and the stable-time default.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Batching {
    Off,
    Fixed,
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
            Batching::Fixed => b.batch_size(32).flush_interval_micros(3_000),
            Batching::Default => b, // on by default
        }
    };

    let mut outcomes = Vec::new();
    for backend in [Backend::Sim, Backend::Thread] {
        for batching in [Batching::Off, Batching::Fixed, Batching::Default] {
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
            Batching::Fixed => b.batch_size(64).flush_interval_micros(15_000),
            Batching::Default => b, // on by default
        };
        let mut cluster = b.build().unwrap();
        cluster.run_workload(100_000, 400_000).unwrap()
    };
    let off = run(Batching::Off);
    let fixed = run(Batching::Fixed);
    let default = run(Batching::Default);
    for (report, name) in [(&off, "off"), (&fixed, "fixed"), (&default, "default")] {
        assert!(report.stats.committed > 0, "{name}: no progress");
        assert!(
            report.violations.is_empty(),
            "{name}: checker violations {:?}",
            report.violations
        );
    }
    assert!(
        (fixed.net_messages as f64) < off.net_messages as f64 * 0.75,
        "fixed batching saved too little: {} -> {} messages",
        off.net_messages,
        fixed.net_messages
    );
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
    let mut cluster = mini();
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
    for backend in [Backend::Mini, Backend::Sim, Backend::Thread] {
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
    for backend in [Backend::Mini, Backend::Sim, Backend::Thread] {
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
fn bpr_mode_works_through_the_facade_on_all_backends() {
    for backend in [Backend::Mini, Backend::Sim, Backend::Thread] {
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
fn durable_mini_cluster_survives_a_rebuild_from_the_same_directory() {
    let dir = std::env::temp_dir().join(format!("paris-facade-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let build = || {
        Paris::builder()
            .dcs(2)
            .partitions(2)
            .replication(2)
            .keys_per_partition(100)
            .durability(paris::Durability::new(&dir))
            .build_mini()
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
