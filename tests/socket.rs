//! The socket backend end to end: real child processes over loopback
//! TCP behind the unchanged [`Cluster`] facade.
//!
//! Shapes stay small (2 DCs × 2 partitions, R = 2 → 4 child processes)
//! so the suite never floods a CI host with processes. The child binary
//! is built by any workspace `cargo build`/`cargo test` (it is a
//! `paris-runtime` bin target) and found next to the test executable.

use std::process::Command;
use std::time::{Duration, Instant};

use paris::types::{DcId, FaultPlan, Key, Value};
use paris::{Backend, Cluster, Error, Paris};

/// The shared small-shape builder: 4 servers, interactive clients only.
fn small(backend: Backend) -> paris::ClusterBuilder {
    Paris::builder()
        .dcs(2)
        .partitions(2)
        .replication(2)
        .keys_per_partition(100)
        .clients_per_dc(0)
        .uniform_latency_micros(5_000)
        .jitter(0.0)
        .seed(101)
        .backend(backend)
}

/// Runs a causal chain across both DCs and returns what the observer
/// saw: write x in DC 0, read-then-write y in DC 1, then an observer in
/// DC 0 reads (y, x). TCC forbids y without x.
fn causal_chain(cluster: &mut dyn Cluster) -> (Option<Value>, Option<Value>) {
    let a = cluster.open_client(0).unwrap();
    let b = cluster.open_client(1).unwrap();
    let c = cluster.open_client(0).unwrap();

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
fn thread_and_socket_backends_agree_on_causal_chain() {
    // Batching off and on: coalescing real TCP frames must not change
    // what any observer can read, and processes must agree with threads.
    for batching_on in [false, true] {
        let with_batching = |b: paris::ClusterBuilder| {
            if batching_on {
                b // on by default
            } else {
                b.no_batching()
            }
        };
        let mut thread = with_batching(small(Backend::Thread)).build().unwrap();
        let mut socket = with_batching(small(Backend::Socket)).build().unwrap();

        let from_thread = causal_chain(thread.as_mut());
        let from_socket = causal_chain(socket.as_mut());

        assert_eq!(
            from_thread, from_socket,
            "thread and socket backends must observe the same causal chain (batching={batching_on})"
        );
        assert_eq!(
            from_socket,
            (Some(Value::from("y")), Some(Value::from("x"))),
            "wrong causal observation (batching={batching_on})"
        );
        assert!(
            socket.check_convergence().unwrap().is_empty(),
            "socket replicas diverged (batching={batching_on})"
        );
    }
}

/// `min_ust()` reads the UST each server loop publishes: on an idle
/// deployment a call costs no loop wake-up (a 5 ms wait when idle), and a
/// commit is covered within two batching quanta plus scheduling slack.
#[test]
fn min_ust_answers_without_a_loop_wake_up_and_covers_a_commit_promptly() {
    let quantum = Duration::from_micros(paris::types::BatchConfig::default().quantum_micros);
    let median = |mut xs: Vec<Duration>| {
        xs.sort();
        xs[xs.len() / 2]
    };
    for backend in [Backend::Thread, Backend::Socket] {
        let mut cluster = small(backend).uniform_latency_micros(0).build().unwrap();
        let a = cluster.open_client(0).unwrap();
        cluster.stabilize(2);

        let calls: Vec<Duration> = (0..50)
            .map(|_| {
                let asked = Instant::now();
                cluster.min_ust();
                asked.elapsed()
            })
            .collect();
        let call = median(calls);
        assert!(
            call < Duration::from_millis(1),
            "{backend:?}: a min_ust() call took {call:?}"
        );

        // The lag of five commits, each polled until the UST covers it;
        // the median keeps one stall of a loaded host from deciding.
        let lags: Vec<Duration> = (0..5u64)
            .map(|i| {
                let mut txn = cluster.begin(a).unwrap();
                txn.write(Key(i), Value::from("v"));
                let ct = txn.commit().unwrap();
                let committed = Instant::now();
                while cluster.min_ust() < ct {
                    assert!(
                        committed.elapsed() < Duration::from_secs(5),
                        "{backend:?}: never covered"
                    );
                    std::thread::sleep(Duration::from_micros(200));
                }
                committed.elapsed()
            })
            .collect();
        let lag = median(lags);
        let bound = 2 * quantum + Duration::from_millis(20);
        assert!(
            lag < bound,
            "{backend:?}: min_ust() covered a commit after {lag:?}, over {bound:?}"
        );
    }
}

#[test]
fn socket_backend_honors_facade_semantics() {
    let mut cluster = small(Backend::Socket).build().unwrap();

    // Abort-on-drop: a dropped Txn handle leaves nothing behind.
    let a = cluster.open_client(0).unwrap();
    {
        let mut txn = cluster.begin(a).unwrap();
        txn.write(Key(7), Value::from("doomed"));
    }
    cluster.stabilize(3);
    let b = cluster.open_client(1).unwrap();
    let mut txn = cluster.begin(b).unwrap();
    assert_eq!(txn.read_one(Key(7)).unwrap(), None, "aborted write leaked");
    txn.commit().unwrap();

    // Double begin: sessions stay sequential across the process gap.
    cluster.txn_begin(a).unwrap();
    assert_eq!(
        cluster.txn_begin(a).unwrap_err(),
        Error::TransactionAlreadyOpen
    );
    cluster.txn_commit(a).unwrap();
    cluster.txn_begin(a).unwrap();
    cluster.txn_commit(a).unwrap();
}

/// Version-validated reads over real sockets: re-reading 1 KiB values —
/// the session's own (once the UST covers them and they leave the write
/// cache) and another client's — returns the right bytes, and the servers
/// report that they validated them instead of shipping them again.
#[test]
fn rereading_kilobyte_values_validates_instead_of_reshipping() {
    use paris::core::ReadSource;

    let mut cluster = small(Backend::Socket).value_size(1024).build().unwrap();
    let a = cluster.open_client(0).unwrap();
    let b = cluster.open_client(1).unwrap();
    let keys: Vec<Key> = (0..8).map(Key).collect();
    let value = |key: u64, round: u64| Value::filled(1024, 16 * round + key);

    // `a` writes keys 0–3, `b` keys 4–7; wait until both are stable.
    let mut stable_after = Vec::new();
    for (client, range) in [(a, 0..4u64), (b, 4..8u64)] {
        cluster.txn_begin(client).unwrap();
        let writes: Vec<(Key, Value)> = range.map(|k| (Key(k), value(k, 1))).collect();
        cluster.txn_write(client, &writes).unwrap();
        stable_after.push(cluster.txn_commit(client).unwrap());
    }
    let wait_stable = |cluster: &mut Box<dyn Cluster>, ct| {
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.min_ust() < ct {
            assert!(Instant::now() < deadline, "UST never covered the commit");
            cluster.stabilize(1);
        }
    };
    for ct in stable_after {
        wait_stable(&mut cluster, ct);
    }

    let read_all = |cluster: &mut Box<dyn Cluster>, expect: &dyn Fn(u64) -> Value| {
        cluster.txn_begin(a).unwrap();
        let mut reads = cluster.txn_read(a, &keys).unwrap();
        cluster.txn_commit(a).unwrap();
        reads.sort_by_key(|r| r.key);
        for (k, read) in reads.iter().enumerate() {
            assert_eq!(read.source, ReadSource::Server, "key {k}");
            assert_eq!(read.value, Some(expect(k as u64)), "key {k}");
        }
        let stats = cluster.stats().unwrap();
        (reads, stats.reads_unchanged, stats.reads_shipped)
    };

    // First read: `a`'s own four writes are validated (the bytes never
    // travel back), `b`'s four are shipped.
    let (first, unchanged, shipped) = read_all(&mut cluster, &|k| value(k, 1));
    assert_eq!((unchanged, shipped), (4, 4));
    // Second read: all eight are validated, and the reads are identical.
    let (second, unchanged, shipped) = read_all(&mut cluster, &|k| value(k, 1));
    assert_eq!((unchanged, shipped), (12, 4));
    assert_eq!(first, second);

    // `b` overwrites key 5: exactly that key is shipped again, new bytes.
    cluster.txn_begin(b).unwrap();
    cluster.txn_write(b, &[(Key(5), value(5, 2))]).unwrap();
    let ct = cluster.txn_commit(b).unwrap();
    wait_stable(&mut cluster, ct);
    let (_, unchanged, shipped) = read_all(&mut cluster, &|k| value(k, if k == 5 { 2 } else { 1 }));
    assert_eq!((unchanged, shipped), (19, 5));
}

#[test]
fn socket_workload_passes_the_checker_and_counts_wire_traffic() {
    let mut cluster = small(Backend::Socket)
        .clients_per_dc(2)
        .record_history(true)
        .build()
        .unwrap();
    let report = cluster.run_workload(100_000, 400_000).unwrap();
    assert!(report.stats.committed > 0, "no progress over TCP");
    assert!(
        report.violations.is_empty(),
        "socket backend violated TCC: {:#?}",
        report.violations
    );
    // Unlike in-process backends, every inter-server message really
    // crossed a socket — the counters must show it.
    assert!(report.net_messages > 0, "no wire messages counted");
    assert!(report.net_bytes > 0, "no wire bytes counted");
    assert!(cluster.check_convergence().unwrap().is_empty());
}

/// `kill -0 pid` (signal 0 probes existence without sending anything).
fn process_exists(pid: u32) -> bool {
    Command::new("kill")
        .args(["-0", &pid.to_string()])
        .stderr(std::process::Stdio::null())
        .status()
        .map(|s| s.success())
        .unwrap_or(false)
}

#[test]
fn killed_server_surfaces_transport_error_and_leaks_no_children() {
    let mut cluster = small(Backend::Socket)
        .clients_per_dc(2)
        .build_socket()
        .unwrap();
    let pids = cluster.server_pids();
    assert_eq!(pids.len(), 4, "2 DCs × 2 partitions is 4 child processes");
    for &pid in &pids {
        assert!(process_exists(pid), "child {pid} not running");
    }

    // Murder one server 300 ms into the workload.
    let victim = pids[0];
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let _ = Command::new("kill")
            .args(["-9", &victim.to_string()])
            .status();
    });

    let begun = Instant::now();
    let err = cluster
        .run_workload(500_000, 4_000_000)
        .expect_err("a killed server must fail the run");
    killer.join().unwrap();
    assert!(
        matches!(err, Error::Transport(_)),
        "expected a transport error, got {err:?}"
    );
    // Timely: the liveness poll must notice long before the 4.5 s run
    // (or any client op timeout) elapses.
    assert!(
        begun.elapsed() < Duration::from_secs(3),
        "death took {:?} to surface",
        begun.elapsed()
    );

    // Shutdown reaps everything — no orphaned processes.
    drop(cluster);
    for &pid in &pids {
        assert!(!process_exists(pid), "child {pid} leaked");
    }
}

#[test]
fn crash_recovery_restores_committed_data() {
    let dir = std::env::temp_dir().join(format!("paris-sock-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cluster = small(Backend::Socket)
        .durability(paris::Durability::new(&dir))
        .record_history(true)
        .build()
        .unwrap();

    // Commit to both partitions, then let replication settle: pushes to
    // peer replicas are fire-and-forget, so anything not yet replicated
    // when the server dies is legitimately gone at that replica.
    let a = cluster.open_client(0).unwrap();
    let mut txn = cluster.begin(a).unwrap();
    txn.write(Key(0), Value::from("even"));
    txn.write(Key(1), Value::from("odd"));
    txn.commit().unwrap();
    cluster.stabilize(8);

    // SIGKILL dc0-p0 (index 0 in `Topology::all_servers` order), then
    // keep committing through the outage — from DC 1, to partition-1
    // keys only, so no path needs the dead server.
    cluster.kill_server(0).unwrap();
    let b = cluster.open_client(1).unwrap();
    let mut txn = cluster.begin(b).unwrap();
    txn.write(Key(3), Value::from("during-outage"));
    txn.commit().unwrap();

    // The restarted child replays its checkpoint + WAL suffix before it
    // rejoins; `restart_server` returns only once it is routed again.
    cluster.restart_server(0).unwrap();
    cluster.stabilize(8);

    // Fresh clients (empty write caches) in both DCs must see every
    // commit. The DC-0 read of Key(0) is served by the restarted server:
    // it has the value only if recovery restored it from disk.
    for dc in 0..2 {
        let reader = cluster.open_client(dc).unwrap();
        let mut txn = cluster.begin(reader).unwrap();
        assert_eq!(
            txn.read_one(Key(0)).unwrap(),
            Some(Value::from("even")),
            "dc{dc}: pre-kill write on the killed partition lost"
        );
        assert_eq!(txn.read_one(Key(1)).unwrap(), Some(Value::from("odd")));
        assert_eq!(
            txn.read_one(Key(3)).unwrap(),
            Some(Value::from("during-outage")),
            "dc{dc}: outage-window write lost"
        );
        txn.commit().unwrap();
    }
    assert!(
        cluster.check_convergence().unwrap().is_empty(),
        "replicas diverged after crash recovery"
    );
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_and_restart_are_socket_only_and_index_checked() {
    // The trait defaults: in-process backends have no processes to kill.
    let mut sim = small(Backend::Sim).build().unwrap();
    assert!(matches!(sim.kill_server(0), Err(Error::Unsupported(_))));
    assert!(matches!(sim.restart_server(0), Err(Error::Unsupported(_))));

    // The socket backend bounds-checks the server index.
    let mut socket = small(Backend::Socket).build_socket().unwrap();
    assert!(matches!(socket.kill_server(99), Err(Error::Config(_))));
    assert!(matches!(socket.restart_server(99), Err(Error::Config(_))));

    // Restart without a prior kill is a plain (idempotent) respawn.
    socket.restart_server(1).unwrap();
    let a = socket.open_client(0).unwrap();
    let mut txn = socket.begin(a).unwrap();
    txn.write(Key(5), Value::from("post-respawn"));
    txn.commit().unwrap();
}

#[test]
fn the_socket_backend_rejects_fault_plans() {
    // Faults on socket are real processes (`kill_server` /
    // `restart_server`): a scripted plan is refused at build time…
    let plan = FaultPlan::new().partition_link(10_000, DcId(0), DcId(1));
    let err = small(Backend::Socket)
        .fault_plan(plan.clone())
        .build()
        .err()
        .expect("socket build must fail");
    assert!(matches!(err, Error::Unsupported(_)), "{err}");

    // …and by `SocketNet`'s `LiveNet` default after the build.
    let mut socket = small(Backend::Socket).build_socket().unwrap();
    let err = socket.install_fault_plan(plan).unwrap_err();
    assert!(matches!(err, Error::Unsupported(_)), "{err}");
}

#[test]
fn interactive_operation_on_a_killed_server_fails_cleanly() {
    let mut cluster = small(Backend::Socket).build_socket().unwrap();
    let a = cluster.open_client(0).unwrap();
    // A healthy transaction first, so the session and links are warm.
    let mut txn = cluster.begin(a).unwrap();
    txn.write(Key(3), Value::from("pre"));
    txn.commit().unwrap();

    for pid in cluster.server_pids() {
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
    // Every coordinator is gone: the next operation must error, not hang.
    let begun = Instant::now();
    let err = cluster.txn_begin(a).expect_err("dead cluster must fail");
    assert!(
        matches!(err, Error::Transport(_)),
        "expected a transport error, got {err:?}"
    );
    assert!(
        begun.elapsed() < Duration::from_secs(3),
        "dead server took {:?} to surface",
        begun.elapsed()
    );
}

#[test]
fn a_commit_whose_coordinator_restarted_fails_instead_of_faking_success() {
    // The restarted process lost the transaction's context. It used to
    // answer the commit with `ct = 0`, which the facade reported as a
    // successful read-only commit while the writes were dropped.
    let mut cluster = small(Backend::Socket).build_socket().unwrap();
    let a = cluster.open_client(0).unwrap();
    let coordinator = cluster.topology().coordinator_for(a.dc, a.seq);
    let index = cluster
        .topology()
        .all_servers()
        .iter()
        .position(|s| *s == coordinator)
        .unwrap();
    cluster.txn_begin(a).unwrap();
    cluster
        .txn_write(a, &[(Key(9), Value::from("lost"))])
        .unwrap();
    cluster.restart_server(index).unwrap();
    assert_eq!(
        cluster.txn_commit(a).unwrap_err(),
        Error::PartitionUnreachable,
        "a commit of dropped writes must not succeed"
    );
    // The session is usable again, and nothing of the lost commit shows.
    cluster.stabilize(3);
    let mut txn = cluster.begin(a).unwrap();
    assert_eq!(txn.read_one(Key(9)).unwrap(), None);
    txn.commit().unwrap();
}
