//! Workspace-level integration tests exercising the public facade the way
//! a downstream user would: one `Paris::builder()` entry point, one
//! `Cluster` trait, RAII `Txn` handles — across backends and protocol
//! modes.

use paris::types::{DcId, Key, PartitionId, ServerId, Timestamp, Value};
use paris::{Backend, Cluster, Mode, Paris, SimCluster};

fn sim(dcs: u16, partitions: u32, mode: Mode) -> SimCluster {
    Paris::builder()
        .dcs(dcs)
        .partitions(partitions)
        .replication(2)
        .mode(mode)
        .build_sim()
        .expect("valid deployment")
}

#[test]
fn readme_flow_write_stabilize_read_everywhere() {
    let mut cluster = sim(3, 6, Mode::Paris);
    let writer = cluster.open_client(0).unwrap();
    let mut txn = cluster.begin(writer).unwrap();
    txn.write(Key(4), Value::from("v"));
    let ct = txn.commit().unwrap();
    cluster.stabilize(5);
    assert!(cluster.min_ust() >= ct);

    for dc in 0..3u16 {
        let reader = cluster.open_client(dc).unwrap();
        let mut txn = cluster.begin(reader).unwrap();
        assert_eq!(
            txn.read_one(Key(4)).unwrap(),
            Some(Value::from("v")),
            "dc{dc} must read the stabilized write"
        );
        txn.commit().unwrap();
    }
}

#[test]
fn causal_chain_across_three_dcs() {
    let mut cluster = sim(3, 9, Mode::Paris);
    let a = cluster.open_client(0).unwrap();
    let b = cluster.open_client(1).unwrap();
    let c = cluster.open_client(2).unwrap();

    // a writes x; b reads x and writes y; c must not see y without x.
    let mut txn = cluster.begin(a).unwrap();
    txn.write(Key(0), Value::from("x"));
    let ct_x = txn.commit().unwrap();
    cluster.stabilize(5);

    let mut txn = cluster.begin(b).unwrap();
    assert!(txn.read_one(Key(0)).unwrap().is_some());
    txn.write(Key(1), Value::from("y"));
    let ct_y = txn.commit().unwrap();
    assert!(ct_y > ct_x, "dependent write must be timestamped later");
    cluster.stabilize(5);

    let mut txn = cluster.begin(c).unwrap();
    let y = txn.read_one(Key(1)).unwrap();
    let x = txn.read_one(Key(0)).unwrap();
    assert!(y.is_some());
    assert!(x.is_some(), "cause must be visible with its effect");
    txn.commit().unwrap();
}

#[test]
fn write_write_conflict_converges_identically_everywhere() {
    let mut cluster = sim(3, 6, Mode::Paris);
    let a = cluster.open_client(0).unwrap();
    let b = cluster.open_client(1).unwrap();

    // Two *concurrently open* transactions writing the same key: the raw
    // session ops express the interleaving the RAII handle's borrow
    // would forbid.
    cluster.txn_begin(a).unwrap();
    cluster.txn_begin(b).unwrap();
    cluster.txn_write(a, &[(Key(0), Value::from("A"))]).unwrap();
    cluster.txn_write(b, &[(Key(0), Value::from("B"))]).unwrap();
    cluster.txn_commit(a).unwrap();
    cluster.txn_commit(b).unwrap();
    cluster.stabilize(8);

    // Both replicas of partition 0 must agree (LWW).
    let replicas = cluster.topology().replicas(PartitionId(0));
    let values: Vec<Vec<u8>> = replicas
        .iter()
        .map(|dc| {
            cluster
                .server(ServerId::new(*dc, PartitionId(0)))
                .store()
                .latest(Key(0))
                .unwrap()
                .value
                .as_bytes()
                .to_vec()
        })
        .collect();
    assert_eq!(values[0], values[1], "replicas must converge");
    assert!(cluster.check_convergence().unwrap().is_empty());

    // Readers in every DC see the same winner.
    let mut seen = Vec::new();
    for dc in 0..3u16 {
        let r = cluster.open_client(dc).unwrap();
        let mut txn = cluster.begin(r).unwrap();
        seen.push(txn.read_one(Key(0)).unwrap().unwrap());
        txn.commit().unwrap();
    }
    assert!(seen.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn bpr_mode_full_flow() {
    let mut cluster = sim(3, 6, Mode::Bpr);
    let a = cluster.open_client(0).unwrap();
    let mut txn = cluster.begin(a).unwrap();
    txn.write(Key(2), Value::from("fresh"));
    let ct = txn.commit().unwrap();
    assert!(ct > Timestamp::ZERO);

    // BPR reads block until installed; the sim runs on until the reply
    // arrives, so this returns the fresh value without any UST
    // requirement.
    let b = cluster.open_client(1).unwrap();
    let mut txn = cluster.begin(b).unwrap();
    assert_eq!(txn.read_one(Key(2)).unwrap(), Some(Value::from("fresh")));
    txn.commit().unwrap();
}

#[test]
fn snapshots_monotonic_in_sim_cluster() {
    let mut cluster = sim(3, 6, Mode::Paris);
    let a = cluster.open_client(0).unwrap();
    let mut prev = Timestamp::ZERO;
    for i in 0..10u64 {
        let mut txn = cluster.begin(a).unwrap();
        let snap = txn.snapshot();
        assert!(snap >= prev, "snapshot regressed at tx {i}");
        prev = snap;
        txn.write(Key(i % 6), Value::filled(8, i));
        txn.commit().unwrap();
        cluster.stabilize(2);
    }
    assert!(prev > Timestamp::ZERO);
}

#[test]
fn facade_reexports_are_usable() {
    // Compile-time sanity that the facade exposes the main types.
    let cfg = paris::ClusterConfig::builder()
        .dcs(3)
        .partitions(6)
        .replication_factor(2)
        .build()
        .unwrap();
    let topo = paris::Topology::new(cfg);
    assert_eq!(topo.dcs(), 3);
    assert_eq!(topo.partitions_in_dc(DcId(0)).len(), 4);
}

#[test]
fn sim_runtime_through_facade() {
    let mut sim = Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .keys_per_partition(200)
        .uniform_latency_micros(10_000)
        .jitter(0.02)
        .clients_per_dc(4)
        .seed(31)
        .record_events(true)
        .record_history(true)
        .backend(Backend::Sim)
        .build()
        .unwrap();
    let report = sim.run_workload(200_000, 800_000).unwrap();
    assert!(report.stats.committed > 0);
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
}

#[test]
fn threaded_runtime_through_facade() {
    let mut cluster = Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .keys_per_partition(100)
        .clients_per_dc(2)
        .seed(7)
        .record_history(true)
        .intervals(paris::types::Intervals {
            replication_micros: 2_000,
            gst_micros: 2_000,
            ust_micros: 2_000,
            gc_micros: 500_000,
        })
        .backend(Backend::Thread)
        .build()
        .unwrap();
    let report = cluster.run_workload(0, 600_000).unwrap();
    assert!(report.stats.committed > 0);
    assert!(report.violations.is_empty(), "{:#?}", report.violations);
    let convergence = cluster.check_convergence().unwrap();
    assert!(convergence.is_empty(), "{:#?}", convergence);
}
