//! Table I: taxonomy of causally consistent systems — transaction support,
//! non-blocking reads, partial replication and dependency-metadata cost —
//! with PaRiS's "1 timestamp" claim *measured* on the wire codec: per
//! message, the metadata bytes as shipped (varints) beside what the paper
//! counts (8 bytes per timestamp carried). The claim holds whichever way a
//! transaction begins: a `StartTxReq` is one timestamp, a first read that
//! carries the start instead is exactly one timestamp more than a plain
//! read, and so is the commit that carries a snapshot its client picked.
//!
//! Besides the taxonomy, this bench pins the byte cost of a seeded
//! simulated deployment: the run's byte totals feed `bench/baseline.json`
//! through `BENCH_table1.json`, so a codec change that bloats frames trips
//! the CI perf gate.

use paris_bench::json::Json;
use paris_bench::{
    bench_doc, paper_deployment, section, warmup_micros, window_micros, write_bench_json,
};
use paris_core::metadata::{measured_paris_snapshot_metadata, table1, MetadataCost};
use paris_proto::{wire, Carry, Msg, ReadKey, TxRef, VoteTo};
use paris_runtime::Cluster;
use paris_types::{
    DcId, HeldStamp, Key, PartitionId, ServerId, Timestamp, TxId, Value, VersionStamp,
    WriteSetEntry,
};
use paris_workload::WorkloadConfig;

/// Representative protocol messages with realistic field magnitudes: an
/// uptime-scale timestamp (an hour of microseconds exercises multi-byte
/// varints; Unix-epoch stamps do not fit the 48-bit physical field).
fn sample_messages() -> Vec<Msg> {
    let ts = |seq: u64| Timestamp::from_parts(3_600_000_000 + seq, 3);
    let tx = TxId::new(ServerId::new(DcId(3), PartitionId(17)), 9);
    vec![
        Msg::StartTxReq { client_ust: ts(0) },
        Msg::StartTxResp {
            tx,
            snapshot: ts(1),
        },
        read_req(TxRef::Known(tx)),
        read_req(TxRef::Start { client_ust: ts(0) }),
        Msg::ReadSliceReq {
            tx,
            snapshot: ts(1),
            keys: vec![Key(1).into(), Key(2).into(), Key(3).into()],
        },
        // The same keys stamped: two by when a read showed them (20 ms and
        // a second before the snapshot), one — an own write no read has
        // shown yet — by its identity.
        Msg::ReadSliceReq {
            tx,
            snapshot: ts(1),
            keys: vec![
                stamped(1, HeldStamp::Seen(3_599_980_000)),
                stamped(2, HeldStamp::Seen(3_599_000_000)),
                stamped(
                    3,
                    HeldStamp::Identity(VersionStamp {
                        ut: Timestamp::from_parts(3_599_998_000, 0),
                        tx,
                    }),
                ),
            ],
        },
        prepare_req(None),
        prepare_req(Some(Box::new(VoteTo {
            decider: ServerId::new(DcId(3), PartitionId(18)),
            carry: Some(Carry {
                writes: vec![WriteSetEntry::new(Key(2), Value::filled(8, 1))],
                votes: 2,
                client: paris_types::ClientId::new(DcId(3), 4),
                coordinator_share: true,
                picked: None,
            }),
        }))),
        commit_req(TxRef::Known(tx)),
        commit_req(TxRef::Picked {
            snapshot: ts(1),
            call: 9,
        }),
        Msg::CommitTx { tx, ct: ts(3) },
        commit_one(false, 0),
        commit_one(true, 0),
        commit_one(true, 2),
        Msg::Replicate {
            partition: PartitionId(4),
            txs: vec![],
            watermark: ts(4),
        },
        Msg::GossipDigest {
            reports: vec![],
            roots: vec![],
            ust: Some((ts(5), ts(4))),
            frames: 1,
        },
    ]
}

fn stamped(key: u64, held: HeldStamp) -> ReadKey {
    ReadKey {
        key: Key(key),
        held: Some(held),
    }
}

/// A prepare of one write: 2PC's, or a decider commit middle's, which
/// names the decider, may carry it its share and carries no snapshot.
fn prepare_req(vote_to: Option<Box<VoteTo>>) -> Msg {
    let snapshot = match vote_to {
        None => Timestamp::from_parts(3_600_000_001, 3),
        Some(_) => Timestamp::ZERO,
    };
    Msg::PrepareReq {
        tx: TxId::new(ServerId::new(DcId(3), PartitionId(17)), 9),
        snapshot,
        ht: Timestamp::from_parts(3_600_000_002, 3),
        writes: vec![WriteSetEntry::new(Key(1), Value::filled(8, 1))],
        src_dc: DcId(3),
        vote_to,
    }
}

/// A one-phase commit of one write; with the coordinator's share, the
/// last-agent form, whose `ht` carries the coordinator's proposal; with
/// votes, a carrying middle's, whose `ht` carries its own.
fn commit_one(coordinator_share: bool, votes: u32) -> Msg {
    Msg::CommitOne {
        tx: TxId::new(ServerId::new(DcId(3), PartitionId(17)), 9),
        ht: Timestamp::from_parts(3_600_000_002, 3),
        writes: vec![WriteSetEntry::new(Key(1), Value::filled(8, 1))],
        src_dc: DcId(3),
        client: paris_types::ClientId::new(DcId(3), 4),
        coordinator_share,
        picked: None,
        votes,
    }
}

/// A commit of one write, plain or carrying the snapshot its client
/// picked.
fn commit_req(tx: TxRef) -> Msg {
    Msg::CommitReq {
        tx,
        hwt: Timestamp::from_parts(3_600_000_000, 3),
        writes: vec![WriteSetEntry::new(Key(1), Value::filled(8, 1))],
    }
}

/// A first read of three keys, plain or in its start form.
fn read_req(tx: TxRef) -> Msg {
    Msg::ReadReq {
        tx,
        keys: vec![Key(1).into(), Key(2).into(), Key(3).into()],
    }
}

fn main() {
    section("Table I: taxonomy of CC systems");
    println!(
        "\n  {:<16} {:>9} {:>13} {:>13} {:>11} {:>12}",
        "System", "Txs", "Nonbl.reads", "Partial rep.", "Meta-data", "bytes (M=10)"
    );
    for row in table1() {
        println!(
            "  {:<16} {:>9} {:>13} {:>13} {:>11} {:>12}",
            row.name,
            row.txs.to_string(),
            if row.nonblocking_reads { "yes" } else { "no" },
            if row.partial_replication { "yes" } else { "no" },
            row.metadata.label(),
            row.metadata.bytes(10, 25),
        );
    }

    section("Measured PaRiS metadata (wire codec)");
    // Asserts on the codec: StartTxReq is its tag and one timestamp, and
    // CommitOne carries one, with or without the coordinator's share.
    let snapshot_meta = measured_paris_snapshot_metadata();
    println!(
        "\n  snapshot/dependency metadata on StartTxReq: 1 timestamp = {snapshot_meta} bytes \
         as the paper counts"
    );
    // The start may instead ride the first operation: that costs the
    // same one timestamp, on top of what the operation carries anyway.
    let timestamps = |tx| wire::metadata(&read_req(tx)).timestamps;
    let fused_extra = timestamps(TxRef::Start {
        client_ust: Timestamp::from_parts(3_600_000_000, 3),
    }) - timestamps(TxRef::Known(TxId::new(
        ServerId::new(DcId(3), PartitionId(17)),
        9,
    )));
    println!("  a first ReadReq carrying the start: {fused_extra} timestamp more than a plain one");
    // A client that picked its snapshot reads at it straight from the
    // replicas, and its commit carries the snapshot to the coordinator,
    // with a call number where the id would be.
    let timestamps = |tx| wire::metadata(&commit_req(tx)).timestamps;
    let picked_extra = timestamps(TxRef::Picked {
        snapshot: Timestamp::from_parts(3_600_000_000, 3),
        call: 9,
    }) - timestamps(TxRef::Known(TxId::new(
        ServerId::new(DcId(3), PartitionId(17)),
        9,
    )));
    println!(
        "  a CommitReq carrying a picked snapshot: {picked_extra} timestamp more than a plain one"
    );
    println!(
        "\n  {:<18} {:>8} {:>11} {:>11} {:>14}",
        "message", "bytes", "metadata B", "timestamps", "× 8 B (paper)"
    );
    let mut points: Vec<Json> = Vec::new();
    for msg in &sample_messages() {
        let label = match msg {
            Msg::ReadReq {
                tx: TxRef::Start { .. },
                ..
            } => "ReadReq (start)",
            Msg::CommitReq {
                tx: TxRef::Picked { .. },
                ..
            } => "CommitReq (picked)",
            Msg::PrepareReq {
                vote_to: Some(_), ..
            } => "PrepareReq+carry",
            Msg::CommitOne { votes: 1.., .. } => "CommitOne+votes",
            Msg::CommitOne {
                coordinator_share: true,
                ..
            } => "CommitOne+share",
            Msg::Replicate { txs, .. } if txs.is_empty() => "Replicate (empty)",
            Msg::GossipDigest { .. } => "Digest (UST only)",
            Msg::ReadSliceReq { keys, .. } if keys.iter().any(|k| k.held.is_some()) => {
                "SliceReq (stamped)"
            }
            _ => msg.kind(),
        };
        let bytes = wire::encoded_len(msg);
        let meta = wire::metadata(msg);
        println!(
            "  {:<18} {bytes:>8} {:>11} {:>11} {:>14}",
            label,
            meta.bytes,
            meta.timestamps,
            meta.timestamps * 8
        );
        points.push(Json::obj(vec![
            ("figure", "table1_wire".into()),
            ("message", label.into()),
            ("v2_bytes", (bytes as u64).into()),
            ("v2_metadata_bytes", (meta.bytes as u64).into()),
            ("timestamps", (meta.timestamps as u64).into()),
        ]));
    }
    println!(
        "\n  For comparison, a per-DC vector at M=10 costs {} bytes and a\n  \
         dependency list at 25 deps costs {} bytes per message.",
        MetadataCost::PerDc.bytes(10, 0),
        MetadataCost::PerDependency.bytes(10, 25),
    );

    section("Byte accounting of a seeded simulated run");
    let mut sim = paper_deployment(
        paris_types::Mode::Paris,
        WorkloadConfig::read_heavy(),
        8,
        42,
    )
    .record_history(true)
    .build_sim()
    .expect("valid table1 deployment");
    let report = sim
        .run_workload(warmup_micros(), window_micros())
        .expect("simulated workload cannot fail");
    let background = sim.net_background_bytes();
    println!(
        "\n  {:>12} total B  {:>12} background B  {} msgs  {:.1} KTx/s",
        report.net_bytes,
        background,
        report.net_messages,
        report.ktps()
    );

    let committed = report.stats.committed.max(1) as f64;
    let metrics = vec![
        ("table1_v2_net_bytes".into(), report.net_bytes as f64),
        ("table1_v2_background_net_bytes".into(), background as f64),
        ("table1_net_messages".into(), report.net_messages as f64),
        (
            "table1_v2_bytes_per_tx".into(),
            report.net_bytes as f64 / committed,
        ),
        ("table1_violations".into(), report.violations.len() as f64),
    ];
    points.push(Json::obj(vec![
        ("figure", "table1_equal_load".into()),
        ("v2_net_bytes", report.net_bytes.into()),
        ("v2_background_bytes", background.into()),
        ("net_messages", report.net_messages.into()),
    ]));
    write_bench_json("BENCH_table1.json", &bench_doc("table1", metrics, points));

    // Acceptance: the claims this table makes must hold on the codec it
    // describes, or the bench itself goes red.
    assert_eq!(
        snapshot_meta, 8,
        "PaRiS tracks dependencies with 1 timestamp"
    );
    assert_eq!(
        fused_extra, 1,
        "a start-form ReadReq carries exactly one timestamp more than the plain form"
    );
    assert_eq!(
        picked_extra, 1,
        "a picked-form CommitReq carries exactly one timestamp more than the plain form"
    );
    assert!(
        report.violations.is_empty(),
        "the seeded run must be violation-free"
    );
}
