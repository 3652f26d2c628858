//! Table I: taxonomy of causally consistent systems — transaction support,
//! non-blocking reads, partial replication and dependency-metadata cost —
//! with PaRiS's "1 timestamp" claim *measured* on the wire codec, for both
//! wire encodings (fixed-width v1 and varint v2).
//!
//! Besides the taxonomy, this bench is the byte-level acceptance gate of
//! wire v2: it runs the same seeded simulated deployment twice (identical
//! load, identical message flow — only the byte accounting differs) and
//! **fails** unless v2 cuts background wire bytes (Replicate, Gossip,
//! Heartbeat, UST broadcast) by at least 30% with zero consistency
//! violations. The per-run byte totals feed `bench/baseline.json` through
//! `BENCH_table1.json`, so a codec change that bloats frames trips the CI
//! perf gate even when it stays above the 30% floor.

use paris_bench::json::Json;
use paris_bench::{
    bench_doc, paper_deployment, section, warmup_micros, window_micros, write_bench_json,
};
use paris_core::metadata::{measured_paris_snapshot_metadata, table1, MetadataCost};
use paris_proto::{wire, wire2, Msg};
use paris_runtime::{Cluster, RunReport};
use paris_types::{
    DcId, Key, PartitionId, ServerId, Timestamp, TxId, Value, WireFormat, WriteSetEntry,
};
use paris_workload::WorkloadConfig;

/// Minimum background-traffic byte reduction v2 must deliver (fraction).
const REQUIRED_BACKGROUND_CUT: f64 = 0.30;

/// Representative protocol messages with realistic field magnitudes: an
/// uptime-scale timestamp (an hour of microseconds exercises multi-byte
/// varints; Unix-epoch stamps do not fit the 48-bit physical field).
fn sample_messages() -> Vec<Msg> {
    let ts = |seq: u64| Timestamp::from_parts(3_600_000_000 + seq, 3);
    let tx = TxId::new(ServerId::new(DcId(3), PartitionId(17)), 9);
    let srv = ServerId::new(DcId(1), PartitionId(4));
    vec![
        Msg::StartTxReq { client_ust: ts(0) },
        Msg::StartTxResp {
            tx,
            snapshot: ts(1),
        },
        Msg::ReadSliceReq {
            tx,
            snapshot: ts(1),
            keys: vec![Key(1).into(), Key(2).into(), Key(3).into()],
            reply_to: srv,
        },
        Msg::PrepareReq {
            tx,
            snapshot: ts(1),
            ht: ts(2),
            writes: vec![WriteSetEntry::new(Key(1), Value::filled(8, 1))],
            reply_to: srv,
            src_dc: DcId(3),
        },
        Msg::CommitTx { tx, ct: ts(3) },
        Msg::Heartbeat {
            partition: PartitionId(4),
            watermark: ts(4),
        },
        Msg::UstBroadcast {
            ust: ts(5),
            s_old: ts(4),
        },
    ]
}

/// One equal-load simulated run under the given encoding.
fn equal_load_run(wire: WireFormat) -> (RunReport, u64) {
    let mut sim = paper_deployment(
        paris_types::Mode::Paris,
        WorkloadConfig::read_heavy(),
        8,
        42,
    )
    .record_history(true)
    .wire_format(wire)
    .build_sim()
    .expect("valid table1 deployment");
    let report = sim
        .run_workload(warmup_micros(), window_micros())
        .expect("simulated workload cannot fail");
    let background = sim.net_background_bytes();
    (report, background)
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
    let snapshot_meta = measured_paris_snapshot_metadata();
    let start = Msg::StartTxReq {
        client_ust: Timestamp::from_parts(3_600_000_000, 3),
    };
    let v2_snapshot_meta = wire::metadata_len_with(&start, WireFormat::V2);
    println!(
        "\n  snapshot/dependency metadata on StartTxReq: {snapshot_meta} bytes under v1 \
         (one fixed-width timestamp), {v2_snapshot_meta} bytes under v2 (varint-trimmed)"
    );

    section("Wire v1 vs v2: per-message bytes");
    let msgs = sample_messages();
    println!(
        "\n  {:<16} {:>8} {:>8} {:>8}   {:>10} {:>10}",
        "message", "v1 B", "v2 B", "cut %", "v1 meta B", "v2 meta B"
    );
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut points: Vec<Json> = Vec::new();
    for msg in &msgs {
        let v1 = wire::encoded_len(msg);
        let v2 = wire2::encoded_len(msg);
        let m1 = wire::metadata_len_with(msg, WireFormat::V1);
        let m2 = wire::metadata_len_with(msg, WireFormat::V2);
        let cut = 100.0 * (1.0 - v2 as f64 / v1 as f64);
        println!(
            "  {:<16} {v1:>8} {v2:>8} {cut:>7.1}%   {m1:>10} {m2:>10}",
            msg.kind()
        );
        points.push(Json::obj(vec![
            ("figure", "table1_wire".into()),
            ("message", msg.kind().into()),
            ("v1_bytes", (v1 as u64).into()),
            ("v2_bytes", (v2 as u64).into()),
            ("v1_metadata_bytes", (m1 as u64).into()),
            ("v2_metadata_bytes", (m2 as u64).into()),
        ]));
    }
    println!(
        "\n  For comparison, a per-DC vector at M=10 costs {} bytes and a\n  \
         dependency list at 25 deps costs {} bytes per message.",
        MetadataCost::PerDc.bytes(10, 0),
        MetadataCost::PerDependency.bytes(10, 25),
    );

    section("Equal-load byte accounting: v1 vs v2 (same seed, same flow)");
    let (r1, bg1) = equal_load_run(WireFormat::V1);
    let (r2, bg2) = equal_load_run(WireFormat::V2);
    let cut = 1.0 - bg2 as f64 / bg1 as f64;
    println!(
        "\n  v1: {:>12} total B  {:>12} background B  {} msgs  {:.1} KTx/s",
        r1.net_bytes,
        bg1,
        r1.net_messages,
        r1.ktps()
    );
    println!(
        "  v2: {:>12} total B  {:>12} background B  {} msgs  {:.1} KTx/s",
        r2.net_bytes,
        bg2,
        r2.net_messages,
        r2.ktps()
    );
    println!(
        "  background cut: {:.1}% (required ≥ {:.0}%)",
        cut * 100.0,
        REQUIRED_BACKGROUND_CUT * 100.0
    );

    let committed = r2.stats.committed.max(1) as f64;
    metrics.push(("table1_v1_net_bytes".into(), r1.net_bytes as f64));
    metrics.push(("table1_v2_net_bytes".into(), r2.net_bytes as f64));
    metrics.push(("table1_v1_background_net_bytes".into(), bg1 as f64));
    metrics.push(("table1_v2_background_net_bytes".into(), bg2 as f64));
    metrics.push(("table1_net_messages".into(), r2.net_messages as f64));
    metrics.push(("table1_background_reduction_pct".into(), cut * 100.0));
    metrics.push((
        "table1_v2_bytes_per_tx".into(),
        r2.net_bytes as f64 / committed,
    ));
    metrics.push((
        "table1_violations".into(),
        (r1.violations.len() + r2.violations.len()) as f64,
    ));
    points.push(Json::obj(vec![
        ("figure", "table1_equal_load".into()),
        ("v1_net_bytes", r1.net_bytes.into()),
        ("v2_net_bytes", r2.net_bytes.into()),
        ("v1_background_bytes", bg1.into()),
        ("v2_background_bytes", bg2.into()),
        ("net_messages", r2.net_messages.into()),
        ("background_reduction_pct", (cut * 100.0).into()),
    ]));
    write_bench_json("BENCH_table1.json", &bench_doc("table1", metrics, points));

    // Acceptance: the claims this table makes must hold on the codecs it
    // describes, or the bench itself goes red.
    assert_eq!(
        snapshot_meta, 8,
        "PaRiS tracks dependencies with 1 timestamp"
    );
    assert!(
        v2_snapshot_meta < snapshot_meta,
        "v2 must trim the one-timestamp metadata below v1's fixed 8 bytes"
    );
    assert_eq!(
        r1.net_messages, r2.net_messages,
        "the encoding must not change the message flow (byte accounting only)"
    );
    assert!(
        r1.violations.is_empty() && r2.violations.is_empty(),
        "equal-load runs must be violation-free"
    );
    assert!(
        cut >= REQUIRED_BACKGROUND_CUT,
        "wire v2 must cut background traffic by ≥{:.0}% (measured {:.1}%)",
        REQUIRED_BACKGROUND_CUT * 100.0,
        cut * 100.0
    );
}
