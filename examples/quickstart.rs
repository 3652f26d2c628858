//! Quickstart: a PaRiS cluster in a dozen lines.
//!
//! Builds a 3-DC, partially replicated deployment through the unified
//! `Paris::builder()` facade, runs read-write transactions through RAII
//! `Txn` handles, and shows the two core behaviours of the paper:
//! non-blocking reads from the universally stable snapshot, and
//! read-your-own-writes through the client cache while the snapshot
//! catches up.
//!
//! Run with: `cargo run --example quickstart`

use paris::types::{DcId, Key, Value};
use paris::{Cluster, Error, Mode, Paris};

fn main() -> Result<(), Error> {
    // 3 DCs, 6 partitions, replication factor 2: each DC stores only 4 of
    // the 6 partitions — partial replication.
    let mut cluster = Paris::builder()
        .dcs(3)
        .partitions(6)
        .replication(2)
        .mode(Mode::Paris)
        .build_sim()?; // concrete backend: we inspect the topology below
    println!("deployment: 3 DCs × 6 partitions, R = 2");
    for dc in 0..3u16 {
        let parts = cluster.topology().partitions_in_dc(DcId(dc));
        println!("  dc{dc} hosts partitions {parts:?}");
    }

    // Alice (DC0) writes two keys in one atomic transaction.
    let alice = cluster.open_client(0)?;
    let mut txn = cluster.begin(alice)?;
    txn.write(Key(0), Value::from("first post"));
    txn.write(Key(1), Value::from("profile v2"));
    let ct = txn.commit()?;
    println!("\nalice committed keys 0 and 1 atomically at {ct}");

    // Alice reads her own writes immediately — served by the client-side
    // cache because the stable snapshot does not cover them yet.
    let mut txn = cluster.begin(alice)?;
    let mine = txn.read(&[Key(0), Key(1)])?;
    for r in &mine {
        println!(
            "alice reads {} = {:?} (source: {:?})",
            r.key,
            r.value
                .as_ref()
                .map(|v| String::from_utf8_lossy(v.as_bytes()).into_owned()),
            r.source
        );
    }
    txn.commit()?;

    // After the UST gossip stabilizes the snapshot, Bob in another DC
    // reads both keys — without blocking, from any replica.
    cluster.stabilize(5);
    println!(
        "\nUST is now {} (snapshot installed everywhere)",
        cluster.min_ust()
    );

    let bob = cluster.open_client(1)?;
    let mut txn = cluster.begin(bob)?;
    let seen = txn.read(&[Key(0), Key(1)])?;
    for r in &seen {
        println!(
            "bob   reads {} = {:?} (source: {:?})",
            r.key,
            r.value
                .as_ref()
                .map(|v| String::from_utf8_lossy(v.as_bytes()).into_owned()),
            r.source
        );
    }
    txn.commit()?;

    // Atomicity: Bob saw either both of Alice's writes or neither.
    let values: Vec<bool> = seen.iter().map(|r| r.value.is_some()).collect();
    assert!(values.iter().all(|v| *v), "both writes visible together");

    // Abort-on-drop: a transaction handle that goes out of scope without
    // commit() publishes nothing.
    {
        let mut txn = cluster.begin(bob)?;
        txn.write(Key(0), Value::from("never visible"));
        // dropped here -> aborted
    }
    let mut txn = cluster.begin(bob)?;
    assert_eq!(txn.read_one(Key(0))?, Some(Value::from("first post")));
    txn.commit()?;

    println!("\natomic multi-partition visibility ✓  non-blocking reads ✓  abort-on-drop ✓");
    Ok(())
}
