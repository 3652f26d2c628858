//! A geo-distributed storefront on PaRiS: the partial-replication story.
//!
//! Partial replication is the paper's capacity argument: with replication
//! factor R over M DCs, each DC stores R/M of the data, so the same
//! machines hold an M/R× larger dataset than full replication — and
//! updates travel to R−1 replicas instead of M−1. This example shows a
//! catalog sharded over 5 DCs with R = 2, clients transparently reading
//! partitions their DC does not host, and atomic cross-partition order
//! placement.
//!
//! Run with: `cargo run --example geo_storefront`

use paris::types::{DcId, Key, PartitionId, Value};
use paris::{Cluster, Error, Mode, Paris};

fn main() -> Result<(), Error> {
    let (dcs, partitions, r) = (5u16, 20u32, 2u16);
    let mut shop = Paris::builder()
        .dcs(dcs)
        .partitions(partitions)
        .replication(r)
        .mode(Mode::Paris)
        .build_sim()?; // concrete backend: placement is inspected below

    // Capacity accounting (paper §I): each DC hosts N·R/M partitions.
    let per_dc = shop.topology().partitions_in_dc(DcId(0)).len();
    println!("deployment: {dcs} DCs × {partitions} partitions, R = {r}");
    println!(
        "  each DC hosts {per_dc}/{partitions} partitions → {}x the capacity of full replication",
        dcs as f64 / r as f64
    );
    println!(
        "  each update is pushed to {} remote replica(s) instead of {}",
        r - 1,
        dcs - 1
    );

    // The merchant (Frankfurt-ish DC 2) stocks the catalog.
    let merchant = shop.open_client(2)?;
    let mut txn = shop.begin(merchant)?;
    for item in 0..10u64 {
        txn.write(
            Key(item),
            Value::from(format!("stock=100 item={item}").as_str()),
        );
    }
    txn.commit()?;
    shop.stabilize(5);
    println!("\nmerchant stocked 10 items across the shards");

    // A shopper in DC 4 browses items on partitions DC 4 does not host:
    // the coordinator transparently reads the preferred remote replica.
    let shopper = shop.open_client(4)?;
    let not_local: Vec<Key> = (0..10u64)
        .map(Key)
        .filter(|k| {
            let p = shop.topology().partition_of(*k);
            !shop.topology().is_replicated_at(p, DcId(4))
        })
        .collect();
    println!(
        "shopper in dc4 browses {} items with no local replica",
        not_local.len()
    );
    let mut txn = shop.begin(shopper)?;
    let reads = txn.read(&not_local)?;
    txn.commit()?;
    for rd in reads.iter().take(3) {
        let p = shop.topology().partition_of(rd.key);
        let target = shop.topology().target_dc(p, DcId(4));
        println!(
            "  {} (partition {p}) served by {target}: {:?}",
            rd.key,
            rd.value
                .as_ref()
                .map(|v| String::from_utf8_lossy(v.as_bytes()).into_owned())
        );
        assert!(rd.value.is_some());
    }

    // Order placement: decrement stock of two items on different
    // partitions and write the order — all atomic under TCC.
    let order_key = Key(1_000);
    let mut txn = shop.begin(shopper)?;
    txn.write(Key(3), Value::from("stock=99 item=3"));
    txn.write(Key(7), Value::from("stock=99 item=7"));
    txn.write(order_key, Value::from("order: items [3,7] for dc4-shopper"));
    let ct = txn.commit()?;
    println!(
        "\norder committed atomically at {ct} across {} partitions",
        3
    );

    // Any observer sees the order with its stock updates, or neither.
    shop.stabilize(5);
    let auditor = shop.open_client(0)?;
    let mut txn = shop.begin(auditor)?;
    let order = txn.read_one(order_key)?;
    let stock3 = txn.read_one(Key(3))?;
    txn.commit()?;
    if order.is_some() {
        assert_eq!(stock3, Some(Value::from("stock=99 item=3")), "atomicity");
    }
    println!("auditor in dc0 sees a consistent order + stock state ✓");

    // Show the placement map for the curious.
    println!("\nplacement (partition → replica DCs):");
    for p in (0..partitions).step_by(5) {
        let reps = shop.topology().replicas(PartitionId(p));
        println!("  p{p:<3} → {reps:?}");
    }
    Ok(())
}
