//! A social-network timeline on PaRiS — the paper's motivating workload
//! class ("PaRiS targets applications that can tolerate weaker consistency
//! and some degree of data staleness, e.g., social networks", §VI).
//!
//! Demonstrates the anomaly causal consistency prevents: a reply can never
//! be seen without the post it answers, even when post and reply live on
//! different partitions replicated in different DCs.
//!
//! Run with: `cargo run --example social_network`

use paris::types::{Key, Value};
use paris::{Backend, Error, Mode, Paris};

/// Key layout: user walls and posts spread over partitions by key.
fn wall(user: u64) -> Key {
    Key(user)
}
fn post(id: u64) -> Key {
    Key(100 + id)
}

fn text(v: &Option<Value>) -> String {
    v.as_ref()
        .map(|v| String::from_utf8_lossy(v.as_bytes()).into_owned())
        .unwrap_or_else(|| "∅".into())
}

fn main() -> Result<(), Error> {
    let mut net = Paris::builder()
        .dcs(3)
        .partitions(9)
        .replication(2)
        .mode(Mode::Paris)
        .backend(Backend::Sim)
        .build()?;

    // Three users in three different data centers.
    let ana = net.open_client(0)?; // Virginia
    let bo = net.open_client(1)?; // Oregon
    let cai = net.open_client(2)?; // Ireland

    // 1. Ana posts on her wall.
    let mut txn = net.begin(ana)?;
    txn.write(post(1), Value::from("ana: heading to ICDCS!"));
    txn.write(wall(1), Value::from("latest=post1"));
    txn.commit()?;
    println!("ana posted (post 1 + wall pointer, atomically)");

    // Propagate: the UST advances past Ana's commit.
    net.stabilize(5);

    // 2. Bo reads Ana's post, then replies — his reply causally depends
    //    on her post (read-from relationship).
    let mut txn = net.begin(bo)?;
    let seen = txn.read_one(post(1))?;
    println!("bo sees: {}", text(&seen));
    assert!(seen.is_some(), "bo must see the stabilized post");
    txn.write(post(2), Value::from("bo: see you there @ana!"));
    txn.write(wall(2), Value::from("latest=post2"));
    txn.commit()?;
    println!("bo replied (causally after ana's post)");

    net.stabilize(5);

    // 3. Cai reads both posts from a third DC. Causal consistency
    //    guarantees: if the reply is visible, the original post is too.
    let mut txn = net.begin(cai)?;
    let reply = txn.read_one(post(2))?;
    let original = txn.read_one(post(1))?;
    println!("cai sees reply:    {}", text(&reply));
    println!("cai sees original: {}", text(&original));
    if reply.is_some() {
        assert!(
            original.is_some(),
            "causality violated: reply visible without its cause"
        );
    }
    txn.commit()?;

    // 4. Session guarantees: Bo immediately sees his own reply (cache)
    //    even before another stabilization round.
    let mut txn = net.begin(bo)?;
    let own = txn.read_one(post(2))?;
    assert!(own.is_some(), "read-your-own-writes");
    txn.commit()?;

    println!("\ncausal timeline preserved across 3 DCs ✓");
    Ok(())
}
