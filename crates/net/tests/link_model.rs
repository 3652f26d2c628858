//! One fault script through both drivers of the link model: `SimNetwork`
//! stepped directly, and the threaded router's delay wheel in real time at
//! `scale = 1.0`. Both must deliver every link's traffic in the same order
//! and count the same messages and bytes.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use paris_net::sim::{RegionMatrix, SimNetwork};
use paris_net::threaded::{Router, ThreadedNetConfig};
use paris_proto::{Endpoint, Envelope, Msg};
use paris_types::{
    BatchConfig, DcId, FaultKind, PartitionId, ServerId, Timestamp, TxId, WireFormat,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const JITTER: f64 = 0.5;
const SEED: u64 = 11;

enum Step {
    Send(Envelope),
    Fault(FaultKind),
}

fn server(dc: u16) -> ServerId {
    ServerId::new(DcId(dc), PartitionId(dc.into()))
}

/// Message `n` from DC `src` to DC `dst`: a background heartbeat, or a
/// foreground commit for every third `n`, so the byte split is exercised.
fn send(src: u16, dst: u16, n: u32) -> Step {
    let msg = if n.is_multiple_of(3) {
        Msg::CommitTx {
            tx: TxId::new(server(src), n.into()),
            ct: Timestamp::from_physical_micros(10),
        }
    } else {
        Msg::Replicate {
            partition: PartitionId(n),
            txs: vec![],
            watermark: Timestamp::ZERO,
        }
    };
    Step::Send(Envelope::new(server(src), server(dst), msg))
}

fn script() -> Vec<Step> {
    use FaultKind::*;
    let (a, b) = (DcId(0), DcId(1));
    let mut steps: Vec<Step> = (0..100).map(|n| send(0, 1, n)).collect();
    steps.push(Step::Fault(PartitionLink(a, b)));
    for n in 100..110 {
        steps.extend([send(0, 1, n), send(1, 0, n)]);
    }
    steps.push(Step::Fault(HealLink(b, a)));
    steps.push(Step::Fault(CrashDc(DcId(2))));
    for n in 110..115 {
        steps.extend([send(0, 2, n), send(2, 1, n), send(1, 0, n)]);
    }
    steps.push(Step::Fault(RejoinDc(DcId(2))));
    steps.push(Step::Fault(SlowLink { a, b, factor: 25.0 }));
    for n in 115..120 {
        steps.extend([send(0, 1, n), send(1, 0, n)]);
    }
    steps.push(Step::Fault(RestoreLink(a, b)));
    steps.extend((120..125).map(|n| send(0, 1, n)));
    steps
}

type PerLink = HashMap<(Endpoint, Endpoint), Vec<Msg>>;

fn matrix() -> RegionMatrix {
    RegionMatrix::uniform(3, 2_000) // 2 ms one-way
}

/// The script through `SimNetwork`, on the router's nanosecond timebase,
/// one step per microsecond: the per-link delivery order, the counters,
/// and how many sends the network held.
fn through_sim() -> (PerLink, [u64; 3], usize) {
    let mut net = SimNetwork::new(matrix().scaled(1_000.0), JITTER);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut due = Vec::new();
    let mut held = 0;
    for (i, step) in script().into_iter().enumerate() {
        let now = i as u64 * 1_000;
        match step {
            Step::Send(env) => match net.send(now, &env, &mut rng) {
                Some(at) => due.push((at, env)),
                None => held += 1,
            },
            Step::Fault(kind) => due.extend(net.apply(now, kind, &mut rng)),
        }
    }
    due.sort_by_key(|&(at, _)| at); // stable: same-time deliveries keep push order
    let mut per_link = PerLink::new();
    for (_, env) in due {
        per_link
            .entry((env.src, env.dst))
            .or_default()
            .push(env.msg);
    }
    let counters = [
        net.messages_sent(),
        net.bytes_sent(),
        net.background_bytes_sent(),
    ];
    (per_link, counters, held)
}

/// The script through a router at `scale = 1.0`, in real time.
fn through_router() -> (PerLink, [u64; 3]) {
    let router = Router::start(ThreadedNetConfig {
        matrix: matrix(),
        scale: 1.0,
        jitter: JITTER,
        seed: SEED,
        batch: BatchConfig::DISABLED,
        wire: WireFormat::default(),
    });
    let inboxes: Vec<_> = (0..3).map(|dc| router.register(server(dc))).collect();
    let (net, control) = (router.handle(), router.link_control());
    let mut sent = 0;
    for step in script() {
        match step {
            Step::Send(env) => {
                net.send(env);
                sent += 1;
            }
            Step::Fault(kind) => control.apply(kind),
        }
    }
    let mut per_link = PerLink::new();
    let mut got = 0;
    let deadline = Instant::now() + Duration::from_secs(10);
    while got < sent {
        assert!(Instant::now() < deadline, "delivered {got} of {sent}");
        for inbox in &inboxes {
            while let Ok(env) = inbox.try_recv() {
                per_link
                    .entry((env.src, env.dst))
                    .or_default()
                    .push(env.msg);
                got += 1;
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = router.net_stats();
    (
        per_link,
        [stats.messages, stats.bytes, stats.background_bytes],
    )
}

#[test]
fn one_fault_script_runs_the_same_on_sim_and_router() {
    let (sim_links, sim_counters, held) = through_sim();
    assert_eq!(
        held,
        20 + 10,
        "the cut link and the crashed DC hold traffic"
    );
    let (router_links, router_counters) = through_router();
    assert_eq!(sim_links.len(), 4, "links 0→1, 1→0, 0→2 and 2→1");
    assert_eq!(router_links, sim_links, "per-link delivery order");
    assert_eq!(
        router_counters, sim_counters,
        "messages, bytes and background bytes"
    );
}
