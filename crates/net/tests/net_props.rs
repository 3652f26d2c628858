//! Property tests of the network substrates' core guarantees.

use paris_net::sim::{EventQueue, RegionMatrix, SimNetwork};
use paris_proto::{Envelope, Msg};
use paris_types::{DcId, PartitionId, ServerId, Timestamp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    /// The event queue is a stable priority queue: pops come out sorted by
    /// (time, insertion order) no matter the push order.
    #[test]
    fn prop_event_queue_is_stable_and_sorted(
        times in proptest::collection::vec(0u64..10_000, 1..200)
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut prev: Option<(u64, usize)> = None;
        while let Some(ev) = q.pop() {
            let key = (ev.time, ev.event);
            if let Some(p) = prev {
                prop_assert!(p.0 <= key.0, "time order violated");
                if p.0 == key.0 {
                    prop_assert!(p.1 < key.1, "insertion order violated at equal times");
                }
            }
            prev = Some(key);
        }
    }

    /// Per-link FIFO holds for any interleaving of sends across links and
    /// any jitter level.
    #[test]
    fn prop_sim_network_fifo_per_link(
        sends in proptest::collection::vec((0u16..3, 0u16..3, 0u64..100), 1..300),
        jitter in 0.0f64..0.9,
        seed in any::<u64>(),
    ) {
        let mut net = SimNetwork::new(RegionMatrix::uniform(3, 5_000), jitter);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut now = 0;
        let mut last: std::collections::HashMap<(u16, u16), u64> = std::collections::HashMap::new();
        for (src, dst, advance) in sends {
            now += advance;
            let env = Envelope::new(
                ServerId::new(DcId(src), PartitionId(0)),
                ServerId::new(DcId(dst), PartitionId(1)),
                Msg::Replicate { partition: PartitionId(0), txs: vec![], watermark: Timestamp::ZERO },
            );
            let at = net.send(now, &env, &mut rng).expect("no partitions active");
            prop_assert!(at > now, "delivery strictly after send");
            if let Some(prev) = last.insert((src, dst), at) {
                prop_assert!(at > prev, "link ({src},{dst}) reordered");
            }
        }
    }

    /// Partition + heal never loses or duplicates messages.
    #[test]
    fn prop_partition_heal_conserves_messages(
        n_before in 0usize..20,
        n_during in 1usize..20,
    ) {
        let mut net = SimNetwork::new(RegionMatrix::uniform(2, 1_000), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let env = || Envelope::new(
            ServerId::new(DcId(0), PartitionId(0)),
            ServerId::new(DcId(1), PartitionId(0)),
            Msg::Replicate { partition: PartitionId(0), txs: vec![], watermark: Timestamp::ZERO },
        );
        let mut delivered = 0;
        for _ in 0..n_before {
            if net.send(0, &env(), &mut rng).is_some() {
                delivered += 1;
            }
        }
        net.partition(DcId(0), DcId(1));
        for _ in 0..n_during {
            prop_assert!(net.send(10, &env(), &mut rng).is_none(), "held during cut");
        }
        let released = net.heal(15, DcId(0), DcId(1), &mut rng);
        prop_assert_eq!(released.len(), n_during, "exactly the held traffic");
        prop_assert_eq!(delivered, n_before);
        // Subsequent sends flow again.
        prop_assert!(net.send(20, &env(), &mut rng).is_some());
    }
}

#[test]
fn aws_matrix_triangle_inequality_is_mostly_sane() {
    // WAN routing does not guarantee the triangle inequality, but gross
    // violations (A→C ≫ A→B→C by 2×) would indicate a data-entry mistake.
    let m = RegionMatrix::aws_10(10);
    for a in 0..10u16 {
        for b in 0..10u16 {
            for c in 0..10u16 {
                if a == b || b == c || a == c {
                    continue;
                }
                let direct = m.one_way(DcId(a), DcId(c));
                let via = m.one_way(DcId(a), DcId(b)) + m.one_way(DcId(b), DcId(c));
                assert!(
                    direct < via * 2,
                    "suspicious RTT: {a}→{c} direct {direct} vs via {b} {via}"
                );
            }
        }
    }
}
