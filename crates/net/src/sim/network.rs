//! WAN latency model, FIFO links and fault injection.

use std::collections::{HashMap, HashSet, VecDeque};

use paris_proto::{Endpoint, Envelope};
use paris_types::DcId;
use rand::Rng;

/// One-way intra-DC latency in microseconds (≈ 0.5 ms RTT, typical for an
/// AWS availability zone).
pub const INTRA_DC_ONE_WAY_MICROS: u64 = 250;

/// Names of the ten AWS regions used by the paper's evaluation, in the
/// paper's order (§V-A): the 3-DC runs use the first three, the 5-DC runs
/// the first five.
pub const AWS_REGION_NAMES: [&str; 10] = [
    "virginia",
    "oregon",
    "ireland",
    "mumbai",
    "sydney",
    "canada",
    "seoul",
    "frankfurt",
    "singapore",
    "ohio",
];

/// Measured approximate inter-region RTTs in milliseconds (public AWS
/// latency tables, order as [`AWS_REGION_NAMES`]). Symmetric, zero on the
/// diagonal (intra-DC latency is handled separately).
const AWS_RTT_MS: [[u64; 10]; 10] = [
    // vir  ore  ire  mum  syd  can  seo  fra  sin  ohi
    [0, 70, 75, 185, 200, 15, 175, 90, 215, 12], // virginia
    [70, 0, 125, 215, 140, 60, 125, 160, 165, 50], // oregon
    [75, 125, 0, 120, 260, 70, 230, 25, 180, 85], // ireland
    [185, 215, 120, 0, 145, 195, 130, 110, 65, 195], // mumbai
    [200, 140, 260, 145, 0, 210, 135, 280, 95, 195], // sydney
    [15, 60, 70, 195, 210, 0, 180, 95, 220, 25], // canada
    [175, 125, 230, 130, 135, 180, 0, 240, 95, 170], // seoul
    [90, 160, 25, 110, 280, 95, 240, 0, 160, 100], // frankfurt
    [215, 165, 180, 65, 95, 220, 95, 160, 0, 205], // singapore
    [12, 50, 85, 195, 195, 25, 170, 100, 205, 0], // ohio
];

/// A symmetric matrix of one-way inter-DC latencies in microseconds.
#[derive(Debug, Clone)]
pub struct RegionMatrix {
    one_way_micros: Vec<Vec<u64>>,
}

impl RegionMatrix {
    /// The AWS deployment of the paper: DC ids map onto
    /// [`AWS_REGION_NAMES`] in order. Supports up to 10 DCs.
    ///
    /// # Panics
    ///
    /// Panics if `dcs > 10`.
    pub fn aws_10(dcs: u16) -> Self {
        assert!(dcs as usize <= 10, "the AWS matrix covers 10 regions");
        let n = dcs as usize;
        let mut m = vec![vec![0u64; n]; n];
        for (i, row) in m.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = if i == j {
                    INTRA_DC_ONE_WAY_MICROS
                } else {
                    AWS_RTT_MS[i][j] * 1_000 / 2
                };
            }
        }
        RegionMatrix { one_way_micros: m }
    }

    /// A uniform matrix: every inter-DC one-way latency is
    /// `one_way_micros`; intra-DC stays [`INTRA_DC_ONE_WAY_MICROS`].
    pub fn uniform(dcs: u16, one_way_micros: u64) -> Self {
        let n = dcs as usize;
        let mut m = vec![vec![one_way_micros; n]; n];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = INTRA_DC_ONE_WAY_MICROS;
        }
        RegionMatrix { one_way_micros: m }
    }

    /// Number of DCs covered.
    pub fn dcs(&self) -> u16 {
        self.one_way_micros.len() as u16
    }

    /// One-way latency between two DCs in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if either DC id is out of range.
    pub fn one_way(&self, a: DcId, b: DcId) -> u64 {
        self.one_way_micros[a.index()][b.index()]
    }
}

/// The simulated network: latency model + per-link FIFO + fault injection.
///
/// The paper assumes "point-to-point lossless FIFO channels (e.g., a TCP
/// socket)" (§II-C). Accordingly:
///
/// * per ordered endpoint pair, deliveries never reorder (a message's
///   delivery time is clamped to be after the previous one on that link);
/// * a partitioned link *holds* traffic instead of dropping it, and
///   releases it in order when healed — mirroring TCP retransmission.
#[derive(Debug)]
pub struct SimNetwork {
    matrix: RegionMatrix,
    /// Jitter as a fraction of the base latency (e.g. 0.05 = ±5%).
    jitter: f64,
    /// Last scheduled delivery time per ordered (src, dst) endpoint pair.
    fifo: HashMap<(Endpoint, Endpoint), u64>,
    /// Symmetric set of partitioned DC pairs (stored with a ≤ b).
    blocked: HashSet<(DcId, DcId)>,
    /// Traffic held on blocked links, per (src DC, dst DC), FIFO.
    held: HashMap<(DcId, DcId), VecDeque<Envelope>>,
    /// Per-link latency multipliers (stored with a ≤ b): a degraded link,
    /// not a dead one. Absent entries mean the nominal latency; the map is
    /// only populated by fault injection, so fault-free runs never pay
    /// (or float-round through) a lookup result.
    link_scale: HashMap<(DcId, DcId), f64>,
    /// Count of messages sent (delivered or held).
    sent: u64,
    /// Total bytes sent (wire-encoded size), for bandwidth accounting.
    bytes: u64,
    /// The subset of `bytes` carried by background traffic (replication,
    /// heartbeats, stabilization gossip).
    background_bytes: u64,
}

impl SimNetwork {
    /// Creates a network over the given latency matrix with multiplicative
    /// jitter fraction `jitter` (0.0 disables jitter). The simulator never
    /// serializes, but accounts what each message would cost on the wire.
    pub fn new(matrix: RegionMatrix, jitter: f64) -> Self {
        SimNetwork {
            matrix,
            jitter,
            fifo: HashMap::new(),
            blocked: HashSet::new(),
            held: HashMap::new(),
            link_scale: HashMap::new(),
            sent: 0,
            bytes: 0,
            background_bytes: 0,
        }
    }

    fn key(a: DcId, b: DcId) -> (DcId, DcId) {
        if a <= b {
            (a, b)
        } else {
            (b, a)
        }
    }

    /// Whether the link between two DCs is currently partitioned.
    pub fn is_blocked(&self, a: DcId, b: DcId) -> bool {
        self.blocked.contains(&Self::key(a, b))
    }

    /// Partitions the network between DCs `a` and `b` (both directions).
    /// In-flight messages already scheduled are unaffected (they left the
    /// source before the cut); new traffic is held.
    pub fn partition(&mut self, a: DcId, b: DcId) {
        self.blocked.insert(Self::key(a, b));
    }

    /// Partitions `dc` from every other DC (the paper's §III-C scenario:
    /// "if a DC partitions from the rest of the system, the UST freezes").
    pub fn isolate(&mut self, dc: DcId) {
        for other in 0..self.matrix.dcs() {
            let other = DcId(other);
            if other != dc {
                self.partition(dc, other);
            }
        }
    }

    /// Heals the partition between `a` and `b`, returning the held traffic
    /// (in FIFO order, both directions) so the caller can re-schedule it.
    pub fn heal(&mut self, a: DcId, b: DcId) -> Vec<Envelope> {
        self.blocked.remove(&Self::key(a, b));
        let mut out = Vec::new();
        if let Some(q) = self.held.remove(&(a, b)) {
            out.extend(q);
        }
        if let Some(q) = self.held.remove(&(b, a)) {
            out.extend(q);
        }
        out
    }

    /// Heals every partition involving `dc`, returning held traffic.
    pub fn heal_all(&mut self, dc: DcId) -> Vec<Envelope> {
        let mut out = Vec::new();
        for other in 0..self.matrix.dcs() {
            let other = DcId(other);
            if other != dc {
                out.extend(self.heal(dc, other));
            }
        }
        out
    }

    /// Multiplies the one-way latency of the `a`–`b` link by `factor`
    /// (≥ 1.0); `1.0` (or anything below) restores the nominal latency.
    /// Messages already scheduled keep their delivery times — only new
    /// traffic sees the degraded link, as with a real congestion onset.
    pub fn set_link_scale(&mut self, a: DcId, b: DcId, factor: f64) {
        let key = Self::key(a, b);
        if factor > 1.0 {
            self.link_scale.insert(key, factor);
        } else {
            self.link_scale.remove(&key);
        }
    }

    /// The current latency multiplier of the `a`–`b` link.
    pub fn link_scale(&self, a: DcId, b: DcId) -> f64 {
        self.link_scale
            .get(&Self::key(a, b))
            .copied()
            .unwrap_or(1.0)
    }

    /// Computes the delivery time for `env` sent at `now`, enforcing FIFO
    /// on the (src, dst) link. Returns `None` if the link is partitioned,
    /// in which case the envelope is held until healed.
    pub fn send<R: Rng>(&mut self, now: u64, env: Envelope, rng: &mut R) -> Option<u64> {
        self.sent += 1;
        let frame = paris_proto::wire::encoded_len(&env.msg) as u64;
        self.bytes += frame;
        if env.msg.is_background() {
            self.background_bytes += frame;
        }
        let (sdc, ddc) = (env.src.dc(), env.dst.dc());
        if sdc != ddc && self.is_blocked(sdc, ddc) {
            self.held.entry((sdc, ddc)).or_default().push_back(env);
            return None;
        }
        let mut base = self.matrix.one_way(sdc, ddc);
        if sdc != ddc {
            if let Some(scale) = self.link_scale.get(&Self::key(sdc, ddc)) {
                base = ((base as f64) * scale).max(1.0) as u64;
            }
        }
        let delay = if self.jitter > 0.0 {
            let j = 1.0 + self.jitter * (rng.gen::<f64>() * 2.0 - 1.0);
            ((base as f64) * j).max(1.0) as u64
        } else {
            base
        };
        let link = (env.src, env.dst);
        let earliest = self.fifo.get(&link).copied().unwrap_or(0);
        let at = (now + delay).max(earliest.saturating_add(1));
        self.fifo.insert(link, at);
        Some(at)
    }

    /// Messages sent so far (including held ones).
    pub fn messages_sent(&self) -> u64 {
        self.sent
    }

    /// Total wire bytes sent so far.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes
    }

    /// Wire bytes of background traffic (replication, heartbeats,
    /// stabilization gossip) sent so far.
    pub fn background_bytes_sent(&self) -> u64 {
        self.background_bytes
    }

    /// The latency matrix in use.
    pub fn matrix(&self) -> &RegionMatrix {
        &self.matrix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_proto::Msg;
    use paris_types::{ClientId, PartitionId, ServerId, Timestamp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn env(src_dc: u16, dst_dc: u16) -> Envelope {
        Envelope::new(
            ServerId::new(DcId(src_dc), PartitionId(0)),
            ServerId::new(DcId(dst_dc), PartitionId(1)),
            Msg::Heartbeat {
                partition: PartitionId(0),
                watermark: Timestamp::ZERO,
            },
        )
    }

    #[test]
    fn aws_matrix_is_symmetric_with_zero_free_diagonal() {
        let m = RegionMatrix::aws_10(10);
        for a in 0..10u16 {
            for b in 0..10u16 {
                assert_eq!(m.one_way(DcId(a), DcId(b)), m.one_way(DcId(b), DcId(a)));
                if a == b {
                    assert_eq!(m.one_way(DcId(a), DcId(b)), INTRA_DC_ONE_WAY_MICROS);
                } else {
                    assert!(
                        m.one_way(DcId(a), DcId(b)) >= 6_000,
                        "wan is ≥ 6 ms one-way"
                    );
                }
            }
        }
    }

    #[test]
    fn aws_matrix_subset_matches_paper_dc_choices() {
        // 3 DCs = Virginia, Oregon, Ireland (§V-A).
        let m = RegionMatrix::aws_10(3);
        assert_eq!(m.dcs(), 3);
        assert_eq!(m.one_way(DcId(0), DcId(1)), 35_000); // vir-ore 70ms RTT
        assert_eq!(m.one_way(DcId(0), DcId(2)), 37_500); // vir-ire 75ms RTT
    }

    #[test]
    #[should_panic(expected = "10 regions")]
    fn aws_matrix_rejects_more_than_ten() {
        let _ = RegionMatrix::aws_10(11);
    }

    #[test]
    fn uniform_matrix() {
        let m = RegionMatrix::uniform(4, 10_000);
        assert_eq!(m.one_way(DcId(0), DcId(3)), 10_000);
        assert_eq!(m.one_way(DcId(2), DcId(2)), INTRA_DC_ONE_WAY_MICROS);
    }

    #[test]
    fn send_applies_latency_and_fifo() {
        let mut net = SimNetwork::new(RegionMatrix::uniform(2, 1_000), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let t1 = net.send(0, env(0, 1), &mut rng).unwrap();
        assert_eq!(t1, 1_000);
        // Second message on the same link sent at the same instant must be
        // delivered strictly after the first.
        let t2 = net.send(0, env(0, 1), &mut rng).unwrap();
        assert!(t2 > t1);
    }

    #[test]
    fn fifo_is_preserved_even_with_jitter() {
        let mut net = SimNetwork::new(RegionMatrix::uniform(2, 10_000), 0.5);
        let mut rng = StdRng::seed_from_u64(7);
        let mut last = 0;
        for i in 0..200 {
            let at = net.send(i, env(0, 1), &mut rng).unwrap();
            assert!(at > last, "delivery {i} reordered");
            last = at;
        }
    }

    #[test]
    fn distinct_links_are_independent() {
        let mut net = SimNetwork::new(RegionMatrix::uniform(2, 1_000), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        let a = net.send(0, env(0, 1), &mut rng).unwrap();
        // Reverse direction is a different link: no FIFO coupling.
        let b = net.send(0, env(1, 0), &mut rng).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn partition_holds_and_heal_releases_in_order() {
        let mut net = SimNetwork::new(RegionMatrix::uniform(3, 1_000), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        net.partition(DcId(0), DcId(1));
        assert!(net.is_blocked(DcId(0), DcId(1)));
        assert!(net.send(0, env(0, 1), &mut rng).is_none());
        assert!(net.send(5, env(0, 1), &mut rng).is_none());
        // Unrelated link unaffected.
        assert!(net.send(0, env(0, 2), &mut rng).is_some());
        let released = net.heal(DcId(0), DcId(1));
        assert_eq!(released.len(), 2);
        assert!(!net.is_blocked(DcId(0), DcId(1)));
    }

    #[test]
    fn isolate_blocks_all_links_and_heal_all_restores() {
        let mut net = SimNetwork::new(RegionMatrix::uniform(4, 1_000), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        net.isolate(DcId(2));
        for other in [0u16, 1, 3] {
            assert!(net.is_blocked(DcId(2), DcId(other)));
            assert!(net.send(0, env(2, other), &mut rng).is_none());
        }
        let released = net.heal_all(DcId(2));
        assert_eq!(released.len(), 3);
        for other in [0u16, 1, 3] {
            assert!(!net.is_blocked(DcId(2), DcId(other)));
        }
    }

    #[test]
    fn intra_dc_traffic_ignores_partitions() {
        let mut net = SimNetwork::new(RegionMatrix::uniform(2, 1_000), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        net.isolate(DcId(0));
        let local = Envelope::new(
            ClientId::new(DcId(0), 1),
            ServerId::new(DcId(0), PartitionId(0)),
            Msg::StartTxReq {
                client_ust: Timestamp::ZERO,
            },
        );
        assert!(net.send(0, local, &mut rng).is_some());
    }

    #[test]
    fn slow_link_scales_latency_and_restore_undoes_it() {
        let mut net = SimNetwork::new(RegionMatrix::uniform(3, 1_000), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        net.set_link_scale(DcId(0), DcId(1), 10.0);
        assert_eq!(net.link_scale(DcId(0), DcId(1)), 10.0);
        assert_eq!(net.send(0, env(0, 1), &mut rng), Some(10_000));
        // Symmetric: the reverse direction is scaled too.
        assert_eq!(net.send(0, env(1, 0), &mut rng), Some(10_000));
        // Other links keep the nominal latency.
        assert_eq!(net.send(0, env(0, 2), &mut rng), Some(1_000));
        net.set_link_scale(DcId(1), DcId(0), 1.0);
        assert_eq!(net.link_scale(DcId(0), DcId(1)), 1.0);
        let at = net.send(20_000, env(0, 1), &mut rng).unwrap();
        assert_eq!(at, 21_000);
    }

    #[test]
    fn counters_track_messages_and_bytes() {
        let mut net = SimNetwork::new(RegionMatrix::uniform(2, 1_000), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        net.send(0, env(0, 1), &mut rng);
        net.send(0, env(0, 1), &mut rng);
        assert_eq!(net.messages_sent(), 2);
        assert!(net.bytes_sent() > 0);
    }

    #[test]
    fn byte_accounting_follows_the_configured_encoding() {
        let mut net = SimNetwork::new(RegionMatrix::uniform(2, 1_000), 0.0);
        let mut rng = StdRng::seed_from_u64(1);
        // One background heartbeat, one foreground transaction start.
        let heartbeat = env(0, 1);
        let start = Envelope::new(
            ClientId::new(DcId(0), 1),
            ServerId::new(DcId(1), PartitionId(0)),
            Msg::StartTxReq {
                client_ust: Timestamp::ZERO,
            },
        );
        let background = paris_proto::wire::encoded_len(&heartbeat.msg) as u64;
        let foreground = paris_proto::wire::encoded_len(&start.msg) as u64;
        net.send(0, heartbeat, &mut rng);
        net.send(0, start, &mut rng);
        assert_eq!(net.background_bytes_sent(), background);
        assert_eq!(net.bytes_sent(), background + foreground);
    }

    #[test]
    fn determinism_same_seed_same_schedule() {
        let run = |seed: u64| -> Vec<u64> {
            let mut net = SimNetwork::new(RegionMatrix::uniform(2, 10_000), 0.3);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50)
                .map(|i| net.send(i * 10, env(0, 1), &mut rng).unwrap())
                .collect()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds should differ");
    }
}
