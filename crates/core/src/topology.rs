//! Cluster topology: partition placement, key routing, replica selection
//! and the stabilization tree.
//!
//! The paper's system model (§II-C): `N` partitions, each key assigned to
//! one partition by a hash function; each partition replicated at `R` of
//! the `M` DCs; every server hosts exactly one partition replica.

use paris_types::{ClusterConfig, DcId, Key, PartitionId, ReplicaIdx, ServerId};

/// Static topology derived from a [`ClusterConfig`].
///
/// Placement rule: partition `n` is replicated at DCs
/// `{(n + k) mod M : k ∈ 0..R}`. This is balanced whenever `N` is a
/// multiple of `M` (all the paper's deployments: e.g. 45 partitions / 5 DCs
/// / R=2 gives exactly 18 servers per DC) and keeps replica groups spread
/// across neighbouring DCs.
///
/// # Example
///
/// ```
/// use paris_core::Topology;
/// use paris_types::{ClusterConfig, DcId, PartitionId};
///
/// let topo = Topology::new(ClusterConfig::default());
/// let replicas = topo.replicas(PartitionId(0));
/// assert_eq!(replicas, vec![DcId(0), DcId(1)]);
/// assert_eq!(topo.servers_in_dc(DcId(0)).len(), 18);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    cfg: ClusterConfig,
    /// Stabilization-tree branching factor; `0` means a flat (depth-1)
    /// tree rooted at the DC root.
    branching: usize,
}

impl Topology {
    /// Builds the topology for a configuration with a flat stabilization
    /// tree (the paper organizes nodes "as a tree to reduce message
    /// exchange"; depth 1 is the default at the paper's 6–18 servers/DC).
    pub fn new(cfg: ClusterConfig) -> Self {
        Topology { cfg, branching: 0 }
    }

    /// Builds the topology with a bounded-fanout stabilization tree
    /// (children per node ≤ `branching`).
    pub fn with_branching(cfg: ClusterConfig, branching: usize) -> Self {
        Topology { cfg, branching }
    }

    /// The underlying configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Number of DCs `M`.
    pub fn dcs(&self) -> u16 {
        self.cfg.dcs
    }

    /// Number of partitions `N`.
    pub fn partitions(&self) -> u32 {
        self.cfg.partitions
    }

    /// Replication factor `R`.
    pub fn replication_factor(&self) -> u16 {
        self.cfg.replication_factor
    }

    // ------------------------------------------------------------ keys

    /// The partition owning `key` (the deterministic hash of §II-C).
    ///
    /// Keys are laid out as `key = partition + N * rank` so the workload
    /// generator can draw a zipfian `rank` *within* a partition exactly as
    /// the paper's YCSB setup does; the hash is therefore `key mod N`.
    pub fn partition_of(&self, key: Key) -> PartitionId {
        PartitionId((key.as_u64() % u64::from(self.cfg.partitions)) as u32)
    }

    /// The `rank`-th key of `partition` (inverse of [`Self::partition_of`]
    /// composed with the rank layout).
    pub fn key_at(&self, partition: PartitionId, rank: u64) -> Key {
        Key(u64::from(partition.0) + rank * u64::from(self.cfg.partitions))
    }

    // -------------------------------------------------------- placement

    /// The DCs replicating `partition`, in replica-index order.
    pub fn replicas(&self, partition: PartitionId) -> Vec<DcId> {
        (0..self.cfg.replication_factor)
            .map(|k| DcId(((partition.0 + u32::from(k)) % u32::from(self.cfg.dcs)) as u16))
            .collect()
    }

    /// Whether `dc` stores a replica of `partition`.
    pub fn is_replicated_at(&self, partition: PartitionId, dc: DcId) -> bool {
        self.replica_idx(partition, dc).is_some()
    }

    /// The replica index of `dc` within `partition`'s replica group.
    pub fn replica_idx(&self, partition: PartitionId, dc: DcId) -> Option<ReplicaIdx> {
        let m = u32::from(self.cfg.dcs);
        let diff = (u32::from(dc.0) + m - (partition.0 % m)) % m;
        if diff < u32::from(self.cfg.replication_factor) {
            Some(ReplicaIdx(diff as u16))
        } else {
            None
        }
    }

    /// All partitions hosted by `dc`, ascending.
    pub fn partitions_in_dc(&self, dc: DcId) -> Vec<PartitionId> {
        (0..self.cfg.partitions)
            .map(PartitionId)
            .filter(|p| self.is_replicated_at(*p, dc))
            .collect()
    }

    /// All servers hosted by `dc`, ascending by partition.
    pub fn servers_in_dc(&self, dc: DcId) -> Vec<ServerId> {
        self.partitions_in_dc(dc)
            .into_iter()
            .map(|p| ServerId::new(dc, p))
            .collect()
    }

    /// Every server in the system.
    pub fn all_servers(&self) -> Vec<ServerId> {
        (0..self.cfg.dcs)
            .flat_map(|dc| self.servers_in_dc(DcId(dc)))
            .collect()
    }

    /// The peer replicas of server `(dc, partition)`: the servers for the
    /// same partition in the other replica DCs (replication targets,
    /// Alg. 4 line 15).
    pub fn peer_replicas(&self, server: ServerId) -> Vec<ServerId> {
        self.replicas(server.partition)
            .into_iter()
            .filter(|dc| *dc != server.dc)
            .map(|dc| ServerId::new(dc, server.partition))
            .collect()
    }

    // ---------------------------------------------------------- routing

    /// The DC that serves reads/writes of `partition` for traffic
    /// originating in `from_dc` (Alg. 2 `getTargetDCForPartition`).
    ///
    /// Local replica if one exists; otherwise the preferred remote replica,
    /// fixed per (origin DC, partition) and rotated round-robin across
    /// origin DCs to balance load — the paper's §V-A policy.
    pub fn target_dc(&self, partition: PartitionId, from_dc: DcId) -> DcId {
        if self.is_replicated_at(partition, from_dc) {
            return from_dc;
        }
        let replicas = self.replicas(partition);
        replicas[(from_dc.index() + partition.index()) % replicas.len()]
    }

    /// Like [`Self::target_dc`], but skipping DCs currently considered
    /// unreachable. Returns `None` when *no* replica is reachable — the
    /// §III-C unavailability case. The local DC is always reachable.
    ///
    /// This implements the paper's availability claim: "PaRiS achieves
    /// availability in a DC as long as one replica per partition is
    /// reachable by a DC … remote operations can be performed by any DC,
    /// because the snapshot visible to a transaction is the same,
    /// regardless of the partition contacted".
    pub fn reachable_target_dc(
        &self,
        partition: PartitionId,
        from_dc: DcId,
        unreachable: &std::collections::HashSet<DcId>,
    ) -> Option<DcId> {
        if self.is_replicated_at(partition, from_dc) {
            return Some(from_dc);
        }
        let replicas = self.replicas(partition);
        let preferred = (from_dc.index() + partition.index()) % replicas.len();
        (0..replicas.len())
            .map(|k| replicas[(preferred + k) % replicas.len()])
            .find(|dc| !unreachable.contains(dc))
    }

    /// The coordinator assigned to the `seq`-th client of `dc` (clients
    /// are collocated with their coordinator partition, §V-A).
    pub fn coordinator_for(&self, dc: DcId, client_seq: u32) -> ServerId {
        let servers = self.servers_in_dc(dc);
        servers[(client_seq as usize) % servers.len()]
    }

    // ---------------------------------------------- stabilization tree

    /// The root server of `dc`'s stabilization tree (lowest partition id).
    pub fn dc_root(&self, dc: DcId) -> ServerId {
        self.servers_in_dc(dc)
            .first()
            .copied()
            .expect("every DC hosts at least one partition")
    }

    /// The tree parent of `server` within its DC, or `None` for the root.
    pub fn tree_parent(&self, server: ServerId) -> Option<ServerId> {
        let servers = self.servers_in_dc(server.dc);
        let idx = servers.iter().position(|s| *s == server)?;
        if idx == 0 {
            return None;
        }
        let parent_idx = (idx - 1).checked_div(self.branching).unwrap_or(0);
        Some(servers[parent_idx])
    }

    /// The tree children of `server` within its DC.
    pub fn tree_children(&self, server: ServerId) -> Vec<ServerId> {
        let servers = self.servers_in_dc(server.dc);
        let Some(idx) = servers.iter().position(|s| *s == server) else {
            return Vec::new();
        };
        if self.branching == 0 {
            return if idx == 0 {
                servers[1..].to_vec()
            } else {
                Vec::new()
            };
        }
        let first = idx * self.branching + 1;
        (first..first + self.branching)
            .filter_map(|i| servers.get(i).copied())
            .collect()
    }

    /// The roots of all DCs (the UST exchange group, §IV-B).
    pub fn all_roots(&self) -> Vec<ServerId> {
        (0..self.cfg.dcs).map(|dc| self.dc_root(DcId(dc))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::Key;
    use std::collections::{HashMap, HashSet};

    fn paper_topology() -> Topology {
        Topology::new(ClusterConfig::default()) // 5 DCs, 45 partitions, R=2
    }

    #[test]
    fn placement_is_balanced_in_paper_deployments() {
        for (dcs, partitions, r) in [(5u16, 45u32, 2u16), (3, 9, 2), (10, 30, 2), (3, 9, 3)] {
            let topo = Topology::new(
                ClusterConfig::builder()
                    .dcs(dcs)
                    .partitions(partitions)
                    .replication_factor(r)
                    .build()
                    .unwrap(),
            );
            let expected = (partitions * u32::from(r) / u32::from(dcs)) as usize;
            for dc in 0..dcs {
                assert_eq!(
                    topo.servers_in_dc(DcId(dc)).len(),
                    expected,
                    "dc{dc} unbalanced for ({dcs},{partitions},{r})"
                );
            }
        }
    }

    #[test]
    fn every_partition_has_exactly_r_replicas() {
        let topo = paper_topology();
        for p in 0..45 {
            let reps = topo.replicas(PartitionId(p));
            assert_eq!(reps.len(), 2);
            assert_eq!(
                reps.iter().collect::<HashSet<_>>().len(),
                2,
                "replicas must be distinct DCs"
            );
        }
    }

    #[test]
    fn replica_idx_is_consistent_with_replicas() {
        let topo = paper_topology();
        for p in 0..45 {
            let p = PartitionId(p);
            for (i, dc) in topo.replicas(p).into_iter().enumerate() {
                assert_eq!(topo.replica_idx(p, dc), Some(ReplicaIdx(i as u16)));
            }
            // A non-replica DC yields None.
            for dc in 0..5u16 {
                let dc = DcId(dc);
                if !topo.replicas(p).contains(&dc) {
                    assert_eq!(topo.replica_idx(p, dc), None);
                }
            }
        }
    }

    #[test]
    fn key_routing_roundtrips() {
        let topo = paper_topology();
        for p in 0..45u32 {
            for rank in [0u64, 1, 99] {
                let key = topo.key_at(PartitionId(p), rank);
                assert_eq!(topo.partition_of(key), PartitionId(p));
            }
        }
        assert_eq!(topo.partition_of(Key(46)), PartitionId(1));
    }

    #[test]
    fn target_dc_prefers_local_replica() {
        let topo = paper_topology();
        // Partition 0 lives at DC0 and DC1.
        assert_eq!(topo.target_dc(PartitionId(0), DcId(0)), DcId(0));
        assert_eq!(topo.target_dc(PartitionId(0), DcId(1)), DcId(1));
        // DC3 does not replicate partition 0: target must be a real replica.
        let t = topo.target_dc(PartitionId(0), DcId(3));
        assert!(topo.replicas(PartitionId(0)).contains(&t));
        assert_ne!(t, DcId(3));
    }

    #[test]
    fn target_dc_round_robin_balances_across_origins() {
        let topo = paper_topology();
        // Different origin DCs should not all pick the same remote replica.
        let mut chosen = HashSet::new();
        for p in 0..45u32 {
            let p = PartitionId(p);
            for dc in 0..5u16 {
                let dc = DcId(dc);
                if !topo.is_replicated_at(p, dc) {
                    chosen.insert((p, topo.target_dc(p, dc)));
                }
            }
        }
        // With R=2 both replicas of various partitions must appear.
        let per_partition: HashMap<PartitionId, usize> =
            chosen.iter().fold(HashMap::new(), |mut acc, (p, _)| {
                *acc.entry(*p).or_default() += 1;
                acc
            });
        assert!(
            per_partition.values().any(|&n| n == 2),
            "round robin must use both replicas somewhere"
        );
    }

    #[test]
    fn peer_replicas_excludes_self() {
        let topo = paper_topology();
        let s = ServerId::new(DcId(0), PartitionId(0));
        let peers = topo.peer_replicas(s);
        assert_eq!(peers, vec![ServerId::new(DcId(1), PartitionId(0))]);
    }

    #[test]
    fn coordinator_assignment_is_collocated_and_rotating() {
        let topo = paper_topology();
        let c0 = topo.coordinator_for(DcId(2), 0);
        let c1 = topo.coordinator_for(DcId(2), 1);
        assert_eq!(c0.dc, DcId(2));
        assert_ne!(c0, c1, "clients rotate over coordinators");
        let n = topo.servers_in_dc(DcId(2)).len() as u32;
        assert_eq!(topo.coordinator_for(DcId(2), n), c0, "wraps around");
    }

    #[test]
    fn flat_tree_has_root_with_all_children() {
        let topo = paper_topology();
        let root = topo.dc_root(DcId(0));
        assert_eq!(topo.tree_parent(root), None);
        let children = topo.tree_children(root);
        assert_eq!(children.len(), topo.servers_in_dc(DcId(0)).len() - 1);
        for c in &children {
            assert_eq!(topo.tree_parent(*c), Some(root));
            assert!(topo.tree_children(*c).is_empty());
        }
    }

    #[test]
    fn bounded_branching_tree_is_consistent() {
        let topo = Topology::with_branching(ClusterConfig::default(), 3);
        let dc = DcId(0);
        let servers = topo.servers_in_dc(dc);
        let root = topo.dc_root(dc);
        // parent/children must agree and reach every node.
        let mut reached = HashSet::new();
        let mut queue = vec![root];
        while let Some(s) = queue.pop() {
            assert!(reached.insert(s), "no cycles");
            for c in topo.tree_children(s) {
                assert_eq!(topo.tree_parent(c), Some(s));
                queue.push(c);
            }
        }
        assert_eq!(reached.len(), servers.len(), "tree spans the DC");
        // Fanout bound respected.
        for s in &servers {
            assert!(topo.tree_children(*s).len() <= 3);
        }
    }

    #[test]
    fn all_roots_and_all_servers_counts() {
        let topo = paper_topology();
        assert_eq!(topo.all_roots().len(), 5);
        assert_eq!(topo.all_servers().len(), 90);
    }

    #[test]
    fn single_dc_full_replication_degenerate_case() {
        let topo = Topology::new(
            ClusterConfig::builder()
                .dcs(1)
                .partitions(4)
                .replication_factor(1)
                .build()
                .unwrap(),
        );
        assert_eq!(topo.servers_in_dc(DcId(0)).len(), 4);
        assert_eq!(topo.target_dc(PartitionId(3), DcId(0)), DcId(0));
        assert!(topo
            .peer_replicas(ServerId::new(DcId(0), PartitionId(1)))
            .is_empty());
    }
}
