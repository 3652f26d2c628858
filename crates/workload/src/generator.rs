//! Transaction workload generation.

use paris_types::{Key, PartitionId, Value};
use rand::seq::SliceRandom;
use rand::Rng;

use crate::zipf::Zipfian;

/// Workload parameters (paper §V-A).
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Reads per transaction (paper: 19 for 95:5, 10 for 50:50).
    pub reads_per_tx: usize,
    /// Writes per transaction (paper: 1 for 95:5, 10 for 50:50).
    pub writes_per_tx: usize,
    /// Distinct partitions touched per transaction (paper default: 4).
    pub partitions_per_tx: usize,
    /// Fraction of transactions that only touch partitions replicated in
    /// the client's local DC (paper sweeps 1.0, 0.95, 0.9, 0.5).
    pub local_tx_ratio: f64,
    /// Zipfian exponent for key popularity within a partition
    /// (paper: 0.99).
    pub zipf_theta: f64,
    /// Keys per partition.
    pub keys_per_partition: u64,
    /// Value payload size in bytes (paper: 8).
    pub value_size: usize,
}

impl WorkloadConfig {
    /// The paper's read-heavy default: 95:5 r:w (19 reads + 1 write),
    /// 4 partitions/tx, 95:5 local:multi, zipf 0.99, 8-byte items.
    pub fn read_heavy() -> Self {
        WorkloadConfig {
            reads_per_tx: 19,
            writes_per_tx: 1,
            partitions_per_tx: 4,
            local_tx_ratio: 0.95,
            zipf_theta: 0.99,
            keys_per_partition: 100_000,
            value_size: 8,
        }
    }

    /// The paper's write-heavy mix: 50:50 r:w (10 reads + 10 writes).
    pub fn write_heavy() -> Self {
        WorkloadConfig {
            reads_per_tx: 10,
            writes_per_tx: 10,
            ..WorkloadConfig::read_heavy()
        }
    }

    /// Returns the config with a different locality ratio (Fig. 3 sweep).
    pub fn with_locality(mut self, local_tx_ratio: f64) -> Self {
        self.local_tx_ratio = local_tx_ratio;
        self
    }

    /// Operations per transaction (the paper's workloads always use 20).
    pub fn ops_per_tx(&self) -> usize {
        self.reads_per_tx + self.writes_per_tx
    }
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig::read_heavy()
    }
}

/// One generated transaction: the keys to read (in parallel), then the
/// writes to buffer before commit — the paper's execution shape ("a
/// transaction first executes all the reads in parallel, and then all the
/// writes in parallel", §V-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxSpec {
    /// Keys to read.
    pub read_keys: Vec<Key>,
    /// Key-value pairs to write.
    pub writes: Vec<(Key, Value)>,
    /// Whether the transaction was generated as local-DC only.
    pub local: bool,
}

/// Per-client transaction generator.
///
/// Constructed with the partitions replicated at the client's DC (for
/// local transactions) and the total partition count (for multi-DC
/// transactions and the key layout `key = partition + rank · N`, which
/// must match `Topology::key_at`).
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    config: WorkloadConfig,
    n_partitions: u32,
    local_partitions: Vec<PartitionId>,
    zipf: Zipfian,
    seq: u64,
}

impl WorkloadGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if `local_partitions` is empty or `partitions_per_tx` is 0.
    pub fn new(
        config: WorkloadConfig,
        n_partitions: u32,
        local_partitions: Vec<PartitionId>,
    ) -> Self {
        assert!(!local_partitions.is_empty(), "DC hosts no partitions");
        assert!(
            config.partitions_per_tx > 0,
            "transactions need a partition"
        );
        let zipf = Zipfian::new(config.keys_per_partition, config.zipf_theta);
        WorkloadGenerator {
            config,
            n_partitions,
            local_partitions,
            zipf,
            seq: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// The key at `rank` within `partition` — layout shared with
    /// `Topology::key_at`.
    fn key_at(&self, partition: PartitionId, rank: u64) -> Key {
        Key(u64::from(partition.0) + rank * u64::from(self.n_partitions))
    }

    /// Generates the next transaction.
    pub fn next_tx<R: Rng + ?Sized>(&mut self, rng: &mut R) -> TxSpec {
        self.seq += 1;
        let local = rng.gen::<f64>() < self.config.local_tx_ratio;

        // Choose the partitions the transaction touches.
        let wanted = self.config.partitions_per_tx;
        let partitions: Vec<PartitionId> = if local {
            let k = wanted.min(self.local_partitions.len());
            self.local_partitions
                .choose_multiple(rng, k)
                .copied()
                .collect()
        } else {
            // Multi-DC: random partitions from the whole keyspace
            // (paper: "touch random partitions in remote DCs").
            let mut chosen = Vec::with_capacity(wanted);
            while chosen.len() < wanted.min(self.n_partitions as usize) {
                let p = PartitionId(rng.gen_range(0..self.n_partitions));
                if !chosen.contains(&p) {
                    chosen.push(p);
                }
            }
            chosen
        };

        // Assign operations to partitions round-robin; draw each key's
        // rank from the zipfian.
        let mut read_keys = Vec::with_capacity(self.config.reads_per_tx);
        for i in 0..self.config.reads_per_tx {
            let p = partitions[i % partitions.len()];
            read_keys.push(self.key_at(p, self.zipf.sample(rng)));
        }
        let mut writes = Vec::with_capacity(self.config.writes_per_tx);
        for i in 0..self.config.writes_per_tx {
            let p = partitions[(self.config.reads_per_tx + i) % partitions.len()];
            let key = self.key_at(p, self.zipf.sample(rng));
            writes.push((key, Value::filled(self.config.value_size, self.seq)));
        }
        TxSpec {
            read_keys,
            writes,
            local,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn local_parts() -> Vec<PartitionId> {
        vec![
            PartitionId(0),
            PartitionId(2),
            PartitionId(3),
            PartitionId(5),
        ]
    }

    fn generator(cfg: WorkloadConfig) -> WorkloadGenerator {
        WorkloadGenerator::new(cfg, 6, local_parts())
    }

    #[test]
    fn presets_match_paper_mixes() {
        let b = WorkloadConfig::read_heavy();
        assert_eq!((b.reads_per_tx, b.writes_per_tx), (19, 1));
        assert_eq!(b.ops_per_tx(), 20);
        let a = WorkloadConfig::write_heavy();
        assert_eq!((a.reads_per_tx, a.writes_per_tx), (10, 10));
        assert_eq!(a.ops_per_tx(), 20);
        assert_eq!(a.partitions_per_tx, 4);
        assert_eq!(a.value_size, 8);
        assert!((a.zipf_theta - 0.99).abs() < 1e-9);
    }

    #[test]
    fn generates_requested_op_counts() {
        let mut g = generator(WorkloadConfig {
            keys_per_partition: 100,
            ..WorkloadConfig::read_heavy()
        });
        let mut rng = StdRng::seed_from_u64(1);
        let tx = g.next_tx(&mut rng);
        assert_eq!(tx.read_keys.len(), 19);
        assert_eq!(tx.writes.len(), 1);
        assert_eq!(tx.writes[0].1.len(), 8);
    }

    #[test]
    fn local_transactions_only_touch_local_partitions() {
        let mut g = generator(WorkloadConfig {
            local_tx_ratio: 1.0,
            keys_per_partition: 100,
            ..WorkloadConfig::read_heavy()
        });
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let tx = g.next_tx(&mut rng);
            assert!(tx.local);
            for key in tx.read_keys.iter().chain(tx.writes.iter().map(|(k, _)| k)) {
                let p = PartitionId((key.as_u64() % 6) as u32);
                assert!(local_parts().contains(&p), "{key} not local");
            }
        }
    }

    #[test]
    fn zero_locality_generates_multi_dc_transactions() {
        let mut g = generator(WorkloadConfig {
            local_tx_ratio: 0.0,
            keys_per_partition: 100,
            ..WorkloadConfig::read_heavy()
        });
        let mut rng = StdRng::seed_from_u64(3);
        let remote_seen = (0..100).any(|_| {
            let tx = g.next_tx(&mut rng);
            assert!(!tx.local);
            tx.read_keys.iter().any(|k| {
                let p = PartitionId((k.as_u64() % 6) as u32);
                !local_parts().contains(&p)
            })
        });
        assert!(remote_seen, "multi-DC txs should hit remote partitions");
    }

    #[test]
    fn locality_ratio_is_respected_statistically() {
        let mut g = generator(WorkloadConfig {
            local_tx_ratio: 0.9,
            keys_per_partition: 100,
            ..WorkloadConfig::read_heavy()
        });
        let mut rng = StdRng::seed_from_u64(4);
        let n = 5_000;
        let local = (0..n).filter(|_| g.next_tx(&mut rng).local).count();
        let frac = local as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.03, "locality fraction {frac}");
    }

    #[test]
    fn transactions_span_the_requested_partition_count() {
        let mut g = generator(WorkloadConfig {
            local_tx_ratio: 1.0,
            partitions_per_tx: 4,
            keys_per_partition: 1_000,
            ..WorkloadConfig::read_heavy()
        });
        let mut rng = StdRng::seed_from_u64(5);
        let tx = g.next_tx(&mut rng);
        let parts: std::collections::HashSet<u64> =
            tx.read_keys.iter().map(|k| k.as_u64() % 6).collect();
        assert_eq!(parts.len(), 4);
    }

    #[test]
    fn with_locality_builder() {
        let cfg = WorkloadConfig::read_heavy().with_locality(0.5);
        assert!((cfg.local_tx_ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let mk = || {
            let mut g = generator(WorkloadConfig {
                keys_per_partition: 100,
                ..WorkloadConfig::write_heavy()
            });
            let mut rng = StdRng::seed_from_u64(11);
            (0..10).map(|_| g.next_tx(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }
}
