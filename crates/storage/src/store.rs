//! The per-partition multi-version store, sharded behind per-shard locks.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use paris_types::{DcId, Key, Timestamp, TxId, Value, Version};

use crate::chain::VersionChain;
use crate::engine::Engine;

/// Default chain-shard count of a [`MemEngine`].
pub const DEFAULT_SHARDS: usize = 16;

/// Counters describing a [`MemEngine`]'s contents and activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Number of distinct keys with at least one version.
    pub keys: usize,
    /// Total retained versions across all chains.
    pub versions: usize,
    /// Versions applied since creation (including GC'd ones).
    pub applied: u64,
    /// Versions removed by garbage collection since creation.
    pub gc_removed: u64,
}

/// The in-memory multi-version store — the default [`Engine`].
///
/// This is the `update(k, v, ut, id_T)` target of Alg. 4 lines 1–4: each
/// apply "insert[s the] new item d in the version chain of key k".
/// [`DurableEngine`](crate::DurableEngine) wraps one of these with a
/// write-ahead log and checkpoints; the protocol layers only see the
/// [`Engine`] trait.
///
/// The key space is hashed over N *chain shards*, each behind its own
/// `RwLock`, so observers on other threads (statistics, the consistency
/// checker) can read while the server state machine applies updates and
/// runs GC. Writers (`apply`, `gc`) take one shard write lock at a time;
/// readers take shard read locks, so a read only ever waits for the
/// microseconds a writer spends inside one chain.
/// Aggregate counters are carried in atomics, so [`MemEngine::stats`]
/// is O(1) and lock-free (it used to walk every chain).
#[derive(Debug)]
pub struct MemEngine {
    shards: Box<[RwLock<HashMap<Key, VersionChain>>]>,
    keys: AtomicU64,
    versions: AtomicU64,
    applied: AtomicU64,
    gc_removed: AtomicU64,
}

impl Default for MemEngine {
    fn default() -> Self {
        MemEngine::new()
    }
}

impl MemEngine {
    /// Creates an empty store with the default shard count.
    pub fn new() -> Self {
        MemEngine::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty store with `shards` chain shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_shards(shards: usize) -> Self {
        assert!(shards > 0, "store needs at least one shard");
        MemEngine {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            keys: AtomicU64::new(0),
            versions: AtomicU64::new(0),
            applied: AtomicU64::new(0),
            gc_removed: AtomicU64::new(0),
        }
    }

    /// Number of chain shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Index of the shard holding `key`'s chain (Fibonacci multiplicative
    /// hash so the dense key layouts used by the workloads spread evenly).
    fn shard_index(&self, key: Key) -> usize {
        let h = key.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (h as usize) % self.shards.len()
    }

    /// The shard holding `key`'s chain.
    fn shard_of(&self, key: Key) -> &RwLock<HashMap<Key, VersionChain>> {
        &self.shards[self.shard_index(key)]
    }

    /// Applies one update: creates version `⟨k, v, ut, tx, src⟩` and inserts
    /// it into `k`'s chain (Alg. 4, `update`).
    ///
    /// Idempotent under replication re-delivery; returns `true` if the
    /// version was new.
    pub fn apply(&self, key: Key, value: Value, ut: Timestamp, tx: TxId, src: DcId) -> bool {
        let mut shard = self.shard_of(key).write().expect("shard poisoned");
        let chain = match shard.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::hash_map::Entry::Vacant(e) => {
                self.keys.fetch_add(1, Ordering::Relaxed);
                e.insert(VersionChain::new())
            }
        };
        let inserted = chain.insert(Version::new(key, value, ut, tx, src));
        if inserted {
            self.applied.fetch_add(1, Ordering::Relaxed);
            self.versions.fetch_add(1, Ordering::Relaxed);
        }
        inserted
    }

    /// Snapshot read: the freshest version of `key` with `ut ≤ ts`
    /// (Alg. 3 lines 5–6). `None` if the key has no visible version.
    ///
    /// Takes only the key's shard read lock, so concurrent readers proceed
    /// in parallel with each other and with writes to other shards.
    pub fn read_at(&self, key: Key, ts: Timestamp) -> Option<Version> {
        let shard = self.shard_of(key).read().expect("shard poisoned");
        shard.get(&key).and_then(|c| c.read_at(ts)).cloned()
    }

    /// The freshest version of `key` regardless of snapshot.
    pub fn latest(&self, key: Key) -> Option<Version> {
        let shard = self.shard_of(key).read().expect("shard poisoned");
        shard.get(&key).and_then(VersionChain::latest).cloned()
    }

    /// A clone of `key`'s chain, if any version was ever applied
    /// (diagnostics and tests; the hot paths never clone chains).
    pub fn chain(&self, key: Key) -> Option<VersionChain> {
        let shard = self.shard_of(key).read().expect("shard poisoned");
        shard.get(&key).cloned()
    }

    /// Runs garbage collection on every chain with the oldest-active
    /// snapshot horizon `s_old` (§IV-B). Returns versions removed.
    ///
    /// Locks one shard at a time, so a concurrent reader is never blocked
    /// for more than one shard sweep.
    pub fn gc(&self, s_old: Timestamp) -> usize {
        let mut removed = 0;
        for shard in self.shards.iter() {
            let mut shard = shard.write().expect("shard poisoned");
            for chain in shard.values_mut() {
                removed += chain.gc(s_old);
            }
        }
        self.gc_removed.fetch_add(removed as u64, Ordering::Relaxed);
        self.versions.fetch_sub(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Visits every (key, chain) pair — used by the consistency checker
    /// and convergence tests. Holds one shard read lock at a time; the
    /// visit order is unspecified.
    pub fn for_each_chain(&self, mut f: impl FnMut(Key, &VersionChain)) {
        for shard in self.shards.iter() {
            let shard = shard.read().expect("shard poisoned");
            for (key, chain) in shard.iter() {
                f(*key, chain);
            }
        }
    }

    /// Current statistics snapshot (lock-free; counters are maintained on
    /// apply/GC instead of recomputed per call).
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            keys: self.keys.load(Ordering::Relaxed) as usize,
            versions: self.versions.load(Ordering::Relaxed) as usize,
            applied: self.applied.load(Ordering::Relaxed),
            gc_removed: self.gc_removed.load(Ordering::Relaxed),
        }
    }
}

impl Engine for MemEngine {
    fn apply(&self, key: Key, value: Value, ut: Timestamp, tx: TxId, src: DcId) -> bool {
        MemEngine::apply(self, key, value, ut, tx, src)
    }

    fn read_at(&self, key: Key, ts: Timestamp) -> Option<Version> {
        MemEngine::read_at(self, key, ts)
    }

    fn latest(&self, key: Key) -> Option<Version> {
        MemEngine::latest(self, key)
    }

    fn chain(&self, key: Key) -> Option<VersionChain> {
        MemEngine::chain(self, key)
    }

    fn gc(&self, s_old: Timestamp) -> usize {
        MemEngine::gc(self, s_old)
    }

    fn for_each_chain(&self, f: &mut dyn FnMut(Key, &VersionChain)) {
        MemEngine::for_each_chain(self, f);
    }

    fn stats(&self) -> StoreStats {
        MemEngine::stats(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paris_types::{PartitionId, ServerId};

    fn tx(seq: u64) -> TxId {
        TxId::new(ServerId::new(DcId(0), PartitionId(0)), seq)
    }

    fn ts(t: u64) -> Timestamp {
        Timestamp::from_physical_micros(t)
    }

    #[test]
    fn apply_then_read_roundtrip() {
        let s = MemEngine::new();
        assert!(s.apply(Key(1), Value::from("x"), ts(10), tx(1), DcId(0)));
        let v = s.read_at(Key(1), ts(10)).unwrap();
        assert_eq!(v.value.as_bytes(), b"x");
        assert!(s.read_at(Key(1), ts(9)).is_none());
        assert!(s.read_at(Key(2), ts(99)).is_none());
    }

    #[test]
    fn apply_is_idempotent_and_counts_once() {
        let s = MemEngine::new();
        assert!(s.apply(Key(1), Value::from("x"), ts(10), tx(1), DcId(0)));
        assert!(!s.apply(Key(1), Value::from("x"), ts(10), tx(1), DcId(0)));
        assert_eq!(s.stats().applied, 1);
        assert_eq!(s.stats().versions, 1);
        assert_eq!(s.stats().keys, 1);
    }

    #[test]
    fn distinct_keys_have_independent_chains() {
        let s = MemEngine::new();
        s.apply(Key(1), Value::from("a"), ts(10), tx(1), DcId(0));
        s.apply(Key(2), Value::from("b"), ts(20), tx(2), DcId(0));
        assert_eq!(s.stats().keys, 2);
        assert_eq!(s.read_at(Key(1), ts(15)).unwrap().value.as_bytes(), b"a");
        assert!(s.read_at(Key(2), ts(15)).is_none());
    }

    #[test]
    fn gc_across_keys_counts_removed() {
        let s = MemEngine::new();
        for t in [10u64, 20, 30] {
            s.apply(Key(1), Value::filled(4, t), ts(t), tx(t), DcId(0));
            s.apply(Key(2), Value::filled(4, t), ts(t), tx(t), DcId(0));
        }
        let removed = s.gc(ts(100));
        assert_eq!(removed, 4, "two stale versions per key");
        assert_eq!(s.stats().versions, 2);
        assert_eq!(s.stats().gc_removed, 4);
        // Latest still readable.
        assert_eq!(s.latest(Key(1)).unwrap().ut, ts(30));
    }

    #[test]
    fn for_each_chain_visits_all_chains() {
        let s = MemEngine::new();
        s.apply(Key(1), Value::from("a"), ts(1), tx(1), DcId(0));
        s.apply(Key(9), Value::from("b"), ts(2), tx(2), DcId(0));
        let keys: Vec<u64> = {
            let mut v: Vec<u64> = Vec::new();
            s.for_each_chain(|k, _| v.push(k.as_u64()));
            v.sort_unstable();
            v
        };
        assert_eq!(keys, vec![1, 9]);
    }

    #[test]
    fn chain_accessor_exposes_versions() {
        let s = MemEngine::new();
        s.apply(Key(1), Value::from("a"), ts(1), tx(1), DcId(0));
        s.apply(Key(1), Value::from("b"), ts(2), tx(2), DcId(0));
        assert_eq!(s.chain(Key(1)).unwrap().len(), 2);
        assert!(s.chain(Key(2)).is_none());
    }

    #[test]
    fn single_shard_store_still_works() {
        let s = MemEngine::with_shards(1);
        for k in 0..64u64 {
            s.apply(Key(k), Value::from("v"), ts(k + 1), tx(k), DcId(0));
        }
        assert_eq!(s.stats().keys, 64);
        assert_eq!(s.shard_count(), 1);
        assert!(s.read_at(Key(63), ts(64)).is_some());
    }

    #[test]
    fn dense_keys_spread_over_shards() {
        let s = MemEngine::new();
        for k in 0..256u64 {
            s.apply(Key(k), Value::from("v"), ts(k + 1), tx(k), DcId(0));
        }
        // Every shard should hold a fair share of a dense key range (the
        // workload key layout is `partition + rank · N`, i.e. dense-ish).
        let mut per_shard = vec![0usize; s.shard_count()];
        for (i, shard) in s.shards.iter().enumerate() {
            per_shard[i] = shard.read().unwrap().len();
        }
        assert!(
            per_shard.iter().all(|&n| n > 0),
            "empty shard: {per_shard:?}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = MemEngine::with_shards(0);
    }
}
