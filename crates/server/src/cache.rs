//! The LRU result cache.
//!
//! Solve results are keyed by `(structure hash, sample hash, solver
//! config hash)` ([`crate::proto::solve_key`], whose digest is the
//! hypothesis id) — exactly the identity of a repeated ERM oracle call,
//! which is the access pattern of `folearn_hardness::oracle` (the
//! reduction re-queries the same pair instances across levels) and of
//! any client re-fitting against a fixed background structure. A hit
//! turns an `O(n^ℓ · m)` sweep into a table lookup, and because the
//! engine is deterministic the cached answer is *identical* to what a
//! re-solve would produce.
//!
//! The implementation is a hand-rolled LRU (the build is offline): a
//! `HashMap` to entries carrying a monotone recency stamp, with
//! eviction scanning for the stale minimum. Eviction is `O(capacity)`
//! but only runs on insert-past-capacity; lookups — the path repeated
//! oracle calls hit — are `O(1)`.
//!
//! [`ShardedCache`] and [`ShardedMap`] wrap the LRU and the plain
//! registry map in N independently locked shards selected by a
//! splitmix64 finalizer over the content-hash key, so concurrent
//! lookups from the event loop and the worker pool stop serializing on
//! one mutex.

use std::collections::HashMap;

use parking_lot::Mutex;

/// Cache key: `(structure hash, sample hash, config hash)`.
pub type CacheKey = (u64, u64, u64);

struct Entry<V> {
    value: V,
    stamp: u64,
}

/// A fixed-capacity least-recently-used map.
pub struct LruCache<V> {
    map: HashMap<CacheKey, Entry<V>>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<V> LruCache<V> {
    /// A cache holding at most `capacity` entries (capacity 0 disables
    /// caching: every lookup misses, every insert is dropped).
    pub fn new(capacity: usize) -> Self {
        Self {
            map: HashMap::new(),
            capacity,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up a key, refreshing its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<&V> {
        self.clock += 1;
        match self.map.get_mut(key) {
            Some(e) => {
                e.stamp = self.clock;
                self.hits += 1;
                Some(&e.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert a value, evicting the least-recently-used entry if full.
    pub fn insert(&mut self, key: CacheKey, value: V) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(&lru) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k)
            {
                self.map.remove(&lru);
                self.evictions += 1;
            }
        }
        self.map.insert(
            key,
            Entry {
                value,
                stamp: self.clock,
            },
        );
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `(hits, misses, evictions)` counters since construction.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

/// The splitmix64 finalizer (same constants as the router's hash
/// ring): FNV-1a keys over near-identical payloads cluster in the low
/// bits, and this mixes them uniformly before shard selection.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mix a composite cache key down to one shard-selection hash.
fn mix_key(key: &CacheKey) -> u64 {
    splitmix64(key.0 ^ key.1.rotate_left(21) ^ key.2.rotate_left(42))
}

/// An LRU result cache split into independently locked shards.
///
/// Capacity is divided evenly across shards (any remainder goes to the
/// low shards), so the total never exceeds the configured capacity.
/// Capacity 0 disables caching exactly like [`LruCache::new(0)`]. The
/// shard count is clamped so no shard has capacity zero while the
/// cache as a whole is enabled.
pub struct ShardedCache<V> {
    shards: Vec<Mutex<LruCache<V>>>,
}

impl<V: Clone> ShardedCache<V> {
    /// A cache of `capacity` total entries across `shards` locks.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, capacity.max(1));
        let base = capacity / shards;
        let extra = capacity % shards;
        let shards = (0..shards)
            .map(|i| Mutex::new(LruCache::new(base + usize::from(i < extra))))
            .collect();
        Self { shards }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<LruCache<V>> {
        &self.shards[(mix_key(key) % self.shards.len() as u64) as usize]
    }

    /// Look up a key (refreshing its recency in its shard), cloning the
    /// value out so the shard lock is held only for the lookup.
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        self.shard(key).lock().get(key).cloned()
    }

    /// Insert a value into the key's shard, evicting within that shard
    /// if it is full.
    pub fn insert(&self, key: CacheKey, value: V) {
        self.shard(&key).lock().insert(key, value);
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Summed `(hits, misses, evictions)` across shards.
    pub fn counters(&self) -> (u64, u64, u64) {
        self.shards.iter().fold((0, 0, 0), |acc, s| {
            let (h, m, e) = s.lock().counters();
            (acc.0 + h, acc.1 + m, acc.2 + e)
        })
    }

    /// Number of shards (for the stats payload).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }
}

/// A `u64`-keyed map (structure registry, hypothesis store) split into
/// independently locked shards by the same splitmix64 finalizer.
pub struct ShardedMap<V> {
    shards: Vec<Mutex<HashMap<u64, V>>>,
}

impl<V: Clone> ShardedMap<V> {
    /// An empty map across `shards` locks (at least one).
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, V>> {
        &self.shards[(splitmix64(key) % self.shards.len() as u64) as usize]
    }

    /// Clone the value under `key` out of its shard.
    pub fn get(&self, key: u64) -> Option<V> {
        self.shard(key).lock().get(&key).cloned()
    }

    /// Insert, returning `true` iff the key was fresh.
    pub fn insert(&self, key: u64, value: V) -> bool {
        self.shard(key).lock().insert(key, value).is_none()
    }

    /// Total entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clone every `(key, value)` pair out, shard by shard (each shard
    /// lock is held only while that shard is copied). Order is
    /// unspecified — callers wanting a canonical listing (the
    /// `inventory` op) sort the result.
    pub fn entries(&self) -> Vec<(u64, V)> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .iter()
                    .map(|(&k, v)| (k, v.clone()))
                    .collect::<Vec<_>>()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u64) -> CacheKey {
        (i, 0, 0)
    }

    #[test]
    fn hit_returns_inserted_value() {
        let mut c = LruCache::new(4);
        assert!(c.get(&k(1)).is_none());
        c.insert(k(1), "one");
        assert_eq!(c.get(&k(1)), Some(&"one"));
        assert_eq!(c.counters(), (1, 1, 0));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(2);
        c.insert(k(1), 1);
        c.insert(k(2), 2);
        assert!(c.get(&k(1)).is_some()); // refresh 1; 2 is now LRU
        c.insert(k(3), 3);
        assert!(c.get(&k(2)).is_none(), "2 should have been evicted");
        assert!(c.get(&k(1)).is_some());
        assert!(c.get(&k(3)).is_some());
        assert_eq!(c.len(), 2);
        assert_eq!(c.counters().2, 1);
    }

    #[test]
    fn reinsert_does_not_evict() {
        let mut c = LruCache::new(2);
        c.insert(k(1), 1);
        c.insert(k(2), 2);
        c.insert(k(2), 22);
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&k(2)), Some(&22));
        assert!(c.get(&k(1)).is_some());
    }

    #[test]
    fn zero_capacity_disables() {
        let mut c = LruCache::new(0);
        c.insert(k(1), 1);
        assert!(c.get(&k(1)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn sharded_cache_agrees_with_a_flat_lru_on_lookups() {
        let sharded = ShardedCache::new(64, 8);
        for i in 0..40u64 {
            sharded.insert((i, i.wrapping_mul(3), 7), i);
        }
        for i in 0..40u64 {
            assert_eq!(sharded.get(&(i, i.wrapping_mul(3), 7)), Some(i));
        }
        assert!(sharded.get(&(99, 0, 7)).is_none());
        assert_eq!(sharded.len(), 40);
        let (hits, misses, _) = sharded.counters();
        assert_eq!((hits, misses), (40, 1));
        assert_eq!(sharded.num_shards(), 8);
    }

    #[test]
    fn sharded_cache_total_capacity_is_respected() {
        // 10 entries over 4 shards: shard capacities 3+3+2+2. Whatever
        // the key distribution, the total can never exceed 10.
        let sharded = ShardedCache::new(10, 4);
        for i in 0..1000u64 {
            sharded.insert((i, 1, 2), i);
        }
        assert!(sharded.len() <= 10, "len {} exceeds capacity", sharded.len());
        assert!(sharded.counters().2 > 0, "evictions must have happened");
    }

    #[test]
    fn sharded_cache_zero_capacity_disables() {
        let sharded: ShardedCache<u64> = ShardedCache::new(0, 8);
        sharded.insert(k(1), 1);
        assert!(sharded.get(&k(1)).is_none());
        assert!(sharded.is_empty());
    }

    #[test]
    fn sharded_cache_spreads_fnv_keys_across_shards() {
        // Sequential FNV-style keys differ in few bits; the splitmix64
        // finalizer must still spread them over the shards.
        let sharded = ShardedCache::new(256, 8);
        for i in 0..256u64 {
            sharded.insert((i, 0, 0), i);
        }
        let used = (0..8)
            .filter(|&s| !sharded.shards[s].lock().is_empty())
            .count();
        assert!(used >= 6, "only {used}/8 shards used");
    }

    #[test]
    fn sharded_map_entries_lists_everything_once() {
        let map = ShardedMap::new(8);
        for i in 0..50u64 {
            map.insert(i, i * 2);
        }
        let mut entries = map.entries();
        entries.sort_unstable();
        assert_eq!(entries.len(), 50);
        for (i, &(k, v)) in entries.iter().enumerate() {
            assert_eq!((k, v), (i as u64, i as u64 * 2));
        }
    }

    #[test]
    fn sharded_map_insert_get_and_freshness() {
        let map = ShardedMap::new(8);
        assert!(map.insert(42, "a"));
        assert!(!map.insert(42, "b"), "second insert is not fresh");
        assert_eq!(map.get(42), Some("b"));
        assert!(map.get(7).is_none());
        assert_eq!(map.len(), 1);
        for i in 0..100 {
            map.insert(i, "x");
        }
        assert_eq!(map.len(), 100);
        assert!(!map.is_empty());
    }
}
