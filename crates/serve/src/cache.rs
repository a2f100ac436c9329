//! The LRU result cache, keyed by the canonical scenario key.
//!
//! Values are whole simulation outcomes — pure functions of their key
//! (the engine's determinism contract), so replaying a hit is
//! observationally identical to recomputing, and evicting can only
//! cost a recomputation. Keys are compared by their **full canonical
//! string**, never by fingerprint, so collisions cannot alias
//! scenarios. Hit/miss/insertion/eviction counters are plain atomics,
//! always live whether or not a telemetry registry is attached.

use crate::request::ScenarioKey;
use h2p_telemetry::Counter;
use std::collections::BTreeMap;

/// Always-on statistics of the result cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ResultCacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to run the engine.
    pub misses: u64,
    /// Outcomes written into the cache.
    pub insertions: u64,
    /// Outcomes dropped by the LRU bound.
    pub evictions: u64,
    /// Outcomes currently resident.
    pub entries: usize,
}

/// One resident outcome with its recency stamp.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    stamp: u64,
}

/// A strict-LRU map bounded at `capacity` entries (see module docs).
///
/// Recency is tracked with a monotone stamp per entry and a lazy
/// sweep on eviction: O(log n) hits, O(n) only when an insert
/// actually evicts — the right trade for a cache whose values each
/// cost an engine run. The map is a `BTreeMap` (L8): the eviction
/// sweep folds over it, and hash iteration order would make the
/// victim — and therefore every downstream hit/miss pattern — vary
/// per process. Key order breaks recency-stamp ties, so eviction is a
/// pure function of the request history.
#[derive(Debug)]
pub struct ResultCache<V> {
    map: BTreeMap<ScenarioKey, Entry<V>>,
    capacity: usize,
    tick: u64,
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
}

impl<V: Clone> ResultCache<V> {
    /// A cache bounded at `capacity` outcomes (clamped to at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ResultCache {
            map: BTreeMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            hits: Counter::new(),
            misses: Counter::new(),
            insertions: Counter::new(),
            evictions: Counter::new(),
        }
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&mut self, key: &ScenarioKey) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.stamp = tick;
                self.hits.incr();
                Some(entry.value.clone())
            }
            None => {
                self.misses.incr();
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry if the bound would be exceeded.
    pub fn insert(&mut self, key: ScenarioKey, value: V) {
        self.tick += 1;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            if let Some(coldest) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&coldest);
                self.evictions.incr();
            }
        }
        self.map.insert(
            key,
            Entry {
                value,
                stamp: self.tick,
            },
        );
        self.insertions.incr();
    }

    /// Always-on statistics.
    #[must_use]
    pub fn stats(&self) -> ResultCacheStats {
        ResultCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            insertions: self.insertions.get(),
            evictions: self.evictions.get(),
            entries: self.map.len(),
        }
    }

    /// The counter handles, for registration with a telemetry registry
    /// (shared, not copied).
    #[must_use]
    pub fn counters(&self) -> [(&'static str, &Counter); 4] {
        [
            ("serve.result_cache.hits", &self.hits),
            ("serve.result_cache.misses", &self.misses),
            ("serve.result_cache.insertions", &self.insertions),
            ("serve.result_cache.evictions", &self.evictions),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{PolicyKind, ScenarioRequest, TraceSpec};
    use h2p_workload::TraceKind;

    fn key(seed: u64) -> ScenarioKey {
        ScenarioRequest::new(
            TraceSpec {
                kind: TraceKind::Common,
                seed,
                servers: 40,
                steps: 6,
            },
            PolicyKind::Original,
        )
        .key()
    }

    #[test]
    fn hit_miss_and_eviction_counters_account_exactly() {
        let mut cache: ResultCache<u32> = ResultCache::new(2);
        assert_eq!(cache.get(&key(1)), None);
        cache.insert(key(1), 10);
        cache.insert(key(2), 20);
        assert_eq!(cache.get(&key(1)), Some(10));
        // key(1) is now the most recent; inserting key(3) evicts key(2).
        cache.insert(key(3), 30);
        assert_eq!(cache.get(&key(2)), None);
        assert_eq!(cache.get(&key(1)), Some(10));
        assert_eq!(cache.get(&key(3)), Some(30));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (3, 2));
        assert_eq!((s.insertions, s.evictions, s.entries), (3, 1, 2));
    }

    #[test]
    fn reinserting_a_resident_key_does_not_evict() {
        let mut cache: ResultCache<u32> = ResultCache::new(2);
        cache.insert(key(1), 10);
        cache.insert(key(2), 20);
        cache.insert(key(1), 11);
        let s = cache.stats();
        assert_eq!(s.evictions, 0);
        assert_eq!(s.entries, 2);
        assert_eq!(cache.get(&key(1)), Some(11));
    }

    #[test]
    fn capacity_one_keeps_only_the_newest() {
        let mut cache: ResultCache<u32> = ResultCache::new(0); // clamped to 1
        cache.insert(key(1), 1);
        cache.insert(key(2), 2);
        assert_eq!(cache.get(&key(1)), None);
        assert_eq!(cache.get(&key(2)), Some(2));
        assert_eq!(cache.stats().entries, 1);
    }
}
