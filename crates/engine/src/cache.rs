//! A byte-budgeted LRU cache for content-addressed artifacts.
//!
//! The server keys completed artifacts by a content hash of the
//! normalized input plus options; this cache bounds how many of those
//! artifacts stay resident. The budget is in *bytes* (the caller
//! reports each entry's size), not entry count, so a few huge
//! diagrams cannot OOM the process any more than many small ones can:
//! inserting past the budget evicts least-recently-used entries until
//! the total fits, and an entry larger than the whole budget is
//! refused outright.
//!
//! All operations take one mutex; eviction is a deterministic
//! oldest-stamp scan.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Mutex, PoisonError};

struct Entry<V> {
    value: V,
    bytes: usize,
    stamp: u64,
}

struct CacheState<K, V> {
    entries: HashMap<K, Entry<V>>,
    bytes: usize,
    clock: u64,
}

/// The cache's occupancy gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Bytes resident right now.
    pub bytes: usize,
    /// Entries resident right now.
    pub entries: usize,
}

/// A fixed-byte-budget LRU map. `V` must be cheap to clone — wrap
/// large artifacts in an `Arc`.
pub struct ByteCache<K: Eq + Hash + Clone, V: Clone> {
    budget: usize,
    state: Mutex<CacheState<K, V>>,
}

impl<K: Eq + Hash + Clone, V: Clone> ByteCache<K, V> {
    /// An empty cache holding at most `budget_bytes` of entries.
    pub fn new(budget_bytes: usize) -> Self {
        ByteCache {
            budget: budget_bytes,
            state: Mutex::new(CacheState {
                entries: HashMap::new(),
                bytes: 0,
                clock: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState<K, V>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut state = self.lock();
        state.clock += 1;
        let clock = state.clock;
        let entry = state.entries.get_mut(key)?;
        entry.stamp = clock;
        Some(entry.value.clone())
    }

    /// Inserts `key → value`, charging `bytes` against the budget and
    /// evicting least-recently-used entries until the total fits. An
    /// entry that alone exceeds the whole budget is not stored — the
    /// cache can never hold more than its budget, so it can never OOM
    /// the server.
    pub fn put(&self, key: K, value: V, bytes: usize) {
        let mut state = self.lock();
        if bytes > self.budget {
            return;
        }
        state.clock += 1;
        let stamp = state.clock;
        if let Some(old) = state.entries.insert(key, Entry { value, bytes, stamp }) {
            state.bytes -= old.bytes;
        }
        state.bytes += bytes;
        while state.bytes > self.budget {
            // Deterministic LRU: the smallest stamp is the coldest.
            let Some(coldest) = state
                .entries
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            if let Some(evicted) = state.entries.remove(&coldest) {
                state.bytes -= evicted.bytes;
            }
        }
    }

    /// A snapshot of the occupancy gauges.
    pub fn stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats {
            bytes: state.bytes,
            entries: state.entries.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_stats() {
        let cache: ByteCache<&str, u32> = ByteCache::new(100);
        assert_eq!(cache.get(&"a"), None);
        cache.put("a", 1, 10);
        assert_eq!(cache.get(&"a"), Some(1));
        assert_eq!(cache.stats(), CacheStats { bytes: 10, entries: 1 });
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget() {
        let cache: ByteCache<&str, u32> = ByteCache::new(30);
        cache.put("a", 1, 10);
        cache.put("b", 2, 10);
        cache.put("c", 3, 10);
        // Touch `a` so `b` is now the coldest entry.
        assert_eq!(cache.get(&"a"), Some(1));
        cache.put("d", 4, 10);
        assert_eq!(cache.stats(), CacheStats { bytes: 30, entries: 3 }, "one eviction");
        assert_eq!(cache.get(&"b"), None, "the coldest entry was evicted");
        assert_eq!(cache.get(&"a"), Some(1), "the refreshed entry survived");
        assert_eq!(cache.get(&"c"), Some(3));
        assert_eq!(cache.get(&"d"), Some(4));
    }

    #[test]
    fn a_large_insert_evicts_several() {
        let cache: ByteCache<&str, u32> = ByteCache::new(30);
        cache.put("a", 1, 10);
        cache.put("b", 2, 10);
        cache.put("c", 3, 25);
        assert_eq!(
            cache.stats(),
            CacheStats { bytes: 25, entries: 1 },
            "both cold entries had to go"
        );
        assert_eq!(cache.get(&"a"), None);
        assert_eq!(cache.get(&"b"), None);
        assert_eq!(cache.get(&"c"), Some(3));
    }

    #[test]
    fn oversized_entries_are_refused() {
        let cache: ByteCache<&str, u32> = ByteCache::new(10);
        cache.put("small", 1, 4);
        cache.put("huge", 2, 11);
        assert_eq!(cache.get(&"huge"), None);
        assert_eq!(cache.get(&"small"), Some(1), "a refused entry evicts nothing");
        assert_eq!(cache.stats(), CacheStats { bytes: 4, entries: 1 });
    }

    #[test]
    fn reinsert_replaces_without_double_charging() {
        let cache: ByteCache<&str, u32> = ByteCache::new(100);
        cache.put("a", 1, 40);
        cache.put("a", 2, 60);
        assert_eq!(
            cache.stats(),
            CacheStats { bytes: 60, entries: 1 },
            "the old entry's bytes were released"
        );
        assert_eq!(cache.get(&"a"), Some(2));
    }
}
