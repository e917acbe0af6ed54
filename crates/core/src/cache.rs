//! A weight-aware LRU cache (the [`crate::PolicyIndex`] distribution-cache
//! backend).
//!
//! Entries carry an explicit *weight* (for sampling tables: the support
//! size), and the cache evicts least-recently-used entries until the total
//! weight fits the capacity — strictly better than the previous
//! serve-without-retain policy, which froze the cache at whatever filled it
//! first and rebuilt everything else forever.
//!
//! O(1) `get`/`insert` via a slab-backed doubly-linked recency list.
//!
//! [`SharedLru`] puts one behind a rank-ordered mutex and makes misses
//! **single-flight**: concurrent misses on one key build its value once.

use panda_check::ordered::{OrderedMutex, Rank};
// panda-check: allow(unordered_iter): key->slot lookup only; recency order lives in the slab list
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Sentinel for "no slot".
const NIL: usize = usize::MAX;

/// Lifetime hit/miss/eviction counters of a [`WeightedLru`] (diagnostics;
/// surfaced through `PolicyIndex` cache-stats accessors).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `get` calls that found the key.
    pub hits: u64,
    /// `get` calls that missed.
    pub misses: u64,
    /// Entries evicted to make room (does not count same-key replacement
    /// or oversized entries that were never retained).
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction over all lookups so far, `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// The live counts behind [`CacheStats`]: plain atomics the cache bumps
/// itself, so they count with telemetry compiled out too, and shared so a
/// metrics registry can read them (`Counter::reading`) while the cache
/// keeps recording.
#[derive(Debug, Default)]
pub(crate) struct CacheCounters {
    pub(crate) hits: Arc<AtomicU64>,
    pub(crate) misses: Arc<AtomicU64>,
    pub(crate) evictions: Arc<AtomicU64>,
}

impl CacheCounters {
    /// The point-in-time POD view.
    fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Adds one to a diagnostic count (relaxed: counts order nothing).
pub(crate) fn bump(count: &AtomicU64) {
    count.fetch_add(1, Ordering::Relaxed);
}

#[derive(Debug)]
struct Slot<K, V> {
    key: K,
    value: V,
    weight: usize,
    prev: usize,
    next: usize,
}

/// A weighted LRU cache. Not thread-safe by itself; callers wrap it in a
/// lock (reads promote recency, so even lookups mutate).
#[derive(Debug)]
pub(crate) struct WeightedLru<K, V> {
    // panda-check: allow(unordered_iter): never iterated (see module doc)
    map: HashMap<K, usize>,
    slots: Vec<Slot<K, V>>,
    free: Vec<usize>,
    /// Most-recently-used slot.
    head: usize,
    /// Least-recently-used slot.
    tail: usize,
    weight: usize,
    capacity: usize,
    stats: CacheCounters,
}

impl<K: Eq + Hash + Clone, V: Clone> WeightedLru<K, V> {
    /// An empty cache with the given total-weight capacity.
    pub(crate) fn new(capacity: usize) -> Self {
        WeightedLru {
            // panda-check: allow(unordered_iter): never iterated (see module doc)
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            weight: 0,
            capacity,
            stats: CacheCounters::default(),
        }
    }

    /// Number of cached entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Total weight of cached entries.
    pub(crate) fn weight(&self) -> usize {
        self.weight
    }

    /// Lifetime hit/miss/eviction counters.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// The live counter handles (for adoption into a metrics registry).
    pub(crate) fn counters(&self) -> &CacheCounters {
        &self.stats
    }

    /// Iterates over the cached values in unspecified order (for exact
    /// memory accounting; does not touch recency).
    pub(crate) fn iter_values(&self) -> impl Iterator<Item = &V> {
        self.map.values().map(|&slot| &self.slots[slot].value)
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: usize) {
        let (prev, next) = (self.slots[slot].prev, self.slots[slot].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    /// Pushes `slot` to the front (most-recently-used).
    fn push_front(&mut self, slot: usize) {
        self.slots[slot].prev = NIL;
        self.slots[slot].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit.
    pub(crate) fn get(&mut self, key: &K) -> Option<V> {
        let Some(&slot) = self.map.get(key) else {
            bump(&self.stats.misses);
            return None;
        };
        bump(&self.stats.hits);
        if self.head != slot {
            self.unlink(slot);
            self.push_front(slot);
        }
        Some(self.slots[slot].value.clone())
    }

    /// Evicts least-recently-used entries until `extra` additional weight
    /// fits the capacity.
    fn make_room(&mut self, extra: usize) {
        while self.weight + extra > self.capacity && self.tail != NIL {
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slots[victim].key);
            self.weight -= self.slots[victim].weight;
            self.free.push(victim);
            bump(&self.stats.evictions);
        }
    }

    /// Inserts `key → value` with the given weight, evicting LRU entries to
    /// make room. An entry heavier than the whole capacity is not retained
    /// (serving it is the caller's business); an existing entry under the
    /// same key is replaced.
    pub(crate) fn insert(&mut self, key: K, value: V, weight: usize) {
        if let Some(&slot) = self.map.get(&key) {
            self.unlink(slot);
            self.map.remove(&self.slots[slot].key);
            self.weight -= self.slots[slot].weight;
            self.free.push(slot);
        }
        if weight > self.capacity {
            return;
        }
        self.make_room(weight);
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Slot {
                    key: key.clone(),
                    value,
                    weight,
                    prev: NIL,
                    next: NIL,
                };
                s
            }
            None => {
                self.slots.push(Slot {
                    key: key.clone(),
                    value,
                    weight,
                    prev: NIL,
                    next: NIL,
                });
                self.slots.len() - 1
            }
        };
        self.map.insert(key, slot);
        self.weight += weight;
        self.push_front(slot);
    }
}

/// A [`WeightedLru`] behind a rank-ordered mutex, with single-flight
/// builds. The first thread to miss a key leaves an in-flight slot for it
/// under the lock and builds outside the lock; threads that miss the same
/// key meanwhile park on that slot (and count as hits). So a key costs one
/// miss and one build per residency, however many threads want it at once.
#[derive(Debug)]
pub(crate) struct SharedLru<K, V> {
    state: OrderedMutex<Flights<K, V>>,
}

#[derive(Debug)]
struct Flights<K, V> {
    lru: WeightedLru<K, V>,
    // panda-check: allow(unordered_iter): keyed lookup only, never iterated
    building: HashMap<K, Arc<OnceLock<V>>>,
}

impl<K: Eq + Hash + Clone, V: Clone> SharedLru<K, V> {
    /// An empty cache with the given total-weight capacity, locked at `rank`.
    pub(crate) fn new(rank: Rank, capacity: usize) -> Self {
        SharedLru {
            state: OrderedMutex::new(
                rank,
                Flights {
                    lru: WeightedLru::new(capacity),
                    // panda-check: allow(unordered_iter): keyed lookup only, never iterated
                    building: HashMap::new(),
                },
            ),
        }
    }

    /// The cached value for `key`, or the value one `build` call produces:
    /// concurrent callers missing the same key share that one build. The
    /// built value is retained with weight `weight(&value)`.
    pub(crate) fn get_or_build(
        &self,
        key: K,
        build: impl FnOnce() -> V,
        weight: impl FnOnce(&V) -> usize,
    ) -> V {
        let slot = {
            let mut state = self.state.lock();
            if let Some(slot) = state.building.get(&key).cloned() {
                bump(&state.lru.counters().hits);
                drop(state);
                // Parks until the builder is done (or builds, if it got here
                // first: either way the slot runs exactly one `build`).
                return slot.get_or_init(build).clone();
            }
            if let Some(value) = state.lru.get(&key) {
                return value;
            }
            let slot = Arc::new(OnceLock::new());
            state.building.insert(key.clone(), Arc::clone(&slot));
            slot
        };
        let value = slot.get_or_init(build).clone();
        let mut state = self.state.lock();
        state.building.remove(&key);
        let weight = weight(&value);
        state.lru.insert(key, value.clone(), weight);
        value
    }

    /// Runs `f` on the cache under its lock (stats, sizes, iteration).
    pub(crate) fn read<R>(&self, f: impl FnOnce(&WeightedLru<K, V>) -> R) -> R {
        f(&self.state.lock().lru)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use panda_check::ordered::rank;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn concurrent_misses_on_one_key_build_once() {
        const THREADS: usize = 8;
        let cache: SharedLru<u32, Arc<u64>> = SharedLru::new(rank::INDEX_RINGS, 100);
        let builds = AtomicUsize::new(0);
        let values: Vec<u64> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let v = cache.get_or_build(
                            7,
                            || {
                                builds.fetch_add(1, Ordering::SeqCst);
                                // Finish only once every other thread has
                                // found this build in flight.
                                while cache.read(|lru| lru.stats().hits) < THREADS as u64 - 1 {
                                    std::thread::yield_now();
                                }
                                Arc::new(49)
                            },
                            |_| 1,
                        );
                        *v
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(values.iter().all(|&v| v == 49));
        assert_eq!(builds.load(Ordering::SeqCst), 1, "one build per key");
        let stats = cache.read(|lru| lru.stats());
        assert_eq!(stats.misses, 1, "one miss per key");
        assert_eq!(stats.hits, THREADS as u64 - 1, "the rest wait on the build");
        assert_eq!(cache.read(|lru| lru.len()), 1);
    }

    #[test]
    fn shared_lru_rebuilds_after_eviction_and_skips_oversized() {
        let cache: SharedLru<u32, u32> = SharedLru::new(rank::INDEX_RINGS, 4);
        let mut builds = 0;
        for k in [1, 2, 1, 3, 1] {
            cache.get_or_build(
                k,
                || {
                    builds += 1;
                    k * 10
                },
                |_| 2,
            );
        }
        // 1, 2 built; 1 hits; 3 evicts 2; 1 still hits.
        assert_eq!(builds, 3);
        assert_eq!(cache.get_or_build(9, || 90, |_| 5), 90, "served");
        assert_eq!(cache.get_or_build(9, || 91, |_| 5), 91, "never retained");
    }

    #[test]
    fn hit_miss_and_weight_accounting() {
        let mut lru: WeightedLru<u32, &str> = WeightedLru::new(10);
        lru.insert(1, "a", 4);
        lru.insert(2, "b", 4);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.weight(), 8);
        assert_eq!(lru.get(&1), Some("a"));
        assert_eq!(lru.get(&3), None);
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut lru: WeightedLru<u32, u32> = WeightedLru::new(10);
        lru.insert(1, 10, 4);
        lru.insert(2, 20, 4);
        // Touch 1 so 2 becomes LRU, then overflow.
        assert_eq!(lru.get(&1), Some(10));
        lru.insert(3, 30, 4);
        assert_eq!(lru.get(&2), None, "2 was LRU and must be evicted");
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&3), Some(30));
        assert_eq!(lru.weight(), 8);
    }

    #[test]
    fn heavy_entry_evicts_many() {
        let mut lru: WeightedLru<u32, u32> = WeightedLru::new(10);
        for k in 0..5 {
            lru.insert(k, k, 2);
        }
        lru.insert(9, 9, 9);
        assert_eq!(lru.get(&9), Some(9));
        assert_eq!(lru.len(), 1, "the 9-weight entry displaces four 2s");
        assert_eq!(lru.weight(), 9);
    }

    #[test]
    fn oversized_entry_not_retained() {
        let mut lru: WeightedLru<u32, u32> = WeightedLru::new(10);
        lru.insert(1, 1, 2);
        lru.insert(2, 2, 11);
        assert_eq!(lru.get(&2), None);
        assert_eq!(lru.get(&1), Some(1), "existing entries survive");
    }

    #[test]
    fn replacing_a_key_updates_weight() {
        let mut lru: WeightedLru<u32, u32> = WeightedLru::new(10);
        lru.insert(1, 1, 8);
        lru.insert(1, 2, 3);
        assert_eq!(lru.get(&1), Some(2));
        assert_eq!(lru.weight(), 3);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn stats_count_hits_misses_evictions() {
        let mut lru: WeightedLru<u32, u32> = WeightedLru::new(4);
        assert_eq!(lru.stats(), CacheStats::default());
        assert_eq!(lru.stats().hit_rate(), 0.0);
        lru.insert(1, 10, 2);
        lru.insert(2, 20, 2);
        assert_eq!(lru.get(&1), Some(10));
        assert_eq!(lru.get(&7), None);
        assert_eq!(lru.get(&2), Some(20));
        // Overflow: key 1 is now LRU and gets evicted.
        lru.insert(3, 30, 2);
        assert_eq!(lru.get(&1), None);
        let s = lru.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 2, 1));
        assert_eq!(s.hit_rate(), 0.5);
        // Same-key replacement and oversized rejection are not evictions.
        lru.insert(3, 31, 2);
        lru.insert(9, 90, 99);
        assert_eq!(lru.stats().evictions, 1);
    }

    #[test]
    fn iter_values_covers_live_entries() {
        let mut lru: WeightedLru<u32, u32> = WeightedLru::new(6);
        for k in 0..4 {
            lru.insert(k, k * 10, 2);
        }
        let mut vals: Vec<u32> = lru.iter_values().copied().collect();
        vals.sort_unstable();
        assert_eq!(vals, vec![10, 20, 30], "evicted values must not appear");
    }

    #[test]
    fn slot_reuse_after_eviction() {
        let mut lru: WeightedLru<u32, u32> = WeightedLru::new(4);
        for k in 0..100 {
            lru.insert(k, k, 2);
        }
        assert_eq!(lru.len(), 2);
        assert!(lru.slots.len() <= 3, "slab must recycle evicted slots");
        assert_eq!(lru.get(&99), Some(99));
        assert_eq!(lru.get(&98), Some(98));
    }
}
