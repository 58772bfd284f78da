//! LRU cache over evaluated points.
//!
//! Keys are canonical request forms ([`crate::request::Point::canonical_key`]);
//! values are evaluation *results* ([`Option<Cell>`] — infeasible points
//! cache too, they cost a model run to discover). Responses are emitted
//! from the cached value, never stored as formatted bytes, so the
//! determinism contract (cached ≡ uncached, bitwise) reduces to the
//! emitter being deterministic — which ordered-object JSON is.
//!
//! One slab-backed doubly-linked recency list and its key index sit
//! behind one mutex, with the hit, miss and eviction counts inside the
//! same lock: O(1) hit promotion, O(1) insert, O(1) tail eviction, and
//! exactly `capacity.max(1)` entries in global LRU order. A replica does
//! every lookup on its one reactor thread (DESIGN §8), so the lock is
//! never contended.

use std::collections::HashMap;

use hec_core::sync::Mutex;

use crate::engine::Cell;

const NIL: usize = usize::MAX;

struct Entry {
    key: String,
    val: Option<Cell>,
    prev: usize,
    next: usize,
}

/// The recency list, its key index and its counters.
struct Lru {
    map: HashMap<String, usize>,
    slab: Vec<Entry>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Lru {
    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].prev, self.slab[idx].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slab[idx].prev = NIL;
        self.slab[idx].next = self.head;
        match self.head {
            NIL => self.tail = idx,
            h => self.slab[h].prev = idx,
        }
        self.head = idx;
    }

    fn get(&mut self, key: &str) -> Option<Option<Cell>> {
        let Some(&idx) = self.map.get(key) else {
            self.misses += 1;
            return None;
        };
        self.hits += 1;
        self.unlink(idx);
        self.push_front(idx);
        Some(self.slab[idx].val)
    }

    fn put(&mut self, key: String, val: Option<Cell>) {
        if let Some(&idx) = self.map.get(&key) {
            self.slab[idx].val = val;
            self.unlink(idx);
            self.push_front(idx);
            return;
        }
        let entry = Entry { key: key.clone(), val, prev: NIL, next: NIL };
        let idx = if self.map.len() >= self.capacity {
            // Full: the least recently used entry's slot takes the new one.
            let victim = self.tail;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].key);
            self.evictions += 1;
            self.slab[victim] = entry;
            victim
        } else {
            self.slab.push(entry);
            self.slab.len() - 1
        };
        self.map.insert(key, idx);
        self.push_front(idx);
    }
}

/// The point cache: one LRU list behind one lock. The name predates the
/// single list and goes when `benchmark/` stops constructing this type
/// (ROADMAP, rulers (e)).
pub struct ShardedLru {
    inner: Mutex<Lru>,
}

impl ShardedLru {
    /// A cache holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> ShardedLru {
        ShardedLru {
            inner: Mutex::new(Lru {
                map: HashMap::new(),
                slab: Vec::new(),
                head: NIL,
                tail: NIL,
                capacity: capacity.max(1),
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Looks `key` up, promoting it to most-recently-used on a hit.
    /// The outer `Option` is hit/miss; the inner is the cached verdict
    /// (a feasible cell or a cached "infeasible").
    pub fn get(&self, key: &str) -> Option<Option<Cell>> {
        self.inner.lock().get(key)
    }

    /// Inserts (or refreshes) `key`, evicting the least-recently-used
    /// entry when full.
    pub fn put(&self, key: String, val: Option<Cell>) {
        self.inner.lock().put(key, val)
    }

    /// Cumulative hits.
    pub fn hits(&self) -> u64 {
        self.inner.lock().hits
    }

    /// Cumulative misses.
    pub fn misses(&self) -> u64 {
        self.inner.lock().misses
    }

    /// Cumulative LRU evictions.
    pub fn evictions(&self) -> u64 {
        self.inner.lock().evictions
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(x: f64) -> Option<Cell> {
        Some(Cell { gflops: x, pct_peak: x, step_secs: x })
    }

    #[test]
    fn hit_returns_the_stored_value() {
        let c = ShardedLru::new(64);
        assert_eq!(c.get("a"), None);
        c.put("a".into(), cell(1.5));
        c.put("b".into(), None); // infeasible points cache too
        assert_eq!(c.get("a").unwrap().unwrap().gflops, 1.5);
        assert_eq!(c.get("b"), Some(None));
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let c = ShardedLru::new(2);
        c.put("x".into(), cell(1.0));
        c.put("y".into(), cell(2.0));
        c.put("z".into(), cell(3.0));
        assert_eq!(c.get("x"), None, "LRU entry must be evicted on overflow");
        assert_eq!(c.get("y").unwrap().unwrap().gflops, 2.0);
        assert_eq!(c.get("z").unwrap().unwrap().gflops, 3.0);
        assert_eq!(c.evictions(), 1);
    }

    #[test]
    fn recency_promotion_protects_hot_keys() {
        let c = ShardedLru::new(2);
        c.put("a".into(), cell(1.0));
        c.put("b".into(), cell(2.0));
        assert!(c.get("a").is_some()); // promote a over b
        c.put("c".into(), cell(3.0)); // evicts b
        assert!(c.get("a").is_some(), "promoted key must survive");
        assert_eq!(c.get("b"), None);
        assert!(c.get("c").is_some());
    }

    #[test]
    fn refreshing_a_key_updates_in_place() {
        let c = ShardedLru::new(8);
        c.put("k".into(), cell(1.0));
        c.put("k".into(), cell(9.0));
        assert_eq!(c.get("k").unwrap().unwrap().gflops, 9.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c.evictions(), 0, "in-place refresh is not an eviction");
    }

    #[test]
    fn holds_exactly_its_capacity_and_the_most_recent_keys() {
        const PUTS: usize = 10_000;
        for n in [0, 1, 7, 100] {
            let c = ShardedLru::new(n);
            for i in 0..PUTS {
                c.put(format!("k{i}"), cell(i as f64));
            }
            let held = n.max(1);
            assert_eq!(c.len(), held, "capacity {n}");
            assert_eq!(c.evictions(), (PUTS - held) as u64, "capacity {n}");
            assert_eq!(c.inner.lock().slab.len(), held, "capacity {n}: slab must not grow");
            for i in PUTS - held..PUTS {
                assert!(c.get(&format!("k{i}")).is_some(), "capacity {n}: k{i} must survive");
            }
            assert_eq!(c.get(&format!("k{}", PUTS - held - 1)), None, "capacity {n}");
        }
    }
}
