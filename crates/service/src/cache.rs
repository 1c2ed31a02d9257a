//! Bounded memoization of `/v1/select` response bodies.
//!
//! The service's determinism contract — same request body, same response
//! bytes — makes whole-response memoization sound: a repeated request is
//! answered from memory without re-running the algorithm. Keys embed the
//! graph's registration token, so deleting and re-registering a graph under
//! the same id can never serve a stale selection. Eviction is FIFO; the
//! cache is a latency optimization, not a source of truth.

use smin_obs::Counter;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// FIFO-bounded response cache. `BTreeMap` keeps the service free of
/// hash-ordered state (the `no-hash-iteration` lint); lookups are O(log n)
/// over at most `capacity` keys, noise next to running a selection.
///
/// Hit/miss totals are [`Counter`]s so `/healthz` and `/metrics` read the
/// same monotonic cells — one source of truth for the cache numbers.
pub struct SelectCache {
    capacity: usize,
    map: BTreeMap<String, Arc<[u8]>>,
    order: VecDeque<String>,
    hits: Counter,
    misses: Counter,
}

impl SelectCache {
    /// A cache holding at most `capacity` responses (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        SelectCache {
            capacity,
            map: BTreeMap::new(),
            order: VecDeque::new(),
            hits: Counter::new(),
            misses: Counter::new(),
        }
    }

    /// The cached response body for `key`, if any. Counts hit/miss totals
    /// for `/healthz` and `/metrics` observability.
    pub fn get(&mut self, key: &str) -> Option<Arc<[u8]>> {
        let found = self.get_hit(key);
        if found.is_none() {
            self.misses.inc();
        }
        found
    }

    /// Like [`SelectCache::get`], but a miss counts nothing. The poll
    /// thread probes with this: it answers only a hit and hands a miss to a
    /// dispatch worker, whose `get` counts it, so every request is still
    /// one lookup.
    pub fn get_hit(&mut self, key: &str) -> Option<Arc<[u8]>> {
        let found = self.map.get(key).cloned();
        if found.is_some() {
            self.hits.inc();
        }
        found
    }

    /// Lifetime `(hits, misses)` across every lookup.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }

    /// Stores a response body, evicting the oldest entry at capacity.
    pub fn insert(&mut self, key: String, body: Arc<[u8]>) {
        if self.capacity == 0 || self.map.contains_key(&key) {
            return;
        }
        while self.map.len() >= self.capacity {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.map.remove(&oldest);
        }
        self.order.push_back(key.clone());
        self.map.insert(key, body);
    }

    /// Number of cached responses.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(s: &str) -> Arc<[u8]> {
        Arc::from(s.as_bytes().to_vec().into_boxed_slice())
    }

    #[test]
    fn hit_after_insert() {
        let mut c = SelectCache::new(4);
        assert!(c.get("k").is_none());
        c.insert("k".into(), body("v"));
        assert_eq!(c.get("k").unwrap().as_ref(), b"v");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn fifo_eviction_at_capacity() {
        let mut c = SelectCache::new(2);
        c.insert("a".into(), body("1"));
        c.insert("b".into(), body("2"));
        c.insert("c".into(), body("3"));
        assert!(c.get("a").is_none(), "oldest entry evicted");
        assert!(c.get("b").is_some());
        assert!(c.get("c").is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn duplicate_insert_keeps_first_and_order() {
        let mut c = SelectCache::new(2);
        c.insert("a".into(), body("1"));
        c.insert("a".into(), body("other"));
        assert_eq!(c.get("a").unwrap().as_ref(), b"1");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let mut c = SelectCache::new(2);
        assert_eq!(c.stats(), (0, 0));
        c.get("a");
        c.insert("a".into(), body("1"));
        c.get("a");
        c.get("a");
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn get_hit_counts_only_hits() {
        let mut c = SelectCache::new(2);
        assert!(c.get_hit("a").is_none());
        assert_eq!(c.stats(), (0, 0), "a probe miss counts nothing");
        c.insert("a".into(), body("1"));
        assert_eq!(c.get_hit("a").unwrap().as_ref(), b"1");
        assert_eq!(c.stats(), (1, 0));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = SelectCache::new(0);
        c.insert("a".into(), body("1"));
        assert!(c.is_empty());
        assert!(c.get("a").is_none());
    }
}
