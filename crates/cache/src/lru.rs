//! Least-Recently-Used cache — the policy commercial CDNs deploy and the
//! paper's baseline eviction algorithm.
//!
//! O(1) per operation: a slab-backed doubly linked recency list plus a
//! hash index. The slab (`LinkedSlab`) is shared with the SIEVE policy.

use crate::object::{IdMap, ObjectId};
use crate::policy::{AccessOutcome, Cache};
use crate::state::{checked_total, CacheState, StateError};
use std::collections::HashSet;

/// A doubly-linked list of `(ObjectId, size)` nodes stored in a slab,
/// with O(1) push-front / unlink / pop-back. `usize::MAX` is the nil link.
#[derive(Debug, Default)]
pub(crate) struct LinkedSlab {
    nodes: Vec<Node>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Node {
    pub id: ObjectId,
    pub size: u64,
    /// Extra per-node bit; SIEVE uses it as the "visited" flag.
    pub flag: bool,
    prev: usize,
    next: usize,
}

pub(crate) const NIL: usize = usize::MAX;

impl LinkedSlab {
    pub(crate) fn new() -> Self {
        LinkedSlab { nodes: Vec::new(), free: Vec::new(), head: NIL, tail: NIL }
    }

    pub(crate) fn node(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    pub(crate) fn node_mut(&mut self, idx: usize) -> &mut Node {
        &mut self.nodes[idx]
    }

    pub(crate) fn head(&self) -> usize {
        self.head
    }

    pub(crate) fn tail(&self) -> usize {
        self.tail
    }

    pub(crate) fn next_of(&self, idx: usize) -> usize {
        self.nodes[idx].next
    }

    pub(crate) fn prev_of(&self, idx: usize) -> usize {
        self.nodes[idx].prev
    }

    /// Insert at the head (most-recent end), returning the node index.
    pub(crate) fn push_front(&mut self, id: ObjectId, size: u64) -> usize {
        let node = Node { id, size, flag: false, prev: NIL, next: self.head };
        let idx = if let Some(i) = self.free.pop() {
            self.nodes[i] = node;
            i
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
        idx
    }

    /// Unlink a node (does not free it for reuse).
    fn unlink(&mut self, idx: usize) {
        let Node { prev, next, .. } = self.nodes[idx];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    /// Remove a node and recycle its slot.
    pub(crate) fn remove(&mut self, idx: usize) -> Node {
        self.unlink(idx);
        self.free.push(idx);
        self.nodes[idx]
    }

    /// Move a node to the head.
    pub(crate) fn move_to_front(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        let Node { id, size, flag, .. } = self.nodes[idx];
        self.unlink(idx);
        // Relink in place at the front, reusing the same slot so external
        // indices (the hash map) stay valid.
        self.nodes[idx] = Node { id, size, flag, prev: NIL, next: self.head };
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }
}

/// An LRU cache with byte capacity.
#[derive(Debug)]
#[repr(align(128))] // cache lines of its own: see `PolicyKind::build`
pub struct LruCache {
    capacity: u64,
    used: u64,
    list: LinkedSlab,
    index: IdMap<ObjectId, usize>,
}

impl LruCache {
    /// Create an LRU cache holding at most `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        LruCache {
            capacity: capacity_bytes,
            used: 0,
            list: LinkedSlab::new(),
            index: IdMap::default(),
        }
    }

    fn evict_until_fits(&mut self, need: u64) {
        while self.used + need > self.capacity {
            let tail = self.list.tail();
            debug_assert_ne!(tail, NIL, "used > 0 implies non-empty list");
            let node = self.list.remove(tail);
            self.index.remove(&node.id);
            self.used -= node.size;
        }
    }

    fn admit(&mut self, id: ObjectId, size: u64) {
        if size > self.capacity {
            return; // larger than the whole cache: serve uncached
        }
        self.evict_until_fits(size);
        let idx = self.list.push_front(id, size);
        self.index.insert(id, idx);
        self.used += size;
    }

    /// The id that would be evicted next (the LRU victim), if any.
    pub fn victim(&self) -> Option<ObjectId> {
        (self.list.tail() != NIL).then(|| self.list.node(self.list.tail()).id)
    }

    /// Rebuild from an exported [`CacheState::Lru`] (entries most-recent
    /// first). The restored cache replays any access stream identically.
    pub(crate) fn from_state(state: &CacheState) -> Result<Self, StateError> {
        let CacheState::Lru { capacity, entries } = state else {
            return Err(StateError::wrong("lru", state));
        };
        let mut seen = HashSet::new();
        let used = checked_total(entries.iter().map(|(id, size)| (id, size)), &mut seen)?;
        if used > *capacity {
            return Err(StateError::Inconsistent("cached bytes exceed capacity"));
        }
        let mut c = LruCache::new(*capacity);
        // push_front builds the head last, so feed the tail end first.
        for &(id, size) in entries.iter().rev() {
            let idx = c.list.push_front(id, size);
            c.index.insert(id, idx);
        }
        c.used = used;
        Ok(c)
    }
}

impl Cache for LruCache {
    fn access(&mut self, id: ObjectId, size: u64) -> AccessOutcome {
        if let Some(&idx) = self.index.get(&id) {
            self.list.move_to_front(idx);
            AccessOutcome::Hit
        } else {
            self.admit(id, size);
            AccessOutcome::Miss
        }
    }

    fn insert(&mut self, id: ObjectId, size: u64) {
        if !self.index.contains_key(&id) {
            self.admit(id, size);
        }
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.index.contains_key(&id)
    }

    fn size_of(&self, id: ObjectId) -> Option<u64> {
        self.index.get(&id).map(|&i| self.list.node(i).size)
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn used_bytes(&self) -> u64 {
        self.used
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn clear(&mut self) {
        self.list.clear();
        self.index.clear();
        self.used = 0;
    }

    fn policy_name(&self) -> &'static str {
        "lru"
    }

    fn hottest(&self, k: usize) -> Vec<(ObjectId, u64)> {
        let mut out = Vec::with_capacity(k.min(self.index.len()));
        let mut cur = self.list.head();
        while cur != NIL && out.len() < k {
            let n = self.list.node(cur);
            out.push((n.id, n.size));
            cur = self.list.next_of(cur);
        }
        out
    }

    fn to_state(&self) -> CacheState {
        let mut entries = Vec::with_capacity(self.index.len());
        let mut cur = self.list.head();
        while cur != NIL {
            let n = self.list.node(cur);
            entries.push((n.id, n.size));
            cur = self.list.next_of(cur);
        }
        CacheState::Lru { capacity: self.capacity, entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn hit_then_miss_semantics() {
        let mut c = LruCache::new(100);
        assert_eq!(c.access(ObjectId(1), 40), AccessOutcome::Miss);
        assert_eq!(c.access(ObjectId(1), 40), AccessOutcome::Hit);
        assert_eq!(c.used_bytes(), 40);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(100);
        c.access(ObjectId(1), 40);
        c.access(ObjectId(2), 40);
        c.access(ObjectId(1), 40); // 1 now MRU; 2 is LRU
        assert_eq!(c.victim(), Some(ObjectId(2)));
        c.access(ObjectId(3), 40); // evicts 2
        assert!(c.contains(ObjectId(1)));
        assert!(!c.contains(ObjectId(2)));
        assert!(c.contains(ObjectId(3)));
    }

    #[test]
    fn large_object_evicts_many() {
        let mut c = LruCache::new(100);
        for i in 0..5 {
            c.access(ObjectId(i), 20);
        }
        assert_eq!(c.len(), 5);
        c.access(ObjectId(99), 90);
        assert!(c.contains(ObjectId(99)));
        // 5×20 B = 100 B used; fitting 90 B forces all five out.
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 90);
    }

    #[test]
    fn oversized_object_not_admitted() {
        let mut c = LruCache::new(100);
        c.access(ObjectId(5), 50);
        assert_eq!(c.access(ObjectId(1), 150), AccessOutcome::Miss);
        assert!(!c.contains(ObjectId(1)));
        assert!(c.contains(ObjectId(5)), "existing content must survive an uncacheable object");
        assert_eq!(c.used_bytes(), 50);
    }

    #[test]
    fn insert_does_not_touch_recency() {
        let mut c = LruCache::new(100);
        c.access(ObjectId(1), 50);
        c.insert(ObjectId(2), 50);
        // 2 was inserted most recently so 1 is the LRU victim.
        assert_eq!(c.victim(), Some(ObjectId(1)));
        // Re-inserting an existing object is a no-op.
        c.insert(ObjectId(1), 50);
        assert_eq!(c.victim(), Some(ObjectId(1)));
        assert_eq!(c.used_bytes(), 100);
    }

    #[test]
    fn contains_does_not_perturb_order() {
        let mut c = LruCache::new(100);
        c.access(ObjectId(1), 50);
        c.access(ObjectId(2), 50);
        assert!(c.contains(ObjectId(1)));
        // ObjectId(1) is still the victim despite the probe.
        assert_eq!(c.victim(), Some(ObjectId(1)));
    }

    #[test]
    fn clear_resets() {
        let mut c = LruCache::new(100);
        c.access(ObjectId(1), 50);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.victim(), None);
        assert_eq!(c.access(ObjectId(1), 50), AccessOutcome::Miss);
    }

    #[test]
    fn size_of_reports() {
        let mut c = LruCache::new(100);
        c.access(ObjectId(1), 33);
        assert_eq!(c.size_of(ObjectId(1)), Some(33));
        assert_eq!(c.size_of(ObjectId(2)), None);
    }

    #[test]
    fn zero_capacity_never_admits() {
        let mut c = LruCache::new(0);
        assert_eq!(c.access(ObjectId(1), 1), AccessOutcome::Miss);
        assert!(c.is_empty());
    }

    #[test]
    fn zero_size_objects_ok() {
        let mut c = LruCache::new(10);
        assert_eq!(c.access(ObjectId(1), 0), AccessOutcome::Miss);
        assert_eq!(c.access(ObjectId(1), 0), AccessOutcome::Hit);
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn sequential_scan_worst_case() {
        // Classic LRU pathology: a scan of N+1 distinct objects through an
        // N-object cache yields zero hits on repeat.
        let mut c = LruCache::new(50);
        for round in 0..3 {
            for i in 0..6u64 {
                let out = c.access(ObjectId(i), 10);
                assert_eq!(out, AccessOutcome::Miss, "round {round} obj {i}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_invariants_hold(ops in proptest::collection::vec((0u64..50, 1u64..40), 1..400)) {
            let mut c = LruCache::new(200);
            let mut reference: std::collections::HashSet<u64> = Default::default();
            for (id, size) in ops {
                let out = c.access(ObjectId(id), size);
                // A hit implies we saw the object and it was not evicted.
                if out.is_hit() {
                    prop_assert!(reference.contains(&id));
                }
                reference.insert(id);
                prop_assert!(c.used_bytes() <= c.capacity_bytes());
                prop_assert!(c.len() <= 200);
            }
        }

        #[test]
        fn prop_used_bytes_is_sum_of_sizes(ops in proptest::collection::vec((0u64..30, 1u64..40), 1..200)) {
            let mut c = LruCache::new(150);
            for (id, size) in ops {
                c.access(ObjectId(id), size);
                let sum: u64 = (0..30u64).filter_map(|i| c.size_of(ObjectId(i))).sum();
                prop_assert_eq!(sum, c.used_bytes());
            }
        }
    }
}
