//! SIEVE eviction (Zhang et al., NSDI '24) — cited by the paper as one of
//! the replacement schemes its consistent hashing accommodates.
//!
//! SIEVE keeps a FIFO queue with one "visited" bit per object and a hand
//! that sweeps from the oldest end toward the newest: visited objects are
//! spared (bit cleared), unvisited ones are evicted. Hits only set the
//! bit — no list movement — making SIEVE both simpler and often more
//! effective than LRU for web workloads.

use crate::lru::{LinkedSlab, NIL};
use crate::object::{IdMap, ObjectId};
use crate::policy::{AccessOutcome, Cache};
use crate::state::{CacheState, SieveEntryState, StateError};

/// A SIEVE cache with byte capacity.
#[derive(Debug)]
#[repr(align(128))] // cache lines of its own: see `PolicyKind::build`
pub struct SieveCache {
    capacity: u64,
    used: u64,
    list: LinkedSlab,
    index: IdMap<ObjectId, usize>,
    /// The sweep hand: a node index, or NIL (start from the tail).
    hand: usize,
}

impl SieveCache {
    /// Create a SIEVE cache holding at most `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        SieveCache {
            capacity: capacity_bytes,
            used: 0,
            list: LinkedSlab::new(),
            index: IdMap::default(),
            hand: NIL,
        }
    }

    /// Evict one object per SIEVE's hand sweep.
    fn evict_one(&mut self) {
        let mut hand = if self.hand == NIL { self.list.tail() } else { self.hand };
        debug_assert_ne!(hand, NIL, "evict_one on empty cache");
        loop {
            if self.list.node(hand).flag {
                // Spared: clear the bit, move toward the newest end.
                self.list.node_mut(hand).flag = false;
                hand = self.list.prev_of(hand);
                if hand == NIL {
                    hand = self.list.tail();
                }
            } else {
                let next_hand = self.list.prev_of(hand);
                let node = self.list.remove(hand);
                self.index.remove(&node.id);
                self.used -= node.size;
                self.hand = next_hand; // NIL means restart from tail
                return;
            }
        }
    }

    fn admit(&mut self, id: ObjectId, size: u64) {
        if size > self.capacity {
            return;
        }
        while self.used + size > self.capacity {
            self.evict_one();
        }
        let idx = self.list.push_front(id, size);
        self.index.insert(id, idx);
        self.used += size;
    }

    /// Whether an object's visited bit is set (test/diagnostic hook).
    pub fn is_visited(&self, id: ObjectId) -> Option<bool> {
        self.index.get(&id).map(|&i| self.list.node(i).flag)
    }

    /// Rebuild from an exported [`CacheState::Sieve`] (entries newest
    /// first, hand as a position from the head).
    pub fn from_state(state: &CacheState) -> Result<Self, StateError> {
        let CacheState::Sieve { capacity, entries, hand } = state else {
            return Err(StateError::wrong("sieve", state));
        };
        let mut c = SieveCache::new(*capacity);
        let mut used: u64 = 0;
        for e in entries.iter().rev() {
            if c.index.contains_key(&e.id) {
                return Err(StateError::Inconsistent("duplicate object id"));
            }
            let idx = c.list.push_front(e.id, e.size);
            c.list.node_mut(idx).flag = e.visited;
            c.index.insert(e.id, idx);
            used = used
                .checked_add(e.size)
                .ok_or(StateError::Inconsistent("object sizes overflow u64"))?;
        }
        if used > *capacity {
            return Err(StateError::Inconsistent("cached bytes exceed capacity"));
        }
        c.used = used;
        c.hand = match *hand {
            None => NIL,
            Some(pos) => {
                if pos as usize >= entries.len() {
                    return Err(StateError::Inconsistent("sieve hand position out of range"));
                }
                let mut cur = c.list.head();
                for _ in 0..pos {
                    cur = c.list.next_of(cur);
                }
                cur
            }
        };
        Ok(c)
    }
}

impl Cache for SieveCache {
    fn access(&mut self, id: ObjectId, size: u64) -> AccessOutcome {
        if let Some(&idx) = self.index.get(&id) {
            self.list.node_mut(idx).flag = true;
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
        self.hand = NIL;
    }

    fn policy_name(&self) -> &'static str {
        "sieve"
    }

    fn hottest(&self, k: usize) -> Vec<(ObjectId, u64)> {
        // Newest insertions first (SIEVE keeps no recency order beyond
        // the queue plus visited bits; prefer visited among equals is
        // not worth a scan here).
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
        let mut hand = None;
        let mut cur = self.list.head();
        let mut pos = 0u64;
        while cur != NIL {
            if cur == self.hand {
                hand = Some(pos);
            }
            let n = self.list.node(cur);
            entries.push(SieveEntryState { id: n.id, size: n.size, visited: n.flag });
            cur = self.list.next_of(cur);
            pos += 1;
        }
        CacheState::Sieve { capacity: self.capacity, entries, hand }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn basic_hit_miss() {
        let mut c = SieveCache::new(100);
        assert_eq!(c.access(ObjectId(1), 50), AccessOutcome::Miss);
        assert_eq!(c.access(ObjectId(1), 50), AccessOutcome::Hit);
        assert_eq!(c.is_visited(ObjectId(1)), Some(true));
    }

    #[test]
    fn unvisited_objects_evicted_first() {
        let mut c = SieveCache::new(100);
        c.access(ObjectId(1), 40);
        c.access(ObjectId(2), 40);
        c.access(ObjectId(1), 40); // 1 visited
        c.access(ObjectId(3), 40); // sweep: 2 unvisited → evicted
        assert!(c.contains(ObjectId(1)), "visited object must survive");
        assert!(!c.contains(ObjectId(2)));
        assert!(c.contains(ObjectId(3)));
    }

    #[test]
    fn sweep_clears_visited_bits() {
        let mut c = SieveCache::new(80);
        c.access(ObjectId(1), 40);
        c.access(ObjectId(2), 40);
        c.access(ObjectId(1), 40);
        c.access(ObjectId(2), 40); // both visited
        c.access(ObjectId(3), 40); // hand clears 1&2's bits, evicts one
        assert!(c.contains(ObjectId(3)));
        assert_eq!(c.len(), 2);
        // One survivor of {1,2}; its bit must now be cleared.
        let survivor = if c.contains(ObjectId(1)) { ObjectId(1) } else { ObjectId(2) };
        assert_eq!(c.is_visited(survivor), Some(false));
    }

    #[test]
    fn degenerates_to_fifo_without_reuse() {
        let mut c = SieveCache::new(100);
        for i in 0..5u64 {
            c.access(ObjectId(i), 25);
        }
        // Objects 0..5 at 25 B each: capacity 100 holds 4; evictions were
        // in FIFO order (0 first).
        assert!(!c.contains(ObjectId(0)));
        for i in 1..5u64 {
            assert!(c.contains(ObjectId(i)), "obj {i}");
        }
    }

    #[test]
    fn hand_persists_across_evictions() {
        // After an eviction mid-queue, the hand continues from there rather
        // than rescanning the tail (SIEVE's "quick demotion" property).
        let mut c = SieveCache::new(90);
        c.access(ObjectId(1), 30);
        c.access(ObjectId(2), 30);
        c.access(ObjectId(3), 30);
        c.access(ObjectId(1), 30); // visit tail object
        c.access(ObjectId(4), 30); // sweep spares 1, evicts 2; hand now past 2
        assert!(c.contains(ObjectId(1)));
        assert!(!c.contains(ObjectId(2)));
        c.access(ObjectId(5), 30); // next eviction starts at 3 (unvisited)
        assert!(!c.contains(ObjectId(3)));
        assert!(c.contains(ObjectId(1)), "spared object evicted prematurely");
    }

    #[test]
    fn oversized_rejected() {
        let mut c = SieveCache::new(50);
        c.access(ObjectId(1), 60);
        assert!(c.is_empty());
    }

    #[test]
    fn clear_resets_hand() {
        let mut c = SieveCache::new(60);
        for i in 0..4u64 {
            c.access(ObjectId(i), 20);
        }
        c.clear();
        assert!(c.is_empty());
        for i in 0..3u64 {
            assert_eq!(c.access(ObjectId(i), 20), AccessOutcome::Miss);
        }
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn insert_admits_unvisited() {
        let mut c = SieveCache::new(60);
        c.insert(ObjectId(1), 20);
        assert_eq!(c.is_visited(ObjectId(1)), Some(false));
        assert!(c.contains(ObjectId(1)));
    }

    proptest! {
        #[test]
        fn prop_capacity_respected(ops in proptest::collection::vec((0u64..40, 1u64..50), 1..500)) {
            let mut c = SieveCache::new(120);
            for (id, size) in ops {
                c.access(ObjectId(id), size);
                prop_assert!(c.used_bytes() <= c.capacity_bytes());
            }
        }

        #[test]
        fn prop_agrees_with_membership(ops in proptest::collection::vec((0u64..20, 5u64..30), 1..300)) {
            let mut c = SieveCache::new(100);
            for (id, size) in ops {
                let had = c.contains(ObjectId(id));
                let out = c.access(ObjectId(id), size);
                prop_assert_eq!(out.is_hit(), had);
            }
        }
    }
}
