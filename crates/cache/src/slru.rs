//! Segmented LRU (SLRU) — the "LRU variant" family commercial CDNs
//! deploy (§2.2 of the paper: "different LRU variants are often deployed
//! in commercial CDNs").
//!
//! Two LRU segments: objects are admitted into *probation*; a hit while
//! on probation promotes to *protected*. Evictions take probation's LRU
//! tail first; when protected outgrows its share, its tail demotes back
//! to probation's head. One-hit wonders thus never displace proven
//! content — the scan-resistance plain LRU lacks.

use crate::lru::{LinkedSlab, NIL};
use crate::object::{IdMap, ObjectId};
use crate::policy::{AccessOutcome, Cache};
use crate::state::{checked_total, CacheState, StateError};
use std::collections::HashSet;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segment {
    Probation,
    Protected,
}

/// An SLRU cache with byte capacity.
#[derive(Debug)]
#[repr(align(128))] // cache lines of its own: see `PolicyKind::build`
pub struct SlruCache {
    capacity: u64,
    /// Byte budget of the protected segment (default 80 % of capacity).
    protected_capacity: u64,
    used_probation: u64,
    used_protected: u64,
    probation: LinkedSlab,
    protected: LinkedSlab,
    index: IdMap<ObjectId, (Segment, usize)>,
}

impl SlruCache {
    /// An SLRU cache with the conventional 80 % protected share.
    pub fn new(capacity_bytes: u64) -> Self {
        Self::with_protected_share(capacity_bytes, 0.8)
    }

    /// An SLRU cache with an explicit protected share in `[0, 1]`.
    pub fn with_protected_share(capacity_bytes: u64, share: f64) -> Self {
        assert!((0.0..=1.0).contains(&share), "protected share must be in [0,1]");
        SlruCache {
            capacity: capacity_bytes,
            protected_capacity: (capacity_bytes as f64 * share) as u64,
            used_probation: 0,
            used_protected: 0,
            probation: LinkedSlab::new(),
            protected: LinkedSlab::new(),
            index: IdMap::default(),
        }
    }

    fn evict_probation_tail(&mut self) -> bool {
        let tail = self.probation.tail();
        if tail == NIL {
            return false;
        }
        let node = self.probation.remove(tail);
        self.index.remove(&node.id);
        self.used_probation -= node.size;
        true
    }

    /// Demote protected's LRU tail into probation's head.
    fn demote_one(&mut self) {
        let tail = self.protected.tail();
        debug_assert_ne!(tail, NIL);
        let node = self.protected.remove(tail);
        self.used_protected -= node.size;
        let idx = self.probation.push_front(node.id, node.size);
        self.used_probation += node.size;
        self.index.insert(node.id, (Segment::Probation, idx));
    }

    fn promote(&mut self, id: ObjectId, idx: usize) {
        let node = self.probation.remove(idx);
        self.used_probation -= node.size;
        while self.used_protected + node.size > self.protected_capacity
            && self.protected.tail() != NIL
        {
            self.demote_one();
        }
        if node.size > self.protected_capacity {
            // Degenerate share: keep the object on probation instead.
            let back = self.probation.push_front(node.id, node.size);
            self.used_probation += node.size;
            self.index.insert(id, (Segment::Probation, back));
            return;
        }
        let new_idx = self.protected.push_front(node.id, node.size);
        self.used_protected += node.size;
        self.index.insert(id, (Segment::Protected, new_idx));
        // Demotions may have overfilled total capacity? No: demotion moves
        // bytes between segments; total is unchanged.
    }

    fn admit(&mut self, id: ObjectId, size: u64) {
        if size > self.capacity {
            return;
        }
        while self.used_probation + self.used_protected + size > self.capacity {
            if !self.evict_probation_tail() {
                // Probation empty: demote from protected, then retry.
                self.demote_one();
            }
        }
        let idx = self.probation.push_front(id, size);
        self.used_probation += size;
        self.index.insert(id, (Segment::Probation, idx));
    }

    /// Which segment holds an object (diagnostic/test hook).
    pub fn segment_of(&self, id: ObjectId) -> Option<&'static str> {
        self.index.get(&id).map(|(s, _)| match s {
            Segment::Probation => "probation",
            Segment::Protected => "protected",
        })
    }

    /// Rebuild from an exported [`CacheState::Slru`] (both segments
    /// most-recent first). The protected byte budget travels in the
    /// state, so `with_protected_share` customizations survive.
    pub fn from_state(state: &CacheState) -> Result<Self, StateError> {
        let CacheState::Slru { capacity, protected_capacity, protected, probation } = state else {
            return Err(StateError::wrong("slru", state));
        };
        if protected_capacity > capacity {
            return Err(StateError::Inconsistent("protected budget exceeds capacity"));
        }
        let mut seen = HashSet::new();
        let used_protected =
            checked_total(protected.iter().map(|(id, size)| (id, size)), &mut seen)?;
        let used_probation =
            checked_total(probation.iter().map(|(id, size)| (id, size)), &mut seen)?;
        if used_protected + used_probation > *capacity {
            return Err(StateError::Inconsistent("cached bytes exceed capacity"));
        }
        let mut c = SlruCache::with_protected_share(*capacity, 0.0);
        c.protected_capacity = *protected_capacity;
        for &(id, size) in protected.iter().rev() {
            let idx = c.protected.push_front(id, size);
            c.index.insert(id, (Segment::Protected, idx));
        }
        for &(id, size) in probation.iter().rev() {
            let idx = c.probation.push_front(id, size);
            c.index.insert(id, (Segment::Probation, idx));
        }
        c.used_protected = used_protected;
        c.used_probation = used_probation;
        Ok(c)
    }

    fn segment_entries(list: &LinkedSlab) -> Vec<(ObjectId, u64)> {
        let mut out = Vec::new();
        let mut cur = list.head();
        while cur != NIL {
            let n = list.node(cur);
            out.push((n.id, n.size));
            cur = list.next_of(cur);
        }
        out
    }
}

impl Cache for SlruCache {
    fn access(&mut self, id: ObjectId, size: u64) -> AccessOutcome {
        match self.index.get(&id).copied() {
            Some((Segment::Probation, idx)) => {
                self.promote(id, idx);
                AccessOutcome::Hit
            }
            Some((Segment::Protected, idx)) => {
                self.protected.move_to_front(idx);
                AccessOutcome::Hit
            }
            None => {
                self.admit(id, size);
                AccessOutcome::Miss
            }
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
        self.index.get(&id).map(|&(seg, i)| match seg {
            Segment::Probation => self.probation.node(i).size,
            Segment::Protected => self.protected.node(i).size,
        })
    }

    fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    fn used_bytes(&self) -> u64 {
        self.used_probation + self.used_protected
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn clear(&mut self) {
        self.probation.clear();
        self.protected.clear();
        self.index.clear();
        self.used_probation = 0;
        self.used_protected = 0;
    }

    fn policy_name(&self) -> &'static str {
        "slru"
    }

    fn hottest(&self, k: usize) -> Vec<(ObjectId, u64)> {
        // Protected MRU first, then probation MRU.
        let mut out = Vec::with_capacity(k.min(self.index.len()));
        for list in [&self.protected, &self.probation] {
            let mut cur = list.head();
            while cur != NIL && out.len() < k {
                let n = list.node(cur);
                out.push((n.id, n.size));
                cur = list.next_of(cur);
            }
        }
        out
    }

    fn to_state(&self) -> CacheState {
        CacheState::Slru {
            capacity: self.capacity,
            protected_capacity: self.protected_capacity,
            protected: Self::segment_entries(&self.protected),
            probation: Self::segment_entries(&self.probation),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn admit_into_probation_promote_on_hit() {
        let mut c = SlruCache::new(100);
        c.access(ObjectId(1), 20);
        assert_eq!(c.segment_of(ObjectId(1)), Some("probation"));
        assert_eq!(c.access(ObjectId(1), 20), AccessOutcome::Hit);
        assert_eq!(c.segment_of(ObjectId(1)), Some("protected"));
    }

    #[test]
    fn scan_resistance() {
        // A hot object survives a one-hit-wonder scan that would flush
        // plain LRU.
        let mut c = SlruCache::new(100);
        c.access(ObjectId(1), 20);
        c.access(ObjectId(1), 20); // protected
        for i in 100..120u64 {
            c.access(ObjectId(i), 20); // scan churns probation only
        }
        assert!(c.contains(ObjectId(1)), "protected object evicted by scan");

        let mut lru = crate::lru::LruCache::new(100);
        lru.access(ObjectId(1), 20);
        lru.access(ObjectId(1), 20);
        for i in 100..120u64 {
            lru.access(ObjectId(i), 20);
        }
        assert!(!lru.contains(ObjectId(1)), "plain LRU should have lost it");
    }

    #[test]
    fn protected_overflow_demotes() {
        let mut c = SlruCache::with_protected_share(100, 0.4); // 40 B protected
        c.access(ObjectId(1), 20);
        c.access(ObjectId(1), 20); // protected: {1}
        c.access(ObjectId(2), 20);
        c.access(ObjectId(2), 20); // protected: {2, 1} = 40 B
        c.access(ObjectId(3), 20);
        c.access(ObjectId(3), 20); // protected full → demote 1
        assert_eq!(c.segment_of(ObjectId(1)), Some("probation"));
        assert_eq!(c.segment_of(ObjectId(2)), Some("protected"));
        assert_eq!(c.segment_of(ObjectId(3)), Some("protected"));
        assert!(c.used_bytes() <= 100);
    }

    #[test]
    fn eviction_takes_probation_first() {
        let mut c = SlruCache::new(60);
        c.access(ObjectId(1), 20);
        c.access(ObjectId(1), 20); // protected
        c.access(ObjectId(2), 20); // probation
        c.access(ObjectId(3), 20); // probation full (total 60)
        c.access(ObjectId(4), 20); // evicts 2 (probation LRU), not 1
        assert!(c.contains(ObjectId(1)));
        assert!(!c.contains(ObjectId(2)));
        assert!(c.contains(ObjectId(3)));
        assert!(c.contains(ObjectId(4)));
    }

    #[test]
    fn oversized_rejected_and_size_reporting() {
        let mut c = SlruCache::new(50);
        c.access(ObjectId(1), 60);
        assert!(c.is_empty());
        c.access(ObjectId(2), 30);
        assert_eq!(c.size_of(ObjectId(2)), Some(30));
        assert_eq!(c.size_of(ObjectId(1)), None);
    }

    #[test]
    fn hottest_prefers_protected() {
        let mut c = SlruCache::new(100);
        c.access(ObjectId(1), 20);
        c.access(ObjectId(1), 20); // protected
        c.access(ObjectId(2), 20); // probation (more recent admission)
        let hot = c.hottest(2);
        assert_eq!(hot[0].0, ObjectId(1), "protected content is hottest");
        assert_eq!(hot[1].0, ObjectId(2));
    }

    #[test]
    fn clear_resets() {
        let mut c = SlruCache::new(100);
        c.access(ObjectId(1), 20);
        c.access(ObjectId(1), 20);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.segment_of(ObjectId(1)), None);
    }

    proptest! {
        #[test]
        fn prop_capacity_and_consistency(
            ops in proptest::collection::vec((0u64..30, 1u64..40), 1..400)
        ) {
            let mut c = SlruCache::new(150);
            for (id, size) in ops {
                let had = c.contains(ObjectId(id));
                let out = c.access(ObjectId(id), size);
                prop_assert_eq!(out.is_hit(), had);
                prop_assert!(c.used_bytes() <= c.capacity_bytes());
                // Index and segments agree on byte totals.
                let sum: u64 = (0..30u64).filter_map(|i| c.size_of(ObjectId(i))).sum();
                prop_assert_eq!(sum, c.used_bytes());
            }
        }
    }
}
