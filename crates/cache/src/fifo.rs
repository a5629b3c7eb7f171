//! First-In-First-Out cache: evicts in admission order, ignoring reuse.
//!
//! Used as the simplest baseline policy and as a reference point for
//! SIEVE (which degenerates to FIFO when no object is re-accessed).

use crate::object::{IdMap, ObjectId};
use crate::policy::{AccessOutcome, Cache};
use crate::state::{checked_total, CacheState, StateError};
use std::collections::{HashSet, VecDeque};

/// A FIFO cache with byte capacity.
#[derive(Debug)]
#[repr(align(128))] // cache lines of its own: see `PolicyKind::build`
pub struct FifoCache {
    capacity: u64,
    used: u64,
    queue: VecDeque<ObjectId>,
    index: IdMap<ObjectId, u64>,
}

impl FifoCache {
    /// Create a FIFO cache holding at most `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        FifoCache {
            capacity: capacity_bytes,
            used: 0,
            queue: VecDeque::new(),
            index: IdMap::default(),
        }
    }

    fn admit(&mut self, id: ObjectId, size: u64) {
        if size > self.capacity {
            return;
        }
        while self.used + size > self.capacity {
            let victim = self.queue.pop_front().expect("used > 0 implies queue non-empty");
            let vsize = self.index.remove(&victim).expect("queue and index agree");
            self.used -= vsize;
        }
        self.queue.push_back(id);
        self.index.insert(id, size);
        self.used += size;
    }

    /// Rebuild from an exported [`CacheState::Fifo`] (queue oldest
    /// first, i.e. next victim first).
    pub fn from_state(state: &CacheState) -> Result<Self, StateError> {
        let CacheState::Fifo { capacity, queue } = state else {
            return Err(StateError::wrong("fifo", state));
        };
        let mut seen = HashSet::new();
        let used = checked_total(queue.iter().map(|(id, size)| (id, size)), &mut seen)?;
        if used > *capacity {
            return Err(StateError::Inconsistent("cached bytes exceed capacity"));
        }
        let mut c = FifoCache::new(*capacity);
        for &(id, size) in queue {
            c.queue.push_back(id);
            c.index.insert(id, size);
        }
        c.used = used;
        Ok(c)
    }
}

impl Cache for FifoCache {
    fn access(&mut self, id: ObjectId, size: u64) -> AccessOutcome {
        if self.index.contains_key(&id) {
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
        self.index.get(&id).copied()
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
        self.queue.clear();
        self.index.clear();
        self.used = 0;
    }

    fn policy_name(&self) -> &'static str {
        "fifo"
    }

    fn hottest(&self, k: usize) -> Vec<(ObjectId, u64)> {
        // Newest admissions first.
        self.queue.iter().rev().take(k).map(|id| (*id, self.index[id])).collect()
    }

    fn to_state(&self) -> CacheState {
        let queue = self.queue.iter().map(|id| (*id, self.index[id])).collect();
        CacheState::Fifo { capacity: self.capacity, queue }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_in_admission_order_despite_reuse() {
        let mut c = FifoCache::new(100);
        c.access(ObjectId(1), 40);
        c.access(ObjectId(2), 40);
        assert_eq!(c.access(ObjectId(1), 40), AccessOutcome::Hit); // reuse ignored
        c.access(ObjectId(3), 40); // still evicts 1 (oldest admission)
        assert!(!c.contains(ObjectId(1)));
        assert!(c.contains(ObjectId(2)));
        assert!(c.contains(ObjectId(3)));
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c = FifoCache::new(100);
        assert_eq!(c.access(ObjectId(9), 10), AccessOutcome::Miss);
        assert_eq!(c.access(ObjectId(9), 10), AccessOutcome::Hit);
        assert_eq!(c.len(), 1);
        assert_eq!(c.used_bytes(), 10);
        assert_eq!(c.size_of(ObjectId(9)), Some(10));
    }

    #[test]
    fn oversized_rejected() {
        let mut c = FifoCache::new(50);
        c.access(ObjectId(1), 200);
        assert!(c.is_empty());
    }

    #[test]
    fn insert_and_clear() {
        let mut c = FifoCache::new(50);
        c.insert(ObjectId(1), 20);
        assert!(c.contains(ObjectId(1)));
        c.insert(ObjectId(1), 20); // idempotent
        assert_eq!(c.used_bytes(), 20);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn multi_eviction_for_large_admit() {
        let mut c = FifoCache::new(100);
        for i in 0..10 {
            c.access(ObjectId(i), 10);
        }
        c.access(ObjectId(100), 95);
        assert!(c.contains(ObjectId(100)));
        assert!(c.used_bytes() <= 100);
        // The oldest nine objects must be gone; the 10th may or may not fit.
        for i in 0..9 {
            assert!(!c.contains(ObjectId(i)), "obj {i} should be evicted");
        }
    }
}
