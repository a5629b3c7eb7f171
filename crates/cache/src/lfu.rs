//! Least-Frequently-Used cache with LRU tie-breaking.
//!
//! Evicts the object with the fewest accesses since admission; among
//! equally-frequent objects, the least recently used goes first.
//! O(log n) per operation via an ordered victim set.

use crate::object::{IdMap, ObjectId};
use crate::policy::{AccessOutcome, Cache};
use crate::state::{CacheState, LfuEntryState, StateError};
use std::collections::BTreeSet;

#[derive(Debug, Clone, Copy)]
struct Entry {
    size: u64,
    freq: u64,
    /// Logical timestamp of the last access (tie-break: older first).
    last_touch: u64,
}

/// An LFU cache with byte capacity.
#[derive(Debug)]
#[repr(align(128))] // cache lines of its own: see `PolicyKind::build`
pub struct LfuCache {
    capacity: u64,
    used: u64,
    clock: u64,
    index: IdMap<ObjectId, Entry>,
    /// Victim order: (freq, last_touch, id) ascending.
    order: BTreeSet<(u64, u64, ObjectId)>,
}

impl LfuCache {
    /// Create an LFU cache holding at most `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        LfuCache {
            capacity: capacity_bytes,
            used: 0,
            clock: 0,
            index: IdMap::default(),
            order: BTreeSet::new(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn touch(&mut self, id: ObjectId) {
        let now = self.tick();
        let e = self.index.get_mut(&id).expect("touch of cached object");
        let removed = self.order.remove(&(e.freq, e.last_touch, id));
        debug_assert!(removed);
        e.freq += 1;
        e.last_touch = now;
        self.order.insert((e.freq, e.last_touch, id));
    }

    fn admit(&mut self, id: ObjectId, size: u64) {
        if size > self.capacity {
            return;
        }
        while self.used + size > self.capacity {
            let &(f, t, victim) = self.order.iter().next().expect("non-empty while over capacity");
            self.order.remove(&(f, t, victim));
            let e = self.index.remove(&victim).expect("order and index agree");
            self.used -= e.size;
        }
        let now = self.tick();
        self.index.insert(id, Entry { size, freq: 1, last_touch: now });
        self.order.insert((1, now, id));
        self.used += size;
    }

    /// The id that would be evicted next, if any.
    pub fn victim(&self) -> Option<ObjectId> {
        self.order.iter().next().map(|&(_, _, id)| id)
    }

    /// Access count of a cached object.
    pub fn frequency_of(&self, id: ObjectId) -> Option<u64> {
        self.index.get(&id).map(|e| e.freq)
    }

    /// Rebuild from an exported [`CacheState::Lfu`] (entries in victim
    /// order). The logical clock resumes where the export left it, so
    /// future tie-breaks replay identically.
    pub(crate) fn from_state(state: &CacheState) -> Result<Self, StateError> {
        let CacheState::Lfu { capacity, clock, entries } = state else {
            return Err(StateError::wrong("lfu", state));
        };
        let mut c = LfuCache::new(*capacity);
        c.clock = *clock;
        let mut used: u64 = 0;
        for e in entries {
            if e.last_touch > *clock {
                return Err(StateError::Inconsistent("last_touch is ahead of the clock"));
            }
            if c.index
                .insert(e.id, Entry { size: e.size, freq: e.freq, last_touch: e.last_touch })
                .is_some()
            {
                return Err(StateError::Inconsistent("duplicate object id"));
            }
            if !c.order.insert((e.freq, e.last_touch, e.id)) {
                return Err(StateError::Inconsistent("duplicate victim-order key"));
            }
            used = used
                .checked_add(e.size)
                .ok_or(StateError::Inconsistent("object sizes overflow u64"))?;
        }
        if used > *capacity {
            return Err(StateError::Inconsistent("cached bytes exceed capacity"));
        }
        c.used = used;
        Ok(c)
    }
}

impl Cache for LfuCache {
    fn access(&mut self, id: ObjectId, size: u64) -> AccessOutcome {
        if self.index.contains_key(&id) {
            self.touch(id);
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
        self.index.get(&id).map(|e| e.size)
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
        self.index.clear();
        self.order.clear();
        self.used = 0;
    }

    fn policy_name(&self) -> &'static str {
        "lfu"
    }

    fn hottest(&self, k: usize) -> Vec<(ObjectId, u64)> {
        // Highest frequency (most recent tie-break) first.
        self.order.iter().rev().take(k).map(|&(_, _, id)| (id, self.index[&id].size)).collect()
    }

    fn to_state(&self) -> CacheState {
        let entries = self
            .order
            .iter()
            .map(|&(freq, last_touch, id)| LfuEntryState {
                id,
                size: self.index[&id].size,
                freq,
                last_touch,
            })
            .collect();
        CacheState::Lfu { capacity: self.capacity, clock: self.clock, entries }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_frequent() {
        let mut c = LfuCache::new(100);
        c.access(ObjectId(1), 40);
        c.access(ObjectId(2), 40);
        c.access(ObjectId(1), 40);
        c.access(ObjectId(1), 40); // freq(1)=3, freq(2)=1
        assert_eq!(c.frequency_of(ObjectId(1)), Some(3));
        assert_eq!(c.victim(), Some(ObjectId(2)));
        c.access(ObjectId(3), 40);
        assert!(c.contains(ObjectId(1)));
        assert!(!c.contains(ObjectId(2)));
    }

    #[test]
    fn lru_tiebreak_among_equal_frequencies() {
        let mut c = LfuCache::new(100);
        c.access(ObjectId(1), 40);
        c.access(ObjectId(2), 40);
        // Both freq=1; 1 is older → victim.
        assert_eq!(c.victim(), Some(ObjectId(1)));
        c.access(ObjectId(3), 40);
        assert!(!c.contains(ObjectId(1)));
        assert!(c.contains(ObjectId(2)));
    }

    #[test]
    fn frequency_protection_beats_recency() {
        // An object accessed many times survives a burst of one-hit wonders
        // (where LRU would evict it).
        let mut c = LfuCache::new(100);
        for _ in 0..10 {
            c.access(ObjectId(1), 20);
        }
        for i in 100..110 {
            c.access(ObjectId(i), 20);
        }
        assert!(c.contains(ObjectId(1)), "hot object evicted by scan");
    }

    #[test]
    fn admission_resets_frequency() {
        let mut c = LfuCache::new(40);
        for _ in 0..5 {
            c.access(ObjectId(1), 40);
        }
        c.access(ObjectId(2), 40); // evicts 1 despite freq 5 (only candidate)
        assert!(!c.contains(ObjectId(1)));
        c.access(ObjectId(1), 40); // re-admitted fresh
        assert_eq!(c.frequency_of(ObjectId(1)), Some(1));
    }

    #[test]
    fn oversized_rejected_and_clear() {
        let mut c = LfuCache::new(50);
        c.access(ObjectId(1), 100);
        assert!(c.is_empty());
        c.access(ObjectId(2), 30);
        c.clear();
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.victim(), None);
    }

    #[test]
    fn insert_counts_as_single_use() {
        let mut c = LfuCache::new(100);
        c.insert(ObjectId(1), 40);
        assert_eq!(c.frequency_of(ObjectId(1)), Some(1));
        assert_eq!(c.access(ObjectId(1), 40), AccessOutcome::Hit);
        assert_eq!(c.frequency_of(ObjectId(1)), Some(2));
    }

    #[test]
    fn used_bytes_tracks() {
        let mut c = LfuCache::new(100);
        c.access(ObjectId(1), 30);
        c.access(ObjectId(2), 50);
        assert_eq!(c.used_bytes(), 80);
        c.access(ObjectId(3), 40); // must evict someone
        assert!(c.used_bytes() <= 100);
        assert_eq!(c.size_of(ObjectId(3)), Some(40));
    }
}
