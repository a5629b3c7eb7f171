//! MAD-style latency-aware eviction: GreedyDual over aggregate delay.
//!
//! "Caching with Delayed Hits" (SIGCOMM '20) shows that when fetches
//! stay in flight for many time steps, hit *rate* stops being the right
//! objective — what matters is the aggregate delay an object's misses
//! inflict, including every request coalesced onto the in-flight fetch.
//! MAD (Minimizing Aggregate Delay) ranks objects by that delay signal.
//!
//! This implementation is the classical GreedyDual mechanism with the
//! aggregate fetch delay as the cost: every entry carries a priority
//! `inflation + cost`, the victim is the minimum-priority entry
//! (least-recently-touched among ties), and evicting raises the global
//! inflation floor to the victim's priority. A hit refreshes the
//! entry's priority against the current floor, so recency and cost
//! trade off continuously: an expensive-to-fetch object outlives a
//! cheap one admitted at the same time by exactly its extra cost in
//! inflation units, but ages out once the floor climbs past it. Cost
//! is charged by the serving layer through
//! [`Cache::record_fetch_delay`] when a fetch retires (full fetch
//! latency + every follower's residual wait), so a heavily coalesced
//! object or one behind a slow origin is protected the longest. With
//! no delay signal — fetch latency configured to zero — every cost is
//! 0, the inflation floor never leaves 0, every priority stays 0, and
//! the `(priority, last_touch)` order degenerates to exact LRU, which
//! makes the zero-latency byte-identity gate easy to reason about.

use crate::object::{IdMap, ObjectId};
use crate::policy::{AccessOutcome, Cache};
use crate::state::{CacheState, MadEntryState, StateError};
use std::collections::BTreeSet;

/// Fixed-point scale for the cost density: priorities advance in units
/// of `delay * CREDIT_SCALE / size`, so a kilobyte-sized object at the
/// same aggregate delay outranks a gigabyte-sized one a million-fold —
/// evicting the giant frees room for many small expensive objects
/// (the GreedyDual-Size density argument).
const CREDIT_SCALE: u128 = 1 << 40;

/// Inflation-units bought by `delay` epochs of aggregate delay on an
/// object of `size` bytes. Any nonzero delay yields at least one unit,
/// so the cost signal never rounds away entirely.
fn credit(delay: u64, size: u64) -> u64 {
    if delay == 0 {
        return 0;
    }
    let d = (delay as u128 * CREDIT_SCALE) / size.max(1) as u128;
    d.clamp(1, u64::MAX as u128) as u64
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    size: u64,
    /// Accumulated aggregate delay (epochs) charged at fetch
    /// retirement — the GreedyDual cost.
    delay: u64,
    /// GreedyDual priority: the inflation floor at the last refresh
    /// plus the cost at that moment.
    priority: u64,
    /// Logical timestamp of the last access (tie-break: older first).
    last_touch: u64,
}

/// A MAD cache with byte capacity.
#[derive(Debug)]
#[repr(align(128))] // cache lines of its own: see `PolicyKind::build`
pub struct MadCache {
    capacity: u64,
    used: u64,
    clock: u64,
    /// GreedyDual inflation floor: the priority of the last victim.
    /// Monotone non-decreasing; every live priority is `>=` it.
    inflation: u64,
    index: IdMap<ObjectId, Entry>,
    /// Victim order: (priority, last_touch, id) ascending.
    order: BTreeSet<(u64, u64, ObjectId)>,
}

impl MadCache {
    /// Create a MAD cache holding at most `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        MadCache {
            capacity: capacity_bytes,
            used: 0,
            clock: 0,
            inflation: 0,
            index: IdMap::default(),
            order: BTreeSet::new(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Refresh `id` against the current inflation floor and stamp it
    /// as touched now.
    fn refresh(&mut self, id: ObjectId) {
        let now = self.tick();
        let inflation = self.inflation;
        let e = self.index.get_mut(&id).expect("refresh of cached object");
        let removed = self.order.remove(&(e.priority, e.last_touch, id));
        debug_assert!(removed);
        e.priority = inflation.saturating_add(credit(e.delay, e.size));
        e.last_touch = now;
        self.order.insert((e.priority, e.last_touch, id));
    }

    fn admit(&mut self, id: ObjectId, size: u64) {
        if size > self.capacity {
            return;
        }
        while self.used + size > self.capacity {
            let &(p, t, victim) = self.order.iter().next().expect("non-empty while over capacity");
            self.order.remove(&(p, t, victim));
            let e = self.index.remove(&victim).expect("order and index agree");
            self.used -= e.size;
            // The floor rises to the evicted priority: everything that
            // stays was worth at least this much.
            self.inflation = p;
        }
        let now = self.tick();
        let priority = self.inflation;
        self.index.insert(id, Entry { size, delay: 0, priority, last_touch: now });
        self.order.insert((priority, now, id));
        self.used += size;
    }

    /// The id that would be evicted next, if any (minimum priority,
    /// least-recently-touched tie-break).
    pub fn victim(&self) -> Option<ObjectId> {
        self.order.iter().next().map(|&(_, _, id)| id)
    }

    /// Accumulated aggregate delay of a cached object.
    #[cfg(test)]
    pub(crate) fn delay_of(&self, id: ObjectId) -> Option<u64> {
        self.index.get(&id).map(|e| e.delay)
    }

    /// GreedyDual priority of a cached object.
    pub fn priority_of(&self, id: ObjectId) -> Option<u64> {
        self.index.get(&id).map(|e| e.priority)
    }

    /// The current inflation floor (priority of the last victim).
    pub fn inflation(&self) -> u64 {
        self.inflation
    }

    /// Rebuild from an exported [`CacheState::Mad`] (entries in victim
    /// order). The logical clock and inflation floor resume where the
    /// export left them, so future evictions replay identically.
    pub fn from_state(state: &CacheState) -> Result<Self, StateError> {
        let CacheState::Mad { capacity, clock, inflation, entries } = state else {
            return Err(StateError::wrong("mad", state));
        };
        let mut c = MadCache::new(*capacity);
        c.clock = *clock;
        c.inflation = *inflation;
        let mut used: u64 = 0;
        for e in entries {
            if e.last_touch > *clock {
                return Err(StateError::Inconsistent("last_touch is ahead of the clock"));
            }
            if e.priority < *inflation {
                return Err(StateError::Inconsistent("priority below the inflation floor"));
            }
            if c.index
                .insert(
                    e.id,
                    Entry {
                        size: e.size,
                        delay: e.delay,
                        priority: e.priority,
                        last_touch: e.last_touch,
                    },
                )
                .is_some()
            {
                return Err(StateError::Inconsistent("duplicate object id"));
            }
            if !c.order.insert((e.priority, e.last_touch, e.id)) {
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

impl Cache for MadCache {
    fn access(&mut self, id: ObjectId, size: u64) -> AccessOutcome {
        if self.index.contains_key(&id) {
            self.refresh(id);
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

    fn record_fetch_delay(&mut self, id: ObjectId, delay_epochs: u64) {
        if delay_epochs == 0 {
            return;
        }
        if let Some(e) = self.index.get_mut(&id) {
            e.delay = e.delay.saturating_add(delay_epochs);
            // Fold the new cost into the priority immediately: the
            // fetch that just retired is the freshest evidence of what
            // a miss on this object costs.
            let old = (e.priority, e.last_touch, id);
            let removed = self.order.remove(&old);
            debug_assert!(removed);
            e.priority = self.inflation.saturating_add(credit(e.delay, e.size));
            self.order.insert((e.priority, e.last_touch, id));
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
        "mad"
    }

    fn hottest(&self, k: usize) -> Vec<(ObjectId, u64)> {
        // Highest priority (most recent tie-break) first.
        self.order.iter().rev().take(k).map(|&(_, _, id)| (id, self.index[&id].size)).collect()
    }

    fn to_state(&self) -> CacheState {
        let entries = self
            .order
            .iter()
            .map(|&(priority, last_touch, id)| {
                let e = &self.index[&id];
                MadEntryState { id, size: e.size, delay: e.delay, priority, last_touch }
            })
            .collect();
        CacheState::Mad {
            capacity: self.capacity,
            clock: self.clock,
            inflation: self.inflation,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_minimum_priority_and_raises_the_floor() {
        let mut c = MadCache::new(100);
        c.access(ObjectId(1), 40);
        c.access(ObjectId(2), 40);
        c.record_fetch_delay(ObjectId(1), 12);
        assert_eq!(c.delay_of(ObjectId(1)), Some(12));
        assert_eq!(c.priority_of(ObjectId(1)), Some(credit(12, 40)));
        assert_eq!(c.victim(), Some(ObjectId(2)), "zero-cost entry goes first");
        c.access(ObjectId(3), 40);
        assert!(c.contains(ObjectId(1)), "costly entry outlives the cheap one");
        assert!(!c.contains(ObjectId(2)));
        assert_eq!(c.inflation(), 0, "evicting a zero-priority victim keeps the floor at 0");
    }

    #[test]
    fn floor_climbs_past_stale_costly_entries() {
        let mut c = MadCache::new(80);
        c.access(ObjectId(1), 40);
        c.record_fetch_delay(ObjectId(1), 3); // priority 3
                                              // Fill + churn zero-cost entries until the floor passes 3: each
                                              // eviction of a cost-0 entry refreshed at floor f keeps the
                                              // floor at f, but entry 1 is the minimum once the floor
                                              // reaches its priority.
        c.access(ObjectId(2), 40); // priority 0
        c.access(ObjectId(3), 40); // evicts 2 (priority 0), floor 0
        assert!(c.contains(ObjectId(1)));
        c.record_fetch_delay(ObjectId(3), 10); // priority 10
        c.access(ObjectId(4), 40); // min is now 1 at priority 3: evicted, floor 3
        assert!(!c.contains(ObjectId(1)), "stale cost stops protecting once the floor passes it");
        assert_eq!(c.inflation(), credit(3, 40));
        assert_eq!(
            c.priority_of(ObjectId(4)),
            Some(credit(3, 40)),
            "admitted at the current floor"
        );
    }

    #[test]
    fn hit_refreshes_priority_against_the_current_floor() {
        let mut c = MadCache::new(80);
        c.access(ObjectId(1), 40);
        c.record_fetch_delay(ObjectId(1), 2);
        c.access(ObjectId(2), 40);
        c.record_fetch_delay(ObjectId(2), 10);
        c.access(ObjectId(3), 40); // evicts 1 (its cost is smaller), floor rises to its priority
        assert_eq!(c.inflation(), credit(2, 40));
        c.access(ObjectId(2), 40); // refresh: priority = floor + own credit
        assert_eq!(c.priority_of(ObjectId(2)), Some(credit(2, 40) + credit(10, 40)));
        assert_eq!(c.delay_of(ObjectId(2)), Some(10), "cost itself is not consumed");
    }

    #[test]
    fn degenerates_to_lru_without_delay_signal() {
        let mut mad = MadCache::new(100);
        let mut lru = crate::lru::LruCache::new(100);
        let trace = [(1u64, 40u64), (2, 40), (1, 40), (3, 40), (4, 40), (2, 40), (5, 40)];
        for &(id, size) in &trace {
            assert_eq!(mad.access(ObjectId(id), size), lru.access(ObjectId(id), size));
        }
        for id in 1..=5 {
            assert_eq!(mad.contains(ObjectId(id)), lru.contains(ObjectId(id)), "object {id}");
        }
        assert_eq!(mad.inflation(), 0, "no cost signal: the floor never moves");
    }

    #[test]
    fn delay_survives_touches() {
        let mut c = MadCache::new(100);
        c.access(ObjectId(1), 40);
        c.record_fetch_delay(ObjectId(1), 5);
        c.access(ObjectId(1), 40); // touch keeps delay
        assert_eq!(c.delay_of(ObjectId(1)), Some(5));
        c.record_fetch_delay(ObjectId(1), 3);
        assert_eq!(c.delay_of(ObjectId(1)), Some(8));
    }

    #[test]
    fn delay_for_absent_object_is_ignored() {
        let mut c = MadCache::new(100);
        c.record_fetch_delay(ObjectId(9), 7);
        assert!(c.is_empty());
        assert_eq!(c.delay_of(ObjectId(9)), None);
    }

    #[test]
    fn eviction_resets_delay() {
        let mut c = MadCache::new(40);
        c.access(ObjectId(1), 40);
        c.record_fetch_delay(ObjectId(1), 50);
        c.access(ObjectId(2), 40); // evicts 1 despite its cost (only candidate)
        assert!(!c.contains(ObjectId(1)));
        assert_eq!(c.inflation(), credit(50, 40), "the floor absorbed the evicted priority");
        c.access(ObjectId(1), 40); // re-admitted fresh at the floor
        assert_eq!(c.delay_of(ObjectId(1)), Some(0));
        assert_eq!(c.priority_of(ObjectId(1)), Some(credit(50, 40)));
    }

    #[test]
    fn hottest_orders_by_priority() {
        let mut c = MadCache::new(200);
        for id in 1..=4 {
            c.access(ObjectId(id), 40);
        }
        c.record_fetch_delay(ObjectId(3), 9);
        c.record_fetch_delay(ObjectId(1), 4);
        let hot: Vec<ObjectId> = c.hottest(2).into_iter().map(|(id, _)| id).collect();
        assert_eq!(hot, vec![ObjectId(3), ObjectId(1)]);
    }

    #[test]
    fn oversized_rejected_and_clear() {
        let mut c = MadCache::new(50);
        c.access(ObjectId(1), 100);
        assert!(c.is_empty());
        c.access(ObjectId(2), 30);
        c.clear();
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.victim(), None);
    }

    #[test]
    fn state_roundtrip_preserves_floor_and_priorities() {
        let mut c = MadCache::new(120);
        c.access(ObjectId(1), 40);
        c.record_fetch_delay(ObjectId(1), 6);
        c.access(ObjectId(2), 40);
        c.access(ObjectId(3), 40);
        c.access(ObjectId(4), 40); // evicts 2
        let s = c.to_state();
        let r = MadCache::from_state(&s).unwrap();
        assert_eq!(r.to_state(), s);
        assert_eq!(r.inflation(), c.inflation());
        assert_eq!(r.priority_of(ObjectId(1)), c.priority_of(ObjectId(1)));
    }

    #[test]
    fn state_with_priority_below_floor_rejected() {
        let s = CacheState::Mad {
            capacity: 100,
            clock: 5,
            inflation: 7,
            entries: vec![MadEntryState {
                id: ObjectId(1),
                size: 10,
                delay: 0,
                priority: 3,
                last_touch: 2,
            }],
        };
        assert!(matches!(MadCache::from_state(&s), Err(StateError::Inconsistent(_))));
    }
}
