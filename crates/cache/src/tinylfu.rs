//! TinyLFU-admission LRU — an *admission-filtered* cache.
//!
//! The paper's related work (§6.2) spans admission policies (AdaptSize,
//! RL-Cache): deciding *whether to admit* on a miss matters as much as
//! what to evict, because one-hit wonders occupy space a CDN never gets
//! paid back for. TinyLFU (Einziger et al.) keeps an approximate
//! frequency sketch of the whole request stream and admits a new object
//! only if its estimated frequency beats the would-be eviction victim's.
//!
//! Implementation: an LRU main cache plus a 4-row count-min sketch with
//! periodic halving (aging), giving scan resistance without per-object
//! metadata.

use crate::lru::LruCache;
use crate::object::ObjectId;
use crate::policy::{AccessOutcome, Cache};
use crate::state::{CacheState, StateError};

/// A count-min sketch with conservative estimates and periodic halving.
#[derive(Debug)]
struct CountMinSketch {
    rows: [Vec<u32>; 4],
    mask: usize,
    /// Accesses since the last halving.
    ops: u64,
    /// Halve all counters after this many accesses (the aging window).
    window: u64,
}

impl CountMinSketch {
    fn new(width_pow2: usize, window: u64) -> Self {
        let width = width_pow2.next_power_of_two();
        CountMinSketch {
            rows: std::array::from_fn(|_| vec![0u32; width]),
            mask: width - 1,
            ops: 0,
            window: window.max(16),
        }
    }

    fn index(&self, id: ObjectId, row: usize) -> usize {
        // Per-row hash: splitmix of (id ^ row-salt).
        let mut x = id.0 ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(row as u64 + 1));
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x ^ (x >> 31)) as usize & self.mask
    }

    fn record(&mut self, id: ObjectId) {
        for row in 0..4 {
            let i = self.index(id, row);
            self.rows[row][i] = self.rows[row][i].saturating_add(1);
        }
        self.ops += 1;
        if self.ops >= self.window {
            self.halve();
        }
    }

    fn estimate(&self, id: ObjectId) -> u32 {
        (0..4).map(|row| self.rows[row][self.index(id, row)]).min().unwrap_or(0)
    }

    fn halve(&mut self) {
        for row in &mut self.rows {
            for c in row.iter_mut() {
                *c >>= 1;
            }
        }
        self.ops = 0;
    }
}

/// An LRU cache guarded by a TinyLFU admission filter.
#[derive(Debug)]
#[repr(align(128))] // cache lines of its own: see `PolicyKind::build`
pub struct TinyLfuCache {
    main: LruCache,
    sketch: CountMinSketch,
}

impl TinyLfuCache {
    /// Create a TinyLFU-admission cache of `capacity_bytes`.
    ///
    /// The sketch is sized for roughly the number of objects the cache
    /// can hold (assuming ~1 KiB objects, clamped) and ages over a
    /// window of 16× that.
    pub fn new(capacity_bytes: u64) -> Self {
        let approx_objects = (capacity_bytes / 1024).clamp(64, 1 << 22) as usize;
        TinyLfuCache {
            main: LruCache::new(capacity_bytes),
            sketch: CountMinSketch::new(approx_objects, approx_objects as u64 * 16),
        }
    }

    /// Frequency estimate for an object (diagnostic hook).
    pub fn estimate(&self, id: ObjectId) -> u32 {
        self.sketch.estimate(id)
    }

    /// Rebuild from an exported [`CacheState::TinyLfu`]: the main LRU
    /// entries plus the sketch's counters and aging-window progress.
    pub fn from_state(state: &CacheState) -> Result<Self, StateError> {
        let CacheState::TinyLfu { capacity, entries, rows, mask, ops, window } = state else {
            return Err(StateError::wrong("tinylfu", state));
        };
        let width = (*mask as usize)
            .checked_add(1)
            .ok_or(StateError::Inconsistent("sketch mask overflows"))?;
        if !width.is_power_of_two() {
            return Err(StateError::Inconsistent("sketch width is not a power of two"));
        }
        if rows.len() != 4 || rows.iter().any(|r| r.len() != width) {
            return Err(StateError::Inconsistent("sketch rows do not match the mask"));
        }
        if *window < 16 {
            return Err(StateError::Inconsistent("sketch window below the minimum"));
        }
        let main = LruCache::from_state(&CacheState::Lru {
            capacity: *capacity,
            entries: entries.clone(),
        })?;
        let rows: [Vec<u32>; 4] = std::array::from_fn(|i| rows[i].clone());
        Ok(TinyLfuCache {
            main,
            sketch: CountMinSketch { rows, mask: *mask as usize, ops: *ops, window: *window },
        })
    }

    /// TinyLFU admission: admit when there is spare room, or when the
    /// candidate's frequency beats the current eviction victim's.
    fn should_admit(&self, id: ObjectId, size: u64) -> bool {
        if size > self.main.capacity_bytes() {
            return false;
        }
        if self.main.used_bytes() + size <= self.main.capacity_bytes() {
            return true;
        }
        match self.main.victim() {
            Some(victim) => self.sketch.estimate(id) > self.sketch.estimate(victim),
            None => true,
        }
    }
}

impl Cache for TinyLfuCache {
    fn access(&mut self, id: ObjectId, size: u64) -> AccessOutcome {
        self.sketch.record(id);
        if self.main.contains(id) {
            self.main.access(id, size)
        } else {
            if self.should_admit(id, size) {
                self.main.insert(id, size);
            }
            AccessOutcome::Miss
        }
    }

    fn insert(&mut self, id: ObjectId, size: u64) {
        if !self.main.contains(id) && self.should_admit(id, size) {
            self.main.insert(id, size);
        }
    }

    fn contains(&self, id: ObjectId) -> bool {
        self.main.contains(id)
    }

    fn size_of(&self, id: ObjectId) -> Option<u64> {
        self.main.size_of(id)
    }

    fn capacity_bytes(&self) -> u64 {
        self.main.capacity_bytes()
    }

    fn used_bytes(&self) -> u64 {
        self.main.used_bytes()
    }

    fn len(&self) -> usize {
        self.main.len()
    }

    fn clear(&mut self) {
        let cap = self.main.capacity_bytes();
        *self = TinyLfuCache::new(cap);
    }

    fn policy_name(&self) -> &'static str {
        "tinylfu"
    }

    fn hottest(&self, k: usize) -> Vec<(ObjectId, u64)> {
        self.main.hottest(k)
    }

    fn to_state(&self) -> CacheState {
        let CacheState::Lru { capacity, entries } = self.main.to_state() else {
            unreachable!("LruCache::to_state returns the Lru variant")
        };
        CacheState::TinyLfu {
            capacity,
            entries,
            rows: self.sketch.rows.to_vec(),
            mask: self.sketch.mask as u64,
            ops: self.sketch.ops,
            window: self.sketch.window,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sketch_estimates_track_counts() {
        let mut s = CountMinSketch::new(1024, 1_000_000);
        for _ in 0..10 {
            s.record(ObjectId(1));
        }
        s.record(ObjectId(2));
        assert!(s.estimate(ObjectId(1)) >= 10);
        assert!(s.estimate(ObjectId(2)) >= 1);
        assert!(s.estimate(ObjectId(1)) > s.estimate(ObjectId(2)));
        // Untouched ids estimate (near) zero with a roomy sketch.
        assert!(s.estimate(ObjectId(999)) <= 1);
    }

    #[test]
    fn sketch_halving_ages_history() {
        let mut s = CountMinSketch::new(256, 16);
        for _ in 0..16 {
            s.record(ObjectId(7)); // triggers a halve at the window
        }
        assert!(s.estimate(ObjectId(7)) <= 8, "halving should age counts");
    }

    #[test]
    fn admits_freely_with_spare_room() {
        let mut c = TinyLfuCache::new(1000);
        assert_eq!(c.access(ObjectId(1), 100), AccessOutcome::Miss);
        assert!(c.contains(ObjectId(1)));
        assert_eq!(c.access(ObjectId(1), 100), AccessOutcome::Hit);
    }

    #[test]
    fn one_hit_wonders_rejected_when_full() {
        let mut c = TinyLfuCache::new(300);
        // Build a hot resident set.
        for _ in 0..5 {
            c.access(ObjectId(1), 100);
            c.access(ObjectId(2), 100);
            c.access(ObjectId(3), 100);
        }
        assert_eq!(c.len(), 3);
        // A cold scan cannot displace them.
        for i in 100..120u64 {
            c.access(ObjectId(i), 100);
        }
        assert!(c.contains(ObjectId(1)));
        assert!(c.contains(ObjectId(2)));
        assert!(c.contains(ObjectId(3)));
    }

    #[test]
    fn repeated_candidate_eventually_admitted() {
        let mut c = TinyLfuCache::new(200);
        c.access(ObjectId(1), 100);
        c.access(ObjectId(2), 100); // full, both freq 1
                                    // Object 9 knocks until its frequency beats the LRU victim's.
        for _ in 0..3 {
            c.access(ObjectId(9), 100);
        }
        assert!(c.contains(ObjectId(9)), "frequent candidate must get in");
    }

    #[test]
    fn beats_plain_lru_on_scan_workload() {
        use crate::policy::PolicyKind;
        use crate::simulate::replay;
        // 70% of requests to 8 hot objects, 30% one-hit wonders.
        let mut trace = Vec::new();
        let mut x = 12345u64;
        for i in 0..30_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            if x % 10 < 7 {
                trace.push((ObjectId(x % 8), 100u64));
            } else {
                trace.push((ObjectId(1_000_000 + i), 100u64));
            }
        }
        let mut tiny = TinyLfuCache::new(1200);
        let tiny_stats = replay(&mut tiny, trace.iter().copied());
        let mut lru = PolicyKind::Lru.build(1200);
        let lru_stats = replay(lru.as_mut(), trace.iter().copied());
        assert!(
            tiny_stats.request_hit_rate() > lru_stats.request_hit_rate(),
            "tinylfu {:.3} !> lru {:.3}",
            tiny_stats.request_hit_rate(),
            lru_stats.request_hit_rate()
        );
    }

    #[test]
    fn oversized_never_admitted_and_clear_resets() {
        let mut c = TinyLfuCache::new(100);
        c.access(ObjectId(1), 500);
        assert!(c.is_empty());
        c.access(ObjectId(2), 50);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.used_bytes(), 0);
        assert_eq!(c.estimate(ObjectId(2)), 0, "sketch cleared too");
    }

    #[test]
    fn trait_surface() {
        let mut c = TinyLfuCache::new(1000);
        c.insert(ObjectId(5), 123);
        assert_eq!(c.size_of(ObjectId(5)), Some(123));
        assert_eq!(c.policy_name(), "tinylfu");
        assert_eq!(c.capacity_bytes(), 1000);
        assert_eq!(c.hottest(1)[0].0, ObjectId(5));
    }
}
