//! Portable, serializable snapshots of policy-internal cache state.
//!
//! Checkpoint/resume (DESIGN.md §11) must reconstruct every cache
//! *bit-for-bit behaviorally*: after a restore, the same access stream
//! must produce the same hits, misses, evictions, and victim choices as
//! the uninterrupted run. A [`CacheState`] therefore captures the
//! *logical* structure each policy's behavior flows through — recency
//! order, admission order, frequency tables, visited bits, sketch
//! counters — never physical artifacts like slab node indices or hash
//! map iteration order, which are free to differ across processes.
//!
//! Every policy implements `to_state()` (exported via
//! [`Cache::to_state`]) and an inherent `from_state()`;
//! [`CacheState::build`] dispatches to the right policy. Restores
//! validate structural invariants (no duplicate objects, byte totals
//! within capacity, positions in range) and return a typed
//! [`StateError`] instead of panicking, so a corrupted checkpoint that
//! slips past the outer CRC layer still cannot take the process down.

use crate::object::ObjectId;
use crate::policy::{Cache, PolicyKind};
use serde::{Deserialize, Serialize};

/// One LFU entry: identity plus the policy metadata that orders victims.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LfuEntryState {
    pub id: ObjectId,
    pub size: u64,
    pub freq: u64,
    pub last_touch: u64,
}

/// One MAD entry: identity plus the GreedyDual metadata that orders
/// victims — the accumulated aggregate-delay cost and the priority it
/// was folded into at the last refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MadEntryState {
    pub id: ObjectId,
    pub size: u64,
    pub delay: u64,
    pub priority: u64,
    pub last_touch: u64,
}

/// One SIEVE entry in queue order, with its visited bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SieveEntryState {
    pub id: ObjectId,
    pub size: u64,
    pub visited: bool,
}

/// The full logical state of one cache, by policy.
///
/// List-ordered variants store entries head-first (most-recent /
/// newest-admission first); FIFO stores front-first (oldest first),
/// matching its eviction end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CacheState {
    /// Recency list, most-recent first.
    Lru { capacity: u64, entries: Vec<(ObjectId, u64)> },
    /// Admission queue, oldest (next victim) first.
    Fifo { capacity: u64, queue: Vec<(ObjectId, u64)> },
    /// Entries in victim order (ascending `(freq, last_touch, id)`),
    /// plus the logical clock that stamps future touches.
    Lfu { capacity: u64, clock: u64, entries: Vec<LfuEntryState> },
    /// Queue newest-first with visited bits; `hand` is the sweep
    /// position counted from the head (`None` = restart from the tail).
    Sieve { capacity: u64, entries: Vec<SieveEntryState>, hand: Option<u64> },
    /// Both segments most-recent first, plus the protected byte budget
    /// (which `with_protected_share` makes configurable).
    Slru {
        capacity: u64,
        protected_capacity: u64,
        protected: Vec<(ObjectId, u64)>,
        probation: Vec<(ObjectId, u64)>,
    },
    /// Main LRU entries most-recent first, plus the count-min sketch:
    /// four rows of `mask + 1` counters and the aging-window progress.
    TinyLfu {
        capacity: u64,
        entries: Vec<(ObjectId, u64)>,
        rows: Vec<Vec<u32>>,
        mask: u64,
        ops: u64,
        window: u64,
    },
    /// Entries in victim order (ascending `(priority, last_touch,
    /// id)`), plus the logical clock that stamps future touches and
    /// the GreedyDual inflation floor future refreshes build on.
    Mad { capacity: u64, clock: u64, inflation: u64, entries: Vec<MadEntryState> },
}

impl CacheState {
    /// The policy this state belongs to.
    pub fn kind(&self) -> PolicyKind {
        match self {
            CacheState::Lru { .. } => PolicyKind::Lru,
            CacheState::Fifo { .. } => PolicyKind::Fifo,
            CacheState::Lfu { .. } => PolicyKind::Lfu,
            CacheState::Sieve { .. } => PolicyKind::Sieve,
            CacheState::Slru { .. } => PolicyKind::Slru,
            CacheState::TinyLfu { .. } => PolicyKind::TinyLfu,
            CacheState::Mad { .. } => PolicyKind::Mad,
        }
    }

    /// Stable lowercase policy name (matches [`PolicyKind::name`]).
    pub fn policy_name(&self) -> &'static str {
        self.kind().name()
    }

    /// Reconstruct a cache behaviorally identical to the one exported.
    pub fn build(&self) -> Result<Box<dyn Cache + Send>, StateError> {
        Ok(match self.kind() {
            PolicyKind::Lru => Box::new(crate::lru::LruCache::from_state(self)?),
            PolicyKind::Fifo => Box::new(crate::fifo::FifoCache::from_state(self)?),
            PolicyKind::Lfu => Box::new(crate::lfu::LfuCache::from_state(self)?),
            PolicyKind::Sieve => Box::new(crate::sieve::SieveCache::from_state(self)?),
            PolicyKind::Slru => Box::new(crate::slru::SlruCache::from_state(self)?),
            PolicyKind::TinyLfu => Box::new(crate::tinylfu::TinyLfuCache::from_state(self)?),
            PolicyKind::Mad => Box::new(crate::mad::MadCache::from_state(self)?),
        })
    }
}

/// Why a [`CacheState`] could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The state's variant does not match the policy asked to load it.
    WrongVariant { expected: &'static str, got: &'static str },
    /// The state violates a structural invariant (duplicate objects,
    /// bytes over capacity, out-of-range positions, malformed sketch).
    Inconsistent(&'static str),
}

impl StateError {
    pub(crate) fn wrong(expected: &'static str, got: &CacheState) -> Self {
        StateError::WrongVariant { expected, got: got.policy_name() }
    }
}

impl std::fmt::Display for StateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StateError::WrongVariant { expected, got } => {
                write!(f, "cache state is `{got}` but the `{expected}` policy was asked to load it")
            }
            StateError::Inconsistent(why) => write!(f, "inconsistent cache state: {why}"),
        }
    }
}

impl std::error::Error for StateError {}

/// Sum entry sizes, rejecting duplicates and overflow along the way.
pub(crate) fn checked_total<'a>(
    sizes: impl IntoIterator<Item = (&'a ObjectId, &'a u64)>,
    seen: &mut std::collections::HashSet<ObjectId>,
) -> Result<u64, StateError> {
    let mut total: u64 = 0;
    for (&id, &size) in sizes {
        if !seen.insert(id) {
            return Err(StateError::Inconsistent("duplicate object id"));
        }
        total =
            total.checked_add(size).ok_or(StateError::Inconsistent("object sizes overflow u64"))?;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Drive `ops` into a fresh cache of `kind`, snapshot it, rebuild,
    /// then check the rebuilt cache replays `probe` identically to the
    /// original (same outcomes, same membership, same internals the
    /// policy exposes).
    fn roundtrip_behavior(kind: PolicyKind, ops: &[(u64, u64)], probe: &[(u64, u64)]) {
        let mut original = kind.build(200);
        for &(id, size) in ops {
            original.access(ObjectId(id), size);
        }
        let state = original.to_state();
        assert_eq!(state.kind(), kind);
        let mut restored = state.build().expect("exported state must restore");
        assert_eq!(restored.policy_name(), original.policy_name());
        assert_eq!(restored.used_bytes(), original.used_bytes());
        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.capacity_bytes(), original.capacity_bytes());
        assert_eq!(restored.hottest(16), original.hottest(16));
        for &(id, size) in probe {
            let a = original.access(ObjectId(id), size);
            let b = restored.access(ObjectId(id), size);
            assert_eq!(a, b, "{}: divergent outcome on ({id},{size})", kind.name());
        }
        assert_eq!(restored.used_bytes(), original.used_bytes(), "{}", kind.name());
        assert_eq!(restored.hottest(16), original.hottest(16), "{}", kind.name());
        // A second export after identical traffic must agree too.
        assert_eq!(original.to_state(), restored.to_state(), "{}", kind.name());
    }

    #[test]
    fn empty_cache_roundtrips() {
        for kind in PolicyKind::ALL {
            roundtrip_behavior(kind, &[], &[(1, 50), (2, 60), (1, 50)]);
        }
    }

    #[test]
    fn warm_cache_roundtrips() {
        let ops: Vec<(u64, u64)> = (0..60).map(|i| (i % 13, 20 + (i * 7) % 30)).collect();
        let probe: Vec<(u64, u64)> = (0..40).map(|i| ((i * 5) % 17, 20 + (i * 3) % 30)).collect();
        for kind in PolicyKind::ALL {
            roundtrip_behavior(kind, &ops, &probe);
        }
    }

    #[test]
    fn wrong_variant_is_an_error_not_a_panic() {
        let lru_state = crate::lru::LruCache::new(100).to_state();
        let err = crate::fifo::FifoCache::from_state(&lru_state).unwrap_err();
        assert_eq!(err, StateError::WrongVariant { expected: "fifo", got: "lru" });
        assert!(err.to_string().contains("fifo"));
    }

    #[test]
    fn over_capacity_state_rejected() {
        let s = CacheState::Lru { capacity: 10, entries: vec![(ObjectId(1), 100)] };
        assert!(matches!(s.build(), Err(StateError::Inconsistent(_))));
    }

    #[test]
    fn duplicate_entries_rejected() {
        let s =
            CacheState::Fifo { capacity: 100, queue: vec![(ObjectId(1), 10), (ObjectId(1), 10)] };
        assert!(matches!(s.build(), Err(StateError::Inconsistent(_))));
    }

    #[test]
    fn sieve_hand_out_of_range_rejected() {
        let s = CacheState::Sieve {
            capacity: 100,
            entries: vec![SieveEntryState { id: ObjectId(1), size: 10, visited: false }],
            hand: Some(5),
        };
        assert!(matches!(s.build(), Err(StateError::Inconsistent(_))));
    }

    #[test]
    fn tinylfu_malformed_sketch_rejected() {
        let base = crate::tinylfu::TinyLfuCache::new(100 * 1024).to_state();
        let CacheState::TinyLfu { capacity, entries, rows, ops, window, .. } = base else {
            unreachable!()
        };
        // Mask that does not match the row width.
        let bad = CacheState::TinyLfu { capacity, entries, rows, mask: 7, ops, window };
        assert!(matches!(bad.build(), Err(StateError::Inconsistent(_))));
    }

    #[test]
    fn slru_protected_budget_over_capacity_rejected() {
        let s = CacheState::Slru {
            capacity: 100,
            protected_capacity: 200,
            protected: vec![],
            probation: vec![],
        };
        assert!(matches!(s.build(), Err(StateError::Inconsistent(_))));
    }

    #[test]
    fn mad_touch_after_clock_rejected() {
        let s = CacheState::Mad {
            capacity: 100,
            clock: 1,
            inflation: 0,
            entries: vec![MadEntryState {
                id: ObjectId(1),
                size: 10,
                delay: 0,
                priority: 0,
                last_touch: 5,
            }],
        };
        assert!(matches!(s.build(), Err(StateError::Inconsistent(_))));
    }

    #[test]
    fn lfu_touch_after_clock_rejected() {
        let s = CacheState::Lfu {
            capacity: 100,
            clock: 1,
            entries: vec![LfuEntryState { id: ObjectId(1), size: 10, freq: 1, last_touch: 5 }],
        };
        assert!(matches!(s.build(), Err(StateError::Inconsistent(_))));
    }

    proptest! {
        /// Behavior-equivalence under arbitrary warmups and probes, all
        /// six policies.
        #[test]
        fn prop_roundtrip_preserves_behavior(
            ops in proptest::collection::vec((0u64..40, 1u64..50), 0..120),
            probe in proptest::collection::vec((0u64..40, 1u64..50), 0..60),
        ) {
            for kind in PolicyKind::ALL {
                roundtrip_behavior(kind, &ops, &probe);
            }
        }
    }
}
