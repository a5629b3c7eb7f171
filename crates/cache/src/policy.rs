//! The cache trait and policy registry.

use crate::object::ObjectId;
use crate::state::CacheState;
use serde::{Deserialize, Serialize};

/// The result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessOutcome {
    /// The object was in cache and was served from it.
    Hit,
    /// The object was absent; the caller fetched it upstream and the
    /// cache (if large enough) admitted it.
    Miss,
}

impl AccessOutcome {
    /// True for [`AccessOutcome::Hit`].
    pub fn is_hit(self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

/// A byte-capacity cache with an eviction policy.
///
/// Semantics shared by all implementations:
///
/// * `access` is the CDN fast path: hit ⇒ update policy metadata; miss ⇒
///   fetch-and-admit (evicting as needed), unless the object is larger
///   than the whole cache, in which case it is served uncached.
/// * `insert` admits without counting a request (used by relayed fetch to
///   copy an object in after it was served by a neighbour).
/// * `contains` is a read-only probe that must not perturb policy state
///   (used by the Table-3 neighbour-availability monitor).
pub trait Cache {
    /// Access an object of `size` bytes.
    fn access(&mut self, id: ObjectId, size: u64) -> AccessOutcome;

    /// Admit an object without recording an access (no-op if present or
    /// larger than capacity).
    fn insert(&mut self, id: ObjectId, size: u64);

    /// Charge `delay_epochs` of aggregate fetch delay to a cached
    /// object — called by the delayed-hit serving layer when an origin
    /// fetch retires (full fetch latency plus every coalesced
    /// follower's residual wait). Latency-oblivious policies ignore it;
    /// [`crate::mad::MadCache`] ranks victims by it. No-op when the
    /// object is absent.
    fn record_fetch_delay(&mut self, _id: ObjectId, _delay_epochs: u64) {}

    /// Read-only presence probe.
    fn contains(&self, id: ObjectId) -> bool;

    /// Size of a cached object, if present.
    fn size_of(&self, id: ObjectId) -> Option<u64>;

    /// Capacity in bytes.
    fn capacity_bytes(&self) -> u64;

    /// Bytes currently cached.
    fn used_bytes(&self) -> u64;

    /// Number of cached objects.
    fn len(&self) -> usize;

    /// True when no objects are cached.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every object.
    fn clear(&mut self);

    /// Human-readable policy name.
    fn policy_name(&self) -> &'static str;

    /// The `k` objects this policy considers most valuable, best first
    /// (LRU: most recent; LFU: most frequent; FIFO/SIEVE: newest).
    /// Used by the proactive-prefetch ablation (§3.3's rejected
    /// alternative), which copies a neighbour's hottest content.
    fn hottest(&self, k: usize) -> Vec<(ObjectId, u64)>;

    /// Export the full policy-internal state as portable data.
    /// [`CacheState::build`] reconstructs a cache that behaves
    /// identically on every future access (checkpoint/resume hook).
    fn to_state(&self) -> CacheState;
}

/// Cache policy selector, for configuration surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    Lru,
    Lfu,
    Fifo,
    Sieve,
    Slru,
    TinyLfu,
    /// Aggregate-delay-weighted ranking in the spirit of MAD
    /// ("Caching with Delayed Hits"); latency-aware via
    /// [`Cache::record_fetch_delay`].
    Mad,
}

impl PolicyKind {
    /// Every policy, for sweeps.
    pub const ALL: [PolicyKind; 7] = [
        PolicyKind::Lru,
        PolicyKind::Lfu,
        PolicyKind::Fifo,
        PolicyKind::Sieve,
        PolicyKind::Slru,
        PolicyKind::TinyLfu,
        PolicyKind::Mad,
    ];

    /// Instantiate a cache of this policy with `capacity_bytes`.
    ///
    /// Every policy's struct is `#[repr(align(128))]`, so each boxed cache
    /// has a 128-byte block to itself: the threaded replayer's workers
    /// own alternate grid slots, and every access writes the cache's
    /// header (byte count, list ends, index length). Packed side by side,
    /// neighbouring slots' headers shared lines across workers; 128, not
    /// 64, because x86 prefetchers pull lines in aligned pairs.
    pub fn build(self, capacity_bytes: u64) -> Box<dyn Cache + Send> {
        match self {
            PolicyKind::Lru => Box::new(crate::lru::LruCache::new(capacity_bytes)),
            PolicyKind::Lfu => Box::new(crate::lfu::LfuCache::new(capacity_bytes)),
            PolicyKind::Fifo => Box::new(crate::fifo::FifoCache::new(capacity_bytes)),
            PolicyKind::Sieve => Box::new(crate::sieve::SieveCache::new(capacity_bytes)),
            PolicyKind::Slru => Box::new(crate::slru::SlruCache::new(capacity_bytes)),
            PolicyKind::TinyLfu => Box::new(crate::tinylfu::TinyLfuCache::new(capacity_bytes)),
            PolicyKind::Mad => Box::new(crate::mad::MadCache::new(capacity_bytes)),
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Lfu => "lfu",
            PolicyKind::Fifo => "fifo",
            PolicyKind::Sieve => "sieve",
            PolicyKind::Slru => "slru",
            PolicyKind::TinyLfu => "tinylfu",
            PolicyKind::Mad => "mad",
        }
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lru" => Ok(PolicyKind::Lru),
            "lfu" => Ok(PolicyKind::Lfu),
            "fifo" => Ok(PolicyKind::Fifo),
            "sieve" => Ok(PolicyKind::Sieve),
            "slru" => Ok(PolicyKind::Slru),
            "tinylfu" | "tiny-lfu" => Ok(PolicyKind::TinyLfu),
            "mad" => Ok(PolicyKind::Mad),
            other => Err(format!("unknown cache policy `{other}`")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_helpers() {
        assert!(AccessOutcome::Hit.is_hit());
        assert!(!AccessOutcome::Miss.is_hit());
    }

    #[test]
    fn policy_kind_roundtrip() {
        for k in PolicyKind::ALL {
            let parsed: PolicyKind = k.name().parse().unwrap();
            assert_eq!(parsed, k);
        }
        assert!("belady".parse::<PolicyKind>().is_err());
    }

    #[test]
    fn build_constructs_named_policy() {
        for k in PolicyKind::ALL {
            let c = k.build(1000);
            assert_eq!(c.policy_name(), k.name());
            assert_eq!(c.capacity_bytes(), 1000);
            assert!(c.is_empty());
        }
    }
}
