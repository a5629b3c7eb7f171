//! Trace-replay harness: run a request sequence through a cache and
//! produce hit-rate statistics and hit-rate curves (HRCs).
//!
//! The paper's Fig. 6c/6d (CDN LRU simulation across cache sizes) and
//! all of Fig. 7/12's per-cache-size sweeps are built on this harness.

use crate::inflight::InflightQueue;
use crate::object::ObjectId;
use crate::policy::{AccessOutcome, Cache, PolicyKind};
use crate::stats::CacheStats;
use starcdn_telemetry::{Counter, Histo, Noop, Recorder};

/// A single replayable access: `(object, size_bytes)`.
pub type Access = (ObjectId, u64);

/// Replay `accesses` through `cache`, returning aggregate statistics.
pub fn replay<C: Cache + ?Sized>(
    cache: &mut C,
    accesses: impl IntoIterator<Item = Access>,
) -> CacheStats {
    replay_recorded(cache, accesses, &Noop)
}

/// [`replay`] with telemetry: hit/miss counters and the object-size
/// distribution go to `rec`; the per-item instrumentation is hoisted
/// behind one `is_enabled` check so the no-op path replays at full
/// speed.
pub(crate) fn replay_recorded<C: Cache + ?Sized>(
    cache: &mut C,
    accesses: impl IntoIterator<Item = Access>,
    rec: &dyn Recorder,
) -> CacheStats {
    let enabled = rec.is_enabled();
    let mut stats = CacheStats::default();
    for (id, size) in accesses {
        let outcome = cache.access(id, size);
        stats.record(outcome, size);
        if enabled {
            let hit = matches!(outcome, AccessOutcome::Hit);
            rec.add(if hit { Counter::CacheHits } else { Counter::CacheMisses }, 1);
            rec.observe(Histo::ObjectBytes, size);
        }
    }
    if enabled {
        rec.observe(Histo::QueueDepth, stats.requests);
    }
    stats
}

/// How a request was served under the delayed-hit model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayedOutcome {
    /// Served from cache immediately.
    Hit,
    /// Coalesced onto an in-flight fetch; waits `residual_epochs`.
    DelayedHit { residual_epochs: u64 },
    /// No copy cached or in flight; a new origin fetch starts.
    Miss,
}

/// Aggregate statistics of a delayed-hit replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DelayedStats {
    pub requests: u64,
    pub hits: u64,
    pub delayed_hits: u64,
    pub misses: u64,
    /// Total residual wait charged to delayed hits, in epochs.
    pub residual_epochs: u64,
    /// Followers aboard fetches that completed and retired.
    pub coalesced: u64,
}

/// Classify one access at epoch `now` under the delayed-hit model and
/// advance `cache` + `queue` accordingly: retire a landed fetch
/// (admission + delay charge), then cache presence, then coalesce, then
/// register a new fetch (see `crate::inflight`). This is the
/// single-cache reference for the order the fleet's serve kernel
/// (`starcdn::kernel::serve_one`) runs per owner; the differential
/// tests compare against it.
///
/// Returns the outcome plus the followers retired by this access.
pub fn access_delayed<C: Cache + ?Sized>(
    cache: &mut C,
    queue: &mut InflightQueue,
    id: ObjectId,
    size: u64,
    now: u64,
    fetch_epochs: u64,
) -> (DelayedOutcome, u64) {
    let mut retired_followers = 0;
    if let Some(r) = queue.take_completed(id, now) {
        cache.insert(id, r.size);
        cache.record_fetch_delay(id, r.delay_epochs);
        retired_followers = r.followers;
    }
    let outcome = if cache.contains(id) {
        let hit = cache.access(id, size);
        debug_assert!(hit.is_hit());
        DelayedOutcome::Hit
    } else if let Some(residual_epochs) = queue.coalesce(id, now) {
        DelayedOutcome::DelayedHit { residual_epochs }
    } else {
        queue.register(id, size, now, fetch_epochs);
        DelayedOutcome::Miss
    };
    (outcome, retired_followers)
}

/// Replay an epoch-stamped access sequence through the delayed-hit
/// model: `(object, size, epoch)` triples, epochs non-decreasing.
pub fn replay_delayed<C: Cache + ?Sized>(
    cache: &mut C,
    queue: &mut InflightQueue,
    accesses: impl IntoIterator<Item = (ObjectId, u64, u64)>,
    fetch_epochs: u64,
) -> DelayedStats {
    let mut stats = DelayedStats::default();
    for (id, size, now) in accesses {
        let (outcome, retired) = access_delayed(cache, queue, id, size, now, fetch_epochs);
        stats.requests += 1;
        stats.coalesced += retired;
        match outcome {
            DelayedOutcome::Hit => stats.hits += 1,
            DelayedOutcome::DelayedHit { residual_epochs } => {
                stats.delayed_hits += 1;
                stats.residual_epochs += residual_epochs;
            }
            DelayedOutcome::Miss => stats.misses += 1,
        }
    }
    stats
}

/// One point on a hit-rate curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HrcPoint {
    pub cache_bytes: u64,
    pub stats: CacheStats,
}

/// Replay the same trace through fresh caches of each size, producing a
/// hit-rate curve. The trace is materialized once and reused.
pub fn hit_rate_curve(
    policy: PolicyKind,
    cache_sizes: &[u64],
    accesses: &[Access],
) -> Vec<HrcPoint> {
    cache_sizes
        .iter()
        .map(|&cache_bytes| {
            let mut cache = policy.build(cache_bytes);
            let stats = replay(cache.as_mut(), accesses.iter().copied());
            HrcPoint { cache_bytes, stats }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;

    /// Unique objects and unique bytes in a trace (the working-set footprint,
    /// which normalizes cache sizes across scales).
    fn working_set(accesses: &[Access]) -> (usize, u64) {
        let mut seen = std::collections::HashMap::new();
        for &(id, size) in accesses {
            seen.entry(id).or_insert(size);
        }
        let bytes = seen.values().sum();
        (seen.len(), bytes)
    }

    fn zipf_trace(n_objects: u64, n_requests: usize, alpha: f64, seed: u64) -> Vec<Access> {
        // Inverse-CDF Zipf sampling without external deps.
        let mut rng = StdRng::seed_from_u64(seed);
        let weights: Vec<f64> = (1..=n_objects).map(|r| 1.0 / (r as f64).powf(alpha)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        (0..n_requests)
            .map(|_| {
                let u: f64 = rng.gen();
                let idx = cdf.partition_point(|&c| c < u) as u64;
                (ObjectId(idx), 100)
            })
            .collect()
    }

    #[test]
    fn replay_counts_all_requests() {
        let trace: Vec<Access> = vec![(ObjectId(1), 10), (ObjectId(1), 10), (ObjectId(2), 20)];
        let mut cache = PolicyKind::Lru.build(1000);
        let stats = replay(cache.as_mut(), trace);
        assert_eq!(stats.requests, 3);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.bytes_requested, 40);
        assert_eq!(stats.bytes_hit, 10);
    }

    #[test]
    fn hrc_monotone_for_lru_on_zipf() {
        // LRU obeys inclusion, so its HRC is non-decreasing in cache size.
        let trace = zipf_trace(2000, 30_000, 0.9, 7);
        let sizes = [1_000u64, 5_000, 20_000, 50_000, 100_000];
        let curve = hit_rate_curve(PolicyKind::Lru, &sizes, &trace);
        assert_eq!(curve.len(), sizes.len());
        for w in curve.windows(2) {
            assert!(
                w[1].stats.request_hit_rate() >= w[0].stats.request_hit_rate() - 1e-12,
                "HRC not monotone: {:?}",
                curve.iter().map(|p| p.stats.request_hit_rate()).collect::<Vec<_>>()
            );
        }
        // A cache holding the whole working set hits at (R - U)/R.
        let (uniq, bytes) = working_set(&trace);
        let full = hit_rate_curve(PolicyKind::Lru, &[bytes], &trace)[0].stats;
        let expected = (trace.len() - uniq) as f64 / trace.len() as f64;
        assert!((full.request_hit_rate() - expected).abs() < 1e-9);
    }

    #[test]
    fn all_policies_agree_on_infinite_cache() {
        let trace = zipf_trace(500, 5_000, 1.0, 11);
        let (uniq, _) = working_set(&trace);
        let expected_hits = (trace.len() - uniq) as u64;
        for policy in PolicyKind::ALL {
            let mut cache = policy.build(u64::MAX);
            let stats = replay(cache.as_mut(), trace.iter().copied());
            assert_eq!(stats.hits, expected_hits, "{}", policy.name());
        }
    }

    #[test]
    fn lfu_beats_lru_on_scan_polluted_workload() {
        // Hot set + one-hit-wonder scan: frequency information wins.
        let mut trace: Vec<Access> = Vec::new();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..20_000u64 {
            // 70%: one of 20 hot objects; 30%: cold scan object.
            if rng.gen_bool(0.7) {
                trace.push((ObjectId(rng.gen_range(0..20)), 100));
            } else {
                trace.push((ObjectId(1_000_000 + i), 100));
            }
        }
        let size = 2_500u64; // holds 25 objects
        let lru = hit_rate_curve(PolicyKind::Lru, &[size], &trace)[0].stats;
        let lfu = hit_rate_curve(PolicyKind::Lfu, &[size], &trace)[0].stats;
        assert!(
            lfu.request_hit_rate() > lru.request_hit_rate(),
            "lfu {:.3} !> lru {:.3}",
            lfu.request_hit_rate(),
            lru.request_hit_rate()
        );
    }

    #[test]
    fn sieve_at_least_matches_fifo_on_zipf() {
        let trace = zipf_trace(3000, 40_000, 0.8, 5);
        let size = 30_000u64;
        let fifo = hit_rate_curve(PolicyKind::Fifo, &[size], &trace)[0].stats;
        let sieve = hit_rate_curve(PolicyKind::Sieve, &[size], &trace)[0].stats;
        assert!(
            sieve.request_hit_rate() >= fifo.request_hit_rate() - 0.01,
            "sieve {:.3} << fifo {:.3}",
            sieve.request_hit_rate(),
            fifo.request_hit_rate()
        );
    }

    #[test]
    fn working_set_counts_first_size() {
        let trace: Vec<Access> = vec![(ObjectId(1), 10), (ObjectId(2), 20), (ObjectId(1), 10)];
        let (uniq, bytes) = working_set(&trace);
        assert_eq!(uniq, 2);
        assert_eq!(bytes, 30);
    }

    #[test]
    fn delayed_replay_classifies_and_coalesces() {
        // L=3: request at epoch 0 misses and starts a fetch completing
        // at 3; requests at 1 and 2 are delayed hits (residuals 2, 1);
        // the request at 3 retires the fetch (2 followers) and hits.
        let mut cache = PolicyKind::Lru.build(1000);
        let mut queue = InflightQueue::new();
        let x = ObjectId(42);
        let accesses = [(x, 100, 0), (x, 100, 1), (x, 100, 2), (x, 100, 3), (x, 100, 4)];
        let stats = replay_delayed(cache.as_mut(), &mut queue, accesses, 3);
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.delayed_hits, 2);
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.residual_epochs, 3);
        assert_eq!(stats.coalesced, 2);
        assert!(queue.is_empty());
        assert!(cache.contains(x));
    }

    #[test]
    fn unretired_fetch_never_admits() {
        // A one-hit wonder's fetch completes but nothing touches it
        // again: it stays queued and the object never enters the cache.
        let mut cache = PolicyKind::Lru.build(1000);
        let mut queue = InflightQueue::new();
        let stats = replay_delayed(cache.as_mut(), &mut queue, [(ObjectId(7), 100, 0)], 2);
        assert_eq!(stats.misses, 1);
        assert_eq!(queue.len(), 1);
        assert!(!cache.contains(ObjectId(7)));
    }

    #[test]
    fn delayed_replay_charges_mad_delay_at_retirement() {
        let mut cache = crate::mad::MadCache::new(1000);
        let mut queue = InflightQueue::new();
        let x = ObjectId(5);
        let accesses = [(x, 10, 0), (x, 10, 2), (x, 10, 4)];
        replay_delayed(&mut cache, &mut queue, accesses, 4);
        // Fetch latency 4 + one follower residual of 2 at retirement.
        assert_eq!(cache.delay_of(x), Some(6));
    }

    #[test]
    fn empty_trace_yields_empty_stats() {
        let mut cache = PolicyKind::Lru.build(100);
        let stats = replay(cache.as_mut(), std::iter::empty());
        assert_eq!(stats, CacheStats::default());
        let (uniq, bytes) = working_set(&[]);
        assert_eq!((uniq, bytes), (0, 0));
    }
}
