//! Hit-rate statistics.
//!
//! The paper's two headline cache metrics (§2.2):
//!
//! * **request hit rate (RHR)** — fraction of requests served from cache;
//! * **byte hit rate (BHR)** — fraction of bytes served from cache.
//!
//! BHR is what determines ground-to-satellite uplink savings (a miss
//! must be uploaded over the GSL); RHR tracks user-perceived latency.

use crate::policy::AccessOutcome;
use serde::{Deserialize, Serialize};
use std::ops::AddAssign;

/// Running request/byte hit counters. The byte counters saturate at
/// `u64::MAX` rather than overflow: a log's sizes are input, and hostile
/// ones (two records of `u64::MAX` bytes) must neither panic a run nor
/// wrap to a plausible total. Saturation is order-free, so a merge of
/// partial counts reads what one sequential count does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    pub requests: u64,
    pub hits: u64,
    pub bytes_requested: u64,
    pub bytes_hit: u64,
}

impl CacheStats {
    /// Record one access of `size` bytes with the given outcome.
    pub fn record(&mut self, outcome: AccessOutcome, size: u64) {
        self.requests += 1;
        self.bytes_requested = self.bytes_requested.saturating_add(size);
        if outcome.is_hit() {
            self.hits += 1;
            self.bytes_hit = self.bytes_hit.saturating_add(size);
        }
    }

    /// Request hit rate in `[0, 1]`; 0 when empty.
    pub fn request_hit_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.hits as f64 / self.requests as f64
        }
    }

    /// Byte hit rate in `[0, 1]`; 0 when empty.
    pub fn byte_hit_rate(&self) -> f64 {
        if self.bytes_requested == 0 {
            0.0
        } else {
            self.bytes_hit as f64 / self.bytes_requested as f64
        }
    }

    /// Number of misses.
    pub fn misses(&self) -> u64 {
        self.requests - self.hits
    }
}

impl AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        self.requests += rhs.requests;
        self.hits += rhs.hits;
        self.bytes_requested = self.bytes_requested.saturating_add(rhs.bytes_requested);
        self.bytes_hit = self.bytes_hit.saturating_add(rhs.bytes_hit);
    }
}

impl std::fmt::Display for CacheStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RHR {:.1}% BHR {:.1}% ({} reqs, {} B)",
            self.request_hit_rate() * 100.0,
            self.byte_hit_rate() * 100.0,
            self.requests,
            self.bytes_requested
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = CacheStats::default();
        assert_eq!(s.request_hit_rate(), 0.0);
        assert_eq!(s.byte_hit_rate(), 0.0);
        assert_eq!(s.misses(), 0);
    }

    #[test]
    fn rates_computed() {
        let mut s = CacheStats::default();
        s.record(AccessOutcome::Hit, 100);
        s.record(AccessOutcome::Miss, 300);
        assert_eq!(s.requests, 2);
        assert_eq!(s.hits, 1);
        assert!((s.request_hit_rate() - 0.5).abs() < 1e-12);
        assert!((s.byte_hit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(s.misses(), 1);
    }

    #[test]
    fn add_assign_merges() {
        let mut a = CacheStats::default();
        a.record(AccessOutcome::Hit, 10);
        let mut b = CacheStats::default();
        b.record(AccessOutcome::Miss, 30);
        a += b;
        assert_eq!(a.requests, 2);
        assert_eq!(a.bytes_requested, 40);
        assert_eq!(a.bytes_hit, 10);
    }

    #[test]
    fn display_contains_rates() {
        let mut s = CacheStats::default();
        s.record(AccessOutcome::Hit, 10);
        let text = s.to_string();
        assert!(text.contains("RHR 100.0%"), "{text}");
    }
}
