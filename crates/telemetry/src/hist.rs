//! Lock-free log₂-bucketed histograms.
//!
//! Bucket `k` holds values whose bit length is `k`: bucket 0 is exactly
//! `{0}`, bucket 1 is `{1}`, bucket 2 is `{2,3}`, …, bucket 64 is
//! `[2⁶³, 2⁶⁴)`. A few relaxed atomics per sample, no allocation, ~2×
//! value resolution — the same trade HDR-style recorders make at their
//! coarsest setting, and plenty for "where did the time go" questions.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log₂ buckets: bit lengths 0..=64.
pub(crate) const NUM_BUCKETS: usize = 65;

/// The bucket index (bit length) of a value.
#[inline]
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// A concurrent log₂ histogram. All methods take `&self`; recording is
/// relaxed atomics only.
#[derive(Debug)]
pub(crate) struct LogHistogram {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// Record one sample.
    #[inline]
    pub(crate) fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.add_to_sum(v);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Fold a frozen snapshot back into this live histogram — exact:
    /// bucket counts, count, sum, min and max all combine losslessly.
    pub(crate) fn absorb(&self, s: &HistogramSnapshot) {
        if s.count == 0 {
            return;
        }
        for &(k, n) in &s.buckets {
            self.buckets[k as usize].fetch_add(n, Ordering::Relaxed);
        }
        self.count.fetch_add(s.count, Ordering::Relaxed);
        self.add_to_sum(s.sum);
        if let Some(m) = s.min {
            self.min.fetch_min(m, Ordering::Relaxed);
        }
        if let Some(m) = s.max {
            self.max.fetch_max(m, Ordering::Relaxed);
        }
    }

    /// Add `v` to the sum, saturating at `u64::MAX` (the update never
    /// fails: the closure always returns `Some`).
    fn add_to_sum(&self, v: u64) {
        let add = |sum: u64| Some(sum.saturating_add(v));
        let _ = self.sum.fetch_update(Ordering::Relaxed, Ordering::Relaxed, add);
    }

    /// Freeze into a plain-data snapshot.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let buckets = (0..NUM_BUCKETS)
            .filter_map(|k| {
                let n = self.buckets[k].load(Ordering::Relaxed);
                (n > 0).then_some((k as u8, n))
            })
            .collect();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: (count > 0).then(|| self.min.load(Ordering::Relaxed)),
            max: (count > 0).then(|| self.max.load(Ordering::Relaxed)),
        }
    }
}

/// Plain-data histogram state: sparse `(bucket, count)` pairs in bucket
/// order plus exact count/sum/min/max.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-empty buckets as `(bit_length, samples)`, ascending.
    pub buckets: Vec<(u8, u64)>,
    pub count: u64,
    pub sum: u64,
    pub min: Option<u64>,
    pub max: Option<u64>,
}

impl HistogramSnapshot {
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merge another snapshot into this one (bucket-wise; the sum
    /// saturates at `u64::MAX`, as a recorded one does).
    pub(crate) fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut merged: Vec<(u8, u64)> =
            Vec::with_capacity(self.buckets.len() + other.buckets.len());
        let (mut a, mut b) = (self.buckets.iter().peekable(), other.buckets.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(ka, na)), Some(&&(kb, nb))) => {
                    use std::cmp::Ordering::*;
                    match ka.cmp(&kb) {
                        Less => {
                            merged.push((ka, na));
                            a.next();
                        }
                        Greater => {
                            merged.push((kb, nb));
                            b.next();
                        }
                        Equal => {
                            merged.push((ka, na + nb));
                            a.next();
                            b.next();
                        }
                    }
                }
                (Some(&&x), None) => {
                    merged.push(x);
                    a.next();
                }
                (None, Some(&&x)) => {
                    merged.push(x);
                    b.next();
                }
                (None, None) => break,
            }
        }
        self.buckets = merged;
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        };
        self.max = match (self.max, other.max) {
            (Some(x), Some(y)) => Some(x.max(y)),
            (x, y) => x.or(y),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
    }

    #[test]
    fn empty_snapshot() {
        let h = LogHistogram::default();
        let s = h.snapshot();
        assert!(s.is_empty());
        assert_eq!(s.min, None);
        assert_eq!(s.max, None);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let a = LogHistogram::default();
        let b = LogHistogram::default();
        let all = LogHistogram::default();
        for v in 0..500u64 {
            a.record(v * 3);
            all.record(v * 3);
        }
        for v in 0..300u64 {
            b.record(v * 11 + 1);
            all.record(v * 11 + 1);
        }
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m, all.snapshot());
    }

    #[test]
    fn sums_saturate_recorded_absorbed_and_merged() {
        let h = LogHistogram::default();
        h.record(u64::MAX - 1);
        h.record(5);
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.max), (2, u64::MAX, Some(u64::MAX - 1)));
        h.absorb(&s);
        assert_eq!(h.snapshot().sum, u64::MAX);
        let mut m = s.clone();
        m.merge(&s);
        assert_eq!((m.count, m.sum), (4, u64::MAX));
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let a = LogHistogram::default();
        a.record(5);
        let mut s = a.snapshot();
        s.merge(&HistogramSnapshot::default());
        assert_eq!(s, a.snapshot());
        let mut e = HistogramSnapshot::default();
        e.merge(&a.snapshot());
        assert_eq!(e, a.snapshot());
    }
}
