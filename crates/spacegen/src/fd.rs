//! Popularity-Size Footprint Descriptors (pFDs).
//!
//! A pFD (Sundarrajan et al., CoNEXT '17; §4.1 of the paper) is the joint
//! distribution `P(p, s, d, t)` over a single location's trace, where `p`
//! is an object's popularity (request count), `s` its size, `d` the
//! *byte stack distance* between consecutive accesses (unique bytes
//! requested in between), and `t` the inter-arrival time. pFDs determine
//! LRU hit-rate curves exactly, which is why traces generated from them
//! reproduce cache behaviour.
//!
//! Stack distances are computed exactly with a Fenwick tree over request
//! positions (each distinct object contributes its size at its most
//! recent access position), O(n log n) for an n-request trace.

use crate::trace::Trace;
use rand::prelude::*;
use serde::{Deserialize, Serialize};
use starcdn_cache::object::ObjectId;
use std::collections::HashMap;

/// Fenwick tree over request positions with u64 byte weights.
#[derive(Debug)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick { tree: vec![0; n + 1] }
    }

    /// Add `delta` at 0-based position `i` (delta may be "negative" via
    /// wrapping add of two's complement — callers only remove what they
    /// previously added, so sums stay exact).
    fn add(&mut self, i: usize, delta: i64) {
        let mut i = i + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u64);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `0..=i` (0-based, inclusive).
    fn prefix(&self, i: usize) -> u64 {
        let mut i = i + 1;
        let mut s = 0u64;
        while i > 0 {
            s = s.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        s
    }
}

/// Log2 bucketing of popularities and sizes used to condition `P(d|p,s)`.
fn log2_class(v: u64) -> u8 {
    (64 - v.max(1).leading_zeros()) as u8
}

/// Pack a (popularity-class, size-class) pair into one map key — JSON
/// object keys must be strings, so tuple keys would not serialize.
fn class_key(p_class: u8, s_class: u8) -> u16 {
    ((p_class as u16) << 8) | s_class as u16
}

/// Reservoir of sampled stack distances for one (popularity, size) class.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct DistanceReservoir {
    samples: Vec<u64>,
    seen: u64,
}

const RESERVOIR_CAP: usize = 4096;

impl DistanceReservoir {
    fn push(&mut self, d: u64, rng: &mut impl Rng) {
        self.seen += 1;
        if self.samples.len() < RESERVOIR_CAP {
            self.samples.push(d);
        } else {
            let j = rng.gen_range(0..self.seen);
            if (j as usize) < RESERVOIR_CAP {
                self.samples[j as usize] = d;
            }
        }
    }
}

/// A footprint descriptor extracted from one location's trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FootprintDescriptor {
    /// Empirical object population: `(popularity, size)` per object.
    pub objects: Vec<(u32, u64)>,
    /// Conditional stack-distance reservoirs keyed by the packed
    /// `(log2(popularity), log2(size))` class (see `class_key`).
    dist: HashMap<u16, DistanceReservoir>,
    /// All finite stack distances pooled (fallback for unseen classes).
    global: DistanceReservoir,
    /// Largest finite stack distance observed, bytes.
    pub max_stack_distance: u64,
    /// Mean request rate of the trace, requests/second.
    pub req_rate_hz: f64,
    /// Mean inter-arrival time between consecutive accesses to the same
    /// object, seconds.
    pub mean_interarrival_s: f64,
    /// Total requests in the source trace.
    pub total_requests: u64,
}

impl FootprintDescriptor {
    /// Extract the pFD of a single-location trace.
    pub fn from_trace(trace: &Trace, seed: u64) -> Self {
        let n = trace.len();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfd_fd_fd);
        let mut fenwick = Fenwick::new(n);
        let mut last_pos: HashMap<ObjectId, usize> = HashMap::new();
        let mut last_time: HashMap<ObjectId, f64> = HashMap::new();
        let mut pop: HashMap<ObjectId, (u32, u64)> = HashMap::new();

        let mut dist: HashMap<u16, DistanceReservoir> = HashMap::new();
        let mut global = DistanceReservoir::default();
        let mut max_d = 0u64;
        let mut inter_sum = 0.0f64;
        let mut inter_count = 0u64;

        // First pass: per-object popularity (the pFD conditions d on the
        // object's *total* popularity in the trace).
        for r in &trace.requests {
            let e = pop.entry(r.object).or_insert((0, r.size));
            e.0 += 1;
        }

        // Second pass: stack distances and inter-arrivals.
        for (i, r) in trace.requests.iter().enumerate() {
            if let Some(&j) = last_pos.get(&r.object) {
                // Unique bytes strictly between accesses j and i: every
                // object touched in (j, i) has its latest position there.
                let d = fenwick.prefix(i.saturating_sub(1)).wrapping_sub(fenwick.prefix(j));
                let (p, s) = pop[&r.object];
                let key = class_key(log2_class(p as u64), log2_class(s));
                dist.entry(key).or_default().push(d, &mut rng);
                global.push(d, &mut rng);
                max_d = max_d.max(d);
                fenwick.add(j, -(r.size as i64));
                let t_prev = last_time[&r.object];
                inter_sum += r.time.as_secs_f64() - t_prev;
                inter_count += 1;
            }
            fenwick.add(i, r.size as i64);
            last_pos.insert(r.object, i);
            last_time.insert(r.object, r.time.as_secs_f64());
        }

        let duration = trace.end_time().as_secs_f64().max(1e-9);
        FootprintDescriptor {
            objects: pop.values().copied().collect(),
            dist,
            global,
            max_stack_distance: max_d,
            req_rate_hz: n as f64 / duration,
            mean_interarrival_s: if inter_count > 0 { inter_sum / inter_count as f64 } else { 0.0 },
            total_requests: n as u64,
        }
    }

    /// Sample a stack distance conditioned on `(popularity, size)`;
    /// falls back to the pooled distribution for unseen classes.
    pub(crate) fn sample_distance(&self, popularity: u32, size: u64, rng: &mut impl Rng) -> u64 {
        let key = class_key(log2_class(popularity as u64), log2_class(size));
        let res = self.dist.get(&key).filter(|r| !r.samples.is_empty()).unwrap_or(&self.global);
        if res.samples.is_empty() {
            return self.max_stack_distance;
        }
        res.samples[rng.gen_range(0..res.samples.len())]
    }

    /// The `q`-quantile of the pooled finite stack distances (0 when no
    /// distances were recorded). Used by the generator to size its
    /// initialization fill: filling to the absolute maximum distance — a
    /// single-sample outlier on day-length traces — strands far more
    /// partially-consumed objects than the production trace contains,
    /// diluting object popularity.
    pub(crate) fn stack_distance_quantile(&self, q: f64) -> u64 {
        if self.global.samples.is_empty() {
            return 0;
        }
        let mut v = self.global.samples.clone();
        v.sort_unstable();
        v[((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{LocationId, Request};
    use starcdn_orbit::time::SimTime;

    fn req(t: u64, obj: u64, size: u64) -> Request {
        Request {
            time: SimTime::from_secs(t),
            object: ObjectId(obj),
            size,
            location: LocationId(0),
        }
    }

    #[test]
    fn fenwick_prefix_sums() {
        let mut f = Fenwick::new(10);
        f.add(0, 5);
        f.add(3, 7);
        f.add(9, 2);
        assert_eq!(f.prefix(0), 5);
        assert_eq!(f.prefix(2), 5);
        assert_eq!(f.prefix(3), 12);
        assert_eq!(f.prefix(9), 14);
        f.add(3, -7);
        assert_eq!(f.prefix(9), 7);
    }

    #[test]
    fn stack_distance_simple_pattern() {
        // A B C A: distance for the second A = size(B) + size(C) = 30.
        let t = Trace::new(vec![req(0, 1, 5), req(1, 2, 10), req(2, 3, 20), req(3, 1, 5)]);
        let fd = FootprintDescriptor::from_trace(&t, 0);
        assert_eq!(fd.max_stack_distance, 30);
        assert_eq!(fd.total_requests, 4);
        assert_eq!(fd.objects.len(), 3);
    }

    #[test]
    fn repeated_intermediate_object_counted_once() {
        // A B B B A: distance for second A = size(B) = 10, not 30.
        let t = Trace::new(vec![
            req(0, 1, 5),
            req(1, 2, 10),
            req(2, 2, 10),
            req(3, 2, 10),
            req(4, 1, 5),
        ]);
        let fd = FootprintDescriptor::from_trace(&t, 0);
        assert_eq!(fd.max_stack_distance, 10);
    }

    #[test]
    fn immediate_reaccess_distance_zero() {
        let t = Trace::new(vec![req(0, 1, 5), req(1, 1, 5)]);
        let fd = FootprintDescriptor::from_trace(&t, 0);
        assert_eq!(fd.max_stack_distance, 0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(fd.sample_distance(2, 5, &mut rng), 0);
    }

    #[test]
    fn popularity_counts() {
        let t = Trace::new(vec![req(0, 1, 5), req(1, 1, 5), req(2, 1, 5), req(3, 2, 7)]);
        let fd = FootprintDescriptor::from_trace(&t, 0);
        let mut objs = fd.objects.clone();
        objs.sort();
        assert_eq!(objs, vec![(1, 7), (3, 5)]);
    }

    #[test]
    fn interarrival_and_rate() {
        let t = Trace::new(vec![req(0, 1, 5), req(10, 1, 5), req(20, 1, 5)]);
        let fd = FootprintDescriptor::from_trace(&t, 0);
        assert!((fd.mean_interarrival_s - 10.0).abs() < 1e-9);
        assert!((fd.req_rate_hz - 3.0 / 20.0).abs() < 1e-9);
    }

    #[test]
    fn sample_distance_falls_back_to_global() {
        let t = Trace::new(vec![req(0, 1, 5), req(1, 2, 8), req(2, 1, 5)]);
        let fd = FootprintDescriptor::from_trace(&t, 0);
        let mut rng = StdRng::seed_from_u64(0);
        // Query a (p, s) class that never occurred.
        let d = fd.sample_distance(1000, 1 << 40, &mut rng);
        assert_eq!(d, 8, "should fall back to the only observed distance");
    }

    #[test]
    fn log2_classes() {
        assert_eq!(log2_class(0), 1); // clamped to 1
        assert_eq!(log2_class(1), 1);
        assert_eq!(log2_class(2), 2);
        assert_eq!(log2_class(3), 2);
        assert_eq!(log2_class(1024), 11);
    }

    #[test]
    fn reservoir_caps_memory() {
        let mut res = DistanceReservoir::default();
        let mut rng = StdRng::seed_from_u64(0);
        for i in 0..20_000u64 {
            res.push(i, &mut rng);
        }
        assert_eq!(res.samples.len(), RESERVOIR_CAP);
        assert_eq!(res.seen, 20_000);
    }

    #[test]
    fn larger_reuse_window_larger_distance() {
        // Construct a trace where object X returns after 2 objects and Y
        // after 5; X's distances should be smaller.
        let mut reqs = Vec::new();
        let mut t = 0u64;
        for round in 0..50u64 {
            reqs.push(req(t, 1000, 10)); // X
            t += 1;
            for k in 0..2 {
                reqs.push(req(t, round * 100 + k, 10));
                t += 1;
            }
            reqs.push(req(t, 1000, 10)); // X again: d = 20
            t += 1;
            reqs.push(req(t, 2000, 10)); // Y
            t += 1;
            for k in 10..15 {
                reqs.push(req(t, round * 100 + k, 10));
                t += 1;
            }
            reqs.push(req(t, 2000, 10)); // Y again: d = 50
            t += 1;
        }
        let fd = FootprintDescriptor::from_trace(&Trace::new(reqs), 0);
        assert!(fd.max_stack_distance >= 50);
        assert!(!fd.dist.is_empty());
    }
}
