//! The Global Popularity Distribution (GPD).
//!
//! The GPD (§4.1) is the joint distribution `P(p₁, …, pₙ, s)` of an
//! object's popularity at each of the `n` locations together with its
//! size. It is what encodes *cross-location* structure — which objects
//! are shared, and how their popularity correlates across locations —
//! and is sampled during Algorithm 1's initialization phase and whenever
//! a generated object exhausts its request quota.
//!
//! As in TRAGEN/JEDI, the GPD is kept empirically: one record per object
//! of the production trace, sampled uniformly with replacement.

use crate::trace::Trace;
use rand::prelude::*;
use serde::{Deserialize, Serialize};
use starcdn_cache::object::ObjectId;
use std::collections::HashMap;

/// One GPD record: an object's per-location popularity vector and size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpdRecord {
    /// Requests at each location (length = number of locations).
    pub popularity: Vec<u32>,
    /// Object size, bytes.
    pub size: u64,
}

/// The empirical global popularity distribution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GlobalPopularity {
    pub num_locations: usize,
    pub records: Vec<GpdRecord>,
}

impl GlobalPopularity {
    /// Extract the GPD from a multi-location production trace.
    pub fn from_trace(trace: &Trace, num_locations: usize) -> Self {
        let mut map: HashMap<ObjectId, GpdRecord> = HashMap::new();
        for r in &trace.requests {
            let e = map
                .entry(r.object)
                .or_insert_with(|| GpdRecord { popularity: vec![0; num_locations], size: r.size });
            e.popularity[r.location.0 as usize] += 1;
        }
        // Deterministic record order (HashMap iteration is not).
        let mut keyed: Vec<(ObjectId, GpdRecord)> = map.into_iter().collect();
        keyed.sort_by_key(|(id, _)| *id);
        GlobalPopularity { num_locations, records: keyed.into_iter().map(|(_, r)| r).collect() }
    }

    /// Sample one object definition (uniform over observed objects, as in
    /// TRAGEN's empirical-FD sampling).
    pub(crate) fn sample(&self, rng: &mut impl Rng) -> &GpdRecord {
        &self.records[rng.gen_range(0..self.records.len())]
    }

    /// Number of distinct objects.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the GPD holds no objects.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Fraction of objects accessed from more than one location.
    pub fn shared_fraction(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let shared = self
            .records
            .iter()
            .filter(|r| r.popularity.iter().filter(|&&p| p > 0).count() > 1)
            .count();
        shared as f64 / self.records.len() as f64
    }

    /// Serialize to JSON (the paper publishes its traffic models for
    /// download; this is the equivalent export surface).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("GPD serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{LocationId, Request};
    use starcdn_orbit::time::SimTime;

    fn req(obj: u64, size: u64, loc: u16) -> Request {
        Request { time: SimTime::ZERO, object: ObjectId(obj), size, location: LocationId(loc) }
    }

    fn sample_trace() -> Trace {
        Trace::new(vec![req(1, 10, 0), req(1, 10, 0), req(1, 10, 1), req(2, 20, 1), req(3, 30, 2)])
    }

    #[test]
    fn popularity_vectors_counted() {
        let gpd = GlobalPopularity::from_trace(&sample_trace(), 3);
        assert_eq!(gpd.len(), 3);
        // Records sorted by object id.
        assert_eq!(gpd.records[0], GpdRecord { popularity: vec![2, 1, 0], size: 10 });
        assert_eq!(gpd.records[1], GpdRecord { popularity: vec![0, 1, 0], size: 20 });
        assert_eq!(gpd.records[2], GpdRecord { popularity: vec![0, 0, 1], size: 30 });
    }

    #[test]
    fn shared_fraction_counts_multi_location_objects() {
        let gpd = GlobalPopularity::from_trace(&sample_trace(), 3);
        assert!((gpd.shared_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_stays_in_population() {
        let gpd = GlobalPopularity::from_trace(&sample_trace(), 3);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..50 {
            let rec = gpd.sample(&mut rng);
            assert!(gpd.records.contains(rec));
        }
    }

    #[test]
    fn json_roundtrip() {
        let gpd = GlobalPopularity::from_trace(&sample_trace(), 3);
        let json = gpd.to_json();
        let back = GlobalPopularity::from_json(&json).unwrap();
        assert_eq!(back.records, gpd.records);
        assert_eq!(back.num_locations, 3);
    }

    #[test]
    fn empty_trace_empty_gpd() {
        let gpd = GlobalPopularity::from_trace(&Trace::default(), 3);
        assert!(gpd.is_empty());
        assert_eq!(gpd.shared_fraction(), 0.0);
    }
}
