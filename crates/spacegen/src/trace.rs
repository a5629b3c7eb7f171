//! Trace records and the nine-city location set.

use rand::prelude::*;
use serde::{Deserialize, Serialize};
use starcdn_cache::object::{IdMap, ObjectId};
use starcdn_constellation::schedule::DemandSchedule;
use starcdn_orbit::coords::Geodetic;
use starcdn_orbit::time::SimTime;

/// Identifier of a trace location (index into the location table).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct LocationId(pub u16);

/// A geographic trace location (city) with its language group, which
/// drives the cross-location content-overlap model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Location {
    pub id: LocationId,
    pub name: String,
    pub lat_deg: f64,
    pub lon_deg: f64,
    /// Language group: locations sharing a language share far more
    /// content (Table 2's diagonal-block structure).
    pub language: String,
}

impl Location {
    /// Position on the globe.
    pub fn geodetic(&self) -> Geodetic {
        Geodetic::from_degrees(self.lat_deg, self.lon_deg, 0.0)
    }

    /// Great-circle distance to another location, km.
    pub(crate) fn distance_km(&self, other: &Location) -> f64 {
        self.geodetic().haversine_km(&other.geodetic())
    }

    /// The paper's nine Akamai trace cities (§3.1.1): Mexico City,
    /// Dallas, Atlanta, Washington D.C., New York City, London,
    /// Frankfurt, Vienna, and Istanbul.
    pub fn akamai_nine() -> Vec<Location> {
        let spec: [(&str, f64, f64, &str); 9] = [
            ("Mexico City", 19.4326, -99.1332, "es"),
            ("Dallas", 32.7767, -96.7970, "en"),
            ("Atlanta", 33.7490, -84.3880, "en"),
            ("Washington DC", 38.9072, -77.0369, "en"),
            ("New York", 40.7128, -74.0060, "en"),
            ("London", 51.5074, -0.1278, "en"),
            ("Frankfurt", 50.1109, 8.6821, "de"),
            ("Vienna", 48.2082, 16.3738, "de"),
            ("Istanbul", 41.0082, 28.9784, "tr"),
        ];
        spec.iter()
            .enumerate()
            .map(|(i, &(name, lat, lon, lang))| Location {
                id: LocationId(i as u16),
                name: name.to_owned(),
                lat_deg: lat,
                lon_deg: lon,
                language: lang.to_owned(),
            })
            .collect()
    }

    /// Find a location by name in a table.
    #[cfg(test)]
    pub(crate) fn by_name<'a>(table: &'a [Location], name: &str) -> Option<&'a Location> {
        table.iter().find(|l| l.name == name)
    }
}

/// One content request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Request {
    pub time: SimTime,
    pub object: ObjectId,
    pub size: u64,
    pub location: LocationId,
}

/// A trace: requests sorted by time, spanning one or more locations.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    pub requests: Vec<Request>,
}

impl Trace {
    /// Wrap a request vector, sorting by time with a stable comparison
    /// sort, so equal-time requests keep their input order. For requests
    /// that arrive in any order: the readers, merges, the surge overlay,
    /// Algorithm 1.
    /// [`ProductionModel::generate_trace`](crate::production::ProductionModel::generate_trace)
    /// writes its requests in this order itself and does not come through
    /// here.
    pub fn new(mut requests: Vec<Request>) -> Self {
        requests.sort_by_key(|r| r.time);
        Trace { requests }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Total bytes requested.
    pub fn total_bytes(&self) -> u64 {
        self.requests.iter().map(|r| r.size).sum()
    }

    /// Unique objects and their total unique bytes (each object counted
    /// at the size of its first request).
    pub fn unique_objects(&self) -> (usize, u64) {
        let mut seen: IdMap<ObjectId, u64> = IdMap::default();
        for r in &self.requests {
            seen.entry(r.object).or_insert(r.size);
        }
        (seen.len(), seen.values().sum())
    }

    /// End time of the trace (time of the last request).
    pub(crate) fn end_time(&self) -> SimTime {
        self.requests.last().map(|r| r.time).unwrap_or(SimTime::ZERO)
    }

    /// Split into per-location traces, preserving order. Returns
    /// `locations`-indexed vector (missing locations yield empty traces).
    pub fn split_by_location(&self, num_locations: usize) -> Vec<Trace> {
        let mut out = vec![Trace::default(); num_locations];
        for r in &self.requests {
            out[r.location.0 as usize].requests.push(*r);
        }
        out
    }

    /// The accesses as `(object, size)` pairs for the cache replay harness.
    pub fn accesses(&self) -> Vec<(ObjectId, u64)> {
        self.requests.iter().map(|r| (r.object, r.size)).collect()
    }

    /// Amplify the trace with a flash-crowd [`DemandSchedule`]: each
    /// request whose location sits under an active surge envelope is
    /// replicated so the local request rate scales by the envelope's
    /// multiplier (fractional parts resolved by a seeded coin).
    ///
    /// The overlay runs *before* the access log is built, so the engine
    /// and the parallel replayer see the same amplified stream and
    /// bit-for-bit parity is preserved by construction. Clones keep the
    /// original timestamp; [`Trace::new`]'s stable sort keeps them
    /// adjacent to their source request.
    pub fn with_demand_surges(&self, surges: &DemandSchedule, seed: u64) -> Trace {
        if surges.is_empty() {
            return self.clone();
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF1A5_4C20_0B5E_71E5);
        let mut out = Vec::with_capacity(self.requests.len());
        for r in &self.requests {
            out.push(*r);
            let extra = surges.multiplier_at(r.location.0, r.time.as_secs()) - 1.0;
            if extra <= 0.0 {
                continue;
            }
            let copies = extra.floor() as u64 + u64::from(rng.gen::<f64>() < extra.fract());
            for _ in 0..copies {
                out.push(*r);
            }
        }
        Trace::new(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(t: u64, obj: u64, size: u64, loc: u16) -> Request {
        Request {
            time: SimTime::from_secs(t),
            object: ObjectId(obj),
            size,
            location: LocationId(loc),
        }
    }

    #[test]
    fn akamai_nine_roster() {
        let locs = Location::akamai_nine();
        assert_eq!(locs.len(), 9);
        assert_eq!(locs[4].name, "New York");
        assert_eq!(locs[4].language, "en");
        assert_eq!(Location::by_name(&locs, "Istanbul").unwrap().language, "tr");
        assert!(Location::by_name(&locs, "Tokyo").is_none());
        // Ids are dense and match indices.
        for (i, l) in locs.iter().enumerate() {
            assert_eq!(l.id, LocationId(i as u16));
        }
    }

    #[test]
    fn nyc_dc_are_close_nyc_istanbul_far() {
        // Fig. 2's geography: DC is < 3000 km from NY, Istanbul is > 3000.
        let locs = Location::akamai_nine();
        let ny = Location::by_name(&locs, "New York").unwrap();
        let dc = Location::by_name(&locs, "Washington DC").unwrap();
        let ist = Location::by_name(&locs, "Istanbul").unwrap();
        assert!(ny.distance_km(dc) < 400.0);
        assert!(ny.distance_km(ist) > 8000.0);
    }

    #[test]
    fn trace_sorts_by_time() {
        let t = Trace::new(vec![req(5, 1, 10, 0), req(1, 2, 20, 0), req(3, 3, 30, 1)]);
        let times: Vec<u64> = t.requests.iter().map(|r| r.time.as_secs()).collect();
        assert_eq!(times, vec![1, 3, 5]);
        assert_eq!(t.end_time(), SimTime::from_secs(5));
    }

    #[test]
    fn totals_and_uniques() {
        let t = Trace::new(vec![req(0, 1, 10, 0), req(1, 1, 10, 0), req(2, 2, 30, 1)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.total_bytes(), 50);
        assert_eq!(t.unique_objects(), (2, 40));
    }

    #[test]
    fn split_and_merge_roundtrip() {
        let t = Trace::new(vec![req(0, 1, 10, 0), req(1, 2, 20, 1), req(2, 3, 30, 0)]);
        let parts = t.split_by_location(3);
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[1].len(), 1);
        assert!(parts[2].is_empty());
        let merged = Trace::new(parts.into_iter().flat_map(|p| p.requests).collect());
        assert_eq!(merged, t);
    }

    #[test]
    fn accesses_projection() {
        let t = Trace::new(vec![req(0, 7, 11, 0)]);
        assert_eq!(t.accesses(), vec![(ObjectId(7), 11)]);
    }

    #[test]
    fn empty_trace_defaults() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.end_time(), SimTime::ZERO);
        assert_eq!(t.unique_objects(), (0, 0));
    }

    fn surge(loc: u16, onset: u64, hold: u64, peak: f64) -> DemandSurge {
        DemandSurge {
            location: loc,
            onset_secs: onset,
            ramp_secs: 0,
            hold_secs: hold,
            decay_secs: 0,
            peak_multiplier: peak,
        }
    }

    use starcdn_constellation::schedule::DemandSurge;

    #[test]
    fn demand_surge_amplifies_only_the_hot_location() {
        // 100 requests per location; a 3× plateau over location 1 only.
        let base = Trace::new((0..200).map(|i| req(i % 100, i, 10, (i % 2) as u16)).collect());
        let sched = DemandSchedule::from_surges([surge(1, 0, 100, 3.0)]);
        let amp = base.with_demand_surges(&sched, 7);
        let counts = amp.split_by_location(2);
        assert_eq!(counts[0].len(), 100, "cold location untouched");
        assert_eq!(counts[1].len(), 300, "integer multiplier is exact");
        // Amplification clones requests: no new objects, same end time.
        assert_eq!(amp.unique_objects(), base.unique_objects());
        assert_eq!(amp.end_time(), base.end_time());
        // Sorted-by-time invariant survives amplification.
        for w in amp.requests.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
    }

    #[test]
    fn demand_surge_fractional_multiplier_is_seed_deterministic() {
        let base = Trace::new((0..1000).map(|i| req(i, i, 1, 0)).collect());
        let sched = DemandSchedule::from_surges([surge(0, 0, 1000, 2.5)]);
        let a = base.with_demand_surges(&sched, 42);
        let b = base.with_demand_surges(&sched, 42);
        assert_eq!(a, b, "same seed, same amplified trace");
        // ~2.5× in expectation: 1 clone always, a second one half the time.
        assert!(a.len() > 2200 && a.len() < 2800, "got {}", a.len());
    }

    #[test]
    fn empty_demand_schedule_is_identity() {
        let base = Trace::new(vec![req(0, 1, 10, 0), req(5, 2, 20, 1)]);
        assert_eq!(base.with_demand_surges(&DemandSchedule::empty(), 3), base);
    }
}
