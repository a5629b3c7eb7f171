//! The production-workload model: SpaceGEN's stand-in for the Akamai
//! traces the paper collected from nine cities.
//!
//! Every StarCDN result rests on three workload properties (see §3.1):
//!
//! 1. **popularity skew** within a location (Zipf-like, per class);
//! 2. **cross-location overlap structure** — nearby same-language cities
//!    share ~55 % of objects but ~90 % of traffic; distant or
//!    different-language cities share little (Fig. 2, Table 2);
//! 3. **temporal structure** — diurnal demand, stable popularity over a
//!    few days.
//!
//! The model realizes all three: a global Zipf catalog with lognormal
//! sizes; each object has a *home* location (weighted by local demand)
//! and is *available* elsewhere with probability decaying in distance
//! and language mismatch, while head content is shared (nearly)
//! everywhere — which is exactly what separates traffic overlap from
//! object overlap; per-location popularity adds lognormal noise and a
//! home boost; request times follow a diurnal profile in local time.

use crate::classes::ClassParams;
use crate::trace::{Location, LocationId, Request, Trace};
use rand::prelude::*;
use rand_distr::{Distribution, LogNormal};
use starcdn_cache::object::ObjectId;
use starcdn_orbit::time::{SimDuration, SimTime};

/// Metadata of one catalog object.
#[derive(Debug, Clone)]
pub struct CatalogObject {
    pub id: ObjectId,
    pub size: u64,
    pub home: LocationId,
    /// Global popularity weight (unnormalized Zipf).
    pub global_weight: f64,
}

/// The calibrated multi-location workload model.
#[derive(Debug)]
pub struct ProductionModel {
    pub locations: Vec<Location>,
    pub params: ClassParams,
    pub catalog: Vec<CatalogObject>,
    /// Per location: (object index, weight) for available objects, plus a
    /// prefix-sum CDF aligned with it.
    per_location: Vec<LocationCatalog>,
}

#[derive(Debug)]
struct LocationCatalog {
    object_idx: Vec<u32>,
    cdf: Vec<f64>,
}

impl ProductionModel {
    /// Build the model for `params` over `locations` (deterministic in
    /// `seed`).
    pub fn build(params: ClassParams, locations: &[Location], seed: u64) -> Self {
        assert!(!locations.is_empty(), "need at least one location");
        let mut rng = StdRng::seed_from_u64(seed);
        let n = params.catalog_size;

        // Demand factor per location: the US cities carry the most
        // Starlink users today (§3.1.1), so weight homes toward them.
        let demand: Vec<f64> =
            locations.iter().map(|l| if l.language == "en" { 1.5 } else { 1.0 }).collect();
        let demand_total: f64 = demand.iter().sum();

        let size_dist = LogNormal::new((params.size_median_bytes as f64).ln(), params.size_sigma)
            .expect("valid lognormal");

        let mut catalog = Vec::with_capacity(n);
        for i in 0..n {
            let rank = i + 1;
            let global_weight = 1.0 / (rank as f64).powf(params.zipf_alpha);
            let size = (size_dist.sample(&mut rng) as u64).clamp(1, params.size_cap_bytes);
            // Home by demand share.
            let mut pick = rng.gen::<f64>() * demand_total;
            let mut home = 0usize;
            for (j, d) in demand.iter().enumerate() {
                if pick < *d {
                    home = j;
                    break;
                }
                pick -= d;
            }
            catalog.push(CatalogObject {
                id: ObjectId(i as u64),
                size,
                home: LocationId(home as u16),
                global_weight,
            });
        }

        // Availability and per-location weights.
        let knee = ((n as f64) * params.popular_knee_frac).max(1.0);
        let noise = LogNormal::new(0.0, params.per_location_noise_sigma).expect("valid lognormal");
        let mut per_location = Vec::with_capacity(locations.len());
        for loc in locations {
            let mut object_idx = Vec::new();
            let mut weights = Vec::new();
            for (i, obj) in catalog.iter().enumerate() {
                let home_loc = &locations[obj.home.0 as usize];
                let available = if obj.home == loc.id {
                    true
                } else {
                    let d = loc.distance_km(home_loc);
                    let lang_share = if loc.language == home_loc.language {
                        params.same_language_share
                    } else {
                        params.cross_language_share
                    };
                    let geo = (-d / params.distance_scale_km).exp();
                    // Head content travels further than the tail, but
                    // *both* decay with distance — even popular content is
                    // regional (Fig. 2: only ~25 % of London's traffic is
                    // also present in New York).
                    let pop_boost = 1.0 / (1.0 + i as f64 / knee);
                    let head = if loc.language == home_loc.language {
                        params.head_share_same
                    } else {
                        params.head_share_cross
                    };
                    let p = (geo * (lang_share + pop_boost * head)).min(1.0);
                    rng.gen::<f64>() < p
                };
                if available {
                    let mut w = obj.global_weight * noise.sample(&mut rng);
                    if obj.home == loc.id {
                        w *= params.home_boost;
                    }
                    object_idx.push(i as u32);
                    weights.push(w);
                }
            }
            let total: f64 = weights.iter().sum();
            let mut acc = 0.0;
            let cdf: Vec<f64> = weights
                .iter()
                .map(|w| {
                    acc += w / total;
                    acc
                })
                .collect();
            per_location.push(LocationCatalog { object_idx, cdf });
        }

        ProductionModel { locations: locations.to_vec(), params, catalog, per_location }
    }

    /// Sample one object for a request from `loc`.
    pub(crate) fn sample_object(&self, loc: LocationId, rng: &mut impl Rng) -> &CatalogObject {
        let lc = &self.per_location[loc.0 as usize];
        let u: f64 = rng.gen();
        let k = lc.cdf.partition_point(|&c| c < u).min(lc.cdf.len() - 1);
        &self.catalog[lc.object_idx[k] as usize]
    }

    /// Diurnal rate multiplier at simulation time `t` for a location
    /// (peak at 20:00 local time, trough at 08:00).
    pub(crate) fn diurnal_multiplier(&self, loc: LocationId, t: SimTime) -> f64 {
        let lon = self.locations[loc.0 as usize].lon_deg;
        let local_hours = (t.as_secs_f64() / 3600.0 + lon / 15.0).rem_euclid(24.0);
        let phase = (local_hours - 20.0) / 24.0 * std::f64::consts::TAU;
        1.0 + self.params.diurnal_amplitude * phase.cos()
    }

    /// Generate the production trace over `duration` (deterministic in
    /// `seed`). Request times are Poisson within hourly buckets whose
    /// rates follow the diurnal profile.
    pub fn generate_trace(&self, duration: SimDuration, seed: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5face_97ace);
        let mut requests = Vec::new();
        let total_secs = duration.as_secs_f64();
        let bucket_secs = 3600.0_f64.min(total_secs.max(1.0));
        let n_buckets = (total_secs / bucket_secs).ceil() as u64;

        for loc in 0..self.locations.len() {
            let loc_id = LocationId(loc as u16);
            for b in 0..n_buckets {
                let t0 = b as f64 * bucket_secs;
                let span = bucket_secs.min(total_secs - t0);
                if span <= 0.0 {
                    break;
                }
                let mid = SimTime::from_millis(((t0 + span / 2.0) * 1000.0) as u64);
                let expected =
                    self.params.base_rate_per_loc_hz * self.diurnal_multiplier(loc_id, mid) * span;
                let count = poisson_knuth(expected, &mut rng);
                for _ in 0..count {
                    let t = t0 + rng.gen::<f64>() * span;
                    let obj = self.sample_object(loc_id, &mut rng);
                    requests.push(Request {
                        time: SimTime::from_millis((t * 1000.0) as u64),
                        object: obj.id,
                        size: obj.size,
                        location: loc_id,
                    });
                }
            }
        }
        Trace::new(requests)
    }
}

/// Generate a mixed-class trace: each traffic class keeps its own model
/// and parameters, object ids are namespaced per class (high bits), and
/// the per-class traces merge into one time-ordered stream — the shape
/// of traffic a general-purpose CDN like Akamai actually serves (§2.2).
///
/// Returns the merged trace plus the per-class models (for size lookups
/// and analysis).
pub fn mixed_trace(
    classes: &[crate::classes::ClassParams],
    locations: &[Location],
    duration: SimDuration,
    seed: u64,
) -> (Trace, Vec<ProductionModel>) {
    assert!(classes.len() <= 16, "class namespace uses 4 id bits");
    let mut models = Vec::with_capacity(classes.len());
    let mut merged = Vec::new();
    for (ci, params) in classes.iter().enumerate() {
        let model = ProductionModel::build(*params, locations, seed ^ ((ci as u64) << 40));
        let trace = model.generate_trace(duration, seed ^ ((ci as u64) << 41));
        let namespace = (ci as u64) << 60;
        merged.extend(trace.requests.into_iter().map(|mut r| {
            r.object = ObjectId(namespace | r.object.0);
            r
        }));
        models.push(model);
    }
    (Trace::new(merged), models)
}

/// Poisson sampling; Knuth's method for small λ, normal approximation for
/// large λ (λ > 64), which is plenty for hourly request buckets.
fn poisson_knuth(lambda: f64, rng: &mut impl Rng) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda > 64.0 {
        let z: f64 = rand_distr::StandardNormal.sample(rng);
        return (lambda + z * lambda.sqrt()).round().max(0.0) as u64;
    }
    let l = (-lambda).exp();
    let mut k = 0u64;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::TrafficClass;

    fn small_model() -> ProductionModel {
        let params = TrafficClass::Video.params().scaled(0.05); // 3000 objects
        ProductionModel::build(params, &Location::akamai_nine(), 42)
    }

    #[test]
    fn build_is_deterministic() {
        let params = TrafficClass::Video.params().scaled(0.02);
        let locs = Location::akamai_nine();
        let a = ProductionModel::build(params, &locs, 7);
        let b = ProductionModel::build(params, &locs, 7);
        assert_eq!(a.catalog.len(), b.catalog.len());
        for (x, y) in a.catalog.iter().zip(&b.catalog) {
            assert_eq!(x.size, y.size);
            assert_eq!(x.home, y.home);
        }
        let ta = a.generate_trace(SimDuration::from_secs(600), 1);
        let tb = b.generate_trace(SimDuration::from_secs(600), 1);
        assert_eq!(ta, tb);
    }

    #[test]
    fn home_objects_always_available() {
        let m = small_model();
        for loc in 0..9u16 {
            let lc = &m.per_location[loc as usize];
            let avail: std::collections::HashSet<u32> = lc.object_idx.iter().copied().collect();
            for (i, obj) in m.catalog.iter().enumerate() {
                if obj.home == LocationId(loc) {
                    assert!(avail.contains(&(i as u32)), "home object {i} missing at {loc}");
                }
            }
        }
    }

    #[test]
    fn head_content_travels_further_than_tail() {
        // Even head content is regional (Fig. 2), but it reaches more
        // locations than the tail does.
        let m = small_model();
        let spread = |range: std::ops::Range<u32>| {
            let mut total = 0usize;
            for i in range.clone() {
                total += m
                    .per_location
                    .iter()
                    .filter(|lc| lc.object_idx.binary_search(&i).is_ok())
                    .count();
            }
            total as f64 / range.len() as f64
        };
        let head = spread(0..50);
        let n = m.catalog.len() as u32;
        let tail = spread((n - 500)..n);
        assert!(head > tail + 0.5, "head spread {head:.2} vs tail {tail:.2}");
        assert!(head >= 2.0, "head objects should reach multiple locations: {head:.2}");
    }

    #[test]
    fn tail_content_is_mostly_local() {
        let m = small_model();
        let n = m.catalog.len();
        // Average spread of the bottom half of the catalog should be low.
        let mut total = 0usize;
        let count = 500.min(n / 2);
        for i in (n - count)..n {
            total += m
                .per_location
                .iter()
                .filter(|lc| lc.object_idx.binary_search(&(i as u32)).is_ok())
                .count();
        }
        let avg = total as f64 / count as f64;
        assert!(avg < 5.0, "tail objects average {avg} locations");
    }

    #[test]
    fn sample_object_prefers_head() {
        let m = small_model();
        let mut rng = StdRng::seed_from_u64(3);
        let mut head = 0usize;
        const N: usize = 5000;
        for _ in 0..N {
            let o = m.sample_object(LocationId(4), &mut rng);
            if o.id.0 < (m.catalog.len() / 20) as u64 {
                head += 1;
            }
        }
        // With alpha ≈ 1.05, the top 5% of objects should carry well over
        // half the requests.
        assert!(head as f64 / N as f64 > 0.5, "head share {}", head as f64 / N as f64);
    }

    #[test]
    fn diurnal_multiplier_cycles() {
        let m = small_model();
        let loc = LocationId(4); // New York, lon ≈ -74 → local ≈ UTC-5
        let mut mults = Vec::new();
        for h in 0..24u64 {
            mults.push(m.diurnal_multiplier(loc, SimTime::from_hours(h)));
        }
        let max = mults.iter().cloned().fold(f64::MIN, f64::max);
        let min = mults.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 1.2 && min < 0.8, "diurnal range [{min}, {max}]");
        // 24h periodicity.
        let again = m.diurnal_multiplier(loc, SimTime::from_hours(24));
        assert!((again - mults[0]).abs() < 1e-9);
    }

    #[test]
    fn trace_covers_all_locations_and_respects_duration() {
        let m = small_model();
        let dur = SimDuration::from_secs(2 * 3600);
        let trace = m.generate_trace(dur, 9);
        assert!(!trace.is_empty());
        assert!(trace.end_time().as_millis() <= dur.as_millis());
        let by_loc = trace.split_by_location(9);
        for (i, t) in by_loc.iter().enumerate() {
            assert!(!t.is_empty(), "location {i} got no requests");
        }
        // Total volume within 3x of expectation (diurnal + Poisson noise).
        let expected = m.params.base_rate_per_loc_hz * 7200.0 * 9.0;
        let ratio = trace.len() as f64 / expected;
        assert!((0.5..2.0).contains(&ratio), "request count off: ratio {ratio}");
    }

    #[test]
    fn sizes_within_cap() {
        let m = small_model();
        for o in &m.catalog {
            assert!(o.size >= 1 && o.size <= m.params.size_cap_bytes);
        }
    }

    #[test]
    fn mixed_trace_namespaces_and_merges() {
        let locs = Location::akamai_nine();
        let classes =
            [TrafficClass::Video.params().scaled(0.02), TrafficClass::Web.params().scaled(0.02)];
        let (trace, models) = mixed_trace(&classes, &locs, SimDuration::from_hours(1), 5);
        assert_eq!(models.len(), 2);
        assert!(!trace.is_empty());
        // Time-ordered merge.
        for w in trace.requests.windows(2) {
            assert!(w[0].time <= w[1].time);
        }
        // Namespaces keep the classes disjoint; both present.
        let ns: std::collections::HashSet<u64> =
            trace.requests.iter().map(|r| r.object.0 >> 60).collect();
        assert_eq!(ns.len(), 2, "both class namespaces present: {ns:?}");
        // Web (higher rate, smaller objects) should dominate request count.
        let web_reqs = trace.requests.iter().filter(|r| r.object.0 >> 60 == 1).count();
        assert!(web_reqs * 2 > trace.len(), "web should carry most requests");
    }

    #[test]
    #[should_panic(expected = "class namespace")]
    fn mixed_trace_rejects_too_many_classes() {
        let locs = Location::akamai_nine();
        let classes = vec![TrafficClass::Video.params().scaled(0.01); 17];
        mixed_trace(&classes, &locs, SimDuration::from_secs(10), 1);
    }

    #[test]
    fn poisson_mean_is_lambda() {
        let mut rng = StdRng::seed_from_u64(1);
        for &lambda in &[0.5f64, 5.0, 80.0] {
            let n = 3000;
            let total: u64 = (0..n).map(|_| poisson_knuth(lambda, &mut rng)).sum();
            let mean = total as f64 / n as f64;
            assert!((mean - lambda).abs() < lambda.max(1.0) * 0.15, "λ={lambda} mean={mean}");
        }
        assert_eq!(poisson_knuth(0.0, &mut rng), 0);
    }
}
