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
pub(crate) struct CatalogObject {
    pub(crate) id: ObjectId,
    pub(crate) size: u64,
    pub(crate) home: LocationId,
    /// Global popularity weight (unnormalized Zipf).
    pub(crate) global_weight: f64,
}

/// The calibrated multi-location workload model.
#[derive(Debug)]
pub struct ProductionModel {
    pub locations: Vec<Location>,
    pub params: ClassParams,
    pub(crate) catalog: Vec<CatalogObject>,
    /// Per location: (object index, weight) for available objects, plus a
    /// prefix-sum CDF aligned with it.
    per_location: Vec<LocationCatalog>,
}

#[derive(Debug)]
struct LocationCatalog {
    object_idx: Vec<u32>,
    cdf: Vec<f64>,
    /// Chen–Asau cutpoints over `m = cdf.len()` equal slices of `[0, 1)`:
    /// `guide[j]` is the first index whose `cdf` value reaches `j / m`,
    /// for `j` in `0..=m + 1`.
    guide: Vec<u32>,
}

impl LocationCatalog {
    fn new(object_idx: Vec<u32>, cdf: Vec<f64>) -> Self {
        let m = cdf.len().max(1);
        let mut guide = Vec::with_capacity(m + 2);
        let mut k = 0;
        for j in 0..=m + 1 {
            let cut = j as f64 / m as f64;
            while k < cdf.len() && cdf[k] < cut {
                k += 1;
            }
            guide.push(k as u32);
        }
        LocationCatalog { object_idx, cdf, guide }
    }

    /// The slot `u ∈ [0, 1)` draws: the first `cdf` value at or above
    /// `u`, clamped to the last — exactly
    /// `cdf.partition_point(|&c| c < u).min(cdf.len() - 1)`. The search
    /// covers `u`'s slice widened by one on each side, so a rounding of
    /// `u * m` or of a cut `j / m` never moves the answer out of it:
    /// every value before the window is below `u`, every one after it is
    /// at or above.
    #[inline]
    fn draw(&self, u: f64) -> usize {
        let m = self.guide.len() - 2;
        let j = ((u * m as f64) as usize).min(m);
        let lo = self.guide[j.saturating_sub(1)] as usize;
        let hi = self.guide[(j + 2).min(m + 1)] as usize;
        (lo + self.cdf[lo..hi].partition_point(|&c| c < u)).min(self.cdf.len() - 1)
    }
}

/// How an object homed at one location reaches another: the distance
/// decay `exp(-d / scale)` and the language-dependent shares. A function
/// of the location pair only, so `build` computes it once per pair.
#[derive(Debug, Clone, Copy)]
struct Reach {
    geo: f64,
    lang_share: f64,
    head: f64,
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

        // Availability and per-location weights. `reach[l][h]` is `None`
        // where an object homed at `h` is at home at location `l`.
        let knee = ((n as f64) * params.popular_knee_frac).max(1.0);
        let noise = LogNormal::new(0.0, params.per_location_noise_sigma).expect("valid lognormal");
        let pair = |loc: &Location, home: &Location| {
            let (lang_share, head) = if loc.language == home.language {
                (params.same_language_share, params.head_share_same)
            } else {
                (params.cross_language_share, params.head_share_cross)
            };
            let geo = (-loc.distance_km(home) / params.distance_scale_km).exp();
            Reach { geo, lang_share, head }
        };
        let reach: Vec<Vec<Option<Reach>>> = locations
            .iter()
            .map(|loc| {
                let homes = locations.iter().enumerate();
                homes
                    .map(|(h, home)| (LocationId(h as u16) != loc.id).then(|| pair(loc, home)))
                    .collect()
            })
            .collect();
        // Head content travels further than the tail, but *both* decay
        // with distance — even popular content is regional (Fig. 2: only
        // ~25 % of London's traffic is also present in New York).
        let pop_boost: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64 / knee)).collect();
        let mut per_location = Vec::with_capacity(locations.len());
        for reach in &reach {
            let mut object_idx = Vec::new();
            let mut weights = Vec::new();
            for (i, obj) in catalog.iter().enumerate() {
                let away = reach[obj.home.0 as usize];
                let available = match away {
                    None => true,
                    Some(r) => {
                        let p = (r.geo * (r.lang_share + pop_boost[i] * r.head)).min(1.0);
                        rng.gen::<f64>() < p
                    }
                };
                if available {
                    let mut w = obj.global_weight * noise.sample(&mut rng);
                    if away.is_none() {
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
            per_location.push(LocationCatalog::new(object_idx, cdf));
        }

        ProductionModel { locations: locations.to_vec(), params, catalog, per_location }
    }

    /// Draw the catalog index of one request's object from `loc`.
    #[inline]
    fn sample_index(&self, loc: LocationId, rng: &mut impl Rng) -> u32 {
        let lc = &self.per_location[loc.0 as usize];
        lc.object_idx[lc.draw(rng.gen())]
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
    ///
    /// Requests are drawn location by location, bucket by bucket; the
    /// trace orders them by `(millisecond, generation index)` — the
    /// order a stable sort by time of the generation order gives. Each
    /// draw is kept as one packed `u64` key (`KeyLayout`) beside its
    /// catalog index and location, the keys are radix-sorted on their
    /// time bits, and the `Request`s are written once, in trace order.
    pub fn generate_trace(&self, duration: SimDuration, seed: u64) -> Trace {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5face_97ace);
        let layout = KeyLayout::for_duration(duration.as_millis());
        let mut keys = Vec::new();
        let mut objects = Vec::new();
        let mut origins = Vec::new();
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
                    keys.push(layout.pack((t * 1000.0) as u64, keys.len()));
                    objects.push(self.sample_index(loc_id, &mut rng));
                    origins.push(loc_id);
                }
            }
        }

        let keys = sort_by_time(keys, layout);
        let mut requests = Vec::with_capacity(keys.len());
        for &key in &keys {
            let i = layout.index(key);
            let obj = &self.catalog[objects[i] as usize];
            requests.push(Request {
                time: SimTime::from_millis(layout.ms(key)),
                object: obj.id,
                size: obj.size,
                location: origins[i],
            });
        }
        debug_assert!(requests.windows(2).all(|w| w[0].time <= w[1].time));
        Trace { requests }
    }
}

/// The sort key of one generated request: its millisecond in the high
/// bits, its generation index in the low `idx_bits`. Generation is
/// location-major, so sorting keys as integers orders requests by time
/// and breaks ties by location, then by draw order.
#[derive(Debug, Clone, Copy)]
struct KeyLayout {
    idx_bits: u32,
}

impl KeyLayout {
    /// The layout for a trace whose times are at most `duration_ms`: the
    /// time takes the bits `duration_ms` needs, the index the rest (35
    /// bits over five days).
    fn for_duration(duration_ms: u64) -> Self {
        KeyLayout { idx_bits: duration_ms.leading_zeros().min(63) }
    }

    /// The key of the `index`-th generated request, at `ms`.
    ///
    /// # Panics
    ///
    /// If `index` does not fit the index share (`2^idx_bits` requests).
    #[inline]
    fn pack(self, ms: u64, index: usize) -> u64 {
        let index = index as u64;
        assert!(
            index >> self.idx_bits == 0,
            "request {index} overflows the {}-bit index share of a sort key \
             (at most {} requests fit beside the trace's times)",
            self.idx_bits,
            1u64 << self.idx_bits
        );
        // Times never pass the duration the layout was sized for.
        debug_assert!(ms.leading_zeros() >= self.idx_bits, "{ms} ms past the layout");
        ms << self.idx_bits | index
    }

    #[inline]
    fn index(self, key: u64) -> usize {
        (key & ((1 << self.idx_bits) - 1)) as usize
    }

    #[inline]
    fn ms(self, key: u64) -> u64 {
        key >> self.idx_bits
    }
}

/// Sort `keys` by their time bits: a least-significant-digit radix sort
/// over the bits above the index share, at most 12 bits a digit. Each
/// pass is stable, so keys that share a millisecond keep the order they
/// came in — for generated keys, the generation order. A pass whose
/// digit is the same for every key is skipped.
fn sort_by_time(keys: Vec<u64>, layout: KeyLayout) -> Vec<u64> {
    const MAX_DIGIT_BITS: u32 = 12;
    let time_bits = 64 - layout.idx_bits;
    let passes = time_bits.div_ceil(MAX_DIGIT_BITS);
    let digit_bits = time_bits.div_ceil(passes);
    let mask = (1u64 << digit_bits) - 1;
    let mut src = keys;
    let mut dst = vec![0u64; src.len()];
    let mut counts = vec![0usize; 1 << digit_bits];
    for pass in 0..passes {
        let shift = layout.idx_bits + pass * digit_bits;
        counts.fill(0);
        for &k in &src {
            counts[((k >> shift) & mask) as usize] += 1;
        }
        if counts.contains(&src.len()) {
            continue;
        }
        let mut next = 0;
        for c in counts.iter_mut() {
            let n = *c;
            *c = next;
            next += n;
        }
        for &k in &src {
            let d = ((k >> shift) & mask) as usize;
            dst[counts[d]] = k;
            counts[d] += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    src
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
            if (m.sample_index(LocationId(4), &mut rng) as usize) < m.catalog.len() / 20 {
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

    /// The benchmark's model: the video class over the nine cities,
    /// catalog and request rate scaled independently, catalog seed 42.
    fn bench_model(catalog_factor: f64, rate_factor: f64) -> ProductionModel {
        let class = TrafficClass::Video;
        let mut params = class.params().scaled(catalog_factor);
        params.base_rate_per_loc_hz = class.params().base_rate_per_loc_hz * rate_factor;
        ProductionModel::build(params, &Location::akamai_nine(), 42)
    }

    /// `(len, CRC-32 of the binary encoding)` of a trace.
    fn trace_pin(trace: &Trace) -> (usize, u32) {
        let mut bytes = Vec::new();
        crate::io::write_binary(trace, &mut bytes).unwrap();
        (trace.len(), starcdn_io::wire::crc32(&bytes))
    }

    /// CRC-32 of every location's `(object_idx, cdf bits)` after `build`.
    fn catalog_pins(m: &ProductionModel) -> Vec<u32> {
        m.per_location
            .iter()
            .map(|lc| {
                let mut bytes = Vec::new();
                for (&i, &c) in lc.object_idx.iter().zip(&lc.cdf) {
                    bytes.extend_from_slice(&i.to_le_bytes());
                    bytes.extend_from_slice(&c.to_bits().to_le_bytes());
                }
                starcdn_io::wire::crc32(&bytes)
            })
            .collect()
    }

    /// The generated bytes, pinned before generation moved to compact
    /// keys, a guide-table draw and a radix sort on time. Never
    /// regenerate these: a change that moves one changed the workload
    /// every result rests on, not just its speed.
    #[test]
    fn generated_traces_are_pinned() {
        let video = bench_model(0.5, 2.0);
        let sparse = bench_model(0.02, 0.02);
        assert_eq!(catalog_pins(&video), PINNED_VIDEO_CATALOG);
        assert_eq!(catalog_pins(&sparse), PINNED_SPARSE_CATALOG);
        assert_eq!(catalog_pins(&small_model()), PINNED_SMALL_CATALOG);

        // The benchmark's four shapes (steady_video, sparse_longhaul,
        // degraded_churn, sharded_replay) at two seeds.
        let shapes: [(&ProductionModel, u64); 4] =
            [(&video, 4 * 60), (&sparse, 48 * 60), (&video, 30), (&video, 2 * 60)];
        let mut got = Vec::new();
        for seed in [42, 7] {
            for (m, minutes) in shapes {
                got.push(trace_pin(&m.generate_trace(SimDuration::from_mins(minutes), seed)));
            }
        }
        // Not a whole number of hours: the last bucket is partial.
        got.push(trace_pin(&video.generate_trace(SimDuration::from_millis(5_417_321), 3)));
        // Nine busy locations over one minute: requests from two
        // locations share a millisecond, so the order of ties is pinned.
        let tied = bench_model(0.05, 40.0).generate_trace(SimDuration::from_mins(1), 11);
        assert!(
            tied.requests
                .windows(2)
                .any(|w| w[0].time == w[1].time && w[0].location != w[1].location),
            "no cross-location tie to pin"
        );
        got.push(trace_pin(&tied));
        assert_eq!(got, PINNED_TRACES);
        assert_eq!(
            video.generate_trace(SimDuration::from_mins(30), 42).unique_objects(),
            PINNED_UNIQUE
        );
    }

    const PINNED_VIDEO_CATALOG: [u32; 9] = [
        0xc96e6c41, 0x36bdcd8d, 0x5b17657a, 0xfd554f48, 0xbfae4ffd, 0xe4e5f413, 0xcf14378b,
        0xdbfea979, 0x7effdf67,
    ];
    const PINNED_SPARSE_CATALOG: [u32; 9] = [
        0x95f6b1cf, 0x180e50dd, 0x12015d6d, 0x92e7a253, 0xe2d6741e, 0x627b0af0, 0x099e11a2,
        0x26623efc, 0xb68677b0,
    ];
    const PINNED_SMALL_CATALOG: [u32; 9] = [
        0xa3a22abb, 0x04d2d722, 0xa2e2dae2, 0xf7a20610, 0x58d56afe, 0xbbd5719f, 0xee073738,
        0xbdd2d301, 0xf4ca7571,
    ];
    const PINNED_TRACES: [(usize, u32); 10] = [
        (908104, 0x51abb26b),
        (93530, 0x93e6a7cc),
        (120143, 0x9d2349f5),
        (472481, 0x1ce37a65),
        (910255, 0x24ef314e),
        (92965, 0x11c7a1cc),
        (120464, 0xe18e0bec),
        (473943, 0xb9a6a614),
        (358349, 0x7e98fcfd),
        (80723, 0x4350f9fd),
    ];
    const PINNED_UNIQUE: (usize, u64) = (14329, 17_895_192_856);

    /// The guide-table draw against the full binary search it replaces:
    /// `seeded` uniform `u`, every `cdf` value and cut `j / m` with their
    /// float neighbours, and both ends of `[0, 1)`.
    fn assert_draw_is_partition_point(lc: &LocationCatalog, seeded: &[f64]) {
        let slices = (lc.guide.len() - 2) as f64;
        let cuts = (0..lc.guide.len()).map(|j| j as f64 / slices);
        let mut us = seeded.to_vec();
        us.extend([0.0, 1.0f64.next_down(), 0.5, f64::MIN_POSITIVE]);
        for x in lc.cdf.iter().copied().chain(cuts) {
            us.extend([x, x.next_up(), x.next_down()]);
        }
        for u in us.into_iter().filter(|u| (0.0..1.0).contains(u)) {
            let want = lc.cdf.partition_point(|&c| c < u).min(lc.cdf.len() - 1);
            assert_eq!(lc.draw(u), want, "u = {u:e}, cdf of {}", lc.cdf.len());
        }
    }

    #[test]
    fn guide_table_draw_is_the_full_binary_search() {
        let mut rng = StdRng::seed_from_u64(0xD4A3);
        let seeded: Vec<f64> = (0..1_000_000).map(|_| rng.gen()).collect();
        for m in [small_model(), bench_model(0.5, 2.0)] {
            for lc in &m.per_location {
                assert_draw_is_partition_point(lc, &seeded);
            }
        }
        // Values on the cuts, repeated values, a last value either side of
        // 1.0, one object, and one head object over a long flat tail.
        let tail: Vec<f64> = (1..=1000).map(|i| 0.999 + f64::from(i) * 1e-6).collect();
        let shapes = [
            vec![0.25, 0.5, 0.75, 1.0],
            vec![0.2, 0.2, 0.2, 0.6, 0.6, 1.0],
            vec![0.1, 0.3, 1.0f64.next_down()],
            vec![0.5, 1.0f64.next_up()],
            vec![1.0],
            [0.999].into_iter().chain(tail).collect(),
        ];
        for cdf in shapes {
            let lc = LocationCatalog::new((0..cdf.len() as u32).collect(), cdf);
            assert_draw_is_partition_point(&lc, &seeded[..10_000]);
        }
    }

    /// `sort_by_time` over keys packed in generation order, decoded back to
    /// `(location, ms)`, against a stable sort by time.
    fn assert_key_sort_is_stable_sort(duration_ms: u64, generated: &[(u16, u64)]) {
        let layout = KeyLayout::for_duration(duration_ms);
        let keys = generated.iter().enumerate().map(|(i, &(_, ms))| layout.pack(ms, i)).collect();
        let got: Vec<(u16, u64)> = sort_by_time(keys, layout)
            .into_iter()
            .map(|k| {
                assert_eq!(layout.ms(k), generated[layout.index(k)].1);
                generated[layout.index(k)]
            })
            .collect();
        let mut want = generated.to_vec();
        want.sort_by_key(|&(_, ms)| ms);
        assert_eq!(got, want, "duration {duration_ms} ms");
    }

    #[test]
    fn key_sort_is_the_stable_sort_by_time() {
        const HOUR: u64 = 3_600_000;
        // All equal: the generation order survives untouched.
        let equal: Vec<(u16, u64)> = (0..5000).map(|i| ((i % 9) as u16, 1234)).collect();
        assert_key_sort_is_stable_sort(HOUR, &equal);
        // Descending: every key moves.
        let descending: Vec<(u16, u64)> = (0..5000).map(|i| (0, 4 * HOUR - 1 - 3 * i)).collect();
        assert_key_sort_is_stable_sort(4 * HOUR, &descending);
        // Location-major, hour-bucket-major, with ties across locations on
        // both sides of an hour edge.
        let mut edges = Vec::new();
        for loc in 0..9u16 {
            for ms in [HOUR - 1, HOUR, HOUR, 2 * HOUR - 1, 0, HOUR + 1, 2 * HOUR] {
                edges.push((loc, ms));
            }
        }
        assert_key_sort_is_stable_sort(2 * HOUR, &edges);
        // Times at the top bit of their share, for shares that split into
        // one, two and three digits, and a dense random mix.
        for duration in
            [1, 2047, 4095, 4096, (1 << 23) + 5, 4 * HOUR, 5 * 24 * HOUR, u64::MAX >> 20]
        {
            let top = 1u64 << (63 - duration.leading_zeros());
            let mut rng = StdRng::seed_from_u64(duration);
            let mixed: Vec<(u16, u64)> = (0..20_000)
                .map(|i| {
                    let ms = match i % 4 {
                        0 => duration,
                        1 => top,
                        2 => top - 1,
                        _ => rng.gen_range(0..=duration.min(1 << 20)) * (duration >> 20).max(1),
                    };
                    ((i / 2500) as u16, ms.min(duration))
                })
                .collect();
            assert_key_sort_is_stable_sort(duration, &mixed);
        }
    }

    #[test]
    fn key_index_overflows_at_exactly_its_share() {
        const DAY_MS: u64 = 24 * 3_600_000;
        // Five days of times leave 35 index bits, four hours 40.
        assert_eq!(KeyLayout::for_duration(5 * DAY_MS).idx_bits, 35);
        assert_eq!(KeyLayout::for_duration(4 * 3_600_000).idx_bits, 40);
        for duration in [5 * DAY_MS, 4 * 3_600_000, u64::MAX >> 3, 0] {
            let layout = KeyLayout::for_duration(duration);
            let share = 1usize << layout.idx_bits;
            let last = layout.pack(duration, share - 1);
            assert_eq!((layout.ms(last), layout.index(last)), (duration, share - 1));
            let overflow = std::panic::catch_unwind(|| layout.pack(duration, share));
            let message = overflow.expect_err("one past the share must panic");
            let message = message.downcast_ref::<String>().expect("formatted message");
            assert!(
                message.contains(&format!("request {share} "))
                    && message.contains(&format!("{}-bit", layout.idx_bits)),
                "{message}"
            );
        }
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
