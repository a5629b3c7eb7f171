//! Algorithm 1: correlated synthetic trace generation.
//!
//! Faithful implementation of the paper's Appendix A.1 algorithm:
//!
//! * **Phase 1 (initialization)** — sample objects from the GPD; every
//!   object with popularity `pᵢ > 0` at location `i` enters that
//!   location's generation stack, until each stack is at least as deep
//!   (in bytes) as the largest finite stack distance of its pFD.
//! * **Phase 2 (generation)** — per location, pop the top object, emit a
//!   request for it, and either retire it (quota of `pᵢ` requests
//!   reached — a replacement is sampled from the GPD) or reinsert it at
//!   a byte stack distance sampled from `Pᵢ(d | p, s)`. Locations
//!   advance in proportion to their production request rates.
//! * Timestamps are assigned from each location's average request rate.

use crate::fd::FootprintDescriptor;
use crate::gpd::GlobalPopularity;
use crate::stack::{CacheStack, StackEntry};
use crate::trace::{LocationId, Request, Trace};
use rand::prelude::*;
use starcdn_cache::object::ObjectId;
use starcdn_orbit::time::SimTime;
use std::collections::HashMap;

/// How synthetic requests are timestamped (§4.2: "based on either the
/// average data rate derived from the pFD or a more fine-grained data
/// rate computed from the real traces").
#[derive(Debug, Clone, Default)]
pub enum TimestampMode {
    /// Request `k` at location `i` fires at `k / rateᵢ` seconds.
    #[default]
    AverageRate,
    /// Reuse the production trace's per-location timestamp sequences, so
    /// diurnal bursts (and hence temporal cache locality) carry over.
    /// Requests beyond the production length extrapolate at the mean gap.
    FineGrained(Vec<Vec<SimTime>>),
}

/// Configuration for one generation run.
#[derive(Debug, Clone, Default)]
pub struct GeneratorConfig {
    /// Target number of requests for the *fastest* location; slower
    /// locations get proportionally fewer, preserving relative rates.
    pub requests_at_fastest: usize,
    /// Warm-up requests (at the fastest location) generated and
    /// *discarded* before the kept window begins.
    ///
    /// Popular objects have lifetimes (quota × mean gap) comparable to a
    /// whole day-length trace, so an object sampled mid-run cannot finish
    /// its quota; without a warm-up the emitted-gap mixture skews toward
    /// large gaps (measured: realized median gap 2× the pFD's) and the
    /// unique-object count inflates. One window of warm-up starts the
    /// kept window in the stationary regime, like the production window
    /// it mimics. Set it ≈ `requests_at_fastest`.
    pub warmup_at_fastest: usize,
    /// RNG seed.
    pub seed: u64,
    /// Timestamp assignment mode (applies to the kept window).
    pub timestamps: TimestampMode,
}

struct GenState<'a> {
    gpd: &'a GlobalPopularity,
    stacks: Vec<CacheStack>,
    /// Total (target) popularity per synthetic object per location —
    /// `P(d | p, s)` conditions on the *total* popularity.
    totals: HashMap<(ObjectId, u16), u32>,
    next_object: u64,
}

impl<'a> GenState<'a> {
    /// Sample one GPD record and enqueue it at every location where its
    /// popularity is positive (Algorithm 1 lines 9–14 / 25).
    fn sample_new_object(&mut self, rng: &mut StdRng) {
        let rec = self.gpd.sample(rng).clone();
        let id = ObjectId(self.next_object);
        self.next_object += 1;
        for (i, &p) in rec.popularity.iter().enumerate() {
            if p > 0 {
                self.stacks[i].push_back(StackEntry { object: id, popularity: p, size: rec.size });
                self.totals.insert((id, i as u16), p);
            }
        }
    }
}

/// Run Algorithm 1. `pfds[i]` must correspond to location `i` of the GPD.
///
/// Returns the merged multi-location synthetic trace (objects live in a
/// fresh id namespace, disjoint from the production trace's).
pub fn generate(
    gpd: &GlobalPopularity,
    pfds: &[FootprintDescriptor],
    cfg: &GeneratorConfig,
) -> Trace {
    assert_eq!(pfds.len(), gpd.num_locations, "one pFD per GPD location required");
    if gpd.is_empty() || pfds.is_empty() {
        return Trace::default();
    }
    let n = pfds.len();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x000a_1601);

    let mut state = GenState {
        gpd,
        stacks: (0..n).map(|_| CacheStack::new()).collect(),
        totals: HashMap::new(),
        next_object: 0,
    };

    // Phase 1: fill stacks deep enough to realize (nearly) every reuse
    // distance. The p99 of the pooled distances is used rather than the
    // absolute maximum: on day-length traces the maximum is a lone
    // outlier close to the full working-set size, and filling to it
    // strands far more partially-consumed objects than the production
    // trace contains (inflating the unique-object count and diluting
    // popularity — measured +69 % objects before this correction).
    //
    // A location whose GPD column is all zero (one the production trace
    // never saw) can never receive an object: it is left out of the fill
    // and generates no requests.
    let live: Vec<bool> = (0..n).map(|i| gpd.records.iter().any(|r| r.popularity[i] > 0)).collect();
    let fill_target: Vec<u64> =
        pfds.iter().map(|fd| fd.stack_distance_quantile(0.99).max(1)).collect();
    let max_fill_iters = 200 * gpd.len().max(1024);
    let mut iters = 0usize;
    while (0..n).any(|i| live[i] && state.stacks[i].total_bytes() < fill_target[i]) {
        state.sample_new_object(&mut rng);
        iters += 1;
        if iters > max_fill_iters {
            // A location whose GPD share is tiny may fill very slowly;
            // proceed once everyone has at least something queued.
            if (0..n).all(|i| !live[i] || !state.stacks[i].is_empty()) {
                break;
            }
        }
    }

    // Phase 2: generation, rate-proportional interleaving.
    let rates: Vec<f64> = pfds
        .iter()
        .zip(&live)
        .map(|(fd, &l)| if l { fd.req_rate_hz.max(0.0) } else { 0.0 })
        .collect();
    let max_rate = rates.iter().cloned().fold(0.0f64, f64::max);
    if max_rate <= 0.0 {
        return Trace::default();
    }
    let keep_targets: Vec<usize> = rates
        .iter()
        .map(|r| ((r / max_rate) * cfg.requests_at_fastest as f64).round() as usize)
        .collect();
    let warmups: Vec<usize> = rates
        .iter()
        .map(|r| ((r / max_rate) * cfg.warmup_at_fastest as f64).round() as usize)
        .collect();
    let targets: Vec<usize> = keep_targets.iter().zip(&warmups).map(|(k, w)| k + w).collect();

    let mut requests = Vec::with_capacity(keep_targets.iter().sum());
    let mut emitted = vec![0usize; n];
    let mut counters = vec![0.0f64; n];

    while emitted.iter().zip(&targets).any(|(&e, &t)| e < t) {
        for i in 0..n {
            if emitted[i] >= targets[i] || rates[i] <= 0.0 {
                continue;
            }
            counters[i] += rates[i] / max_rate;
            while counters[i] >= 1.0 && emitted[i] < targets[i] {
                counters[i] -= 1.0;
                emit_one(
                    &mut state,
                    pfds,
                    i,
                    &rates,
                    &cfg.timestamps,
                    &fill_target,
                    &warmups,
                    &mut emitted,
                    &mut requests,
                    &mut rng,
                );
            }
        }
    }

    Trace::new(requests)
}

#[allow(clippy::too_many_arguments)]
fn emit_one(
    state: &mut GenState<'_>,
    pfds: &[FootprintDescriptor],
    i: usize,
    rates: &[f64],
    timestamps: &TimestampMode,
    fill_target: &[u64],
    warmups: &[usize],
    emitted: &mut [usize],
    requests: &mut Vec<Request>,
    rng: &mut StdRng,
) {
    // Keep the stack non-empty (can drain when targets exceed fill).
    let mut guard = 0;
    while state.stacks[i].is_empty() {
        state.sample_new_object(rng);
        guard += 1;
        if guard > 10_000 {
            return; // GPD never assigns popularity here; give up quietly
        }
    }
    let mut entry = state.stacks[i].pop_front().expect("non-empty stack");

    let warm = emitted[i] < warmups[i];
    emitted[i] += 1;
    if !warm {
        // Index within the kept window.
        let k = emitted[i] - 1 - warmups[i];
        let time = match timestamps {
            TimestampMode::AverageRate => {
                SimTime::from_millis((k as f64 / rates[i] * 1000.0) as u64)
            }
            TimestampMode::FineGrained(per_loc) => {
                let ts = &per_loc[i];
                if ts.is_empty() {
                    SimTime::from_millis((k as f64 / rates[i] * 1000.0) as u64)
                } else if k < ts.len() {
                    ts[k]
                } else {
                    // Extrapolate past the production trace at its mean gap.
                    let span = ts.last().unwrap().as_millis().max(1);
                    let mean_gap = span / ts.len() as u64;
                    SimTime::from_millis(
                        ts.last().unwrap().as_millis() + mean_gap * (k - ts.len() + 1) as u64,
                    )
                }
            }
        };
        requests.push(Request {
            time,
            object: entry.object,
            size: entry.size,
            location: LocationId(i as u16),
        });
    }

    entry.popularity -= 1;
    if entry.popularity == 0 {
        // Quota reached: retire and replenish "like the initialization
        // phase" (Algorithm 1 line 25) — i.e. refill the drained stack
        // back to its fill threshold. Refilling exactly on every
        // retirement would oversample: a retirement is per (object,
        // location) while each sampled object lands in every location
        // with positive popularity, multiplying the object population by
        // the mean spread (measured: +69 % unique objects).
        state.totals.remove(&(entry.object, i as u16));
        while state.stacks[i].total_bytes() < fill_target[i] {
            state.sample_new_object(rng);
        }
    } else {
        let total =
            state.totals.get(&(entry.object, i as u16)).copied().unwrap_or(entry.popularity + 1);
        let d = pfds[i].sample_distance(total, entry.size, rng);
        state.stacks[i].insert_at_bytes(d, entry);
    }
}

/// Convenience pipeline: extract pFDs + GPD from a production trace and
/// generate a synthetic trace with `requests_at_fastest` requests at the
/// busiest location.
pub fn generate_from_production(
    production: &Trace,
    num_locations: usize,
    requests_at_fastest: usize,
    seed: u64,
) -> Trace {
    let per_loc = production.split_by_location(num_locations);
    let pfds: Vec<FootprintDescriptor> = per_loc
        .iter()
        .enumerate()
        .map(|(i, t)| FootprintDescriptor::from_trace(t, seed ^ (i as u64) << 32))
        .collect();
    // Fine-grained timestamps: carry the production trace's per-location
    // arrival sequences over to the synthetic trace, preserving diurnal
    // burst structure (and hence temporal cache locality).
    let timestamps: Vec<Vec<_>> =
        per_loc.iter().map(|t| t.requests.iter().map(|r| r.time).collect()).collect();
    let gpd = GlobalPopularity::from_trace(production, num_locations);
    generate(
        &gpd,
        &pfds,
        &GeneratorConfig {
            requests_at_fastest,
            warmup_at_fastest: requests_at_fastest,
            seed,
            timestamps: TimestampMode::FineGrained(timestamps),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::TrafficClass;
    use crate::production::ProductionModel;
    use crate::trace::Location;
    use starcdn_orbit::time::SimDuration;

    fn production_trace() -> (Trace, usize) {
        let params = TrafficClass::Video.params().scaled(0.02); // 1200 objects
        let locs = Location::akamai_nine();
        let model = ProductionModel::build(params, &locs, 11);
        (model.generate_trace(SimDuration::from_hours(6), 3), locs.len())
    }

    #[test]
    fn empty_inputs_empty_trace() {
        let gpd = GlobalPopularity { num_locations: 2, records: vec![] };
        let pfds = vec![
            FootprintDescriptor::from_trace(&Trace::default(), 0),
            FootprintDescriptor::from_trace(&Trace::default(), 1),
        ];
        let out = generate(&gpd, &pfds, &GeneratorConfig::default());
        assert!(out.is_empty());
    }

    #[test]
    fn generates_requested_volume() {
        let (prod, n) = production_trace();
        let synth = generate_from_production(&prod, n, 5_000, 3);
        assert!(!synth.is_empty());
        let by_loc = synth.split_by_location(n);
        let max_len = by_loc.iter().map(|t| t.len()).max().unwrap();
        assert!(
            (4_500..=5_500).contains(&max_len),
            "fastest location generated {max_len} (target 5000)"
        );
    }

    #[test]
    fn rates_proportional_to_production() {
        let (prod, n) = production_trace();
        let synth = generate_from_production(&prod, n, 5_000, 3);
        let prod_loc = prod.split_by_location(n);
        let synth_loc = synth.split_by_location(n);
        let prod_max = prod_loc.iter().map(|t| t.len()).max().unwrap() as f64;
        let synth_max = synth_loc.iter().map(|t| t.len()).max().unwrap() as f64;
        for i in 0..n {
            let p = prod_loc[i].len() as f64 / prod_max;
            let s = synth_loc[i].len() as f64 / synth_max;
            assert!(
                (p - s).abs() < 0.1,
                "location {i}: production share {p:.2} vs synthetic {s:.2}"
            );
        }
    }

    #[test]
    fn timestamps_monotone_per_location_and_rate_preserved() {
        let (prod, n) = production_trace();
        let synth = generate_from_production(&prod, n, 3_000, 5);
        for (i, t) in synth.split_by_location(n).iter().enumerate() {
            for w in t.requests.windows(2) {
                assert!(w[0].time <= w[1].time, "location {i} times not monotone");
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let (prod, n) = production_trace();
        let a = generate_from_production(&prod, n, 2_000, 9);
        let b = generate_from_production(&prod, n, 2_000, 9);
        assert_eq!(a, b);
        let c = generate_from_production(&prod, n, 2_000, 10);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn objects_respect_popularity_quota() {
        let (prod, n) = production_trace();
        let synth = generate_from_production(&prod, n, 4_000, 7);
        // No synthetic object should wildly exceed the maximum production
        // per-location popularity (quota is enforced per object).
        let max_prod_pop = {
            let gpd = GlobalPopularity::from_trace(&prod, n);
            gpd.records.iter().flat_map(|r| r.popularity.iter().copied()).max().unwrap() as usize
        };
        let mut counts: HashMap<(ObjectId, LocationId), usize> = HashMap::new();
        for r in &synth.requests {
            *counts.entry((r.object, r.location)).or_default() += 1;
        }
        let max_synth_pop = counts.values().copied().max().unwrap();
        assert!(
            max_synth_pop <= max_prod_pop,
            "synthetic popularity {max_synth_pop} exceeds production max {max_prod_pop}"
        );
    }

    #[test]
    fn synthetic_objects_are_shared_across_locations() {
        // The GPD's cross-location correlation must survive generation.
        let (prod, n) = production_trace();
        let synth = generate_from_production(&prod, n, 5_000, 3);
        let gpd_synth = GlobalPopularity::from_trace(&synth, n);
        let gpd_prod = GlobalPopularity::from_trace(&prod, n);
        let fs = gpd_synth.shared_fraction();
        let fp = gpd_prod.shared_fraction();
        assert!((fs - fp).abs() < 0.25, "shared fraction: synthetic {fs:.2} vs production {fp:.2}");
    }
}
