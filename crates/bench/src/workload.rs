//! Workload construction shared by the `reproduce` entries.

use crate::args::Args;
use spacegen::classes::TrafficClass;
use spacegen::generator::generate_from_production;
use spacegen::production::ProductionModel;
use spacegen::trace::{Location, Trace};
use starcdn_orbit::time::SimDuration;
use starcdn_sim::engine::SimConfig;
use starcdn_sim::experiment::Runner;
use starcdn_sim::world::World;

/// A fully-built workload: the production-like trace, its SpaceGEN
/// synthetic counterpart (when requested), and the world.
pub struct Workload {
    pub class: TrafficClass,
    pub locations: Vec<Location>,
    pub production: Trace,
    pub model: ProductionModel,
}

impl Workload {
    /// Build the production workload for a traffic class at a scale.
    pub fn build(class: TrafficClass, args: Args) -> Workload {
        let locations = Location::akamai_nine();
        let mut params = class.params().scaled(args.scale.catalog_factor());
        // Restore the request rate independently of the catalog scale
        // (see `Scale::rate_factor`).
        params.base_rate_per_loc_hz =
            class.params().base_rate_per_loc_hz * args.scale.rate_factor();
        let model = ProductionModel::build(params, &locations, args.seed);
        let production =
            model.generate_trace(SimDuration::from_hours(args.scale.trace_hours()), args.seed);
        Workload { class, locations, production, model }
    }

    /// The SpaceGEN synthetic trace matched to this production trace
    /// (same fastest-location request count).
    pub fn synthetic(&self, seed: u64) -> Trace {
        let n = self.locations.len();
        let fastest =
            self.production.split_by_location(n).iter().map(|t| t.len()).max().unwrap_or(0);
        generate_from_production(&self.production, n, fastest, seed)
    }

    /// A runner over this workload's production trace.
    pub fn runner(&self, seed: u64) -> Runner {
        let sim = SimConfig { seed, ..SimConfig::default() };
        Runner::new(World::starlink_nine_cities(), &self.production, sim)
    }

    /// A runner over an arbitrary trace against the same world.
    pub fn runner_for(&self, trace: &Trace, seed: u64) -> Runner {
        let sim = SimConfig { seed, ..SimConfig::default() };
        Runner::new(World::starlink_nine_cities(), trace, sim)
    }
}

/// Map the paper's "GB" cache-size labels to simulated bytes.
///
/// The paper sweeps 10–100 GB satellite caches against a 24 TB video
/// working set (1 % trace sampling). We preserve the *ratio* sweep:
/// 100 "GB" maps to `RATIO_AT_100GB` of the workload's unique bytes,
/// and other labels scale linearly — so "50 GB" exercises the same
/// cache-pressure regime as the paper's 50 GB. The value is calibrated
/// (see `reproduce calibrate` and EXPERIMENTS.md) so the Naive-LRU baseline
/// lands near the paper's ~60 % request hit rate at the 50 GB label.
pub(crate) const RATIO_AT_100GB: f64 = 0.04;

/// Bytes for a "GB"-labelled cache against a given working set.
pub fn cache_bytes_for_gb(label_gb: u64, working_set_bytes: u64) -> u64 {
    ((label_gb as f64 / 100.0) * RATIO_AT_100GB * working_set_bytes as f64).max(1.0) as u64
}

/// The paper's Fig. 7 cache-size grid, GB labels.
pub const FIG7_SIZES_GB: [u64; 5] = [10, 25, 50, 75, 100];

/// The paper's Fig. 8 sweep, GB labels.
pub const FIG8_SIZES_GB: [u64; 10] = [10, 20, 30, 40, 50, 60, 70, 80, 90, 100];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Scale;

    fn smoke_args() -> Args {
        Args { scale: Scale::Smoke, seed: 1 }
    }

    #[test]
    fn build_video_smoke() {
        let w = Workload::build(TrafficClass::Video, smoke_args());
        assert!(!w.production.is_empty());
        let (uniq, bytes) = w.production.unique_objects();
        assert!(uniq > 100, "unique objects {uniq}");
        assert!(bytes > 0);
    }

    #[test]
    fn synthetic_matches_volume() {
        let w = Workload::build(TrafficClass::Video, smoke_args());
        let synth = w.synthetic(2);
        assert!(!synth.is_empty());
        let ratio = synth.len() as f64 / w.production.len() as f64;
        assert!((0.5..2.0).contains(&ratio), "volume ratio {ratio}");
    }

    #[test]
    fn cache_mapping_linear() {
        let ws = 1_000_000_000u64;
        assert_eq!(cache_bytes_for_gb(100, ws), (RATIO_AT_100GB * ws as f64) as u64);
        assert_eq!(cache_bytes_for_gb(50, ws), (0.5 * RATIO_AT_100GB * ws as f64) as u64);
        assert!(cache_bytes_for_gb(10, ws) < cache_bytes_for_gb(100, ws));
        assert!(cache_bytes_for_gb(0, ws) >= 1);
    }
}
