//! One-call experiment runners used by the per-figure binaries and the
//! examples.

use crate::access_log::{build_access_log, AccessLog};
use crate::engine::{run, run_no_cache, run_static, run_terrestrial, RunSpec, SimConfig};
use crate::world::World;
use spacegen::trace::Trace;
use starcdn::baselines::{NoCacheBaseline, StaticCacheBaseline, TerrestrialCdnBaseline};
use starcdn::metrics::SystemMetrics;
use starcdn::system::SpaceCdn;
use starcdn::variants::Variant;

/// A prepared experiment: world + resolved access log, reusable across
/// variants and cache sizes so every curve sees identical inputs.
pub struct Runner {
    pub world: World,
    pub log: AccessLog,
    pub sim: SimConfig,
}

/// Satellites in a user's view forming the Static Cache ideal's regional
/// cluster: with no orbital motion, the 10+ satellites permanently
/// overhead a location (§3.1.2 measures 10+ visible, up to ~16 at
/// mid-latitudes) act like a terrestrial edge cluster — consistent-hashed
/// internally, so their capacity pools without redundancy. The baseline
/// gets `cache_bytes × STATIC_CLUSTER_SATS` per location.
pub(crate) const STATIC_CLUSTER_SATS: u64 = 16;

impl Runner {
    /// Resolve `trace` against `world` once.
    pub fn new(world: World, trace: &Trace, sim: SimConfig) -> Self {
        let log = build_access_log(&world, trace, sim.epoch_secs, &sim.scheduler());
        Runner { world, log, sim }
    }

    /// Run one system variant at one per-satellite cache capacity.
    pub fn run(&self, variant: Variant, cache_bytes: u64) -> SystemMetrics {
        match variant {
            Variant::StaticCache => {
                let mut b = StaticCacheBaseline::new(
                    self.world.num_locations(),
                    cache_bytes * STATIC_CLUSTER_SATS,
                    starcdn_cache::policy::PolicyKind::Lru,
                );
                run_static(&mut b, &self.log)
            }
            Variant::NoCache => {
                let mut b = NoCacheBaseline::new();
                run_no_cache(&mut b, &self.log)
            }
            Variant::TerrestrialCdn => {
                let mut b = TerrestrialCdnBaseline::new();
                run_terrestrial(&mut b, &self.log)
            }
            space => {
                let cfg = space.space_config(cache_bytes).expect("space variants provide a config");
                self.run_space(cfg)
            }
        }
    }

    /// Run one space variant with the Table-3 neighbour monitor enabled.
    pub fn run_with_probe(&self, variant: Variant, cache_bytes: u64) -> SystemMetrics {
        let mut cfg = variant.space_config(cache_bytes).expect("space variant");
        cfg.probe_neighbors_on_miss = true;
        self.run_space(cfg)
    }

    /// The engine under the world's static failures and fault schedule.
    fn run_space(&self, cfg: starcdn::config::StarCdnConfig) -> SystemMetrics {
        let mut cdn = SpaceCdn::with_failures(cfg, self.world.failures.clone());
        let spec = RunSpec { schedule: &self.world.schedule, ..RunSpec::default() };
        run(&mut cdn, &self.log, &spec).expect("a run without a checkpoint performs no I/O")
    }
}

/// One row of a hit-rate-curve sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    pub variant: Variant,
    pub cache_bytes: u64,
    pub metrics: SystemMetrics,
}

/// Sweep `variants × cache_sizes` over one prepared runner.
pub fn sweep(runner: &Runner, variants: &[Variant], cache_sizes: &[u64]) -> Vec<SweepPoint> {
    let mut out = Vec::with_capacity(variants.len() * cache_sizes.len());
    for &variant in variants {
        for &cache_bytes in cache_sizes {
            let metrics = runner.run(variant, cache_bytes);
            out.push(SweepPoint { variant, cache_bytes, metrics });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacegen::classes::TrafficClass;
    use spacegen::production::ProductionModel;
    use spacegen::trace::Location;
    use starcdn_orbit::time::SimDuration;

    fn runner() -> Runner {
        let params = TrafficClass::Video.params().scaled(0.02);
        let locs = Location::akamai_nine();
        let model = ProductionModel::build(params, &locs, 5);
        let trace = model.generate_trace(SimDuration::from_mins(90), 5);
        Runner::new(World::starlink_nine_cities(), &trace, SimConfig::default())
    }

    #[test]
    fn all_variants_run() {
        let r = runner();
        let n = r.log.len() as u64;
        assert!(n > 1000, "trace too small: {n}");
        for v in [
            Variant::StaticCache,
            Variant::StarCdn { l: 4 },
            Variant::StarCdnNoRelay { l: 4 },
            Variant::StarCdnNoHashing,
            Variant::NaiveLru,
            Variant::NoCache,
            Variant::TerrestrialCdn,
        ] {
            let m = r.run(v, 50_000_000);
            assert_eq!(m.stats.requests, n, "{}", v.label());
        }
    }

    #[test]
    fn sweep_covers_grid() {
        let r = runner();
        let pts =
            sweep(&r, &[Variant::NaiveLru, Variant::StarCdn { l: 4 }], &[10_000_000, 50_000_000]);
        assert_eq!(pts.len(), 4);
        // Bigger cache never hurts LRU hit rate materially.
        let small = &pts[0];
        let big = &pts[1];
        assert!(
            big.metrics.stats.request_hit_rate() >= small.metrics.stats.request_hit_rate() - 0.02
        );
    }

    #[test]
    fn probe_monitor_counts_misses() {
        let r = runner();
        let m = r.run_with_probe(Variant::StarCdn { l: 4 }, 10_000_000);
        // The monitor fires on every *owner-local* miss — i.e. ground
        // fetches plus the misses that relay then rescued.
        let local_misses = m.served_ground + m.served_relay_west + m.served_relay_east;
        let n = &m.neighbor_availability;
        let probed =
            n.west_only_requests + n.east_only_requests + n.both_requests + n.neither_requests;
        assert_eq!(probed, local_misses);
    }
}
