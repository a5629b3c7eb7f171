//! Ablation: mixed-class traffic.
//!
//! The paper evaluates video, web, and downloads separately (§5.2,
//! §5.5); a general-purpose CDN serves all three at once (§2.2), where
//! small hot web objects compete with multi-MB video segments for the
//! same satellite caches. This entry runs the merged workload and
//! breaks hit rates out per class.

use spacegen::classes::TrafficClass;
use spacegen::production::mixed_trace;
use spacegen::trace::Location;
use starcdn::config::StarCdnConfig;
use starcdn::system::SpaceCdn;
use starcdn_bench::table::{pct, print_table};
use starcdn_bench::Args;
use starcdn_cache::stats::CacheStats;
use starcdn_orbit::time::SimDuration;
use starcdn_sim::access_log::build_access_log;
use starcdn_sim::engine::SimConfig;
use starcdn_sim::world::World;

pub(crate) fn run(a: Args) {
    let locations = Location::akamai_nine();
    let classes: Vec<_> = TrafficClass::ALL
        .iter()
        .map(|c| {
            let mut p = c.params().scaled(a.scale.catalog_factor());
            p.base_rate_per_loc_hz = c.params().base_rate_per_loc_hz * a.scale.rate_factor();
            p
        })
        .collect();
    let (trace, _models) =
        mixed_trace(&classes, &locations, SimDuration::from_hours(a.scale.trace_hours()), a.seed);
    let (uniq, ws) = trace.unique_objects();
    eprintln!("mixed trace: {} requests over {} objects ({} bytes)", trace.len(), uniq, ws);

    let world = World::starlink_nine_cities();
    let sim = SimConfig { seed: a.seed, ..SimConfig::default() };
    let log = build_access_log(&world, &trace, sim.epoch_secs, &sim.scheduler());

    let cache = ws / 50; // 2% of the mixed working set per satellite
    let mut rows = Vec::new();
    for (name, cfg) in [
        ("StarCDN (L=9)", StarCdnConfig::starcdn(9, cache)),
        ("StarCDN (L=4)", StarCdnConfig::starcdn(4, cache)),
        ("LRU", StarCdnConfig::naive_lru(cache)),
    ] {
        let mut cdn = SpaceCdn::new(cfg);
        // Per-class stats: replay manually so each outcome can be binned.
        let mut per_class = [CacheStats::default(), CacheStats::default(), CacheStats::default()];
        for e in &log.entries {
            let Some(fc) = e.first_contact else {
                cdn.handle_unreachable(e.size);
                continue;
            };
            let out = cdn.handle_request(fc, e.object, e.size, e.gsl_oneway_ms);
            let class = (e.object.0 >> 60) as usize;
            let hit = if out.served_from.is_space_hit() {
                starcdn_cache::policy::AccessOutcome::Hit
            } else {
                starcdn_cache::policy::AccessOutcome::Miss
            };
            per_class[class.min(2)].record(hit, e.size);
        }
        rows.push(vec![
            name.to_string(),
            pct(cdn.metrics.stats.request_hit_rate()),
            pct(per_class[0].request_hit_rate()),
            pct(per_class[1].request_hit_rate()),
            pct(per_class[2].request_hit_rate()),
            pct(cdn.metrics.uplink_fraction()),
        ]);
    }
    print_table(
        "Ablation: mixed video+web+download workload sharing the satellite caches",
        &["system", "overall RHR", "video RHR", "web RHR", "download RHR", "uplink"],
        &rows,
    );
}
