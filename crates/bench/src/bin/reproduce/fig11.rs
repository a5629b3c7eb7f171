//! Fig. 11: fault tolerance — hit rate of satellites grouped by how many
//! hash buckets they serve after failure remapping.
//!
//! Setup mirrors §5.4: L = 9, 50 GB caches, 126 of 1296 satellites out
//! of slot (the paper's observed outage rate). Paper: serving more
//! bucket IDs costs up to 7 pts RHR / 5 pts BHR, yet StarCDN still
//! saves 74 % of uplink bandwidth.

use spacegen::classes::TrafficClass;
use starcdn::variants::Variant;
use starcdn_bench::table::{pct, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::Args;
use starcdn_cache::stats::CacheStats;
use starcdn_constellation::buckets::BucketTiling;
use starcdn_constellation::failures::FailureModel;
use starcdn_sim::experiment::Runner;
use starcdn_sim::world::World;
use std::collections::HashMap;

pub(crate) fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let (_, ws) = w.production.unique_objects();
    let cache = cache_bytes_for_gb(50, ws);

    let world = World::starlink_nine_cities();
    let failures = FailureModel::sample(&world.grid, 126, a.seed);
    let broken = failures.broken_isl_count(&world.grid);
    println!(
        "\noutage: {} / 1296 satellites out of slot ({:.1}%), {} broken ISLs (paper: 126 → 438)",
        failures.dead_count(),
        failures.dead_count() as f64 / 12.96,
        broken
    );

    let tiling = BucketTiling::new(9).unwrap();
    let served = failures.buckets_served(&world.grid, &tiling);
    let buckets_of: HashMap<_, _> = served.iter().map(|(id, b)| (*id, b.len())).collect();

    let world = World::starlink_nine_cities().with_failures(failures);
    let sim = starcdn_sim::engine::SimConfig { seed: a.seed, ..Default::default() };
    let runner = Runner::new(world, &w.production, sim);
    let m = runner.run(Variant::StarCdn { l: 9 }, cache);

    // Group per-satellite stats by bucket count.
    let mut groups: HashMap<usize, CacheStats> = HashMap::new();
    for (sat, stats) in &m.per_satellite {
        let Some(&k) = buckets_of.get(sat) else { continue };
        let e = groups.entry(k).or_default();
        *e += *stats;
    }
    let mut keys: Vec<usize> = groups.keys().copied().collect();
    keys.sort();
    let rows: Vec<Vec<String>> = keys
        .iter()
        .map(|k| {
            let s = groups[k];
            vec![
                k.to_string(),
                s.requests.to_string(),
                pct(s.request_hit_rate()),
                pct(s.byte_hit_rate()),
            ]
        })
        .collect();
    print_table(
        "Fig. 11: hit rate by number of hash buckets served (paper: up to -7 pts RHR / -5 pts BHR with more buckets)",
        &["buckets served", "requests", "RHR", "BHR"],
        &rows,
    );
    println!("overall uplink saved vs no cache: {} (paper: 74%)", pct(1.0 - m.uplink_fraction()));
}
