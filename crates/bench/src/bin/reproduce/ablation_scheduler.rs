//! Ablation: scheduler sensitivity — epoch length and per-location user
//! spreading.
//!
//! §5.1 fixes the epoch to Starlink's 15 s reconfiguration interval and
//! splits each location's requests across the visible satellites. This
//! entry varies both: longer epochs mean staler assignments; more
//! virtual users spread one city's traffic across more first-contact
//! satellites (amplifying the redundancy hashing removes).

use spacegen::classes::TrafficClass;
use starcdn::variants::Variant;
use starcdn_bench::table::{pct, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::Args;
use starcdn_sim::engine::SimConfig;
use starcdn_sim::experiment::Runner;
use starcdn_sim::world::World;

pub(crate) fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let (_, ws) = w.production.unique_objects();
    let cache = cache_bytes_for_gb(50, ws);

    // Epoch-length sweep.
    let mut rows = Vec::new();
    for epoch_secs in [15u64, 60, 300, 900] {
        let sim = SimConfig { epoch_secs, seed: a.seed, ..SimConfig::default() };
        let runner = Runner::new(World::starlink_nine_cities(), &w.production, sim);
        let star = runner.run(Variant::StarCdn { l: 4 }, cache);
        let lru = runner.run(Variant::NaiveLru, cache);
        rows.push(vec![
            format!("{epoch_secs}s"),
            pct(star.stats.request_hit_rate()),
            pct(lru.stats.request_hit_rate()),
        ]);
    }
    print_table(
        "Ablation: scheduler epoch length (50 GB) — Starlink reconfigures every 15 s",
        &["epoch", "StarCDN (L=4) RHR", "LRU RHR"],
        &rows,
    );

    // Users-per-location sweep.
    let mut rows = Vec::new();
    for users in [1usize, 4, 8, 16] {
        let sim = SimConfig { users_per_location: users, seed: a.seed, ..SimConfig::default() };
        let runner = Runner::new(World::starlink_nine_cities(), &w.production, sim);
        let star = runner.run(Variant::StarCdn { l: 4 }, cache);
        let lru = runner.run(Variant::NaiveLru, cache);
        rows.push(vec![
            users.to_string(),
            pct(star.stats.request_hit_rate()),
            pct(lru.stats.request_hit_rate()),
        ]);
    }
    print_table(
        "Ablation: virtual users per location (50 GB) — more users = more first-contact spread; hashing is insensitive, naive LRU suffers",
        &["users/location", "StarCDN (L=4) RHR", "LRU RHR"],
        &rows,
    );
}
