//! Ablation: eviction policies inside StarCDN's consistent hashing.
//!
//! §3.2: "our consistent hashing scheme accommodates any cache
//! replacement scheme within each server, including LRU, LFU, Sieve,
//! and others." This entry swaps the per-satellite policy and reruns
//! the same workload, also covering SLRU (the "LRU variant" family of
//! §2.2) and FIFO.

use spacegen::classes::TrafficClass;
use starcdn::config::StarCdnConfig;
use starcdn::system::SpaceCdn;
use starcdn_bench::table::{pct, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::Args;
use starcdn_cache::policy::PolicyKind;
use starcdn_sim::engine::run_space;

pub(crate) fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let (_, ws) = w.production.unique_objects();
    let runner = w.runner(a.seed);
    let cache = cache_bytes_for_gb(50, ws);

    let mut rows = Vec::new();
    for policy in PolicyKind::ALL {
        let mut row = vec![policy.name().to_string()];
        for (l, hashing) in [(4u32, true), (9, true), (4, false)] {
            let mut cfg = if hashing {
                StarCdnConfig::starcdn(l, cache)
            } else {
                StarCdnConfig::naive_lru(cache)
            };
            cfg.policy = policy;
            let mut cdn = SpaceCdn::new(cfg);
            let m = run_space(&mut cdn, &runner.log);
            row.push(pct(m.stats.request_hit_rate()));
        }
        rows.push(row);
    }
    print_table(
        "Ablation §3.2: eviction policy inside StarCDN (50 GB). The hashing layer works with any policy",
        &["policy", "StarCDN L=4", "StarCDN L=9", "naive (no hashing)"],
        &rows,
    );
}
