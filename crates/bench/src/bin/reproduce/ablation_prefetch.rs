//! Ablation: relayed fetch vs proactive prefetch (§3.3's "Why not
//! proactive prefetching?").
//!
//! The paper rejected prefetching after finding it *less efficient than
//! relayed fetch in terms of hit rate*, with wasted cache space, power
//! and ISL bandwidth for content that is never requested. This entry
//! quantifies that trade-off: hit rate, uplink usage, and ISL copy
//! traffic (relayed bytes move exactly one requested object; prefetch
//! bytes move speculative top-k sets every epoch).

use spacegen::classes::TrafficClass;
use starcdn::variants::Variant;
use starcdn_bench::table::{bytes_h, pct, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::Args;

pub fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let (_, ws) = w.production.unique_objects();
    let runner = w.runner(a.seed);
    let cache = cache_bytes_for_gb(50, ws);

    let variants = [
        Variant::StarCdnNoRelay { l: 4 },
        Variant::StarCdnPrefetch { l: 4, k: 8 },
        Variant::StarCdnPrefetch { l: 4, k: 32 },
        Variant::StarCdnPrefetch { l: 4, k: 128 },
        Variant::StarCdn { l: 4 },
    ];
    let mut rows = Vec::new();
    for v in variants {
        let m = runner.run(v, cache);
        let useful = m.stats.bytes_hit;
        let isl_overhead = m.relay_bytes + m.prefetch_bytes;
        rows.push(vec![
            v.label(),
            pct(m.stats.request_hit_rate()),
            pct(m.uplink_fraction()),
            bytes_h(m.relay_bytes),
            bytes_h(m.prefetch_bytes),
            format!("{:.3}", isl_overhead as f64 / useful.max(1) as f64),
        ]);
    }
    print_table(
        "Ablation §3.3: relayed fetch vs proactive prefetch (50 GB, L=4). Paper: prefetch was less efficient in hit rate and wastes cache/ISL on unused content",
        &["system", "RHR", "uplink", "relay ISL bytes", "prefetch ISL bytes", "ISL overhead / useful byte"],
        &rows,
    );
}
