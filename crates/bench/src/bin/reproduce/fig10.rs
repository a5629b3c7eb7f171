//! Fig. 10: end-to-end latency CDFs of StarCDN (L = 4 and L = 9),
//! StarCDN-Fetch, the Static Cache ideal, the terrestrial CDN reference,
//! and regular no-cache Starlink.
//!
//! Paper: StarCDN's median is 22 ms vs 55 ms for regular Starlink
//! (2.5× better), with a long tail from cache misses.

use spacegen::classes::TrafficClass;
use starcdn::variants::Variant;
use starcdn_bench::table::{ms, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::Args;

pub(crate) fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let (_, ws) = w.production.unique_objects();
    let runner = w.runner(a.seed);
    let cache = cache_bytes_for_gb(50, ws);

    for l in [4u32, 9] {
        let variants = [
            Variant::TerrestrialCdn,
            Variant::StaticCache,
            Variant::StarCdn { l },
            Variant::StarCdnNoRelay { l },
            Variant::NoCache,
        ];
        let quantiles = [0.10, 0.25, 0.50, 0.75, 0.90, 0.99];
        let mut rows = Vec::new();
        for v in variants {
            let m = runner.run(v, cache);
            let cdf = m.latency_cdf();
            let mut row = vec![v.label()];
            for &q in &quantiles {
                row.push(ms(cdf.quantile(q).unwrap_or(0.0)));
            }
            rows.push(row);
        }
        print_table(
            &format!(
                "Fig. 10 (L={l}): latency quantiles (paper: StarCDN median 22ms vs Starlink 55ms)"
            ),
            &["system", "p10", "p25", "p50", "p75", "p90", "p99"],
            &rows,
        );
    }
}
