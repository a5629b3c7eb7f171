//! Fig. 8: ground-to-satellite uplink usage, normalized to serving
//! everything from the ground (no cache = 100 %).
//!
//! Paper: LRU uses 30–35 % of the no-cache uplink; full StarCDN
//! (L = 9) uses just 20–25 %.

use spacegen::classes::TrafficClass;
use starcdn::variants::Variant;
use starcdn_bench::table::{pct, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload, FIG8_SIZES_GB};
use starcdn_bench::Args;

pub fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let (_, ws) = w.production.unique_objects();
    let runner = w.runner(a.seed);

    let variants = [
        Variant::NaiveLru,
        Variant::StarCdnNoHashing,
        Variant::StarCdnNoRelay { l: 9 },
        Variant::StarCdn { l: 9 },
    ];
    let mut rows = Vec::new();
    for &gb in FIG8_SIZES_GB.iter() {
        let cache = cache_bytes_for_gb(gb, ws);
        let mut row = vec![format!("{gb} GB")];
        for v in variants {
            let m = runner.run(v, cache);
            row.push(pct(m.uplink_fraction()));
        }
        rows.push(row);
    }
    let header: Vec<String> =
        std::iter::once("cache".to_string()).chain(variants.iter().map(|v| v.label())).collect();
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    print_table(
        "Fig. 8: uplink usage normalized to no-cache (paper: LRU 30-35%, StarCDN 20-25%)",
        &header_refs,
        &rows,
    );
}
