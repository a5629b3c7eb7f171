//! Table 3: neighbour availability on cache misses (L = 4).
//!
//! On every miss at a bucket owner, StarCDN probes whether the object is
//! cached at the west / east same-bucket inter-orbit neighbours. The
//! paper reports that as the cache grows, more misses are rescued by the
//! *west* neighbour alone — the satellite that just flew the same track.

use spacegen::classes::TrafficClass;
use starcdn::variants::Variant;
use starcdn_bench::table::{bytes_h, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::Args;

pub(crate) fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let (_, ws) = w.production.unique_objects();
    let runner = w.runner(a.seed);

    let mut rows = Vec::new();
    for gb in [10u64, 50, 100] {
        let cache = cache_bytes_for_gb(gb, ws);
        let m = runner.run_with_probe(Variant::StarCdn { l: 4 }, cache);
        let n = m.neighbor_availability;
        rows.push(vec![
            format!("{gb} GB"),
            format!("{} / {}", n.west_only_requests, bytes_h(n.west_only_bytes)),
            format!("{} / {}", n.east_only_requests, bytes_h(n.east_only_bytes)),
            format!("{} / {}", n.both_requests, bytes_h(n.both_bytes)),
            format!("{} / {}", n.neither_requests, bytes_h(n.neither_bytes)),
            format!(
                "{:.1}%",
                100.0 * n.west_only_requests as f64
                    / (n.west_only_requests + n.east_only_requests + n.both_requests).max(1) as f64
            ),
        ]);
    }
    print_table(
        "Table 3: requests/bytes available in inter-orbit neighbours on a miss (L=4). Paper: west-only share grows with cache size (47.5→64.7% of rescued requests)",
        &["cache", "west only (req/bytes)", "east only", "both", "neither", "west-only share of available"],
        &rows,
    );
}
