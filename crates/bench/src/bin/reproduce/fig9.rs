//! Fig. 9: worst-case consistent-hashing routing latency (round trip)
//! and request hit rate as functions of the bucket count L.
//!
//! Paper: both latency and hit rate grow with L; the L = 9 routing
//! bound equals L = 4's (2⌊√L/2⌋ hops), and beyond L = 9 the worst-case
//! overhead becomes unaffordable (~40 ms) for ~5 % extra hit rate.

use spacegen::classes::TrafficClass;
use starcdn::latency::LatencyModel;
use starcdn::variants::Variant;
use starcdn_bench::table::{ms, pct, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::Args;
use starcdn_constellation::analysis::bucket_routing_distribution;
use starcdn_constellation::buckets::BucketTiling;
use starcdn_constellation::grid::GridTopology;

pub fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let (_, ws) = w.production.unique_objects();
    let runner = w.runner(a.seed);
    let cache = cache_bytes_for_gb(10, ws); // the paper uses a 10 GB cache here
    let model = LatencyModel::default();

    let grid = GridTopology::starlink();
    let mut rows = Vec::new();
    for l in [1u32, 4, 9, 16, 25] {
        let t = BucketTiling::new(l).expect("perfect square");
        // Worst case per axis: ⌊√L/2⌋ intra-orbit and ⌊√L/2⌋ inter-orbit
        // hops, round trip.
        let per_axis = t.worst_case_hops_per_axis();
        let worst_rtt = 2.0 * model.route_oneway_ms(per_axis, per_axis);
        let mean_hops = bucket_routing_distribution(&grid, &t).mean();
        let m = if l == 1 {
            runner.run(Variant::StarCdnNoHashing, cache)
        } else {
            runner.run(Variant::StarCdn { l }, cache)
        };
        rows.push(vec![
            l.to_string(),
            format!("{}", t.worst_case_hops()),
            ms(worst_rtt),
            format!("{mean_hops:.2}"),
            pct(m.stats.request_hit_rate()),
        ]);
    }
    print_table(
        "Fig. 9: worst-case routing latency and RHR vs L (paper: L=4 and L=9 share the 2-hop bound; ≥16 costs ~40 ms)",
        &["L", "worst-case hops", "worst-case RTT", "mean hops", "request hit rate (10 GB)"],
        &rows,
    );
}
