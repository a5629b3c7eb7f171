//! Ablation: §3.4's two failure responses — transient (miss to ground)
//! vs long-term (consistent-hash remap to the next available satellite)
//! — across outage sizes.

use spacegen::classes::TrafficClass;
use starcdn::config::StarCdnConfig;
use starcdn::system::SpaceCdn;
use starcdn_bench::table::{pct, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::Args;
use starcdn_constellation::failures::FailureModel;
use starcdn_sim::engine::run_space;

pub(crate) fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let (_, ws) = w.production.unique_objects();
    let runner = w.runner(a.seed);
    let cache = cache_bytes_for_gb(50, ws);
    let grid = runner.world.grid.clone();

    let mut rows = Vec::new();
    for dead in [0usize, 63, 126, 252, 432] {
        let failures = FailureModel::sample(&grid, dead, a.seed ^ 0xfa11);
        let mut row = vec![format!("{dead} ({:.1}%)", dead as f64 / 12.96)];
        for remap in [true, false] {
            let mut cfg = StarCdnConfig::starcdn(9, cache);
            cfg.remap_on_failure = remap;
            let mut cdn = SpaceCdn::with_failures(cfg, failures.clone());
            let m = run_space(&mut cdn, &runner.log);
            row.push(format!(
                "{} / uplink {}",
                pct(m.stats.request_hit_rate()),
                pct(m.uplink_fraction())
            ));
        }
        rows.push(row);
    }
    print_table(
        "Ablation §3.4: failure response vs outage size (L=9, 50 GB). Remap preserves hit rate; the transient response leaks every dead-owner request to ground",
        &["dead satellites", "remap (long-term response)", "ground fallback (transient response)"],
        &rows,
    );
}
