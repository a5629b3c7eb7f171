//! Ablation: transmission (serialization) delay on top of the paper's
//! idle-latency model — the first-order piece of §7's link-layer future
//! work.
//!
//! Multi-MB video objects take ~0.4 ms/MiB to clock onto the 20 Gbps
//! GSL, paid twice on a miss (feeder up + service down); web objects
//! barely notice. This entry shows how the Fig. 10 medians shift when
//! transmission delay is modelled.

use spacegen::classes::TrafficClass;
use starcdn::config::StarCdnConfig;
use starcdn::system::SpaceCdn;
use starcdn_bench::table::{ms, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::Args;
use starcdn_sim::engine::run_space;

pub(crate) fn run(a: Args) {
    for class in [TrafficClass::Video, TrafficClass::Web] {
        let w = Workload::build(class, a);
        let (_, ws) = w.production.unique_objects();
        let runner = w.runner(a.seed);
        let cache = cache_bytes_for_gb(50, ws);

        let mut rows = Vec::new();
        for (name, tx) in [("idle (paper)", false), ("with transmission delay", true)] {
            let mut cfg = StarCdnConfig::starcdn(4, cache);
            cfg.model_transmission_delay = tx;
            let mut cdn = SpaceCdn::new(cfg);
            let m = run_space(&mut cdn, &runner.log);
            let cdf = m.latency_cdf();
            rows.push(vec![
                name.to_string(),
                ms(cdf.quantile(0.50).unwrap_or(0.0)),
                ms(cdf.quantile(0.90).unwrap_or(0.0)),
                ms(cdf.quantile(0.99).unwrap_or(0.0)),
            ]);
        }
        print_table(
            &format!(
                "Ablation §7: serialization delay, {} class (StarCDN L=4, 50 GB)",
                class.name()
            ),
            &["model", "p50", "p90", "p99"],
            &rows,
        );
    }
}
