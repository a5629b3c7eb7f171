//! Ablation: relay direction (§3.3's west/east discussion).
//!
//! The paper keeps relay links bidirectional because the east probe
//! costs no extra latency, while noting the west neighbour — which just
//! flew this ground track — is the profitable direction (Table 3).
//! This entry separates the two contributions.

use spacegen::classes::TrafficClass;
use starcdn::config::{RelayPolicy, StarCdnConfig};
use starcdn::system::SpaceCdn;
use starcdn_bench::table::{pct, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::Args;
use starcdn_sim::engine::run_space;

pub(crate) fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let (_, ws) = w.production.unique_objects();
    let runner = w.runner(a.seed);

    for l in [4u32, 9] {
        let mut rows = Vec::new();
        for gb in [10u64, 50] {
            let cache = cache_bytes_for_gb(gb, ws);
            let mut row = vec![format!("{gb} GB")];
            for relay in
                [RelayPolicy::None, RelayPolicy::WestOnly, RelayPolicy::EastOnly, RelayPolicy::Both]
            {
                let mut cfg = StarCdnConfig::starcdn(l, cache);
                cfg.relay = relay;
                let mut cdn = SpaceCdn::new(cfg);
                let m = run_space(&mut cdn, &runner.log);
                row.push(format!(
                    "{} (W{} E{})",
                    pct(m.stats.request_hit_rate()),
                    m.served_relay_west,
                    m.served_relay_east
                ));
            }
            rows.push(row);
        }
        print_table(
            &format!("Ablation §3.3: relay direction, L={l} — RHR (west hits, east hits)"),
            &["cache", "no relay", "west only", "east only", "both"],
            &rows,
        );
    }
}
