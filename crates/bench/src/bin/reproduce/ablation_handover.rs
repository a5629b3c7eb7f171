//! Ablation: disconnections during object transfer (§7 future work).
//!
//! Each request becomes a transfer at the user's service-link rate;
//! scheduler handovers mid-transfer interrupt it. The resume path is
//! where StarCDN pays off: the content is still in space (the new first
//! contact routes to the same bucket owner), vs a full bent-pipe
//! restart without a space cache.

use spacegen::classes::TrafficClass;
use starcdn_bench::table::{pct, print_table};
use starcdn_bench::workload::Workload;
use starcdn_bench::Args;
use starcdn_sim::engine::SimConfig;
use starcdn_sim::transfers::{simulate_transfers, TransferConfig};
use starcdn_sim::world::World;

pub fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let world = World::starlink_nine_cities();
    let sim = SimConfig { seed: a.seed, ..SimConfig::default() };
    let log = starcdn_sim::access_log::build_access_log(
        &world,
        &w.production,
        sim.epoch_secs,
        &sim.scheduler(),
    );

    let mut rows = Vec::new();
    for rate in [25.0f64, 50.0, 100.0, 200.0] {
        let star =
            simulate_transfers(&world, &log, sim.scheduler(), &TransferConfig::starcdn(rate));
        let pipe =
            simulate_transfers(&world, &log, sim.scheduler(), &TransferConfig::bent_pipe(rate));
        rows.push(vec![
            format!("{rate} Mbps"),
            pct(star.interrupted_fraction()),
            format!("{:.4}", star.mean_inflation()),
            format!("{:.4}", pipe.mean_inflation()),
        ]);
    }
    print_table(
        "Ablation §7: transfer interruptions by handover (video class). Same handovers either way; StarCDN's in-space resume inflates completion less",
        &["user rate", "transfers interrupted", "inflation (StarCDN resume)", "inflation (bent-pipe resume)"],
        &rows,
    );
}
