//! Ablation: time-varying churn — satellites fail and recover mid-run
//! (exponential MTBF/MTTR), caches restart cold, and the hit rate and
//! uplink saving degrade with the churn rate. Complements
//! `ablation_failures`, which freezes one outage for the whole run.

use spacegen::classes::TrafficClass;
use starcdn::variants::Variant;
use starcdn_bench::table::{pct, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::Args;
use starcdn_constellation::schedule::{ChurnParams, FaultSchedule};
use starcdn_sim::engine::SimConfig;
use starcdn_sim::experiment::Runner;
use starcdn_sim::world::World;

const MTTR_SECS: f64 = 600.0;

pub fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let (_, ws) = w.production.unique_objects();
    let cache = cache_bytes_for_gb(50, ws);
    let horizon = a.scale.trace_hours() * 3600;
    let sim = SimConfig { seed: a.seed, ..SimConfig::default() };

    // MTBF sweep, hours of mean up-time per satellite; `None` is the
    // churn-free reference run.
    let sweep: [(Option<f64>, &str); 5] = [
        (None, "no churn"),
        (Some(12.0), "12 h"),
        (Some(4.0), "4 h"),
        (Some(1.0), "1 h"),
        (Some(0.25), "15 min"),
    ];

    let mut rows = Vec::new();
    for (mtbf_hours, label) in sweep {
        let base = World::starlink_nine_cities();
        let schedule = match mtbf_hours {
            None => FaultSchedule::empty(),
            Some(h) => {
                let p = ChurnParams::sats_only(h * 3600.0, MTTR_SECS, horizon, a.seed ^ 0xC412);
                FaultSchedule::churn(&base.grid, &p)
            }
        };
        let world = base.with_fault_schedule(schedule);
        let runner = Runner::new(world, &w.production, sim);
        let m = runner.run(Variant::StarCdn { l: 9 }, cache);
        let min_alive = m.availability.iter().map(|p| p.alive_sats).min().unwrap_or(1296);
        rows.push(vec![
            label.to_string(),
            pct(m.stats.request_hit_rate()),
            pct(m.uplink_fraction()),
            m.remapped_requests.to_string(),
            m.cold_restart_misses.to_string(),
            min_alive.to_string(),
        ]);
    }
    print_table(
        "Ablation: satellite churn rate vs CDN degradation (L=9, 50 GB, MTTR 10 min). \
         Faster churn means more remapped requests, more cold-restart misses, and a \
         lower hit rate",
        &["sat MTBF", "hit rate", "uplink", "remapped", "cold misses", "min alive"],
        &rows,
    );
}
