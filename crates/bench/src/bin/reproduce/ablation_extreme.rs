//! Ablation: extreme events — solar-storm footprint x capacity headroom
//! x recovery pace, with a regional flash crowd layered on the trace.
//!
//! Each cell runs the sequential engine under a seeded solar-storm
//! schedule and reports the recovery SLOs (DESIGN.md §12): availability
//! dip depth, time to first recovery, time to full recovery, and the
//! change-compressed recovery curve, plus the degraded-serving outcome
//! mix (partitioned bent-pipe fallbacks, sheds, drops). At smoke scale
//! every schedule also runs a no-relay engine↔replayer pair at 1 and 4
//! workers and asserts bit-for-bit metric parity — the CI smoke gate
//! for correlated-failure resilience, scoped to the no-relay config
//! because that is where the replayer's exactness contract holds (see
//! `tests/replayer_parity.rs`; relayed fetch replays approximately).
//! Writes `BENCH_extreme.json` (hand-rolled JSON: the dump must stay
//! dependency-free and deterministic).

use spacegen::classes::TrafficClass;
use starcdn::config::StarCdnConfig;
use starcdn::metrics::SystemMetrics;
use starcdn::system::SpaceCdn;
use starcdn_bench::table::print_table;
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::{Args, Scale};
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::{
    DemandSchedule, FaultSchedule, FlashCrowdParams, SolarStormParams,
};
use starcdn_sim::access_log::build_access_log;
use starcdn_sim::engine::{run_space_overloaded, SimConfig};
use starcdn_sim::overload::OverloadConfig;
use starcdn_sim::replayer::replay_parallel_overloaded;
use starcdn_sim::world::World;

const EPOCH_SECS: u64 = 15;
const NUM_BUCKETS: u32 = 4;
const CACHE_GB: u64 = 50;

fn storm(horizon_secs: u64, halfwidth: u16, spread: u64, seed: u64) -> SolarStormParams {
    SolarStormParams {
        center_plane: 20,
        plane_halfwidth: halfwidth,
        kill_prob: 0.9,
        onset_secs: horizon_secs / 4,
        onset_jitter_secs: 2 * EPOCH_SECS,
        recovery_start_secs: horizon_secs / 2,
        recovery_spread_secs: spread,
        seed,
    }
}

fn overload_config(headroom: Option<f64>) -> OverloadConfig {
    headroom.map_or_else(OverloadConfig::disabled, OverloadConfig::with_headroom)
}

/// Headroom grid in units of mean objects per epoch (the modeled link
/// budgets dwarf a scaled trace's byte flow, so absolute fractions
/// would never shed — same calibration as `ablation_overload`).
fn headroom_grid(trace: &spacegen::trace::Trace) -> [(Option<f64>, &'static str); 3] {
    let mean = (trace.total_bytes() / (trace.len() as u64).max(1)) as f64;
    let per_object = mean / 37_500_000_000.0;
    [(None, "inf"), (Some(per_object * 8.0), "8 obj"), (Some(per_object * 1.5), "1.5 obj")]
}

/// Availability timeline compressed to its change points (lossless: the
/// curve is a step function of the epoch).
fn recovery_curve(m: &SystemMetrics) -> Vec<(u64, u32)> {
    let mut out: Vec<(u64, u32)> = Vec::new();
    for p in &m.availability {
        if out.last().map(|&(_, a)| a) != Some(p.alive_sats) {
            out.push((p.epoch, p.alive_sats));
        }
    }
    out
}

/// Bit-for-bit engine↔replayer agreement on every exported metric.
fn assert_parity(engine: &SystemMetrics, par: &SystemMetrics, workers: usize) {
    assert_eq!(par.stats, engine.stats, "{workers} workers: stats");
    assert_eq!(par.uplink_bytes, engine.uplink_bytes, "{workers} workers: uplink");
    assert_eq!(par.per_satellite, engine.per_satellite, "{workers} workers: per-satellite");
    assert_eq!(
        par.partitioned_requests, engine.partitioned_requests,
        "{workers} workers: partitioned"
    );
    assert_eq!(par.availability, engine.availability, "{workers} workers: recovery timeline");
    assert_eq!(par.shed_requests, engine.shed_requests, "{workers} workers: shed");
    assert_eq!(par.retry_attempts, engine.retry_attempts, "{workers} workers: retries");
    assert_eq!(par.served_origin_fallback, engine.served_origin_fallback, "{workers} workers");
    assert_eq!(par.dropped_requests, engine.dropped_requests, "{workers} workers: drops");
    let bits = |m: &SystemMetrics| {
        let mut b: Vec<u64> = m.latencies_ms.iter().map(|l| l.to_bits()).collect();
        b.sort_unstable();
        b
    };
    assert_eq!(bits(par), bits(engine), "{workers} workers: latency bit patterns");
}

fn json_slos(m: &SystemMetrics) -> String {
    let rows: Vec<String> = m
        .recovery_slos()
        .iter()
        .map(|s| {
            format!(
                "        {{\"baseline_alive\": {}, \"trough_alive\": {}, \"dip_depth\": {}, \
                 \"dip_start_epoch\": {}, \"trough_epoch\": {}, \
                 \"time_to_first_recovery_epochs\": {}, \"time_to_full_recovery_epochs\": {}}}",
                s.baseline_alive,
                s.trough_alive,
                s.dip_depth,
                s.dip_start_epoch,
                s.trough_epoch,
                s.time_to_first_recovery().map_or("null".into(), |v| v.to_string()),
                s.time_to_full_recovery().map_or("null".into(), |v| v.to_string()),
            )
        })
        .collect();
    format!("[\n{}\n      ]", rows.join(",\n"))
}

fn json_curve(curve: &[(u64, u32)]) -> String {
    let pts: Vec<String> =
        curve.iter().map(|&(epoch, alive)| format!("[{epoch}, {alive}]")).collect();
    format!("[{}]", pts.join(", "))
}

pub fn run(a: Args) {
    starcdn_bench::interrupt::install();
    let horizon_secs = a.scale.trace_hours() * 3600;
    let world = World::starlink_nine_cities();
    let total_sats = u32::from(world.grid.num_planes) * u32::from(world.grid.sats_per_plane);

    // Trace with a flash crowd on top: three regional surges tripling
    // local demand, all inside the first three quarters of the run.
    let w = Workload::build(TrafficClass::Video, a);
    let crowd = DemandSchedule::flash_crowd(&FlashCrowdParams {
        num_locations: w.locations.len() as u16,
        surges: 3,
        start_secs: horizon_secs / 8,
        horizon_secs: horizon_secs * 3 / 4,
        peak_multiplier: 3.0,
        ramp_secs: 8 * EPOCH_SECS,
        hold_secs: 20 * EPOCH_SECS,
        decay_secs: 16 * EPOCH_SECS,
        seed: a.seed,
    });
    let trace = w.production.with_demand_surges(&crowd, a.seed);
    let cache = cache_bytes_for_gb(CACHE_GB, trace.unique_objects().1);

    let halfwidths: &[u16] = match a.scale {
        Scale::Smoke => &[2, 6],
        _ => &[2, 6, 12],
    };
    let spreads = [20 * EPOCH_SECS, 80 * EPOCH_SECS];
    let headrooms = headroom_grid(&trace);

    let mut rows = Vec::new();
    let mut json_cells = Vec::new();
    let mut total_requests = 0usize;
    'sweep: for &halfwidth in halfwidths {
        for &spread in &spreads {
            // Ctrl-C/SIGTERM: stop between cells, flush what finished.
            if starcdn_bench::interrupt::interrupted() {
                break 'sweep;
            }
            let sched = FaultSchedule::solar_storm(
                &world.grid,
                &storm(horizon_secs, halfwidth, spread, a.seed),
            );
            // The log builder is schedule-aware: first contacts are
            // picked against the storm's live view, as a real scheduler
            // would, so the stream itself degrades during the outage.
            let cell_world = World::starlink_nine_cities().with_fault_schedule(sched.clone());
            let log = build_access_log(
                &cell_world,
                &trace,
                EPOCH_SECS,
                &SimConfig::default().scheduler(),
            );
            total_requests = log.entries.len();

            if a.scale == Scale::Smoke {
                // Parity gate on the no-relay config, where the
                // replayer is exact (relayed fetch is approximate).
                let nr = StarCdnConfig::starcdn_no_relay(9, cache);
                for &(headroom, _) in &headrooms {
                    let overload = overload_config(headroom);
                    let mut cdn = SpaceCdn::new(nr.clone());
                    let reference = run_space_overloaded(&mut cdn, &log, &sched, &overload);
                    for workers in [1, 4] {
                        let par = replay_parallel_overloaded(
                            nr.clone(),
                            FailureModel::none(),
                            &log,
                            &sched,
                            workers,
                            &overload,
                        );
                        assert_parity(&reference, &par, workers);
                    }
                }
            }

            for &(headroom, hlabel) in &headrooms {
                let overload = overload_config(headroom);
                let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(NUM_BUCKETS, cache));
                let m = run_space_overloaded(&mut cdn, &log, &sched, &overload);

                // Conservation: every request is served (possibly via the
                // bent pipe) or explicitly dropped — never lost.
                let served =
                    m.served_local + m.served_relay_west + m.served_relay_east + m.served_ground;
                assert_eq!(served, m.stats.requests, "every recorded request has a serve source");
                assert_eq!(
                    m.stats.requests + m.dropped_requests,
                    log.entries.len() as u64,
                    "requests are conserved"
                );

                // The staged recovery ends inside the run: the schedule
                // must fully heal within a bounded number of epochs.
                let last = m.availability.last().expect("storm runs record availability");
                assert_eq!(last.alive_sats, total_sats, "constellation fully recovered");
                let healed_by = sched.last_event_secs().unwrap() / EPOCH_SECS + 1;
                let curve = recovery_curve(&m);
                let recovered_epoch = curve
                    .iter()
                    .find(|&&(_, alive)| alive == total_sats)
                    .map(|&(e, _)| e)
                    .expect("recovery curve returns to baseline");
                assert!(
                    recovered_epoch <= healed_by,
                    "full recovery at epoch {recovered_epoch}, bound {healed_by}"
                );

                let slos = m.recovery_slos();
                let worst_dip = slos.iter().map(|s| s.dip_depth).max().unwrap_or(0);
                let worst_full = slos
                    .iter()
                    .filter_map(|s| s.time_to_full_recovery())
                    .max()
                    .map_or("-".to_string(), |v| v.to_string());
                rows.push(vec![
                    halfwidth.to_string(),
                    hlabel.to_string(),
                    (spread / EPOCH_SECS).to_string(),
                    format!("{:.3}", m.stats.request_hit_rate()),
                    m.partitioned_requests.to_string(),
                    m.served_origin_fallback.to_string(),
                    m.shed_requests.to_string(),
                    m.dropped_requests.to_string(),
                    worst_dip.to_string(),
                    worst_full,
                ]);
                json_cells.push(format!(
                    "    {{\n      \"plane_halfwidth\": {halfwidth},\n      \
                     \"headroom_label\": \"{hlabel}\",\n      \"headroom\": {},\n      \
                     \"recovery_spread_epochs\": {},\n      \"requests\": {},\n      \
                     \"hit_rate\": {:.6},\n      \"partitioned_requests\": {},\n      \
                     \"served_origin_fallback\": {},\n      \"shed_requests\": {},\n      \
                     \"dropped_requests\": {},\n      \"recovery_slos\": {},\n      \
                     \"recovery_curve\": {}\n    }}",
                    headroom.map_or("null".into(), |h| format!("{h}")),
                    spread / EPOCH_SECS,
                    m.stats.requests,
                    m.stats.request_hit_rate(),
                    m.partitioned_requests,
                    m.served_origin_fallback,
                    m.shed_requests,
                    m.dropped_requests,
                    json_slos(&m),
                    json_curve(&curve),
                ));
            }
        }
    }

    print_table(
        &format!(
            "Extreme events: solar storm x headroom x recovery pace ({} requests incl. \
             {} flash-crowd surges; dip/recovery in epochs of {EPOCH_SECS}s)",
            total_requests,
            crowd.len(),
        ),
        &[
            "planes±",
            "headroom",
            "spread",
            "hit_rate",
            "partitioned",
            "origin_fb",
            "shed",
            "dropped",
            "worst_dip",
            "full_rec",
        ],
        &rows,
    );

    let json = format!(
        "{{\n  \"scale\": \"{:?}\",\n  \"seed\": {},\n  \"epoch_secs\": {EPOCH_SECS},\n  \
         \"requests\": {},\n  \"flash_crowd_surges\": {},\n  \"total_sats\": {total_sats},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        a.scale,
        a.seed,
        total_requests,
        crowd.len(),
        json_cells.join(",\n"),
    );
    starcdn_bench::output::write_root_artifact("BENCH_extreme.json", &json);
    if starcdn_bench::interrupt::interrupted() {
        eprintln!("interrupted; partial artifact flushed");
        std::process::exit(starcdn_bench::interrupt::EXIT_INTERRUPTED);
    }
}
