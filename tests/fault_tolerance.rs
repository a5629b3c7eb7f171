//! Integration: §3.4 robustness — outages remap buckets and degrade hit
//! rates gracefully, across the constellation/core/sim crate boundary;
//! plus the time-varying extension: churn, link flaps, and cold-restart
//! recovery through the fault-schedule subsystem.

use spacegen::classes::TrafficClass;
use spacegen::production::ProductionModel;
use spacegen::trace::{Location, Trace};
use starcdn::config::StarCdnConfig;
use starcdn::system::SpaceCdn;
use starcdn::variants::Variant;
use starcdn_constellation::buckets::BucketTiling;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::{ChurnParams, FaultEvent, FaultSchedule, TimedFault};
use starcdn_orbit::fleet::fleet_from_tles;
use starcdn_orbit::time::SimDuration;
use starcdn_orbit::tle::{synthesize_tle, Tle};
use starcdn_orbit::walker::WalkerConstellation;
use starcdn_sim::access_log::build_access_log;
use starcdn_sim::access_log::AccessLog;
use starcdn_sim::engine::{run, run_space, RunSpec, SimConfig};
use starcdn_sim::experiment::Runner;
use starcdn_sim::world::World;

/// The engine under a fault schedule, optionally measuring only from
/// `measure_from_secs` on.
fn run_with_faults(
    cdn: &mut SpaceCdn,
    log: &AccessLog,
    schedule: &FaultSchedule,
    measure_from_secs: Option<u64>,
) -> starcdn::metrics::SystemMetrics {
    run(cdn, log, &RunSpec { schedule, measure_from_secs, ..RunSpec::default() }).unwrap()
}

fn trace() -> Trace {
    let locations = Location::akamai_nine();
    let model = ProductionModel::build(TrafficClass::Video.params().scaled(0.02), &locations, 41);
    model.generate_trace(SimDuration::from_hours(2), 41)
}

#[test]
fn outage_degrades_but_does_not_break() {
    let t = trace();
    let cache = t.unique_objects().1 / 50;
    let healthy = Runner::new(World::starlink_nine_cities(), &t, SimConfig::default())
        .run(Variant::StarCdn { l: 9 }, cache);

    let world = World::starlink_nine_cities();
    let failures = FailureModel::sample(&world.grid, 126, 43);
    let degraded = Runner::new(world.with_failures(failures), &t, SimConfig::default())
        .run(Variant::StarCdn { l: 9 }, cache);

    assert_eq!(degraded.stats.requests, healthy.stats.requests);
    let h = healthy.stats.request_hit_rate();
    let d = degraded.stats.request_hit_rate();
    assert!(d <= h + 0.01, "outage should not raise hit rate: {d} vs {h}");
    assert!(d > h - 0.15, "outage cost too extreme: {d} vs {h}");
    // Still saving substantial uplink (paper: 74% even degraded).
    assert!(1.0 - degraded.uplink_fraction() > 0.3, "uplink saving collapsed");
}

#[test]
fn every_bucket_remains_covered_under_paper_scale_outage() {
    let world = World::starlink_nine_cities();
    let failures = FailureModel::sample(&world.grid, 126, 47);
    let tiling = BucketTiling::new(9).unwrap();
    let served = failures.buckets_served(&world.grid, &tiling);
    // Union of served buckets covers all 9, and every alive satellite
    // serves at least its own bucket.
    let mut covered = std::collections::BTreeSet::new();
    for (id, buckets) in &served {
        assert!(!buckets.is_empty(), "{id} serves nothing");
        covered.extend(buckets.iter().copied());
    }
    assert_eq!(covered.len(), 9);
}

#[test]
fn extreme_outage_still_serves_all_requests() {
    // Kill a third of the constellation: requests must still complete
    // (through remapped owners or straight ground fetches).
    let t = trace();
    let world = World::starlink_nine_cities();
    let failures = FailureModel::sample(&world.grid, 432, 53);
    let m = Runner::new(world.with_failures(failures), &t, SimConfig::default())
        .run(Variant::StarCdn { l: 4 }, t.unique_objects().1 / 50);
    assert_eq!(m.stats.requests as usize, t.len());
    assert!(m.stats.request_hit_rate() > 0.0);
}

#[test]
fn tle_catalog_gaps_become_the_failure_set() {
    // From a TLE catalog to a running space CDN: the paper feeds CelesTrak
    // TLEs into its simulator and derives the ISL grid and the out-of-slot
    // failure set from them. The catalog here is synthesized from the shell
    // with every 11th satellite missing (118 of 1296; the paper observed
    // 126 out of slot).
    let shell = WalkerConstellation::starlink_shell1();
    let tles: Vec<Tle> = shell
        .satellites()
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 11 != 0)
        .map(|(i, sat)| {
            let o = &sat.orbit;
            let (name, l1, l2) = synthesize_tle(
                &format!("STARLINK-SYN-{i}"),
                44000 + i as u32,
                o.inclination_rad.to_degrees(),
                o.raan_rad.to_degrees(),
                o.phase_rad.to_degrees().rem_euclid(360.0),
                86400.0 / o.period_s(),
            );
            Tle::parse(&name, &l1, &l2).expect("synthesized TLE parses")
        })
        .collect();
    assert_eq!(tles.len(), 1296 - 118);

    let fleet = fleet_from_tles(&tles, 72, 18).expect("fleet assembles");
    assert_eq!(fleet.satellites.len(), 1296 - 118);
    assert_eq!(fleet.empty_slots.len(), 118);

    let world = World::from_tle_fleet(&fleet, Location::akamai_nine());
    assert_eq!(world.failures.dead_count(), 118);
    assert!(world.failures.broken_isl_count(&world.grid) > 0);

    // StarCDN on the degraded fleet (buckets of missing slots remap) still
    // serves every request and beats naive LRU.
    let t = trace();
    let cache = t.unique_objects().1 / 50;
    let runner = Runner::new(world, &t, SimConfig::default());
    let star = runner.run(Variant::StarCdn { l: 9 }, cache);
    let lru = runner.run(Variant::NaiveLru, cache);
    assert_eq!(star.stats.requests as usize, t.len());
    assert_eq!(lru.stats.requests as usize, t.len());
    let (s, l) = (star.stats.request_hit_rate(), lru.stats.request_hit_rate());
    assert!(s > l, "StarCDN {s} !> LRU {l} on the TLE fleet");
}

#[test]
fn empty_schedule_is_bit_for_bit_identical_to_static_run() {
    let t = trace();
    let world = World::starlink_nine_cities();
    let log = build_access_log(&world, &t, 15, &SimConfig::default().scheduler());
    // Same world with an (empty) schedule attached: identical log.
    let w2 = World::starlink_nine_cities().with_fault_schedule(FaultSchedule::empty());
    let log2 = build_access_log(&w2, &t, 15, &SimConfig::default().scheduler());
    assert_eq!(log, log2, "empty schedule must not perturb scheduling");

    let cfg = StarCdnConfig::starcdn(9, 5_000_000);
    let mut plain = SpaceCdn::new(cfg.clone());
    let m_plain = run_space(&mut plain, &log);
    let mut churn = SpaceCdn::new(cfg);
    let m_churn = run_with_faults(&mut churn, &log2, &w2.schedule, None);
    assert_eq!(m_plain.stats, m_churn.stats);
    assert_eq!(m_plain.latencies_ms, m_churn.latencies_ms);
    assert_eq!(m_plain.uplink_bytes, m_churn.uplink_bytes);
    assert_eq!(m_plain.per_satellite, m_churn.per_satellite);
    assert!(m_churn.availability.is_empty());
    assert_eq!(m_churn.cold_restart_misses, 0);
}

#[test]
fn mass_outage_at_t0_reproduces_static_outage_metrics() {
    let t = trace();
    let world = World::starlink_nine_cities();
    let outage = FailureModel::sample(&world.grid, 126, 43);
    let cfg = StarCdnConfig::starcdn(9, 5_000_000);

    // Static path: outage frozen for the whole run.
    let w_static = World::starlink_nine_cities().with_failures(outage.clone());
    let log_static = build_access_log(&w_static, &t, 15, &SimConfig::default().scheduler());
    let mut s = SpaceCdn::with_failures(cfg.clone(), outage.clone());
    let m_static = run_space(&mut s, &log_static);

    // Dynamic path: the same satellites die at t = 0 and never recover.
    let sched = FaultSchedule::mass_outage_at(0, outage.dead());
    let w_churn = World::starlink_nine_cities().with_fault_schedule(sched.clone());
    let log_churn = build_access_log(&w_churn, &t, 15, &SimConfig::default().scheduler());
    assert_eq!(log_static, log_churn, "t=0 mass outage must schedule like the static set");

    let mut c = SpaceCdn::new(cfg);
    let m_churn = run_with_faults(&mut c, &log_churn, &sched, None);
    assert_eq!(m_static.stats, m_churn.stats);
    assert_eq!(m_static.uplink_bytes, m_churn.uplink_bytes);
    assert_eq!(m_static.latencies_ms, m_churn.latencies_ms);
    assert_eq!(m_static.per_satellite, m_churn.per_satellite);
    assert_eq!(m_static.remapped_requests, m_churn.remapped_requests);
    assert_eq!(m_static.reroute_extra_hops, m_churn.reroute_extra_hops);
    assert_eq!(m_churn.cold_restart_misses, 0, "nobody ever recovers");
    // The dynamic run additionally carries the availability timeline.
    assert!(!m_churn.availability.is_empty());
    assert!(m_churn.availability.iter().all(|p| p.alive_sats == 1296 - 126));
}

#[test]
fn recovered_satellites_rewarm_within_the_run() {
    // 300 satellites are dead from t = 0 and all recover at t = 3600 in a
    // 2 h trace: cold-restart misses must be observed, and the hit rate
    // of the second post-recovery half-hour must beat the first (the
    // caches measurably re-warm).
    let t = trace();
    let world = World::starlink_nine_cities();
    let outage = FailureModel::sample(&world.grid, 300, 71);
    let mut events: Vec<TimedFault> =
        outage.dead().map(|s| TimedFault { at_secs: 0, event: FaultEvent::SatDown(s) }).collect();
    events.extend(outage.dead().map(|s| TimedFault { at_secs: 3600, event: FaultEvent::SatUp(s) }));
    let sched = FaultSchedule::from_events(events);
    let w = World::starlink_nine_cities().with_fault_schedule(sched.clone());
    let log = build_access_log(&w, &t, 15, &SimConfig::default().scheduler());
    let cfg = StarCdnConfig::starcdn(9, 5_000_000);

    let mut full = SpaceCdn::new(cfg.clone());
    let m_full = run_with_faults(&mut full, &log, &sched, None);
    assert!(m_full.cold_restart_misses > 0, "recovery must be observed as cold misses");
    assert!(m_full.remapped_requests > 0, "outage phase remaps");
    // Availability timeline shows the dip and the recovery.
    let first = m_full.availability.first().unwrap();
    let last = m_full.availability.last().unwrap();
    assert_eq!(first.alive_sats, 1296 - 300);
    assert_eq!(last.alive_sats, 1296);

    // Windowed hit rates after recovery (deterministic runs, so the
    // difference of two measured tails isolates the early window).
    let mut a = SpaceCdn::new(cfg.clone());
    let m_a = run_with_faults(&mut a, &log, &sched, Some(3600)); // [3600, end)
    let mut b = SpaceCdn::new(cfg);
    let m_b = run_with_faults(&mut b, &log, &sched, Some(5400)); // [5400, end)
    let early_requests = m_a.stats.requests - m_b.stats.requests;
    let early_hits = m_a.stats.hits - m_b.stats.hits;
    assert!(early_requests > 0 && m_b.stats.requests > 0, "both windows see traffic");
    let early_rate = early_hits as f64 / early_requests as f64;
    let late_rate = m_b.stats.request_hit_rate();
    assert!(
        late_rate > early_rate,
        "hit rate must recover after the cold restarts: early {early_rate:.4} late {late_rate:.4}"
    );
}

#[test]
fn link_flap_churn_runs_and_reroutes() {
    // Pure link churn: no satellite ever dies, so ownership is stable,
    // but BFS pays extra hops to route around cut ISLs.
    let t = trace();
    let world = World::starlink_nine_cities();
    let params = ChurnParams {
        sat_mtbf_secs: 1e15, // effectively no satellite churn
        sat_mttr_secs: 60.0,
        link_mtbf_secs: Some(6.0 * 3600.0),
        link_mttr_secs: 900.0,
        horizon_secs: 7200,
        seed: 77,
    };
    let sched = FaultSchedule::churn(&world.grid, &params);
    assert!(!sched.is_empty(), "2 h over 2592 links at 6 h MTBF must flap something");
    let w = World::starlink_nine_cities().with_fault_schedule(sched.clone());
    let log = build_access_log(&w, &t, 15, &SimConfig::default().scheduler());
    let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(9, 5_000_000));
    let m = run_with_faults(&mut cdn, &log, &sched, None);
    assert_eq!(m.stats.requests as usize, t.len());
    assert_eq!(m.cold_restart_misses, 0, "links flapping wipes no caches");
    assert_eq!(m.remapped_requests, 0, "ownership is node-liveness based");
    assert!(m.availability.iter().all(|p| p.alive_sats == 1296));
    assert!(m.availability.iter().any(|p| p.cut_links > 0), "some epoch saw a cut link");
    assert!(m.reroute_extra_hops > 0, "detours around cut links cost hops");
}

#[test]
fn scheduler_and_fleet_agree_on_liveness() {
    // No request may be first-contacted by a dead satellite.
    let t = trace();
    let world = World::starlink_nine_cities();
    let failures = FailureModel::sample(&world.grid, 200, 59);
    let world = world.with_failures(failures.clone());
    let log = build_access_log(&world, &t, 15, &SimConfig::default().scheduler());
    for e in &log.entries {
        if let Some(fc) = e.first_contact {
            assert!(failures.is_alive(fc), "dead first contact {fc}");
        }
    }
}
