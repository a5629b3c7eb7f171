//! Deterministic-seed snapshot test: a small end-to-end run must
//! produce exactly the `SystemMetrics` pinned in the committed golden
//! JSON. Catches any unintended behaviour change anywhere in the
//! pipeline (scheduler, routing, caching, fault handling).
//!
//! After an *intentional* behaviour change, regenerate with
//! `cargo test --test metrics_snapshot -- --ignored` and commit the
//! refreshed fixture with the change that explains it.

use spacegen::trace::{LocationId, Request, Trace};
use starcdn::config::StarCdnConfig;
use starcdn::metrics::SystemMetrics;
use starcdn::system::SpaceCdn;
use starcdn_cache::object::ObjectId;
use starcdn_constellation::schedule::{FaultEvent, FaultSchedule, TimedFault};
use starcdn_orbit::time::SimTime;
use starcdn_orbit::walker::SatelliteId;
use starcdn_sim::engine::{run, RunSpec, SimConfig};
use starcdn_sim::{build_access_log, World};
use std::collections::BTreeMap;
use std::fmt::Write as _;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/metrics_snapshot.json");
const FIXTURE_DELAYED: &str =
    concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/metrics_snapshot_delayed.json");

/// The pinned scenario: an arithmetic (RNG-free) 20-minute trace over
/// all nine cities, one satellite restart mid-run, StarCDN without
/// relay so the engine is bit-deterministic.
fn run_pinned_scenario() -> SystemMetrics {
    let world = World::starlink_nine_cities();
    let reqs: Vec<Request> = (0..4000u64)
        .map(|k| Request {
            time: SimTime::from_secs((k * 1200) / 4000),
            object: ObjectId((k * 7919) % 300),
            size: 400 + (k % 7) * 150,
            location: LocationId((k % 9) as u16),
        })
        .collect();
    let sim = SimConfig { seed: 13, ..SimConfig::default() };
    let log = build_access_log(&world, &Trace::new(reqs), sim.epoch_secs, &sim.scheduler());
    // Restart the three busiest satellites mid-run (found by a
    // deterministic probe run) so the snapshot pins the remap,
    // cold-restart, and availability paths, not just the happy path.
    let busy: Vec<SatelliteId> = {
        let mut probe = SpaceCdn::new(StarCdnConfig::starcdn_no_relay(4, 100_000));
        starcdn_sim::run_space(&mut probe, &log);
        let mut sats: Vec<(SatelliteId, u64)> =
            probe.metrics.per_satellite.iter().map(|(s, st)| (*s, st.requests)).collect();
        sats.sort_by_key(|&(s, r)| (std::cmp::Reverse(r), s));
        sats.into_iter().take(3).map(|(s, _)| s).collect()
    };
    let mut events = Vec::new();
    for (i, &s) in busy.iter().enumerate() {
        events.push(TimedFault { at_secs: 300 + 15 * i as u64, event: FaultEvent::SatDown(s) });
        events.push(TimedFault { at_secs: 600 + 15 * i as u64, event: FaultEvent::SatUp(s) });
    }
    let schedule = FaultSchedule::from_events(events);
    let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn_no_relay(4, 100_000));
    run(&mut cdn, &log, &RunSpec { schedule: &schedule, ..RunSpec::default() }).unwrap()
}

/// Reduce metrics to a stable JSON document: integer fields verbatim,
/// the latency median rounded to 3 decimals, per-satellite counts in
/// `BTreeMap` (= satellite id) order.
fn snapshot_json(m: &SystemMetrics) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"requests\": {},", m.stats.requests);
    let _ = writeln!(out, "  \"hits\": {},", m.stats.hits);
    let _ = writeln!(out, "  \"bytes_requested\": {},", m.stats.bytes_requested);
    let _ = writeln!(out, "  \"bytes_hit\": {},", m.stats.bytes_hit);
    let _ = writeln!(out, "  \"uplink_bytes\": {},", m.uplink_bytes);
    let _ = writeln!(out, "  \"served_local\": {},", m.served_local);
    let _ = writeln!(out, "  \"served_relay_west\": {},", m.served_relay_west);
    let _ = writeln!(out, "  \"served_relay_east\": {},", m.served_relay_east);
    let _ = writeln!(out, "  \"served_ground\": {},", m.served_ground);
    let _ = writeln!(out, "  \"remapped_requests\": {},", m.remapped_requests);
    let _ = writeln!(out, "  \"reroute_extra_hops\": {},", m.reroute_extra_hops);
    let _ = writeln!(out, "  \"cold_restart_misses\": {},", m.cold_restart_misses);
    let _ = writeln!(out, "  \"availability_points\": {},", m.availability.len());
    let median = m.latency_cdf().quantile(0.5).unwrap_or(0.0);
    let _ = writeln!(out, "  \"latency_median_ms\": {:.3},", median);
    out.push_str("  \"per_satellite\": {\n");
    let ordered: BTreeMap<SatelliteId, _> =
        m.per_satellite.iter().map(|(s, st)| (*s, st)).collect();
    let n = ordered.len();
    for (i, (sat, st)) in ordered.into_iter().enumerate() {
        let _ =
            write!(out, "    \"{sat}\": {{\"requests\": {}, \"hits\": {}}}", st.requests, st.hits);
        out.push_str(if i + 1 == n { "\n" } else { ",\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// The delayed-hit pinned scenario: a single-city trace (stable owner
/// per epoch, so requests coalesce onto in-flight fetches), the
/// delayed-hit model on with heterogeneous origin tiers, and one
/// mid-run restart of the busiest satellite so the snapshot pins the
/// queue-clearing cold-restart path too.
fn run_pinned_delayed_scenario() -> SystemMetrics {
    use starcdn::config::DelayedHitConfig;
    let world = World::starlink_nine_cities();
    let reqs: Vec<Request> = (0..4000u64)
        .map(|k| Request {
            time: SimTime::from_secs((k * 1200) / 4000),
            object: ObjectId((k * 7919) % 60),
            size: 400 + (k % 7) * 150,
            location: LocationId(0),
        })
        .collect();
    let sim = SimConfig { seed: 13, ..SimConfig::default() };
    let log = build_access_log(&world, &Trace::new(reqs), sim.epoch_secs, &sim.scheduler());
    let cfg = StarCdnConfig::starcdn_no_relay(4, 20_000)
        .with_delayed_hits(DelayedHitConfig::with_latency(2, 40.0).with_origin_tiers(3));
    let busy: SatelliteId = {
        let mut probe = SpaceCdn::new(cfg.clone());
        starcdn_sim::run_space(&mut probe, &log);
        let mut sats: Vec<(SatelliteId, u64)> =
            probe.metrics.per_satellite.iter().map(|(s, st)| (*s, st.requests)).collect();
        sats.sort_by_key(|&(s, r)| (std::cmp::Reverse(r), s));
        sats[0].0
    };
    let schedule = FaultSchedule::from_events([
        TimedFault { at_secs: 300, event: FaultEvent::SatDown(busy) },
        TimedFault { at_secs: 600, event: FaultEvent::SatUp(busy) },
    ]);
    let mut cdn = SpaceCdn::new(cfg);
    run(&mut cdn, &log, &RunSpec { schedule: &schedule, ..RunSpec::default() }).unwrap()
}

/// The delayed scenario's snapshot: the plain document plus the
/// delayed-hit counters and the full residual-latency histogram.
fn snapshot_delayed_json(m: &SystemMetrics) -> String {
    let mut out = snapshot_json(m);
    // Splice the delayed section in before the closing document brace.
    out.truncate(out.trim_end().len() - 1); // drop the final '}'
    out.truncate(out.trim_end().len()); // back up to per_satellite's '}'
    out.push_str(",\n");
    let _ = writeln!(out, "  \"delayed_hits\": {},", m.delayed_hits);
    let _ = writeln!(out, "  \"coalesced_requests\": {},", m.coalesced_requests);
    out.push_str("  \"residual_epoch_hist\": {\n");
    let n = m.residual_epoch_hist.len();
    for (i, (residual, count)) in m.residual_epoch_hist.iter().enumerate() {
        let _ = write!(out, "    \"{residual}\": {count}");
        out.push_str(if i + 1 == n { "\n" } else { ",\n" });
    }
    out.push_str("  }\n}\n");
    out
}

/// One-time fixture generator; run with `-- --ignored` after an
/// intentional behaviour change.
#[test]
#[ignore]
fn regenerate_metrics_snapshot() {
    std::fs::create_dir_all(std::path::Path::new(FIXTURE).parent().unwrap()).unwrap();
    std::fs::write(FIXTURE, snapshot_json(&run_pinned_scenario())).unwrap();
    std::fs::write(FIXTURE_DELAYED, snapshot_delayed_json(&run_pinned_delayed_scenario())).unwrap();
}

#[test]
fn pinned_scenario_matches_committed_snapshot() {
    let golden = std::fs::read_to_string(FIXTURE).expect("committed fixture present");
    let actual = snapshot_json(&run_pinned_scenario());
    assert_eq!(
        actual, golden,
        "end-to-end metrics drifted from the committed snapshot; if the \
         behaviour change is intentional, regenerate the fixture"
    );
}

#[test]
fn pinned_scenario_is_run_to_run_deterministic() {
    assert_eq!(snapshot_json(&run_pinned_scenario()), snapshot_json(&run_pinned_scenario()));
}

#[test]
fn pinned_delayed_scenario_matches_committed_snapshot() {
    let golden = std::fs::read_to_string(FIXTURE_DELAYED).expect("committed fixture present");
    let actual = snapshot_delayed_json(&run_pinned_delayed_scenario());
    // The scenario must actually exercise the machinery it pins.
    assert!(actual.contains("\"delayed_hits\": ") && !actual.contains("\"delayed_hits\": 0,"));
    assert_eq!(
        actual, golden,
        "delayed-hit metrics drifted from the committed snapshot; if the \
         behaviour change is intentional, regenerate the fixture"
    );
}

#[test]
fn pinned_delayed_scenario_is_run_to_run_deterministic() {
    assert_eq!(
        snapshot_delayed_json(&run_pinned_delayed_scenario()),
        snapshot_delayed_json(&run_pinned_delayed_scenario())
    );
}
