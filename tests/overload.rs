//! Integration: the overload-aware request lifecycle (capacity
//! enforcement, bounded retry, load shedding, origin fallback).
//!
//! Two contracts: with overload *disabled* (infinite headroom) every
//! entry point is byte-identical to its non-overload twin — no ledger,
//! no utilization timeline, every new counter zero; with a demand spike
//! against a tight headroom, shedding and fallback engage, the drop
//! rate stays bounded by the retry policy, and nothing panics.

use spacegen::classes::TrafficClass;
use spacegen::production::ProductionModel;
use spacegen::trace::Location;
use starcdn::config::StarCdnConfig;
use starcdn::metrics::SystemMetrics;
use starcdn::system::SpaceCdn;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::FaultSchedule;
use starcdn_orbit::time::SimDuration;
use starcdn_sim::access_log::{build_access_log, AccessLog};
use starcdn_sim::engine::{run_space, run_space_overloaded, SimConfig};
use starcdn_sim::overload::{OverloadConfig, MAX_ATTEMPTS};
use starcdn_sim::replayer::{replay_parallel, replay_parallel_overloaded};
use starcdn_sim::world::World;

fn log() -> AccessLog {
    let locations = Location::akamai_nine();
    let model = ProductionModel::build(TrafficClass::Video.params().scaled(0.02), &locations, 61);
    let trace = model.generate_trace(SimDuration::from_hours(1), 61);
    let world = World::starlink_nine_cities();
    build_access_log(&world, &trace, 15, &SimConfig::default().scheduler())
}

/// Every field that could differ must not: overload off is the old code
/// path, bit for bit.
fn assert_identical(a: &SystemMetrics, b: &SystemMetrics, tag: &str) {
    assert_eq!(a.stats, b.stats, "{tag}");
    assert_eq!(a.uplink_bytes, b.uplink_bytes, "{tag}");
    assert_eq!(a.per_satellite, b.per_satellite, "{tag}");
    assert_eq!(a.served_local, b.served_local, "{tag}");
    assert_eq!(a.served_ground, b.served_ground, "{tag}");
    assert_eq!(a.remapped_requests, b.remapped_requests, "{tag}");
    assert_eq!(a.cold_restart_misses, b.cold_restart_misses, "{tag}");
    assert_eq!(a.reroute_extra_hops, b.reroute_extra_hops, "{tag}");
    assert_eq!(a.availability, b.availability, "{tag}");
    // Bitwise latency comparison (sorted: the parallel replayer merges
    // worker samples in shard order, not arrival order).
    let sorted = |m: &SystemMetrics| {
        let mut v = m.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    };
    assert_eq!(sorted(a), sorted(b), "{tag}: latency samples must be bit-identical");
}

/// No overload-mode residue when the mode is off.
fn assert_untouched(m: &SystemMetrics, tag: &str) {
    assert_eq!(m.shed_requests, 0, "{tag}");
    assert_eq!(m.retry_attempts, 0, "{tag}");
    assert_eq!(m.served_primary, 0, "{tag}");
    assert_eq!(m.served_replica, 0, "{tag}");
    assert_eq!(m.served_origin_fallback, 0, "{tag}");
    assert_eq!(m.dropped_requests, 0, "{tag}");
    assert!(m.utilization.is_empty(), "{tag}: no ledger, no timeline");
}

#[test]
fn disabled_overload_is_byte_identical_to_plain_runs() {
    let log = log();
    let cfg = StarCdnConfig::starcdn_no_relay(9, 5_000_000);
    let sched = FaultSchedule::empty();

    let mut plain = SpaceCdn::new(cfg.clone());
    let reference = run_space(&mut plain, &log);

    let mut gated = SpaceCdn::new(cfg.clone());
    let off = run_space_overloaded(&mut gated, &log, &sched, &OverloadConfig::disabled());
    assert_identical(&reference, &off, "engine");
    assert_untouched(&off, "engine");

    let par_ref = replay_parallel(cfg.clone(), FailureModel::none(), &log, 4);
    let par_off = replay_parallel_overloaded(
        cfg,
        FailureModel::none(),
        &log,
        &sched,
        4,
        &OverloadConfig::disabled(),
    );
    assert_identical(&par_ref, &par_off, "replayer");
    assert_untouched(&par_off, "replayer");
    // And the engine agrees with the replayer (no-relay config).
    assert_identical(&reference, &par_off, "engine vs replayer");
}

#[test]
fn demand_spike_sheds_and_falls_back_without_panicking() {
    let log = log();
    let cfg = StarCdnConfig::starcdn_no_relay(9, 5_000_000);

    // 10x demand spike on one bucket: every bucket-0 request is
    // repeated ten times. The bucket's owner chain saturates while the
    // first contact's GSL (charged only for objects it owns itself, or
    // by origin fallbacks) keeps room for the fallback path.
    let tiling = starcdn_constellation::buckets::BucketTiling::new(9).unwrap();
    let mut spiked = log.clone();
    spiked.entries = Vec::with_capacity(log.entries.len() * 2);
    for e in &log.entries {
        spiked.entries.push(*e);
        if tiling.bucket_of_object(e.object.hash64()).0 == 0 {
            for _ in 0..9 {
                spiked.entries.push(*e);
            }
        }
    }
    assert!(spiked.entries.len() > log.entries.len(), "bucket 0 must carry some traffic");
    let total_bytes: u64 = log.entries.iter().map(|e| e.size).sum();
    let mean = total_bytes / log.entries.len() as u64;
    // Budget ≈ 1.5 mean-size objects per satellite per epoch: the
    // spiked bucket blows through its owner and both retry replicas
    // within an epoch, while background traffic mostly serves in place.
    let headroom = mean as f64 * 1.5 / 37_500_000_000.0;
    let overload = OverloadConfig { headroom, retry_deadline_ms: 1e9 };

    let mut cdn = SpaceCdn::new(cfg.clone());
    let m = run_space_overloaded(&mut cdn, &spiked, &FaultSchedule::empty(), &overload);

    assert!(m.shed_requests > 0, "spike must shed");
    assert!(m.served_origin_fallback > 0, "exhausted replicas must fall back to origin");
    assert!(m.served_primary > 0, "uncongested satellites still serve");
    assert!(m.served_replica > 0, "retries must rescue some requests at replicas");
    assert!(m.retry_attempts > 0, "sheds must trigger retries");
    assert!(
        m.retry_attempts <= (MAX_ATTEMPTS as u64 - 1) * (m.stats.requests + m.dropped_requests),
        "at most MAX_ATTEMPTS - 1 retries per request"
    );
    assert!(!m.utilization.is_empty(), "ledger must emit a utilization timeline");
    assert!(m.utilization.iter().any(|p| p.shed_requests > 0));

    // Conservation: every entry is recorded (primary, replica, origin
    // fallback, unreachable — all call `record`) or dropped, and the
    // four-way classification covers exactly the routed requests.
    assert_eq!(
        m.stats.requests + m.dropped_requests,
        spiked.entries.len() as u64,
        "every entry must be recorded or dropped"
    );
    let sentinel = starcdn_orbit::walker::SatelliteId::new(u16::MAX, u16::MAX);
    let unreachable = m.per_satellite.get(&sentinel).map(|s| s.requests).unwrap_or(0);
    assert_eq!(
        m.served_primary + m.served_replica + m.served_origin_fallback + unreachable,
        m.stats.requests,
        "classification must cover every routed request"
    );
    let classified =
        m.served_primary + m.served_replica + m.served_origin_fallback + m.dropped_requests;

    // Drop rate bounded: with an admissible origin fallback and a huge
    // deadline, drops only happen once the first contact's own GSL is
    // saturated — they must stay a minority of the classified requests.
    assert!(
        m.dropped_requests < classified,
        "retry + fallback must rescue some requests ({} dropped of {classified})",
        m.dropped_requests
    );

    // A zero deadline is blown by the first shed probe that cost a round
    // trip: those requests drop instead of retrying at a replica.
    let zero = OverloadConfig { retry_deadline_ms: 0.0, ..overload };
    let mut cdn = SpaceCdn::new(cfg);
    let z = run_space_overloaded(&mut cdn, &spiked, &FaultSchedule::empty(), &zero);
    assert_eq!(z.stats.requests + z.dropped_requests, spiked.entries.len() as u64);
    assert!(z.dropped_requests > m.dropped_requests, "a blown deadline must drop");
    assert!(z.retry_attempts < m.retry_attempts, "a blown deadline must cut retries");
}
