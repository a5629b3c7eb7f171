//! One scenario table, every driver: each row — a world (with its fault
//! schedule), a trace, a fleet configuration and an overload setting —
//! goes through the log builders, the engine over rows
//! and over columns, the replayer over rows and over columns at 1, 4
//! and 8 workers, and a kill-at-mid-epoch → resume of the engine and of
//! the replayer, and must come out as one bit-exact `SystemMetrics`.
//!
//! Within one driver the comparison is field by field with latency
//! samples in sequence order (row and columnar runs execute identical
//! code, so even the ordering must agree). Across drivers the latency
//! samples are sorted first — the replayer merges per-shard samples in
//! shard order — and everything else is compared through
//! `metrics_digest`, which hashes every field a checkpoint preserves.
//!
//! Replayer comparisons need the no-relay config, where the parallel
//! replayer's exactness contract holds (relayed fetch replays
//! approximately; see `crates/sim/src/replayer.rs`).
//!
//! Every row's log is first held to a reference builder that reuses
//! nothing: a full advance and a fresh whole-fleet scan at every epoch
//! (`reference_log`). So the builders' window reuse, epoch runs and
//! chunks are pinned to the plainest answer, entry for entry down to
//! `gsl_oneway_ms.to_bits()`, at every worker count (1, 2, 3, 4, 8).
//!
//! The `builders_*` rows stop after the log builders. Their traces are
//! shaped to stress the scheduler's visibility window — two days of
//! sparse requests, silences longer than a window between bursts inside
//! one epoch — under churn on top of a sampled base outage, and each
//! also pins the CRC-32 of its log's binary encoding. Four more stress
//! the builders' lazy cells (a location is scheduled on the first request
//! that reads it in an epoch): cities that never speak, epochs of one
//! request, a city whose first read in an epoch follows a `SatDown` at
//! that epoch's boundary, and time running backwards — each in a calm
//! and a churning world.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use spacegen::trace::{LocationId, Request, Trace};
use starcdn::config::{DelayedHitConfig, StarCdnConfig};
use starcdn::metrics::SystemMetrics;
use starcdn::system::SpaceCdn;
use starcdn_cache::object::ObjectId;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::{
    ChurnParams, FaultEvent, FaultSchedule, ScheduleCursor, SolarStormParams, TimedFault,
};
use starcdn_io::RealIo;
use starcdn_orbit::time::SimTime;
use starcdn_orbit::walker::SatelliteId;
use starcdn_sim::columns::AccessLogColumns;
use starcdn_sim::overload::OverloadConfig;
use starcdn_sim::scheduler::{schedule_epoch_with, EpochSchedule, SchedulerConfig};
use starcdn_sim::{
    build_access_log, build_access_log_columns, build_access_log_columns_parallel, crc32, engine,
    metrics_digest, replayer, AccessLog, AccessLogEntry, CheckpointPolicy, Checkpointing, LogView,
    RunSpec, SimConfig, World,
};
use std::path::PathBuf;

const WORKERS: [usize; 3] = [1, 4, 8];
const BUILD_WORKERS: [usize; 5] = [1, 2, 3, 4, 8];

struct Row {
    world: World,
    trace: Trace,
    cdn: StarCdnConfig,
    overload: OverloadConfig,
}

fn trace() -> Trace {
    let reqs: Vec<Request> = (0..3000u64)
        .map(|k| Request {
            time: SimTime::from_secs(k / 6),
            object: ObjectId((k * 7919) % 200),
            size: 500 + (k % 5) * 100,
            location: LocationId((k % 9) as u16),
        })
        .collect();
    Trace::new(reqs)
}

/// Single-city trace for the delayed-hit rows: the first contact is
/// stable within a scheduler epoch, so same-epoch repeats land on one
/// owner and coalesce onto in-flight fetches; the small object
/// population keeps misses (and fetches) going all run.
fn delayed_trace() -> Trace {
    let reqs: Vec<Request> = (0..3000u64)
        .map(|k| Request {
            time: SimTime::from_secs(k / 6),
            object: ObjectId((k * 7919) % 50),
            size: 500 + (k % 5) * 100,
            location: LocationId(0),
        })
        .collect();
    Trace::new(reqs)
}

fn request(t_ms: u64, k: u64, rng: &mut StdRng) -> Request {
    Request {
        time: SimTime::from_millis(t_ms),
        object: ObjectId(k % 211),
        size: 500 + (k % 5) * 100,
        location: LocationId(rng.gen_range(0..9u16)),
    }
}

/// 48 h of one request every 1–40 s: most epochs hold a request or two,
/// some none, so the window is reused across gaps of every length up to
/// a few epochs.
fn sparse_two_days() -> Trace {
    let mut rng = StdRng::seed_from_u64(0x5AA5);
    let mut t_ms = 0u64;
    let mut reqs = Vec::new();
    while t_ms < 48 * 3_600_000 {
        reqs.push(request(t_ms, reqs.len() as u64, &mut rng));
        t_ms += rng.gen_range(1_000..40_000u64);
    }
    Trace::new(reqs)
}

/// Bursts of 30–90 requests inside one epoch, separated by silences: a
/// third of them shorter than the ~126 s window, the rest up to 40 min,
/// so every burst after a long silence starts from a refresh.
fn bursts_and_silences() -> Trace {
    let mut rng = StdRng::seed_from_u64(0xB0B5);
    let mut epoch = 0u64;
    let mut reqs = Vec::new();
    while epoch < 12 * 240 {
        let mut offsets: Vec<u64> =
            (0..rng.gen_range(30..90)).map(|_| rng.gen_range(0..15_000u64)).collect();
        offsets.sort_unstable();
        for off in offsets {
            reqs.push(request(epoch * 15_000 + off, reqs.len() as u64, &mut rng));
        }
        epoch += if rng.gen_range(0..3) == 0 {
            rng.gen_range(1..9u64)
        } else {
            rng.gen_range(9..159u64)
        };
    }
    Trace::new(reqs)
}

/// 12 h of one request every 1–30 s from six cities: 2, 5 and 7 never
/// speak, so their cells are never read.
fn three_silent_cities() -> Trace {
    let mut rng = StdRng::seed_from_u64(0x5113);
    let speakers = [0u16, 1, 3, 4, 6, 8];
    let mut t_ms = 0u64;
    let mut reqs = Vec::new();
    while t_ms < 12 * 3_600_000 {
        let mut r = request(t_ms, reqs.len() as u64, &mut rng);
        r.location = LocationId(speakers[rng.gen_range(0..speakers.len())]);
        reqs.push(r);
        t_ms += rng.gen_range(1_000..30_000u64);
    }
    Trace::new(reqs)
}

/// 12 h in which an epoch holds one request or none (about a third hold
/// one): every scheduled epoch schedules exactly one cell.
fn one_request_epochs() -> Trace {
    let mut rng = StdRng::seed_from_u64(0x0E0E);
    let mut reqs = Vec::new();
    for epoch in 0..12 * 240u64 {
        if rng.gen_range(0..3) == 0 {
            let t_ms = epoch * 15_000 + rng.gen_range(0..15_000u64);
            reqs.push(request(t_ms, reqs.len() as u64, &mut rng));
        }
    }
    Trace::new(reqs)
}

/// Twelve boundaries, 97 epochs apart: in the epoch before each, city 4
/// speaks; at the boundary every satellite its users held goes down (and
/// comes back two epochs later); in the epoch after, cities 0 and 8 speak
/// first and city 4's first request comes 5 s in. Returns the world with
/// those events, the trace, and each boundary's epoch with the
/// satellites that went down there.
#[allow(clippy::type_complexity)]
fn sat_down_before_first_read() -> (World, Trace, Vec<(u64, Vec<SatelliteId>)>) {
    let calm = World::starlink_nine_cities();
    let cfg = SimConfig::default().scheduler();
    let mut snapshot = calm.snapshot();
    let mut events = Vec::new();
    let mut boundaries = Vec::new();
    let mut reqs = Vec::new();
    let mut rng = StdRng::seed_from_u64(0xD017);
    let mut at = |secs_ms: u64, loc: u16, reqs: &mut Vec<Request>| {
        let mut r = request(secs_ms, reqs.len() as u64, &mut rng);
        r.location = LocationId(loc);
        reqs.push(r);
    };
    for b in (1..=12u64).map(|i| i * 97) {
        let before = (b - 1) * 15_000;
        for (off, loc) in [(3_000, 4), (6_000, 1), (9_000, 4)] {
            at(before + off, loc, &mut reqs);
        }
        for (off, loc) in [(500, 0), (2_000, 8), (5_000, 4), (7_000, 4), (11_000, 4), (12_000, 0)] {
            at(b * 15_000 + off, loc, &mut reqs);
        }
        snapshot.advance_to(SimTime::from_secs((b - 1) * 15));
        let held = schedule_epoch_with(&calm, &snapshot, b - 1, &cfg, &calm.failures);
        let mut down: Vec<SatelliteId> =
            held.assignments[4].iter().flatten().map(|a| a.satellite).collect();
        down.sort();
        down.dedup();
        for &sat in &down {
            events.push(TimedFault { at_secs: b * 15, event: FaultEvent::SatDown(sat) });
            events.push(TimedFault { at_secs: (b + 2) * 15, event: FaultEvent::SatUp(sat) });
        }
        boundaries.push((b, down));
    }
    let world = calm.with_fault_schedule(FaultSchedule::from_events(events));
    (world, Trace::new(reqs), boundaries)
}

/// Four hours of one request every 2–20 s, then the clock runs back: 50 s
/// (inside the last window), to an hour before, and to t = 0, each time
/// running forward again for 20–30 min. The trace is left in that order.
fn backward_jumps() -> Trace {
    let mut rng = StdRng::seed_from_u64(0xBAC4);
    let mut reqs = Vec::new();
    let hour = 3_600_000u64;
    for (from, to) in [
        (0, 4 * hour),
        (4 * hour - 50_000, 4 * hour + hour / 2),
        (3 * hour, 3 * hour + hour / 3),
        (0, hour / 3),
    ] {
        let mut t_ms = from;
        while t_ms < to {
            reqs.push(request(t_ms, reqs.len() as u64, &mut rng));
            t_ms += rng.gen_range(2_000..20_000u64);
        }
    }
    assert!(reqs.windows(2).filter(|w| w[1].time < w[0].time).count() == 3);
    Trace { requests: reqs }
}

/// Churn over `horizon_secs` on top of a sampled static outage of 126
/// slots (the paper's §5.4 count).
fn churning_with_outage(horizon_secs: u64, seed: u64) -> World {
    let base = World::starlink_nine_cities();
    let outage = FailureModel::sample(&base.grid, 126, seed);
    let churn = ChurnParams::sats_only(6.0 * 3600.0, 900.0, horizon_secs, seed ^ 0xC0FFEE);
    let schedule = FaultSchedule::churn(&base.grid, &churn);
    assert!(schedule.len() > 100, "churn parameters produced {} events", schedule.len());
    base.with_failures(outage).with_fault_schedule(schedule)
}

fn plain_cdn() -> StarCdnConfig {
    StarCdnConfig::starcdn_no_relay(4, 1_000_000)
}

/// Heterogeneous origin tiers (2/4/6 epochs) so the latency-aware paths
/// are live, not just the uniform degenerate case.
fn delayed_cdn() -> StarCdnConfig {
    let delayed = DelayedHitConfig::with_latency(2, 40.0).with_origin_tiers(3);
    StarCdnConfig::starcdn_no_relay(4, 20_000).with_delayed_hits(delayed)
}

fn transmission_cdn() -> StarCdnConfig {
    let mut cfg = plain_cdn();
    cfg.model_transmission_delay = true;
    cfg
}

fn calm() -> World {
    World::starlink_nine_cities()
}

fn churning(mtbf_secs: f64, mttr_secs: f64, seed: u64) -> World {
    let base = World::starlink_nine_cities();
    let schedule =
        FaultSchedule::churn(&base.grid, &ChurnParams::sats_only(mtbf_secs, mttr_secs, 500, seed));
    assert!(!schedule.is_empty(), "churn parameters produced no events");
    base.with_fault_schedule(schedule)
}

fn storm() -> World {
    let base = World::starlink_nine_cities();
    let storm = SolarStormParams {
        center_plane: 20,
        plane_halfwidth: 4,
        kill_prob: 0.9,
        onset_secs: 120,
        onset_jitter_secs: 30,
        recovery_start_secs: 300,
        recovery_spread_secs: 120,
        seed: 0xBEEF,
    };
    let schedule = FaultSchedule::solar_storm(&base.grid, &storm);
    assert!(!schedule.is_empty(), "storm produced no events");
    base.with_fault_schedule(schedule)
}

/// Headroom of `objects` mean-size objects per satellite per epoch —
/// tight enough that the lifecycle actually sheds (same calibration as
/// `ablation_overload`).
fn tight(t: &Trace, objects: f64) -> OverloadConfig {
    let mean = (t.total_bytes() / t.len() as u64) as f64;
    OverloadConfig::with_headroom(mean / 37_500_000_000.0 * objects)
}

fn off() -> OverloadConfig {
    OverloadConfig::disabled()
}

/// One `#[test]` per table row.
macro_rules! scenario_table {
    ($($name:ident: $world:expr, $trace:expr, $cdn:expr, $overload:expr;)*) => {$(
        #[test]
        fn $name() {
            let trace = $trace;
            let overload = ($overload)(&trace);
            check(stringify!($name), &Row { world: $world, trace, cdn: $cdn, overload });
        }
    )*};
}

scenario_table! {
    plain:                calm(),                         trace(),         plain_cdn(),        |_| off();
    churn:                churning(1800.0, 120.0, 0xD00D), trace(),        plain_cdn(),        |_| off();
    churn_fast:           churning(1500.0, 90.0, 0xFEED), trace(),         plain_cdn(),        |_| off();
    overload:             calm(),                         trace(),         plain_cdn(),        |t| tight(t, 1.5);
    churn_and_overload:   churning(1800.0, 120.0, 0xD00D), trace(),        plain_cdn(),        |t| tight(t, 1.5);
    solar_storm:          storm(),                        trace(),         plain_cdn(),        |t| tight(t, 8.0);
    delayed:              calm(),                         delayed_trace(), delayed_cdn(),      |_| off();
    delayed_churn:        churning(1800.0, 120.0, 0xD00D), delayed_trace(), delayed_cdn(),     |_| off();
    delayed_overload:     calm(),                         delayed_trace(), delayed_cdn(),      |t| tight(t, 1.5);
    transmission_delay:   calm(),                         trace(),         transmission_cdn(), |_| off();
    transmission_degraded: churning(1800.0, 120.0, 0xD00D), trace(),       transmission_cdn(), |t| tight(t, 1.5);
}

// The licence constants: CRC-32 of the three `builders_*` logs' binary
// encoding, recorded through the row builder and both columnar builders
// at the parent of the PR that deleted the row builder, the AoS scans
// and the allocating scheduler (15f0bb9). The reference and every
// builder that remains must still produce these bytes.
const CALM_LOG_CRC: u32 = 0x1b74_11db;
const SPARSE_LOG_CRC: u32 = 0x4259_a899;
const BURSTS_LOG_CRC: u32 = 0xa961_e5ff;

#[test]
fn builders_calm_nine_cities() {
    let (_, _, crc) = check_builders("calm", &calm(), &trace());
    assert_eq!(crc, CALM_LOG_CRC, "calm: log bytes moved");
}

#[test]
fn builders_sparse_two_days() {
    let (log, _, crc) =
        check_builders("sparse 48 h", &churning_with_outage(48 * 3600, 7), &sparse_two_days());
    assert_eq!(crc, SPARSE_LOG_CRC, "sparse 48 h: log bytes moved");
    let epochs: std::collections::BTreeSet<u64> =
        log.entries.iter().map(|e| e.time.as_secs() / 15).collect();
    assert!(epochs.len() > 6_000, "only {} of 11520 epochs hold a request", epochs.len());
    assert!(log.entries.iter().all(|e| e.first_contact.is_some()));
}

#[test]
fn builders_bursts_and_silences() {
    let (log, _, crc) =
        check_builders("bursts", &churning_with_outage(12 * 3600, 11), &bursts_and_silences());
    assert_eq!(crc, BURSTS_LOG_CRC, "bursts: log bytes moved");
    let gaps: Vec<u64> = log
        .entries
        .windows(2)
        .map(|w| w[1].time.as_millis() - w[0].time.as_millis())
        .filter(|&gap| gap >= 15_000)
        .collect();
    assert!(gaps.iter().any(|&g| g < 126_000) && gaps.iter().any(|&g| g > 1_200_000));
}

// CRC-32s of the lazy-cell rows' logs, calm world then churning world,
// recorded at the parent of the change that schedules a location on its
// first read and refreshes the window from orbital elements (92a1728):
// every cell scheduled at its epoch's boundary, every refresh a full
// advance and a sweep of positions.
const SILENT_CITIES_CRCS: [u32; 2] = [0xe378_e715, 0xe25a_4a6e];
const ONE_REQUEST_EPOCHS_CRCS: [u32; 2] = [0xd795_3e84, 0x9847_fdb0];
const SAT_DOWN_CRCS: [u32; 2] = [0xb455_d41f, 0x8046_e921];
const BACKWARD_CRCS: [u32; 2] = [0xcd4b_e0b7, 0x9014_a594];

/// [`check_builders`] in the calm world and under churn on a sampled
/// outage over `hours`; returns the two CRC-32s.
fn check_builders_calm_and_churn(name: &str, trace: &Trace, hours: u64) -> [u32; 2] {
    let churn = churning_with_outage(hours * 3600, 13);
    [check_builders(name, &calm(), trace).2, check_builders(name, &churn, trace).2]
}

#[test]
fn builders_three_silent_cities() {
    let trace = three_silent_cities();
    assert!(trace.requests.iter().all(|r| ![2, 5, 7].contains(&r.location.0)));
    let crcs = check_builders_calm_and_churn("silent cities", &trace, 12);
    assert_eq!(crcs, SILENT_CITIES_CRCS, "silent cities: log bytes moved ({crcs:#010x?})");
}

#[test]
fn builders_one_request_epochs() {
    let trace = one_request_epochs();
    let epochs: std::collections::BTreeSet<u64> =
        trace.requests.iter().map(|r| r.time.as_secs() / 15).collect();
    assert_eq!(epochs.len(), trace.len(), "an epoch holds two requests");
    assert!(trace.len() > 800);
    let crcs = check_builders_calm_and_churn("one-request epochs", &trace, 12);
    assert_eq!(
        crcs, ONE_REQUEST_EPOCHS_CRCS,
        "one-request epochs: log bytes moved ({crcs:#010x?})"
    );
}

#[test]
fn builders_first_read_after_sat_down() {
    let (churn, trace, boundaries) = sat_down_before_first_read();
    let (calm_log, _, calm_crc) = check_builders("sat down, calm", &calm(), &trace);
    let (log, _, crc) = check_builders("sat down", &churn, &trace);
    assert_eq!(
        [calm_crc, crc],
        SAT_DOWN_CRCS,
        "sat down: log bytes moved ({calm_crc:#010x}, {crc:#010x})"
    );
    // City 4, first read 5 s after the boundary, is handed over: none of
    // its entries in that epoch is on a satellite that went down, and
    // some differ from the calm world's.
    let mut moved = 0;
    for (b, down) in &boundaries {
        for (e, c) in log.entries.iter().zip(&calm_log.entries) {
            if e.location.0 == 4 && e.time.as_secs() / 15 == *b {
                let sat = e.first_contact.expect("a local outage leaves city 4 covered");
                assert!(!down.contains(&sat), "epoch {b}: city 4 on {sat}, down at the boundary");
                moved += (e.first_contact != c.first_contact) as usize;
            }
        }
    }
    assert!(moved >= boundaries.len(), "only {moved} handovers");
}

#[test]
fn builders_backward_time_jump() {
    let trace = backward_jumps();
    let crcs = check_builders_calm_and_churn("backward", &trace, 5);
    assert_eq!(crcs, BACKWARD_CRCS, "backward: log bytes moved ({crcs:#010x?})");
}

/// Every exported metric, bit-for-bit, latency samples in sequence.
fn assert_metrics_identical(a: &SystemMetrics, b: &SystemMetrics, what: &str) {
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.uplink_bytes, b.uplink_bytes, "{what}: uplink");
    assert_eq!(a.per_satellite, b.per_satellite, "{what}: per-satellite");
    assert_eq!(a.availability, b.availability, "{what}: availability");
    assert_eq!(a.partitioned_requests, b.partitioned_requests, "{what}: partitioned");
    assert_eq!(a.remapped_requests, b.remapped_requests, "{what}: remaps");
    assert_eq!(a.reroute_extra_hops, b.reroute_extra_hops, "{what}: reroutes");
    assert_eq!(a.cold_restart_misses, b.cold_restart_misses, "{what}: cold misses");
    assert_eq!(a.shed_requests, b.shed_requests, "{what}: sheds");
    assert_eq!(a.retry_attempts, b.retry_attempts, "{what}: retries");
    assert_eq!(a.served_origin_fallback, b.served_origin_fallback, "{what}: fallbacks");
    assert_eq!(a.dropped_requests, b.dropped_requests, "{what}: drops");
    assert_eq!(a.delayed_hits, b.delayed_hits, "{what}: delayed hits");
    assert_eq!(a.coalesced_requests, b.coalesced_requests, "{what}: coalesced");
    assert_eq!(a.residual_epoch_hist, b.residual_epoch_hist, "{what}: residual histogram");
    let bits =
        |m: &SystemMetrics| -> Vec<u64> { m.latencies_ms.iter().map(|l| l.to_bits()).collect() };
    assert_eq!(bits(a), bits(b), "{what}: latency bit patterns");
    assert_eq!(metrics_digest(a), metrics_digest(b), "{what}: digest");
}

/// The order-free identity of a run: the digest of its metrics with the
/// latency samples sorted by bit pattern.
fn canonical(m: &SystemMetrics) -> u64 {
    let mut m = m.clone();
    m.latencies_ms.sort_by_key(|l| l.to_bits());
    metrics_digest(&m)
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("starcdn-parity-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// CRC-32 of the 39-byte binary encoding of a log.
fn crc_of(write: impl FnOnce(&mut Vec<u8>) -> Result<(), spacegen::io::IoError>) -> u32 {
    let mut bytes = Vec::new();
    write(&mut bytes).expect("encode log");
    crc32(&bytes)
}

/// The reference log builder: at every epoch boundary a full advance,
/// the fault cursor, and a fresh whole-fleet `schedule_epoch_with`; users
/// round-robin by `count % users`. No window, no runs, no chunks.
fn reference_log(
    world: &World,
    trace: &Trace,
    epoch_secs: u64,
    cfg: &SchedulerConfig,
) -> AccessLog {
    let mut snapshot = world.snapshot();
    let mut cursor = ScheduleCursor::new(&world.schedule, world.failures.clone());
    let mut schedule = EpochSchedule { epoch_index: u64::MAX, assignments: Vec::new() };
    let mut rr = vec![0usize; world.num_locations()];
    let mut entries = Vec::with_capacity(trace.len());
    for r in &trace.requests {
        let epoch = r.time.as_secs() / epoch_secs;
        if epoch != schedule.epoch_index {
            snapshot.advance_to(SimTime::from_secs(epoch * epoch_secs));
            cursor.advance_to(epoch * epoch_secs);
            schedule = schedule_epoch_with(world, &snapshot, epoch, cfg, cursor.view());
        }
        let loc = r.location.0 as usize;
        let assignment = schedule.assignments[loc][rr[loc] % cfg.users_per_location];
        rr[loc] += 1;
        entries.push(AccessLogEntry {
            time: r.time,
            object: r.object,
            size: r.size,
            location: r.location,
            first_contact: assignment.map(|a| a.satellite),
            gsl_oneway_ms: assignment.map_or(0.0, |a| a.gsl_oneway_ms),
        });
    }
    AccessLog { entries, epoch_secs }
}

/// Reference ≡ rows ≡ sequential columnar ≡ parallel columnar at every
/// worker count, entry for entry with the GSL delay compared as bits;
/// returns the logs and the CRC-32 of their (identical) binary encoding.
fn check_builders(name: &str, world: &World, trace: &Trace) -> (AccessLog, AccessLogColumns, u32) {
    let sim = SimConfig::default();
    let log = reference_log(world, trace, sim.epoch_secs, &sim.scheduler());
    let cols: AccessLogColumns =
        build_access_log_columns(world, trace, sim.epoch_secs, &sim.scheduler());
    assert_eq!(cols.len(), log.len(), "{name}: columnar builder's entry count");
    for (i, (c, r)) in cols.iter().zip(&log.entries).enumerate() {
        assert_eq!(c, *r, "{name}: columnar builder diverged from the reference at entry {i}");
        assert_eq!(c.gsl_oneway_ms.to_bits(), r.gsl_oneway_ms.to_bits(), "{name}: entry {i} gsl");
    }
    let crc = crc_of(|b| log.write_binary(b));
    assert_eq!(crc_of(|b| cols.write_binary(b)), crc, "{name}: columnar builder's bytes");
    let rows = build_access_log(world, trace, sim.epoch_secs, &sim.scheduler());
    assert_eq!(crc_of(|b| rows.write_binary(b)), crc, "{name}: row builder's bytes");
    let gsl_bits = |c: &AccessLogColumns| -> Vec<u64> {
        c.iter().map(|e| e.gsl_oneway_ms.to_bits()).collect()
    };
    let want_bits = gsl_bits(&cols);
    for n in BUILD_WORKERS {
        let par =
            build_access_log_columns_parallel(world, trace, sim.epoch_secs, &sim.scheduler(), n);
        assert_eq!(par, cols, "{name}: parallel columnar builder at {n} workers");
        assert_eq!(gsl_bits(&par), want_bits, "{name}: gsl bits at {n} workers");
        assert_eq!(crc_of(|b| par.write_binary(b)), crc, "{name}: bytes at {n} workers");
    }
    (log, cols, crc)
}

fn check(name: &str, row: &Row) {
    let Row { world, trace, cdn, overload } = row;
    let (log, cols, _) = check_builders(name, world, trace);

    let spec = RunSpec { schedule: &world.schedule, overload: *overload, ..RunSpec::default() };
    let run_engine = |log: LogView<'_>, spec: &RunSpec<'_>| {
        let mut fleet = SpaceCdn::with_failures(cdn.clone(), world.failures.clone());
        engine::run(&mut fleet, log, spec)
    };
    let run_replayer = |log: LogView<'_>, workers: usize, spec: &RunSpec<'_>| {
        replayer::run(cdn, &world.failures, log, workers, spec)
    };

    // Engine: rows vs columns.
    let m_row = run_engine((&log).into(), &spec).unwrap();
    let m_col = run_engine((&cols).into(), &spec).unwrap();
    assert_metrics_identical(&m_row, &m_col, &format!("{name}: engine"));
    if cdn.delayed.is_enabled() {
        assert!(m_row.delayed_hits > 0, "{name}: delayed config must exercise coalescing");
    }
    let golden = canonical(&m_row);

    // Replayer: rows vs columns at each worker count, and both against
    // the engine.
    for n in WORKERS {
        let m_rpar = run_replayer((&log).into(), n, &spec).unwrap();
        let m_cpar = run_replayer((&cols).into(), n, &spec).unwrap();
        assert_metrics_identical(&m_rpar, &m_cpar, &format!("{name}: replayer {n} workers"));
        assert_eq!(m_row.stats, m_rpar.stats, "{name}: engine vs replayer {n} workers");
        assert_eq!(m_row.per_satellite, m_rpar.per_satellite, "{name}: {n} workers");
        assert_eq!(golden, canonical(&m_rpar), "{name}: engine vs replayer {n} workers");
    }

    // Kill mid-epoch, resume: a run over a prefix that ends inside an
    // epoch leaves exactly the checkpoints a process killed there would;
    // resuming over the full log must land on the same metrics, in
    // either representation.
    let cut = log.len() * 2 / 3;
    let epoch_of = |i: usize| log.entries[i].time.as_secs() / log.epoch_secs;
    assert_eq!(epoch_of(cut - 1), epoch_of(cut), "{name}: the kill must land inside an epoch");
    let prefix = AccessLog { entries: log.entries[..cut].to_vec(), epoch_secs: log.epoch_secs };
    let prefix_cols = AccessLogColumns::from_log(&prefix);
    let kill_resume = |tag: &str, run: &dyn Fn(bool, &RunSpec<'_>) -> SystemMetrics| {
        let dir = tmpdir(&format!("{name}-{tag}"));
        let policy = CheckpointPolicy { every_n_epochs: 3, dir: dir.clone(), keep_last: 0 };
        let with = |resume| RunSpec {
            checkpoint: Some(Checkpointing { policy: &policy, io: &RealIo, resume }),
            ..spec
        };
        run(true, &with(false));
        let resumed = run(false, &with(true));
        assert_eq!(golden, canonical(&resumed), "{name}: {tag} kill/resume");
        let _ = std::fs::remove_dir_all(&dir);
        resumed
    };
    let e_rows = kill_resume("engine-rows", &|killed, spec| {
        run_engine(if killed { (&prefix).into() } else { (&log).into() }, spec).unwrap()
    });
    assert_metrics_identical(&m_row, &e_rows, &format!("{name}: engine rows kill/resume"));
    let e_cols = kill_resume("engine-cols", &|killed, spec| {
        run_engine(if killed { (&prefix_cols).into() } else { (&cols).into() }, spec).unwrap()
    });
    assert_metrics_identical(&m_row, &e_cols, &format!("{name}: engine columns kill/resume"));
    for n in WORKERS {
        // Alternate the representation so both meet every worker count
        // across the table without doubling the runs.
        let columnar = n == 4;
        kill_resume(&format!("replayer-{n}"), &|killed, spec| {
            let view: LogView<'_> = match (killed, columnar) {
                (true, false) => (&prefix).into(),
                (true, true) => (&prefix_cols).into(),
                (false, false) => (&log).into(),
                (false, true) => (&cols).into(),
            };
            run_replayer(view, n, spec).unwrap()
        });
    }
}
