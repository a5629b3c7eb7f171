//! Integration: the sharded parallel replayer agrees with the
//! deterministic engine exactly at any worker count, relay included.

use spacegen::classes::TrafficClass;
use spacegen::production::ProductionModel;
use spacegen::trace::Location;
use starcdn::config::StarCdnConfig;
use starcdn::system::SpaceCdn;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::{ChurnParams, FaultSchedule, SolarStormParams};
use starcdn_orbit::time::SimDuration;
use starcdn_sim::access_log::{build_access_log, AccessLog};
use starcdn_sim::engine::{run_space, RunSpec, SimConfig};
use starcdn_sim::replayer::replay_parallel;
use starcdn_sim::world::World;
use starcdn_sim::{build_access_log_recorded, metrics_digest};
use starcdn_telemetry::{Event, MemoryRecorder, Noop, Recorder, TelemetrySnapshot};
use std::collections::BTreeMap;

/// The engine under a fault schedule.
fn engine_with_faults(
    cdn: &mut SpaceCdn,
    log: &AccessLog,
    schedule: &FaultSchedule,
) -> starcdn::metrics::SystemMetrics {
    starcdn_sim::engine::run(cdn, log, &RunSpec { schedule, ..RunSpec::default() }).unwrap()
}

/// The replayer (no static failures) under a fault schedule, recording
/// into `rec`.
fn replay_with_faults(
    cfg: &StarCdnConfig,
    log: &AccessLog,
    schedule: &FaultSchedule,
    workers: usize,
    rec: &dyn Recorder,
) -> starcdn::metrics::SystemMetrics {
    let spec = RunSpec { schedule, recorder: rec, ..RunSpec::default() };
    starcdn_sim::replayer::run(cfg, &FailureModel::none(), log, workers, &spec).unwrap()
}

fn log() -> AccessLog {
    let locations = Location::akamai_nine();
    let model = ProductionModel::build(TrafficClass::Video.params().scaled(0.02), &locations, 61);
    let trace = model.generate_trace(SimDuration::from_hours(1), 61);
    let world = World::starlink_nine_cities();
    build_access_log(&world, &trace, 15, &SimConfig::default().scheduler())
}

/// Satellite and link churn over the hour of [`log`]'s trace.
fn churn_params() -> ChurnParams {
    ChurnParams {
        sat_mtbf_secs: 3.0 * 3600.0,
        sat_mttr_secs: 600.0,
        link_mtbf_secs: Some(4.0 * 3600.0),
        link_mttr_secs: 600.0,
        horizon_secs: 3600,
        seed: 91,
    }
}

#[test]
fn parallel_exact_parity_without_relay_across_worker_counts() {
    let log = log();
    let cfg = StarCdnConfig::starcdn_no_relay(9, 5_000_000);
    let mut seq = SpaceCdn::new(cfg.clone());
    let reference = run_space(&mut seq, &log);
    for workers in [1, 2, 7, 16] {
        let par = replay_parallel(cfg.clone(), FailureModel::none(), &log, workers);
        assert_eq!(par.stats, reference.stats, "{workers} workers");
        assert_eq!(par.uplink_bytes, reference.uplink_bytes);
        assert_eq!(par.per_satellite, reference.per_satellite);
    }
}

/// `m`'s digest with its latency samples sorted: the engine books them
/// in log order, the replayer shard after shard.
fn sorted_digest(m: &starcdn::metrics::SystemMetrics) -> u64 {
    let mut m = m.clone();
    m.latencies_ms.sort_by(f64::total_cmp);
    metrics_digest(&m)
}

/// Each worker owns whole relay groups, so every relay and probe read
/// sees the neighbour state the engine saw: the replayer *is* the
/// engine at every worker count, relay, probe, transmission delay,
/// delayed hits and static outages included — the pin that lets both
/// run the one serve kernel.
#[test]
fn every_worker_count_is_the_engine() {
    use starcdn::config::DelayedHitConfig;
    let log = log();
    let grid = World::starlink_nine_cities().grid;
    let mut relay_west = 0;
    let mut delayed_hits = 0;
    for buckets in [4, 9] {
        for delayed in [false, true] {
            for extras in [false, true] {
                for outages in [false, true] {
                    let mut cfg = StarCdnConfig::starcdn(buckets, 5_000_000);
                    if delayed {
                        cfg = cfg.with_delayed_hits(
                            DelayedHitConfig::with_latency(2, 40.0).with_origin_tiers(3),
                        );
                    }
                    cfg.probe_neighbors_on_miss = extras;
                    cfg.model_transmission_delay = extras;
                    let failures = if outages {
                        FailureModel::sample(&grid, 126, 3)
                    } else {
                        FailureModel::none()
                    };
                    let cell =
                        format!("L={buckets} delayed={delayed} extras={extras} outages={outages}");
                    let mut seq = SpaceCdn::with_failures(cfg.clone(), failures.clone());
                    let engine = run_space(&mut seq, &log);
                    for workers in [1, 2, 4, 8] {
                        let par = replay_parallel(cfg.clone(), failures.clone(), &log, workers);
                        let cell = format!("{cell} at {workers} workers");
                        assert_eq!(par.stats, engine.stats, "{cell}: stats");
                        assert_eq!(sorted_digest(&par), sorted_digest(&engine), "{cell}: digest");
                    }
                    assert_eq!(outages, engine.remapped_requests > 0, "{cell}: remap coverage");
                    let probed = engine.neighbor_availability.total_misses() > 0;
                    assert_eq!(extras, probed, "{cell}: probe coverage");
                    relay_west += engine.served_relay_west;
                    delayed_hits += engine.delayed_hits;
                }
            }
        }
    }
    assert!(relay_west > 0, "the cells must exercise relayed fetch");
    assert!(delayed_hits > 0, "the delayed cells must exercise coalescing");
}

/// Under churn the replayer resolves relay and probe candidates against
/// the base failure view, the view its shard table is drawn on, while
/// the engine resolves them against each epoch's live view: with relay
/// the two may differ. The replayer still equals itself at every worker
/// count.
#[test]
fn relay_under_churn_is_the_same_at_every_worker_count() {
    let world = World::starlink_nine_cities();
    let params = ChurnParams {
        sat_mtbf_secs: 3.0 * 3600.0,
        sat_mttr_secs: 600.0,
        link_mtbf_secs: Some(4.0 * 3600.0),
        link_mttr_secs: 600.0,
        horizon_secs: 3600,
        seed: 91,
    };
    let sched = FaultSchedule::churn(&world.grid, &params);
    let base = FailureModel::sample(&world.grid, 126, 3);
    let log = log();
    let mut cfg = StarCdnConfig::starcdn(9, 5_000_000);
    cfg.probe_neighbors_on_miss = true;
    let spec = RunSpec { schedule: &sched, ..RunSpec::default() };
    let replay = |workers| starcdn_sim::replayer::run(&cfg, &base, &log, workers, &spec).unwrap();
    let one = replay(1);
    assert!(one.served_relay_west + one.served_relay_east > 0, "the run must relay");
    assert!(one.cold_restart_misses > 0, "churn must surface cold restarts");
    for workers in [2, 4, 8] {
        assert_eq!(sorted_digest(&replay(workers)), sorted_digest(&one), "{workers} workers");
    }
}

#[test]
fn parallel_exact_parity_under_churn() {
    // A nonempty time-varying schedule (satellite churn + link flaps):
    // the sequential engine and the parallel replayer must agree on
    // every metric, including the degraded-mode counters and the
    // availability timeline, at any worker count.
    let locations = Location::akamai_nine();
    let model = ProductionModel::build(TrafficClass::Video.params().scaled(0.02), &locations, 61);
    let trace = model.generate_trace(SimDuration::from_hours(1), 61);
    let world = World::starlink_nine_cities();
    let params = ChurnParams {
        sat_mtbf_secs: 3.0 * 3600.0,
        sat_mttr_secs: 600.0,
        link_mtbf_secs: Some(4.0 * 3600.0),
        link_mttr_secs: 600.0,
        horizon_secs: 3600,
        seed: 91,
    };
    let sched = FaultSchedule::churn(&world.grid, &params);
    assert!(!sched.is_empty(), "1 h at 3 h MTBF over 1296 satellites must churn");
    let world = world.with_fault_schedule(sched.clone());
    let log = build_access_log(&world, &trace, 15, &SimConfig::default().scheduler());

    let cfg = StarCdnConfig::starcdn_no_relay(9, 5_000_000);
    let mut seq = SpaceCdn::new(cfg.clone());
    let reference = engine_with_faults(&mut seq, &log, &sched);
    assert!(reference.cold_restart_misses > 0, "churn must surface cold restarts");
    assert!(reference.remapped_requests > 0, "churn must remap some requests");
    for workers in [1, 3, 8] {
        let par = replay_with_faults(&cfg, &log, &sched, workers, &Noop);
        assert_eq!(par.stats, reference.stats, "{workers} workers");
        assert_eq!(par.uplink_bytes, reference.uplink_bytes, "{workers} workers");
        assert_eq!(par.per_satellite, reference.per_satellite, "{workers} workers");
        assert_eq!(par.cold_restart_misses, reference.cold_restart_misses, "{workers} workers");
        assert_eq!(par.remapped_requests, reference.remapped_requests, "{workers} workers");
        assert_eq!(par.reroute_extra_hops, reference.reroute_extra_hops, "{workers} workers");
        assert_eq!(par.availability, reference.availability, "{workers} workers");
    }
}

/// Overload admission on top of a nonempty churn schedule: the
/// lifecycle (admit/shed/retry/fallback/drop) runs on the replayer's
/// pre-pass against the same failure views and ledger state as the
/// engine, so every metric — including the overload counters, the
/// utilization timeline, and each individual latency sample — must
/// agree bit-for-bit at any worker count.
#[test]
fn parallel_exact_parity_under_overload_and_churn() {
    use starcdn_sim::engine::run_space_overloaded;
    use starcdn_sim::overload::OverloadConfig;
    use starcdn_sim::replayer::replay_parallel_overloaded;

    let locations = Location::akamai_nine();
    let model = ProductionModel::build(TrafficClass::Video.params().scaled(0.02), &locations, 61);
    let trace = model.generate_trace(SimDuration::from_hours(1), 61);
    let world = World::starlink_nine_cities();
    let params = ChurnParams {
        sat_mtbf_secs: 3.0 * 3600.0,
        sat_mttr_secs: 600.0,
        link_mtbf_secs: Some(4.0 * 3600.0),
        link_mttr_secs: 600.0,
        horizon_secs: 3600,
        seed: 91,
    };
    let sched = FaultSchedule::churn(&world.grid, &params);
    let world = world.with_fault_schedule(sched.clone());
    let log = build_access_log(&world, &trace, 15, &SimConfig::default().scheduler());
    let cfg = StarCdnConfig::starcdn_no_relay(9, 5_000_000);

    // Headroom ≈ 1.5 mean objects per satellite per epoch: tight enough
    // that shedding, retries, fallbacks and drops all actually happen.
    let mean = log.entries.iter().map(|e| e.size).sum::<u64>() / log.entries.len() as u64;
    let headroom = mean as f64 * 1.5 / 37_500_000_000.0;
    let overload = OverloadConfig { headroom, retry_deadline_ms: 1e9 };

    let mut seq = SpaceCdn::new(cfg.clone());
    let reference = run_space_overloaded(&mut seq, &log, &sched, &overload);
    assert!(reference.shed_requests > 0, "overload run must shed");
    assert!(reference.retry_attempts > 0, "sheds must trigger retries");
    assert!(!reference.utilization.is_empty(), "ledger must emit a timeline");

    let sorted_bits = |m: &starcdn::metrics::SystemMetrics| {
        let mut v = m.latencies_ms.clone();
        v.sort_by(f64::total_cmp);
        v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
    };
    let ref_lat = sorted_bits(&reference);
    for workers in [1, 4, 8] {
        let par = replay_parallel_overloaded(
            cfg.clone(),
            FailureModel::none(),
            &log,
            &sched,
            workers,
            &overload,
        );
        assert_eq!(par.stats, reference.stats, "{workers} workers");
        assert_eq!(par.uplink_bytes, reference.uplink_bytes, "{workers} workers");
        assert_eq!(par.per_satellite, reference.per_satellite, "{workers} workers");
        assert_eq!(par.cold_restart_misses, reference.cold_restart_misses, "{workers} workers");
        assert_eq!(par.remapped_requests, reference.remapped_requests, "{workers} workers");
        assert_eq!(par.reroute_extra_hops, reference.reroute_extra_hops, "{workers} workers");
        assert_eq!(par.availability, reference.availability, "{workers} workers");
        assert_eq!(par.shed_requests, reference.shed_requests, "{workers} workers");
        assert_eq!(par.retry_attempts, reference.retry_attempts, "{workers} workers");
        assert_eq!(par.served_primary, reference.served_primary, "{workers} workers");
        assert_eq!(par.served_replica, reference.served_replica, "{workers} workers");
        assert_eq!(
            par.served_origin_fallback, reference.served_origin_fallback,
            "{workers} workers"
        );
        assert_eq!(par.dropped_requests, reference.dropped_requests, "{workers} workers");
        assert_eq!(par.utilization, reference.utilization, "{workers} workers");
        assert_eq!(sorted_bits(&par), ref_lat, "{workers} workers: latency samples");
    }
}

#[test]
fn telemetry_recording_never_changes_replayer_output() {
    // The telemetry determinism contract: a live MemoryRecorder must not
    // perturb a single metric relative to the no-op recorder, under
    // churn and at any worker count — and the recorder itself must merge
    // its per-worker shards deterministically.
    use starcdn_telemetry::{Counter, Stage};

    let locations = Location::akamai_nine();
    let model = ProductionModel::build(TrafficClass::Video.params().scaled(0.02), &locations, 61);
    let trace = model.generate_trace(SimDuration::from_hours(1), 61);
    let world = World::starlink_nine_cities();
    let sched = FaultSchedule::churn(&world.grid, &churn_params());
    let world = world.with_fault_schedule(sched.clone());
    let log = build_access_log(&world, &trace, 15, &SimConfig::default().scheduler());
    let cfg = StarCdnConfig::starcdn_no_relay(9, 5_000_000);

    let reference = replay_with_faults(&cfg, &log, &sched, 4, &Noop);
    let mut snapshots = Vec::new();
    for workers in [1, 4, 8] {
        let rec = MemoryRecorder::new();
        let recorded = replay_with_faults(&cfg, &log, &sched, workers, &rec);
        assert_eq!(recorded.stats, reference.stats, "{workers} workers");
        assert_eq!(recorded.per_satellite, reference.per_satellite, "{workers} workers");
        assert_eq!(recorded.uplink_bytes, reference.uplink_bytes, "{workers} workers");
        assert_eq!(
            recorded.cold_restart_misses, reference.cold_restart_misses,
            "{workers} workers"
        );
        assert_eq!(recorded.availability, reference.availability, "{workers} workers");

        // The recorder saw the run: counters line up with the metrics.
        let snap = rec.snapshot();
        assert_eq!(
            snap.counter(Counter::CacheHits) + snap.counter(Counter::CacheMisses),
            snap.counter(Counter::RequestsRouted),
            "{workers} workers"
        );
        assert_eq!(
            snap.counter(Counter::ColdRestartMisses),
            reference.cold_restart_misses,
            "{workers} workers"
        );
        assert_eq!(
            snap.counter(Counter::RemappedRequests),
            reference.remapped_requests,
            "{workers} workers"
        );
        assert_eq!(
            snap.counter(Counter::RerouteExtraHops),
            reference.reroute_extra_hops,
            "{workers} workers"
        );
        assert!(snap.spans.keys().any(|&(s, _)| s == Stage::ReplayShard));
        snapshots.push(snap);
    }

    // The engine row: it resolves and serves through the same two
    // functions, so a recorded engine run satisfies the same identities
    // (it used to emit none of the degraded-mode counters and classify
    // its routes unrecorded), and recording still moves no metric.
    let rec = MemoryRecorder::new();
    let spec = RunSpec { schedule: &sched, recorder: &rec, ..RunSpec::default() };
    let recorded = starcdn_sim::engine::run(&mut SpaceCdn::new(cfg.clone()), &log, &spec).unwrap();
    let silent = engine_with_faults(&mut SpaceCdn::new(cfg.clone()), &log, &sched);
    assert_eq!(
        starcdn_sim::metrics_digest(&recorded),
        starcdn_sim::metrics_digest(&silent),
        "engine: Noop ≡ recorded"
    );
    let snap = rec.snapshot();
    assert_eq!(
        snap.counter(Counter::CacheHits) + snap.counter(Counter::CacheMisses),
        snap.counter(Counter::RequestsRouted),
    );
    assert!(recorded.cold_restart_misses > 0 && recorded.reroute_extra_hops > 0);
    assert_eq!(snap.counter(Counter::ColdRestartMisses), recorded.cold_restart_misses);
    assert_eq!(snap.counter(Counter::RemappedRequests), recorded.remapped_requests);
    assert_eq!(snap.counter(Counter::RerouteExtraHops), recorded.reroute_extra_hops);
    // One classification per request in either driver: the fault-routing
    // search is counted in the engine's churn runs too.
    assert!(snap.counter(Counter::BfsRoutes) > 0);
    assert_eq!(snap.counter(Counter::BfsRoutes), snapshots[0].counter(Counter::BfsRoutes));
    // Worker-count-independent telemetry: counters, histograms, and the
    // event timeline are identical across 1/4/8 workers. QueueDepth is
    // excluded (it records per-shard queue lengths, which depend on the
    // shard count by design), as are span timings (wall-clock) and
    // ReplayShard keys (one per shard).
    let histos_sans_queue = |snap: &starcdn_telemetry::TelemetrySnapshot| {
        snap.histograms
            .iter()
            .filter(|(h, _)| *h != starcdn_telemetry::Histo::QueueDepth)
            .cloned()
            .collect::<Vec<_>>()
    };
    for pair in snapshots.windows(2) {
        assert_eq!(pair[0].counters, pair[1].counters);
        assert_eq!(histos_sans_queue(&pair[0]), histos_sans_queue(&pair[1]));
        assert_eq!(pair[0].events, pair[1].events);
    }

    // Two runs at the same worker count export byte-identically apart
    // from wall-clock span durations.
    let rec = MemoryRecorder::new();
    replay_with_faults(&cfg, &log, &sched, 4, &rec);
    let again = rec.snapshot();
    assert_eq!(again.counters, snapshots[1].counters);
    assert_eq!(again.histograms, snapshots[1].histograms);
    assert_eq!(again.events, snapshots[1].events);

    // The whole pipeline under one recorder: the log build
    // feeding the engine and the replayer. Recording moves the metrics
    // of neither, and a second recorded pipeline exports the same
    // counters, events and histogram buckets.
    let pipeline = |rec: &dyn Recorder| {
        let scheduler = SimConfig::default().scheduler();
        let log = build_access_log_recorded(&world, &trace, 15, &scheduler, rec);
        let spec = RunSpec { schedule: &sched, recorder: rec, ..RunSpec::default() };
        let engine = starcdn_sim::engine::run(&mut SpaceCdn::new(cfg.clone()), &log, &spec);
        let replayer = starcdn_sim::replayer::run(&cfg, &FailureModel::none(), &log, 4, &spec);
        let (engine, replayer) = (engine.unwrap(), replayer.unwrap());
        assert_eq!(engine.stats, replayer.stats, "replayer diverged from engine");
        (metrics_digest(&engine), metrics_digest(&replayer))
    };
    let silent = pipeline(&Noop);
    let [rec, rec2] = [MemoryRecorder::new(), MemoryRecorder::new()];
    assert_eq!(pipeline(&rec), silent, "pipeline: Noop ≡ recorded");
    assert_eq!(pipeline(&rec2), silent);
    let (snap, snap2) = (rec.snapshot(), rec2.snapshot());
    assert_eq!(snap.counters, snap2.counters, "counters are not deterministic");
    assert_eq!(snap.events, snap2.events, "event timeline is not deterministic");
    let buckets = |s: &starcdn_telemetry::TelemetrySnapshot| {
        s.histograms.iter().map(|(h, hs)| (*h, hs.buckets.clone())).collect::<Vec<_>>()
    };
    assert_eq!(buckets(&snap), buckets(&snap2), "histograms are not deterministic");
    // The build's visibility window refreshed at least once, and never
    // more often than it scheduled an epoch.
    let refreshes = snap.counter(Counter::VisibilityRefreshes);
    let epochs = snap.counter(Counter::ScheduleEpochs);
    assert!((1..=epochs).contains(&refreshes), "{refreshes} refreshes in {epochs} epochs");
}

/// The fault-event timeline of a recorded run: every `(event, epoch)`
/// cell's count, checkpoint fallbacks (a resume's, not the run's) left
/// out.
fn fault_events(snap: &TelemetrySnapshot) -> BTreeMap<(Event, u64), u64> {
    let timeline = snap.events.iter().filter(|((e, _), _)| *e != Event::CheckpointRestoreFallback);
    timeline.map(|(&cell, &n)| (cell, n)).collect()
}

/// Every driver records one fault-event timeline, because each event is
/// recorded where its counter is counted, stamped with its request's
/// epoch: the engine and the replayer at 1/4/8 workers agree cell for
/// cell under churn (cold misses are counted by the workers) and under
/// static outages with no schedule (remaps and detours are counted on
/// resolve, whatever the fault source), and each event's total is its
/// counter. The socket plane's row is in `crates/net/tests/serve_plane.rs`.
#[test]
fn every_driver_records_the_same_fault_event_timeline() {
    let cfg = StarCdnConfig::starcdn_no_relay(9, 5_000_000);
    let world = World::starlink_nine_cities();
    let churn = FaultSchedule::churn(&world.grid, &churn_params());
    let churn_log = {
        let locations = Location::akamai_nine();
        let model =
            ProductionModel::build(TrafficClass::Video.params().scaled(0.02), &locations, 61);
        let trace = model.generate_trace(SimDuration::from_hours(1), 61);
        let world = World::starlink_nine_cities().with_fault_schedule(churn.clone());
        build_access_log(&world, &trace, 15, &SimConfig::default().scheduler())
    };
    let (no_schedule, outages) =
        (FaultSchedule::empty(), FailureModel::sample(&world.grid, 126, 3));
    let scenarios = [
        ("churn", FailureModel::none(), &churn, churn_log),
        ("static outages", outages, &no_schedule, log()),
    ];
    for (name, base, schedule, log) in scenarios {
        let rec = MemoryRecorder::new();
        let spec = RunSpec { schedule, recorder: &rec, ..RunSpec::default() };
        let mut fleet = SpaceCdn::with_failures(cfg.clone(), base.clone());
        let m = starcdn_sim::engine::run(&mut fleet, &log, &spec).unwrap();
        let engine = fault_events(&rec.snapshot());
        let total = |event| -> u64 {
            engine.iter().filter(|((e, _), _)| *e == event).map(|(_, n)| n).sum()
        };
        assert_eq!(total(Event::Remap), m.remapped_requests, "{name}: remaps");
        assert_eq!(total(Event::Reroute), m.reroute_extra_hops, "{name}: detour hops");
        assert_eq!(total(Event::ColdMiss), m.cold_restart_misses, "{name}: cold misses");
        assert!(m.remapped_requests > 0 && m.reroute_extra_hops > 0, "{name}: faults route");
        assert_eq!(m.cold_restart_misses > 0, name == "churn", "{name}: cold restarts");
        for workers in [1, 4, 8] {
            let rec = MemoryRecorder::new();
            let spec = RunSpec { schedule, recorder: &rec, ..RunSpec::default() };
            starcdn_sim::replayer::run(&cfg, &base, &log, workers, &spec).unwrap();
            assert_eq!(fault_events(&rec.snapshot()), engine, "{name} at {workers} workers");
        }
    }
}

/// A request whose owner no path reaches is booked where it is resolved
/// and never served, so both drivers count it once, as partitioned or
/// unroutable — never also as routed, missed and timed.
#[test]
fn engine_and_replayer_record_owner_unreachable_alike() {
    use starcdn_telemetry::Counter;
    let log = log();
    let failures = FailureModel::sample(&World::starlink_nine_cities().grid, 126, 3);
    let cfg = StarCdnConfig::starcdn_no_relay(9, 5_000_000);
    let spec_for = |rec| RunSpec { recorder: rec, ..RunSpec::default() };

    let engine_rec = MemoryRecorder::new();
    let mut fleet = SpaceCdn::with_failures(cfg.clone(), failures.clone());
    let engine = starcdn_sim::engine::run(&mut fleet, &log, &spec_for(&engine_rec)).unwrap();
    let replay_rec = MemoryRecorder::new();
    let replay =
        starcdn_sim::replayer::run(&cfg, &failures, &log, 1, &spec_for(&replay_rec)).unwrap();

    let (e, r) = (engine_rec.snapshot(), replay_rec.snapshot());
    assert!(
        e.counter(Counter::RequestsPartitioned) + e.counter(Counter::RequestsUnroutable) > 0,
        "126 dead satellites must strand some owners"
    );
    assert_eq!(e.counters, r.counters);
    assert_eq!(engine.stats, replay.stats);
    assert_eq!(engine.partitioned_requests, replay.partitioned_requests);
}

/// Single-city trace for the delayed-hit parity pins: the first
/// contact is stable within a scheduler epoch, so same-epoch repeats
/// land on one owner and coalesce onto in-flight fetches.
fn delayed_log() -> AccessLog {
    use spacegen::trace::{LocationId, Request, Trace};
    use starcdn_cache::object::ObjectId;
    use starcdn_orbit::time::SimTime;
    let world = World::starlink_nine_cities();
    let reqs: Vec<Request> = (0..4000u64)
        .map(|k| Request {
            time: SimTime::from_secs(k / 6),
            object: ObjectId((k * 7919) % 60),
            size: 500 + (k % 5) * 100,
            location: LocationId(0),
        })
        .collect();
    build_access_log(&world, &Trace::new(reqs), 15, &SimConfig::default().scheduler())
}

fn delayed_cfg() -> StarCdnConfig {
    use starcdn::config::DelayedHitConfig;
    // Heterogeneous origin tiers (2/4/6 epochs in flight) so the
    // latency-aware machinery — not just the uniform degenerate case —
    // is under the parity pin.
    StarCdnConfig::starcdn_no_relay(4, 20_000)
        .with_delayed_hits(DelayedHitConfig::with_latency(2, 40.0).with_origin_tiers(3))
}

fn assert_delayed_metrics_equal(
    a: &starcdn::metrics::SystemMetrics,
    b: &starcdn::metrics::SystemMetrics,
    what: &str,
) {
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.uplink_bytes, b.uplink_bytes, "{what}: uplink");
    assert_eq!(a.per_satellite, b.per_satellite, "{what}: per-satellite");
    assert_eq!(a.delayed_hits, b.delayed_hits, "{what}: delayed hits");
    assert_eq!(a.coalesced_requests, b.coalesced_requests, "{what}: coalesced");
    assert_eq!(a.residual_epoch_hist, b.residual_epoch_hist, "{what}: residual histogram");
    let sorted = |m: &starcdn::metrics::SystemMetrics| {
        let mut bits: Vec<u64> = m.latencies_ms.iter().map(|l| l.to_bits()).collect();
        bits.sort_unstable();
        bits
    };
    assert_eq!(sorted(a), sorted(b), "{what}: latency multiset");
}

#[test]
fn delayed_exact_parity_across_worker_counts() {
    let log = delayed_log();
    let cfg = delayed_cfg();
    let mut seq = SpaceCdn::new(cfg.clone());
    let reference = run_space(&mut seq, &log);
    assert!(reference.delayed_hits > 0, "trace must exercise coalescing");
    assert!(reference.coalesced_requests > 0, "fetches must retire followers");
    for workers in [1, 4, 8] {
        let par = replay_parallel(cfg.clone(), FailureModel::none(), &log, workers);
        assert_delayed_metrics_equal(&reference, &par, &format!("{workers} workers"));
    }
}

#[test]
fn delayed_exact_parity_under_churn() {
    let world = World::starlink_nine_cities();
    let params = ChurnParams {
        sat_mtbf_secs: 3.0 * 3600.0,
        sat_mttr_secs: 600.0,
        link_mtbf_secs: Some(4.0 * 3600.0),
        link_mttr_secs: 600.0,
        horizon_secs: 3600,
        seed: 91,
    };
    let sched = FaultSchedule::churn(&world.grid, &params);
    assert!(!sched.is_empty(), "churn parameters produced no events");
    let log = delayed_log();
    let cfg = delayed_cfg();
    let mut seq = SpaceCdn::new(cfg.clone());
    let reference = engine_with_faults(&mut seq, &log, &sched);
    assert!(reference.delayed_hits > 0, "churn run must still coalesce");
    for workers in [1, 4, 8] {
        let par = replay_with_faults(&cfg, &log, &sched, workers, &Noop);
        assert_delayed_metrics_equal(&reference, &par, &format!("churn {workers} workers"));
        assert_eq!(par.cold_restart_misses, reference.cold_restart_misses, "{workers} workers");
        assert_eq!(par.remapped_requests, reference.remapped_requests, "{workers} workers");
        assert_eq!(par.availability, reference.availability, "{workers} workers");
    }
}

#[test]
fn delayed_exact_parity_under_overload_and_churn() {
    use starcdn_sim::engine::run_space_overloaded;
    use starcdn_sim::overload::OverloadConfig;
    use starcdn_sim::replayer::replay_parallel_overloaded;

    let world = World::starlink_nine_cities();
    let params = ChurnParams {
        sat_mtbf_secs: 3.0 * 3600.0,
        sat_mttr_secs: 600.0,
        link_mtbf_secs: Some(4.0 * 3600.0),
        link_mttr_secs: 600.0,
        horizon_secs: 3600,
        seed: 91,
    };
    let sched = FaultSchedule::churn(&world.grid, &params);
    let log = delayed_log();
    let cfg = delayed_cfg();
    let mean = log.entries.iter().map(|e| e.size).sum::<u64>() / log.entries.len() as u64;
    let headroom = mean as f64 * 1.5 / 37_500_000_000.0;
    let overload = OverloadConfig { headroom, retry_deadline_ms: 1e9 };

    let mut seq = SpaceCdn::new(cfg.clone());
    let reference = run_space_overloaded(&mut seq, &log, &sched, &overload);
    assert!(reference.delayed_hits > 0, "overloaded run must still coalesce");
    for workers in [1, 4, 8] {
        let par = replay_parallel_overloaded(
            cfg.clone(),
            FailureModel::none(),
            &log,
            &sched,
            workers,
            &overload,
        );
        assert_delayed_metrics_equal(&reference, &par, &format!("overload {workers} workers"));
        assert_eq!(par.shed_requests, reference.shed_requests, "{workers} workers");
        assert_eq!(par.retry_attempts, reference.retry_attempts, "{workers} workers");
        assert_eq!(par.dropped_requests, reference.dropped_requests, "{workers} workers");
        assert_eq!(par.utilization, reference.utilization, "{workers} workers");
    }
}

#[test]
fn parallel_empty_schedule_matches_static_replayer() {
    let log = log();
    let cfg = StarCdnConfig::starcdn_no_relay(9, 5_000_000);
    let plain = replay_parallel(cfg.clone(), FailureModel::none(), &log, 4);
    let empty = replay_with_faults(&cfg, &log, &FaultSchedule::empty(), 4, &Noop);
    assert_eq!(plain.stats, empty.stats);
    assert_eq!(plain.per_satellite, empty.per_satellite);
    assert_eq!(plain.uplink_bytes, empty.uplink_bytes);
    assert!(empty.availability.is_empty());
}

#[test]
fn parallel_handles_outages() {
    let log = log();
    let world = World::starlink_nine_cities();
    let failures = FailureModel::sample(&world.grid, 126, 67);
    let cfg = StarCdnConfig::starcdn_no_relay(4, 5_000_000);
    let mut seq = SpaceCdn::with_failures(cfg.clone(), failures.clone());
    let reference = run_space(&mut seq, &log);
    let par = replay_parallel(cfg, failures, &log, 6);
    assert_eq!(par.stats, reference.stats);
}

#[test]
fn parallel_exact_parity_under_solar_storm_with_partitions() {
    // A spatially-correlated mass outage (solar storm over a contiguous
    // plane window, kill_prob < 1) strands live satellites inside the
    // dead footprint: their owners survive but no path reaches them, so
    // requests degrade to the origin bent pipe as `Partitioned`. The
    // engine and the parallel replayer must agree bit-for-bit on the
    // partitioned count, the recovery timeline, and every latency
    // sample at any worker count.
    let locations = Location::akamai_nine();
    let model = ProductionModel::build(TrafficClass::Video.params().scaled(0.02), &locations, 61);
    let trace = model.generate_trace(SimDuration::from_hours(1), 61);
    let world = World::starlink_nine_cities();
    let params = SolarStormParams {
        center_plane: 36,
        plane_halfwidth: 6,
        kill_prob: 0.9,
        onset_secs: 600,
        onset_jitter_secs: 30,
        recovery_start_secs: 1800,
        recovery_spread_secs: 600,
        seed: 61,
    };
    let sched = FaultSchedule::solar_storm(&world.grid, &params);
    let world = world.with_fault_schedule(sched.clone());
    let log = build_access_log(&world, &trace, 15, &SimConfig::default().scheduler());

    let cfg = StarCdnConfig::starcdn_no_relay(9, 5_000_000);
    let mut seq = SpaceCdn::new(cfg.clone());
    let reference = engine_with_faults(&mut seq, &log, &sched);
    assert!(
        reference.partitioned_requests > 0,
        "a 90% storm must strand some survivors behind a partition"
    );
    // The storm dips availability and the staged recovery heals it
    // before the trace ends.
    let slos = reference.recovery_slos();
    assert_eq!(slos.len(), 1, "one storm, one dip");
    assert!(slos[0].dip_depth > 0);
    assert!(slos[0].time_to_full_recovery().is_some(), "storm must fully recover in-trace");
    // Conservation: every request is served somewhere (no overload, so
    // nothing is dropped).
    let served = reference.served_local
        + reference.served_relay_west
        + reference.served_relay_east
        + reference.served_ground;
    assert_eq!(served, reference.stats.requests);
    assert_eq!(reference.stats.requests, log.entries.len() as u64);

    let sorted_bits = |m: &starcdn::metrics::SystemMetrics| {
        let mut bits: Vec<u64> = m.latencies_ms.iter().map(|l| l.to_bits()).collect();
        bits.sort_unstable();
        bits
    };
    let ref_lat = sorted_bits(&reference);
    for workers in [1, 4, 8] {
        let par = replay_with_faults(&cfg, &log, &sched, workers, &Noop);
        assert_eq!(par.stats, reference.stats, "{workers} workers");
        assert_eq!(par.uplink_bytes, reference.uplink_bytes, "{workers} workers");
        assert_eq!(par.per_satellite, reference.per_satellite, "{workers} workers");
        assert_eq!(
            par.partitioned_requests, reference.partitioned_requests,
            "{workers} workers: partitioned"
        );
        assert_eq!(par.availability, reference.availability, "{workers} workers: timeline");
        assert_eq!(par.recovery_slos(), slos, "{workers} workers: recovery SLOs");
        assert_eq!(par.cold_restart_misses, reference.cold_restart_misses, "{workers} workers");
        assert_eq!(par.remapped_requests, reference.remapped_requests, "{workers} workers");
        assert_eq!(sorted_bits(&par), ref_lat, "{workers} workers: latency samples");
    }
}
