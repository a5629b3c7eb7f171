//! The deterministic simulation engine.
//!
//! Drives an [`AccessLog`] through a system: the StarCDN fleet (any
//! variant), the Static Cache ideal, the no-cache bent pipe, or the
//! terrestrial-CDN latency reference. Single-threaded and bit-for-bit
//! reproducible; the throughput-oriented parallel path lives in
//! [`crate::replayer`]. Both cross scheduler-epoch boundaries through one
//! step (`crate::resolve::EpochBoundary`) and resolve requests through
//! one function, so they count — and record — the same faults.

use crate::access_log::AccessLog;
use crate::checkpoint::{CheckpointError, Checkpointing, EngineCheckpointer, LoopState};
use crate::columns::AccessLogColumns;
use crate::overload::OverloadConfig;
use crate::resolve::{record_outcome, resolve_request, EpochBoundary, Resolved};
use starcdn::baselines::{NoCacheBaseline, StaticCacheBaseline, TerrestrialCdnBaseline};
use starcdn::metrics::SystemMetrics;
use starcdn::system::SpaceCdn;
use starcdn_constellation::schedule::{FaultSchedule, ScheduleCursor};
use starcdn_telemetry::{Counter, MemoryRecorder, Noop, Recorder, Stage};

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Scheduler epoch, seconds (Starlink reconfigures every 15 s).
    pub epoch_secs: u64,
    /// Virtual users per location.
    pub users_per_location: usize,
    /// Minimum elevation mask, degrees.
    pub min_elevation_deg: f64,
    /// Users are spread over the best `top_k` visible satellites; fault
    /// experiments widen this to keep coverage under heavy churn.
    pub top_k: usize,
    /// Seed for scheduling decisions.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            epoch_secs: 15,
            users_per_location: 8,
            min_elevation_deg: 25.0,
            top_k: 4,
            seed: 0,
        }
    }
}

impl SimConfig {
    /// The scheduler view of this configuration.
    pub fn scheduler(&self) -> crate::scheduler::SchedulerConfig {
        crate::scheduler::SchedulerConfig {
            users_per_location: self.users_per_location,
            min_elevation_deg: self.min_elevation_deg,
            top_k: self.top_k,
            seed: self.seed,
        }
    }
}

/// Everything that distinguishes one run from another, consumed by
/// [`run`] and [`crate::replayer::run`]. `Default` is the plain run, and
/// every field left at its default is free: an empty schedule builds no
/// fault cursor, a disabled overload builds no ledger, [`Noop`] records
/// nothing, and no checkpoint touches no file — each bit-for-bit the
/// run without that feature.
#[derive(Clone, Copy)]
pub struct RunSpec<'a> {
    /// Time-varying faults applied at scheduler-epoch boundaries: down
    /// satellites lose their cache contents, recovered ones come back
    /// cold, and an availability sample is recorded per epoch.
    pub schedule: &'a FaultSchedule,
    /// Capacity enforcement and the admit/retry/fallback lifecycle of
    /// [`crate::overload`].
    pub overload: OverloadConfig,
    /// Telemetry sink. Recording never feeds back into the simulation.
    pub recorder: &'a dyn Recorder,
    /// Write crash-consistent checkpoints (and optionally resume from
    /// the newest valid one); see [`crate::checkpoint`].
    pub checkpoint: Option<Checkpointing<'a>>,
}

static NO_FAULTS: FaultSchedule = FaultSchedule::empty();

impl Default for RunSpec<'_> {
    fn default() -> Self {
        RunSpec {
            schedule: &NO_FAULTS,
            overload: OverloadConfig::disabled(),
            recorder: &Noop,
            checkpoint: None,
        }
    }
}

impl<'a> RunSpec<'a> {
    /// The schedule, when it holds any event.
    pub(crate) fn live_schedule(&self) -> Option<&'a FaultSchedule> {
        (!self.schedule.is_empty()).then_some(self.schedule)
    }

    /// The overload configuration, when enforcement is on.
    pub(crate) fn live_overload(&self) -> Option<&OverloadConfig> {
        self.overload.is_enabled().then_some(&self.overload)
    }
}

/// Check, in debug builds, the conservation identities of a run that
/// measured every one of its log's `entries` into `m`, from empty
/// metrics: every entry is recorded or dropped; with `admission` live,
/// primary + replica + origin fallback + unreachable serves are exactly
/// the recorded requests; and every follower a retired fetch carried was
/// counted as a delayed hit when it coalesced. (Followers are not
/// bounded by misses: a delayed hit is a space hit, and one missed fetch
/// carries any number of them.)
pub(crate) fn debug_assert_conserved(m: &SystemMetrics, entries: usize, admission: bool) {
    if !cfg!(debug_assertions) {
        return;
    }
    let recorded = m.stats.requests;
    assert_eq!(recorded + m.dropped_requests, entries as u64, "recorded + dropped = log entries");
    if admission {
        // Requests with no satellite in view are booked on a sentinel id.
        let sentinel = starcdn_orbit::walker::SatelliteId::new(u16::MAX, u16::MAX);
        let unreachable = m.per_satellite.get(&sentinel).map_or(0, |s| s.requests);
        let classified =
            m.served_primary + m.served_replica + m.served_origin_fallback + unreachable;
        assert_eq!(classified, recorded, "primary + replica + fallback + unreachable = recorded");
    }
    let (coalesced, delayed_hits) = (m.coalesced_requests, m.delayed_hits);
    assert!(coalesced <= delayed_hits, "coalesced {coalesced} > delayed hits {delayed_hits}");
}

/// Replay `log` through a satellite fleet as `spec` describes; returns
/// the run's metrics (also left in `cdn.metrics`).
///
/// At every scheduler-epoch boundary met in the log: a due checkpoint
/// is written, the boundary is entered (the fault cursor advances and
/// availability is sampled, the capacity ledger rolls over), its churn
/// is applied to the fleet (wipe, mark cold, the new failure view), and
/// — when the fleet is configured with proactive prefetch — a prefetch
/// round runs. Each
/// request is then resolved (`resolve_request`: the overload lifecycle
/// when enforcement is on, plain route classification otherwise) and
/// served at once by [`SpaceCdn::serve`], the serve kernel.
///
/// A run without a checkpoint cannot fail. With telemetry, per-request
/// histograms and counters, a [`Stage::CacheAccess`] span per epoch and
/// the fault events, each stamped with its request's epoch, are
/// recorded; all of it is gated on
/// one hoisted [`Recorder::is_enabled`] check. A checkpointed run's
/// output is bit-for-bit the uncheckpointed one's; only span wall-clock
/// times differ. On resume `cdn` must be freshly built with the
/// original run's configuration.
pub fn run(
    cdn: &mut SpaceCdn,
    log: &AccessLog,
    spec: &RunSpec<'_>,
) -> Result<SystemMetrics, CheckpointError> {
    let schedule = spec.live_schedule();
    let overload = spec.live_overload();
    let prefetching = cdn.config().prefetch_top_k.is_some();
    let enabled = spec.recorder.is_enabled();
    let epoch_secs = log.epoch_secs.max(1);

    // A checkpointed run records through an internal recorder that is
    // snapshotted into each checkpoint and absorbed into the caller's
    // once at the end — `absorb` is exact, so the caller sees the same
    // counters, histograms and events as a direct recording.
    let mrec = (enabled && spec.checkpoint.is_some()).then(MemoryRecorder::new);
    let rec: &dyn Recorder = match &mrec {
        Some(m) => m,
        None => spec.recorder,
    };

    // A fleet that served before this run holds counts of other logs.
    let whole_log = cdn.metrics.stats.requests + cdn.metrics.dropped_requests == 0;
    let mut boundary =
        EpochBoundary::new(cdn.env(), cdn.failures(), spec, epoch_secs, rec, Stage::CacheAccess);
    let mut start = 0usize;

    let mut checkpointer = None;
    if let Some(ck) = &spec.checkpoint {
        let ledger = boundary.admission.as_mut().map(|a| &mut a.ledger);
        let (cp, resumed) = EngineCheckpointer::open(ck, cdn, ledger, log, spec)?;
        checkpointer = Some(cp);
        if let Some(rs) = resumed {
            let cursor = schedule
                .zip(rs.cursor)
                .map(|(s, (applied, view))| ScheduleCursor::resume(s, applied as usize, view));
            boundary.restore(rs.prev_epoch, cursor);
            start = rs.entry_index;
            if let (Some(m), Some(t)) = (&mrec, rs.telemetry.as_ref()) {
                m.absorb(t);
            }
        }
    }
    // The plain run never looks at the clock and crosses no boundary, so
    // it gets a loop of its own: one loop that tested this per request
    // read ≈ 10 % slower on a plain no-relay run (EXPERIMENTS.md
    // "Epoch boundary").
    let plain = schedule.is_none()
        && overload.is_none()
        && !prefetching
        && !enabled
        && !cdn.config().delayed.is_enabled()
        && checkpointer.is_none();
    let entries = &log.entries[start..];
    if plain {
        for e in entries {
            let (env, view, metrics) = cdn.resolving();
            if let Resolved::Serve(req) =
                resolve_request(env, view, None, u64::MAX, e, metrics, rec)
            {
                cdn.serve(&req);
            }
        }
    } else {
        for (k, e) in entries.iter().enumerate() {
            let epoch = e.time.as_secs() / epoch_secs;
            if epoch != boundary.epoch {
                if let Some(cp) = checkpointer.as_mut().filter(|cp| cp.due(&boundary, epoch)) {
                    // Close the open span first so its stats make the
                    // snapshot; the checkpoint then captures the state
                    // *before* any of this boundary's actions.
                    boundary.close_span();
                    let state = LoopState {
                        prev_epoch: boundary.epoch,
                        entry_index: start + k,
                        cursor: boundary.cursor_state(),
                        ledger: boundary.admission.as_ref().map(|a| a.ledger.export_state()),
                        telemetry: mrec.as_ref().map(|m| m.snapshot()),
                    };
                    cp.write(cdn, epoch, state)?;
                }
                cdn.set_now_epoch(epoch);
                if let Some(churn) = boundary.enter(epoch, &mut cdn.metrics) {
                    // Down first: a satellite that restarted within one
                    // step is wiped, then marked cold.
                    for &id in &churn.went_down {
                        cdn.wipe_cache(id);
                    }
                    for &id in &churn.came_up {
                        cdn.mark_cold(id);
                    }
                    cdn.set_failures(boundary.view().expect("churn comes from a cursor").clone());
                }
                if prefetching {
                    cdn.prefetch_round();
                    if enabled {
                        rec.add(Counter::PrefetchRounds, 1);
                    }
                }
            }
            // Resolve, then serve at once: the one-shard case of the
            // replayer's pre-pass and workers.
            let (env, view, metrics) = cdn.resolving();
            let admission = boundary.admission.as_mut();
            let req = match resolve_request(env, view, admission, epoch, e, metrics, rec) {
                Resolved::Serve(req) => req,
                Resolved::Accounted => continue,
            };
            let out = cdn.serve(&req);
            if enabled {
                record_outcome(rec, &out, &req);
            }
        }
    }
    boundary.finish(&mut cdn.metrics);
    if let Some(m) = &mrec {
        spec.recorder.absorb(&m.snapshot());
    }
    if whole_log {
        debug_assert_conserved(&cdn.metrics, log.len(), overload.is_some());
    }
    Ok(cdn.metrics.clone())
}

// The names `benchmark/src/abi.rs` calls (that package is frozen by
// BENCHMARK.json and pinned to these signatures). Each is [`run`] with
// the arguments it names; none can fail, since no checkpoint is set.

fn run_infallible(cdn: &mut SpaceCdn, log: &AccessLog, spec: &RunSpec<'_>) -> SystemMetrics {
    run(cdn, log, spec).expect("a run without a checkpoint performs no I/O")
}

/// [`run`] with the default [`RunSpec`].
pub fn run_space(cdn: &mut SpaceCdn, log: &AccessLog) -> SystemMetrics {
    run_infallible(cdn, log, &RunSpec::default())
}

/// [`run_space`] under its benchmark name.
pub fn run_space_columns(cdn: &mut SpaceCdn, cols: &AccessLogColumns) -> SystemMetrics {
    run_infallible(cdn, cols, &RunSpec::default())
}

/// [`run_space_columns`] recording into `rec`.
pub fn run_space_columns_recorded(
    cdn: &mut SpaceCdn,
    cols: &AccessLogColumns,
    rec: &dyn Recorder,
) -> SystemMetrics {
    run_infallible(cdn, cols, &RunSpec { recorder: rec, ..RunSpec::default() })
}

/// [`run`] under a fault schedule and an overload configuration.
pub fn run_space_overloaded(
    cdn: &mut SpaceCdn,
    log: &AccessLog,
    schedule: &FaultSchedule,
    overload: &OverloadConfig,
) -> SystemMetrics {
    run_infallible(cdn, log, &RunSpec { schedule, overload: *overload, ..RunSpec::default() })
}

/// [`run_space_overloaded`] under its benchmark name.
pub fn run_space_overloaded_columns(
    cdn: &mut SpaceCdn,
    cols: &AccessLogColumns,
    schedule: &FaultSchedule,
    overload: &OverloadConfig,
) -> SystemMetrics {
    run_space_overloaded_columns_recorded(cdn, cols, schedule, overload, &Noop)
}

/// [`run_space_overloaded_columns`] recording into `rec`.
pub fn run_space_overloaded_columns_recorded(
    cdn: &mut SpaceCdn,
    cols: &AccessLogColumns,
    schedule: &FaultSchedule,
    overload: &OverloadConfig,
    rec: &dyn Recorder,
) -> SystemMetrics {
    let spec = RunSpec { schedule, overload: *overload, recorder: rec, ..RunSpec::default() };
    run_infallible(cdn, cols, &spec)
}

/// Replay the log through the Static Cache ideal: each location's
/// requests hit its own permanent cache; the GSL delay is whatever the
/// scheduler measured for the user (the cache hangs at the same range).
pub(crate) fn run_static(baseline: &mut StaticCacheBaseline, log: &AccessLog) -> SystemMetrics {
    for e in &log.entries {
        let gsl = if e.gsl_oneway_ms > 0.0 { e.gsl_oneway_ms } else { 2.94 };
        baseline.handle_request(e.location.0 as usize, e.object, e.size, gsl);
    }
    baseline.metrics.clone()
}

/// Replay the log through today's no-cache Starlink.
pub(crate) fn run_no_cache(baseline: &mut NoCacheBaseline, log: &AccessLog) -> SystemMetrics {
    for e in &log.entries {
        let gsl = if e.gsl_oneway_ms > 0.0 { e.gsl_oneway_ms } else { 2.94 };
        baseline.handle_request(e.size, gsl);
    }
    baseline.metrics.clone()
}

/// Record the terrestrial-CDN latency reference over the same request
/// volume.
pub(crate) fn run_terrestrial(
    baseline: &mut TerrestrialCdnBaseline,
    log: &AccessLog,
) -> SystemMetrics {
    for e in &log.entries {
        baseline.handle_request(e.size);
    }
    baseline.metrics.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_log::build_access_log;
    use crate::world::World;
    use spacegen::trace::{LocationId, Request, Trace};
    use starcdn::config::StarCdnConfig;
    use starcdn_cache::object::ObjectId;
    use starcdn_cache::policy::PolicyKind;
    use starcdn_orbit::time::SimTime;

    fn log() -> AccessLog {
        let w = World::starlink_nine_cities();
        let reqs: Vec<Request> = (0..2000u64)
            .map(|k| Request {
                time: SimTime::from_secs(k / 4),
                object: ObjectId(k % 50), // popular 50-object working set
                size: 1000,
                location: LocationId((k % 9) as u16),
            })
            .collect();
        build_access_log(&w, &Trace::new(reqs), 15, &SimConfig::default().scheduler())
    }

    #[test]
    fn space_run_records_every_request() {
        let log = log();
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(4, 10_000_000));
        let m = run_space(&mut cdn, &log);
        assert_eq!(m.stats.requests, log.len() as u64);
        assert_eq!(m.latencies_ms.len(), log.len());
        assert!(m.stats.request_hit_rate() > 0.5, "small hot set must hit: {}", m.stats);
    }

    #[test]
    fn starcdn_beats_naive_lru_on_shared_content() {
        // The same 50 objects from all 9 cities: hashing consolidates
        // them onto bucket owners while naive LRU re-fetches per satellite.
        let log = log();
        let mut star = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let ms = run_space(&mut star, &log);
        let mut naive = SpaceCdn::new(StarCdnConfig::naive_lru(1_000_000));
        let mn = run_space(&mut naive, &log);
        assert!(
            ms.stats.request_hit_rate() > mn.stats.request_hit_rate(),
            "StarCDN {} !> naive {}",
            ms.stats,
            mn.stats
        );
        assert!(ms.uplink_fraction() < mn.uplink_fraction());
    }

    #[test]
    fn static_cache_is_upper_bound_here() {
        let log = log();
        let mut st = StaticCacheBaseline::new(9, 1_000_000, PolicyKind::Lru);
        let m = run_static(&mut st, &log);
        assert_eq!(m.stats.requests, log.len() as u64);
        // 50 objects × 1000 B fit per location: only cold misses remain
        // (each location sees ~50 distinct objects over ~222 requests).
        assert!(m.stats.request_hit_rate() > 0.7, "{}", m.stats);
    }

    #[test]
    fn no_cache_uses_full_uplink() {
        let log = log();
        let mut nc = NoCacheBaseline::new();
        let m = run_no_cache(&mut nc, &log);
        assert!((m.uplink_fraction() - 1.0).abs() < 1e-12);
        assert!(m.latency_cdf().median().unwrap() > 45.0);
    }

    #[test]
    fn terrestrial_reference_latency_only() {
        let log = log();
        let mut t = TerrestrialCdnBaseline::new();
        let m = run_terrestrial(&mut t, &log);
        assert_eq!(m.latencies_ms.len(), log.len());
        let med = m.latency_cdf().median().unwrap();
        assert!((med - 20.0).abs() < 4.0, "median {med}");
    }

    #[test]
    fn deterministic_end_to_end() {
        let log = log();
        let mut a = SpaceCdn::new(StarCdnConfig::starcdn(9, 100_000));
        let ma = run_space(&mut a, &log);
        let mut b = SpaceCdn::new(StarCdnConfig::starcdn(9, 100_000));
        let mb = run_space(&mut b, &log);
        assert_eq!(ma.stats, mb.stats);
        assert_eq!(ma.latencies_ms, mb.latencies_ms);
        assert_eq!(ma.uplink_bytes, mb.uplink_bytes);
    }

    #[test]
    fn empty_fault_schedule_is_bit_for_bit_run_space() {
        let log = log();
        let mut plain = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let mp = run_space(&mut plain, &log);
        let mut churn = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let empty = FaultSchedule::empty();
        let spec = RunSpec { schedule: &empty, ..RunSpec::default() };
        let mc = run(&mut churn, &log, &spec).unwrap();
        assert_eq!(mp.stats, mc.stats);
        assert_eq!(mp.latencies_ms, mc.latencies_ms);
        assert_eq!(mp.uplink_bytes, mc.uplink_bytes);
        assert_eq!(mp.per_satellite, mc.per_satellite);
        assert!(mc.availability.is_empty(), "no schedule, no timeline");
        assert_eq!(mc.cold_restart_misses, 0);
        assert_eq!(mc.remapped_requests, 0);
    }

    #[test]
    fn churn_run_tracks_recovery() {
        use starcdn_constellation::schedule::{FaultEvent, TimedFault};
        let log = log();
        // Find a satellite that actually serves traffic, kill it for
        // 120 s mid-run, and watch the cold-restart counter move.
        let mut probe = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        run_space(&mut probe, &log);
        let victim =
            *probe.metrics.per_satellite.iter().max_by_key(|(_, st)| st.requests).unwrap().0;
        let sched = FaultSchedule::from_events([
            TimedFault { at_secs: 120, event: FaultEvent::SatDown(victim) },
            TimedFault { at_secs: 240, event: FaultEvent::SatUp(victim) },
        ]);
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let m = run(&mut cdn, &log, &RunSpec { schedule: &sched, ..RunSpec::default() }).unwrap();
        assert_eq!(m.stats.requests, log.len() as u64);
        assert!(m.cold_restart_misses > 0, "recovered satellite must re-warm");
        assert!(m.remapped_requests > 0, "owner was dead for 8 epochs");
        assert!(!m.availability.is_empty());
        let min_alive = m.availability.iter().map(|p| p.alive_sats).min().unwrap();
        let max_alive = m.availability.iter().map(|p| p.alive_sats).max().unwrap();
        assert_eq!(max_alive, 1296);
        assert_eq!(min_alive, 1295, "one satellite down in the dip");
    }

    #[test]
    fn delayed_model_counts_and_zero_latency_identity() {
        use starcdn::config::DelayedHitConfig;
        let log = log();
        let mut plain = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let mp = run_space(&mut plain, &log);
        // fetch_epochs = 0 disables the model even with a nonzero wait
        // cost configured: bit-for-bit the plain run.
        let zero_cfg = StarCdnConfig::starcdn(4, 1_000_000)
            .with_delayed_hits(DelayedHitConfig::with_latency(0, 50.0));
        let mut zero = SpaceCdn::new(zero_cfg);
        let mz = run_space(&mut zero, &log);
        assert_eq!(mp.stats, mz.stats);
        assert_eq!(mp.latencies_ms, mz.latencies_ms);
        assert_eq!(mz.delayed_hits, 0);
        assert!(mz.residual_epoch_hist.is_empty());

        let del_cfg = StarCdnConfig::starcdn(4, 1_000_000)
            .with_delayed_hits(DelayedHitConfig::with_latency(2, 40.0));
        let mut del = SpaceCdn::new(del_cfg);
        let md = run_space(&mut del, &log);
        assert_eq!(md.stats.requests, log.len() as u64);
        assert!(md.delayed_hits > 0, "hot 50-object set must coalesce");
        assert!(md.coalesced_requests <= md.delayed_hits, "retired followers lag delayed hits");
        assert!(!md.residual_epoch_hist.is_empty());
        let hist_total: u64 = md.residual_epoch_hist.values().sum();
        assert_eq!(hist_total, md.delayed_hits);
        assert!(
            md.residual_epoch_hist.keys().all(|r| (1..=2).contains(r)),
            "residuals bounded by fetch latency"
        );
    }

    #[test]
    fn median_latency_ordering_matches_fig10() {
        // Fig. 10: StarCDN median ≈ 22 ms sits between terrestrial CDN
        // (~20 ms) and regular Starlink (~55 ms).
        let log = log();
        let mut star = SpaceCdn::new(StarCdnConfig::starcdn(4, 10_000_000));
        let m_star = run_space(&mut star, &log);
        let mut nc = NoCacheBaseline::new();
        let m_nc = run_no_cache(&mut nc, &log);
        let med_star = m_star.latency_cdf().median().unwrap();
        let med_nc = m_nc.latency_cdf().median().unwrap();
        assert!(
            med_star * 2.0 < med_nc,
            "StarCDN median {med_star} not ≥2x better than no-cache {med_nc}"
        );
    }
}
