//! The client link scheduler.
//!
//! Starlink's global scheduler reassigns user-to-satellite links every
//! 15 seconds (§5.1, citing Starlink filings); adjacent users are often mapped to
//! *different* satellites (Fig. 4), which is precisely what creates the
//! redundancy StarCDN's hashing removes. We model each location as
//! `users_per_location` virtual users; every epoch each user is
//! deterministically (seeded) assigned one of the `top_k` highest-
//! elevation visible satellites, spreading users like the real
//! scheduler does.
//!
//! One body computes a schedule, in two parts kept in reusable scratch:
//! an epoch prologue (the [`VisibilityWindow`] made to cover the epoch,
//! the output sized) and a per-location body (the location's top-k, each
//! user's pick). [`schedule_epoch_into`] runs the body for every location;
//! [`EpochScheduler`] steps epochs for the log builders, which schedule a
//! location only when the first request that reads it arrives
//! ([`EpochScheduler::assignment`]), and for the transfer model and the
//! coverage checks, which read every location
//! (`EpochScheduler::step`); [`schedule_epoch_with`] runs it once with
//! a fresh scratch.

use crate::world::World;
use starcdn_constellation::failures::FailureModel;
use starcdn_orbit::coords::Geodetic;
use starcdn_orbit::propagator::SnapshotPropagator;
use starcdn_orbit::time::SimTime;
use starcdn_orbit::visibility::{propagation_delay_ms_f64, VisibilityWindow, VisibleSatellite};
use starcdn_orbit::walker::SatelliteId;
use starcdn_telemetry::{Counter, Histo, Noop, Recorder, SpanTimer, Stage};
use std::time::Instant;

/// One user's link assignment for the current epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Assignment {
    pub satellite: SatelliteId,
    /// One-way user↔satellite propagation delay, ms.
    pub gsl_oneway_ms: f64,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Virtual users per location.
    pub users_per_location: usize,
    /// Minimum elevation mask, degrees (Starlink: 25°).
    pub min_elevation_deg: f64,
    /// Users are spread over the best `top_k` visible satellites.
    pub top_k: usize,
    /// Seed for the deterministic assignment shuffle.
    pub seed: u64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig { users_per_location: 8, min_elevation_deg: 25.0, top_k: 4, seed: 0 }
    }
}

/// The per-epoch link schedule: `assignments[location][user]`.
#[derive(Debug, Clone, Default)]
pub struct EpochSchedule {
    pub epoch_index: u64,
    pub assignments: Vec<Vec<Option<Assignment>>>,
}

fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One user's deterministic pick among the visible candidates (best
/// first): a seeded hash of (epoch, location, user) over the first
/// `top_k`.
#[inline]
fn assign_user(
    visible: &[VisibleSatellite],
    cfg: &SchedulerConfig,
    epoch_index: u64,
    loc_idx: usize,
    user: usize,
) -> Option<Assignment> {
    if visible.is_empty() {
        return None;
    }
    // `.max(1)` guards a degenerate `top_k: 0` config: rather than a
    // modulo-by-zero panic, everyone takes the best visible satellite.
    let k = cfg.top_k.min(visible.len()).max(1);
    let pick =
        (mix(cfg.seed ^ epoch_index.rotate_left(17) ^ ((loc_idx as u64) << 24) ^ user as u64)
            % k as u64) as usize;
    let v = &visible[pick];
    Some(Assignment { satellite: v.id, gsl_oneway_ms: propagation_delay_ms_f64(v.slant_range_km) })
}

/// Compute the schedule for one epoch. `snapshot` must already be
/// advanced (fully) to the epoch's time; dead satellites are never
/// assigned.
#[cfg(test)]
pub(crate) fn schedule_epoch(
    world: &World,
    snapshot: &SnapshotPropagator,
    epoch_index: u64,
    cfg: &SchedulerConfig,
) -> EpochSchedule {
    schedule_epoch_with(world, snapshot, epoch_index, cfg, &world.failures)
}

/// Compute the schedule for one epoch against an explicit failure view
/// (`snapshot` advanced to the epoch's time): [`schedule_epoch_into`]
/// with a fresh scratch, a whole-fleet scan. It is the reference the
/// builders' lazy per-location scheduling is tested against.
pub fn schedule_epoch_with(
    world: &World,
    snapshot: &SnapshotPropagator,
    epoch_index: u64,
    cfg: &SchedulerConfig,
    failures: &FailureModel,
) -> EpochSchedule {
    let mut out = EpochSchedule::default();
    let mut scratch = ScheduleScratch::default();
    schedule_epoch_into(world, snapshot, epoch_index, cfg, failures, &Noop, &mut scratch, &mut out);
    out
}

/// Reusable state for [`schedule_epoch_into`]: the visibility window
/// (per-location candidate lists that stay valid for ~126 s of simulated
/// time, see [`VisibilityWindow`]) plus the ground-point and top-k
/// buffers. One instance per worker keeps the steady-state epoch loop
/// free of heap allocations.
#[derive(Debug, Default)]
pub struct ScheduleScratch {
    window: VisibilityWindow,
    grounds: Vec<Geodetic>,
    visible: Vec<VisibleSatellite>,
}

/// Nanoseconds since `t0`, when a recorder is timing.
fn elapsed_ns(t0: Option<Instant>) -> u64 {
    t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64)
}

impl ScheduleScratch {
    fn set_grounds(&mut self, world: &World) {
        self.grounds.clear();
        self.grounds.extend(
            world.locations.iter().map(|l| Geodetic::from_degrees(l.lat_deg, l.lon_deg, 0.0)),
        );
    }

    /// The epoch prologue, with `grounds` already `world`'s: stamp and
    /// size `out` for `world`, and make the window cover time `t` —
    /// refreshing it from the fleet's orbital elements when it does not
    /// (the first call, a jump past the window either way, another mask,
    /// fleet or location set), which an enabled recorder counts in
    /// [`Counter::VisibilityRefreshes`] with the candidate union's size in
    /// [`Histo::VisibilityCandidates`]. Returns the refresh's time in ns
    /// when recording.
    #[allow(clippy::too_many_arguments)]
    fn begin_epoch(
        &mut self,
        world: &World,
        snapshot: &SnapshotPropagator,
        t: SimTime,
        epoch_index: u64,
        cfg: &SchedulerConfig,
        rec: &dyn Recorder,
        out: &mut EpochSchedule,
    ) -> u64 {
        debug_assert_eq!(world.satellites.len(), snapshot.satellites().len());
        out.epoch_index = epoch_index;
        out.assignments.truncate(world.locations.len());
        out.assignments.resize_with(world.locations.len(), Vec::new);
        let t0 = rec.is_enabled().then(Instant::now);
        let ScheduleScratch { window, grounds, .. } = self;
        if !window.covers(snapshot, t, cfg.min_elevation_deg, grounds) {
            window.refresh(snapshot, t, cfg.min_elevation_deg, grounds);
            if rec.is_enabled() {
                rec.add(Counter::VisibilityRefreshes, 1);
                rec.observe(Histo::VisibilityCandidates, window.union().len() as u64);
            }
        }
        elapsed_ns(t0)
    }

    /// One location's body: its `top_k` best alive satellites at
    /// `snapshot`'s epoch, then each of its users' picks (`assign_user`)
    /// into `out`, each assignment's GSL delay observed in
    /// [`Histo::GslDelayUs`] when recording. Returns the top-k selection's
    /// time in ns when recording.
    #[allow(clippy::too_many_arguments)]
    fn schedule_location(
        &mut self,
        loc_idx: usize,
        snapshot: &SnapshotPropagator,
        epoch_index: u64,
        cfg: &SchedulerConfig,
        failures: &FailureModel,
        rec: &dyn Recorder,
        out: &mut EpochSchedule,
    ) -> u64 {
        let t0 = rec.is_enabled().then(Instant::now);
        // `.max(1)`: a degenerate `top_k: 0` config still selects the
        // best satellite (see `assign_user`).
        let keep = |id| failures.is_alive(id);
        self.window.top_k_into(loc_idx, snapshot, cfg.top_k.max(1), keep, &mut self.visible);
        let vis_ns = elapsed_ns(t0);
        let per_user = &mut out.assignments[loc_idx];
        per_user.clear();
        for user in 0..cfg.users_per_location {
            per_user.push(assign_user(&self.visible, cfg, epoch_index, loc_idx, user));
        }
        if rec.is_enabled() {
            for a in per_user.iter().flatten() {
                rec.observe(Histo::GslDelayUs, (a.gsl_oneway_ms * 1000.0) as u64);
            }
        }
        vis_ns
    }
}

/// The scheduler: computes the schedule of every location into a
/// caller-owned [`EpochSchedule`] through the scratch's
/// [`VisibilityWindow`]. The time is `snapshot.epoch()`. When the window
/// does not cover it, it is refreshed there from the fleet's orbital
/// elements (any snapshot will do); inside the window each location tests
/// its candidate list only, which needs `snapshot` complete or advanced
/// to its epoch by this window. Liveness (`failures`) is applied per call
/// and never enters the lists. Each location's users are spread over its
/// `top_k` best alive satellites (`assign_user`). Once `scratch` and
/// `out` have seen this world's shape, an invocation performs zero heap
/// allocations.
///
/// The window selects exactly the brute-force scan's satellites (proven
/// in `starcdn-orbit`, `tests/visibility_window.rs`), so a reused scratch
/// schedules bit for bit what a fresh one does.
///
/// With an enabled recorder the epoch is timed under [`Stage::Schedule`]
/// and the refresh plus the top-k selections under [`Stage::Visibility`]
/// (both keyed by `epoch_index`), the epoch is counted, and each
/// assignment's GSL delay is observed in [`Histo::GslDelayUs`]; a refresh
/// counts one [`Counter::VisibilityRefreshes`] and observes the candidate
/// union's size in [`Histo::VisibilityCandidates`]. Recording never
/// affects the schedule itself.
#[allow(clippy::too_many_arguments)]
pub fn schedule_epoch_into(
    world: &World,
    snapshot: &SnapshotPropagator,
    epoch_index: u64,
    cfg: &SchedulerConfig,
    failures: &FailureModel,
    rec: &dyn Recorder,
    scratch: &mut ScheduleScratch,
    out: &mut EpochSchedule,
) {
    scratch.set_grounds(world);
    let span = SpanTimer::start(rec, Stage::Schedule, epoch_index);
    let t = snapshot.epoch();
    let mut vis_ns = scratch.begin_epoch(world, snapshot, t, epoch_index, cfg, rec, out);
    for loc_idx in 0..world.locations.len() {
        vis_ns +=
            scratch.schedule_location(loc_idx, snapshot, epoch_index, cfg, failures, rec, out);
    }
    if rec.is_enabled() {
        rec.add(Counter::ScheduleEpochs, 1);
        rec.span_ns(Stage::Visibility, epoch_index, vis_ns);
    }
    span.stop();
}

/// The epoch loop's moving parts — a position snapshot, the scratch
/// whose window tracks it, the schedule they produce and which of its
/// locations the current epoch has scheduled — and the one boundary step
/// every epoch loop takes ([`EpochScheduler::begin`]: both log builders;
/// `EpochScheduler::step`: the transfer model's oracle and the
/// coverage checks).
#[derive(Debug)]
pub struct EpochScheduler {
    snapshot: SnapshotPropagator,
    scratch: ScheduleScratch,
    schedule: EpochSchedule,
    /// The configuration of the current epoch.
    cfg: SchedulerConfig,
    /// `ready[loc]`: location `loc` is scheduled in the current epoch.
    ready: Vec<bool>,
}

impl EpochScheduler {
    /// A scheduler over `world`'s fleet, positioned at t = 0.
    pub fn new(world: &World) -> Self {
        EpochScheduler {
            snapshot: world.snapshot(),
            scratch: ScheduleScratch::default(),
            schedule: EpochSchedule::default(),
            cfg: SchedulerConfig::default(),
            ready: Vec::new(),
        }
    }

    /// Start `epoch`: the schedule's prologue at the epoch's start time
    /// (the window refreshed there from orbital elements when it does not
    /// cover it), then the window's candidate union — ~150 of 1296
    /// satellites for nine cities — advanced there, and no location
    /// scheduled yet. Timed as [`Stage::Schedule`] (the refresh under
    /// [`Stage::Visibility`]) and [`Stage::Propagate`], and counted in
    /// [`Counter::ScheduleEpochs`].
    pub fn begin(
        &mut self,
        world: &World,
        epoch: u64,
        epoch_secs: u64,
        cfg: &SchedulerConfig,
        rec: &dyn Recorder,
    ) {
        let t = SimTime::from_secs(epoch * epoch_secs);
        let EpochScheduler { snapshot, scratch, schedule, cfg: held, ready } = self;
        scratch.set_grounds(world);
        let span = SpanTimer::start(rec, Stage::Schedule, epoch);
        let vis_ns = scratch.begin_epoch(world, snapshot, t, epoch, cfg, rec, schedule);
        if rec.is_enabled() {
            rec.add(Counter::ScheduleEpochs, 1);
            rec.span_ns(Stage::Visibility, epoch, vis_ns);
        }
        span.stop();
        {
            let _propagate = SpanTimer::start(rec, Stage::Propagate, epoch);
            // Covered by the prologue: moves the union, refreshes nothing.
            scratch.window.advance(snapshot, t, cfg.min_elevation_deg, &scratch.grounds);
        }
        *held = *cfg;
        ready.clear();
        ready.resize(world.locations.len(), false);
    }

    /// The assignment of `user` at location `loc` in the epoch of the last
    /// [`EpochScheduler::begin`]. The first read of a location in an
    /// epoch schedules it under `failures` — the view the epoch holds
    /// throughout, so a location scheduled late reads what one scheduled
    /// at the boundary would — and a location nobody reads costs nothing.
    #[inline]
    pub fn assignment(
        &mut self,
        loc: usize,
        user: usize,
        failures: &FailureModel,
        rec: &dyn Recorder,
    ) -> Option<Assignment> {
        if !self.ready[loc] {
            self.schedule_cell(loc, failures, rec);
        }
        self.schedule.assignments[loc][user]
    }

    /// Schedule location `loc` in the current epoch: one
    /// [`Stage::Schedule`] span and one [`Stage::Visibility`] span (its
    /// top-k) per cell when recording.
    fn schedule_cell(&mut self, loc: usize, failures: &FailureModel, rec: &dyn Recorder) {
        let EpochScheduler { snapshot, scratch, schedule, cfg, ready } = self;
        let epoch = schedule.epoch_index;
        let span = SpanTimer::start(rec, Stage::Schedule, epoch);
        let vis_ns = scratch.schedule_location(loc, snapshot, epoch, cfg, failures, rec, schedule);
        if rec.is_enabled() {
            rec.span_ns(Stage::Visibility, epoch, vis_ns);
        }
        span.stop();
        ready[loc] = true;
    }

    /// [`EpochScheduler::begin`] `epoch`, then schedule every location
    /// under `failures`.
    pub(crate) fn step(
        &mut self,
        world: &World,
        epoch: u64,
        epoch_secs: u64,
        cfg: &SchedulerConfig,
        failures: &FailureModel,
        rec: &dyn Recorder,
    ) {
        self.begin(world, epoch, epoch_secs, cfg, rec);
        for loc in 0..world.locations.len() {
            self.schedule_cell(loc, failures, rec);
        }
    }

    /// The schedule of the last [`EpochScheduler::step`].
    pub(crate) fn schedule(&self) -> &EpochSchedule {
        debug_assert!(self.ready.iter().all(|&r| r), "read after a begin that scheduled lazily");
        &self.schedule
    }
}

/// The epoch index containing time `t` for a given epoch length.
pub fn epoch_of(t: SimTime, epoch_secs: u64) -> u64 {
    t.as_secs() / epoch_secs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::starlink_nine_cities()
    }

    #[test]
    fn epoch_of_indexing() {
        assert_eq!(epoch_of(SimTime::ZERO, 15), 0);
        assert_eq!(epoch_of(SimTime::from_secs(14), 15), 0);
        assert_eq!(epoch_of(SimTime::from_secs(15), 15), 1);
        assert_eq!(epoch_of(SimTime::from_secs(3601), 15), 240);
    }

    #[test]
    fn all_nine_cities_get_coverage() {
        let w = world();
        let mut snap = w.snapshot();
        snap.advance_to(SimTime::from_secs(300));
        let sched = schedule_epoch(&w, &snap, 20, &SchedulerConfig::default());
        assert_eq!(sched.assignments.len(), 9);
        for (i, per_user) in sched.assignments.iter().enumerate() {
            assert_eq!(per_user.len(), 8);
            for a in per_user {
                let Some(a) = a else {
                    panic!("location {i} has an unassigned user");
                };
                assert!(a.gsl_oneway_ms > 1.5 && a.gsl_oneway_ms < 4.5, "GSL {}", a.gsl_oneway_ms);
            }
        }
    }

    #[test]
    fn users_spread_across_satellites() {
        // Fig. 4's premise: co-located users land on different satellites.
        let w = world();
        let snap = w.snapshot();
        let sched = schedule_epoch(&w, &snap, 0, &SchedulerConfig::default());
        let sats: std::collections::HashSet<SatelliteId> =
            sched.assignments[4].iter().flatten().map(|a| a.satellite).collect();
        assert!(sats.len() >= 2, "all users on one satellite defeats the experiment");
    }

    #[test]
    fn assignments_change_across_epochs() {
        let w = world();
        let mut snap = w.snapshot();
        let cfg = SchedulerConfig::default();
        let s0 = schedule_epoch(&w, &snap, 0, &cfg);
        snap.advance_to(SimTime::from_secs(300));
        let s20 = schedule_epoch(&w, &snap, 20, &cfg);
        let a0: Vec<_> = s0.assignments[4].iter().flatten().map(|a| a.satellite).collect();
        let a20: Vec<_> = s20.assignments[4].iter().flatten().map(|a| a.satellite).collect();
        assert_ne!(a0, a20, "5 minutes of motion must change assignments");
    }

    #[test]
    fn deterministic_in_seed() {
        let w = world();
        let snap = w.snapshot();
        let cfg = SchedulerConfig::default();
        let a = schedule_epoch(&w, &snap, 3, &cfg);
        let b = schedule_epoch(&w, &snap, 3, &cfg);
        assert_eq!(a.assignments, b.assignments);
        let c = schedule_epoch(&w, &snap, 3, &SchedulerConfig { seed: 99, ..cfg });
        assert_ne!(a.assignments, c.assignments);
    }

    #[test]
    fn scratch_scheduler_is_bit_for_bit_the_allocating_one() {
        use starcdn_telemetry::Noop;
        let w = world();
        let mut snap = w.snapshot();
        let cfg = SchedulerConfig::default();
        let mut scratch = ScheduleScratch::default();
        let mut out = EpochSchedule::default();
        // Kill a visible satellite so the keep filter is exercised too.
        let probe = schedule_epoch(&w, &snap, 0, &cfg);
        let victim = probe.assignments[4][0].as_ref().unwrap().satellite;
        let live = FailureModel::from_dead([victim]);
        for epoch in [0u64, 20, 240, 5000] {
            snap.advance_to(SimTime::from_secs(epoch * 15));
            let base = schedule_epoch_with(&w, &snap, epoch, &cfg, &live);
            schedule_epoch_into(&w, &snap, epoch, &cfg, &live, &Noop, &mut scratch, &mut out);
            assert_eq!(out.epoch_index, base.epoch_index);
            assert_eq!(out.assignments.len(), base.assignments.len());
            for (loc, (a, b)) in out.assignments.iter().zip(&base.assignments).enumerate() {
                assert_eq!(a.len(), b.len(), "epoch {epoch} loc {loc}");
                for (x, y) in a.iter().zip(b) {
                    match (x, y) {
                        (None, None) => {}
                        (Some(x), Some(y)) => {
                            assert_eq!(x.satellite, y.satellite);
                            assert_eq!(x.gsl_oneway_ms.to_bits(), y.gsl_oneway_ms.to_bits());
                        }
                        _ => panic!("epoch {epoch} loc {loc}: assignment presence diverged"),
                    }
                }
            }
        }
    }

    fn assert_same_schedule(a: &EpochSchedule, b: &EpochSchedule, what: &str) {
        assert_eq!(a.epoch_index, b.epoch_index, "{what}");
        assert_eq!(a.assignments.len(), b.assignments.len(), "{what}");
        for (loc, (x, y)) in a.assignments.iter().zip(&b.assignments).enumerate() {
            let bits = |v: &[Option<Assignment>]| -> Vec<Option<(SatelliteId, u64)>> {
                v.iter().map(|a| a.map(|a| (a.satellite, a.gsl_oneway_ms.to_bits()))).collect()
            };
            assert_eq!(bits(x), bits(y), "{what} loc {loc}");
        }
    }

    /// FNV-1a over a schedule's epoch and every user's satellite and GSL
    /// delay bits (`u64::MAX` for an unassigned user).
    fn schedule_digest(mut h: u64, s: &EpochSchedule) -> u64 {
        let words = s.assignments.iter().flatten().flat_map(|a| match a {
            Some(a) => {
                let sat = (a.satellite.orbit as u64) << 16 | a.satellite.slot as u64;
                [sat, a.gsl_oneway_ms.to_bits()]
            }
            None => [u64::MAX, u64::MAX],
        });
        for w in std::iter::once(s.epoch_index).chain(words) {
            h = (h ^ w).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn epoch_scheduler_tracks_the_allocating_scheduler_through_windows_and_jumps() {
        use starcdn_telemetry::MemoryRecorder;
        let w = world();
        let cfg = SchedulerConfig::default();
        let mut full = w.snapshot();
        let mut tracked = EpochScheduler::new(&w);
        let rec = MemoryRecorder::new();
        // Consecutive epochs (inside a window), a jump ahead, a run, a
        // jump back into the first window's span, a repeat.
        let epochs: Vec<u64> =
            (0..30).chain(400..420).chain([5, 5, 6, 11_519]).chain(11_500..11_519).collect();
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for (step, &epoch) in epochs.iter().enumerate() {
            // A different dead set at every step: liveness is applied
            // per call and never enters the candidate lists.
            let dead = FailureModel::sample(&w.grid, 200, step as u64);
            full.advance_to(SimTime::from_secs(epoch * 15));
            let want = schedule_epoch_with(&w, &full, epoch, &cfg, &dead);
            tracked.step(&w, epoch, 15, &cfg, &dead, &rec);
            assert_same_schedule(tracked.schedule(), &want, &format!("epoch {epoch}"));
            digest = schedule_digest(digest, &want);
        }
        // The licence for folding the allocating scheduler into a wrapper:
        // recorded at the parent of that PR (15f0bb9).
        assert_eq!(digest, 0x9ea2_a72e_b73c_c8f5, "schedule_epoch_with's output moved");
        let snap = rec.snapshot();
        let refreshes = snap.counter(Counter::VisibilityRefreshes);
        // 0, 9, 18, 27 | 400, 409, 418 | 5 | 11519 | 11500, 11509, 11518.
        assert_eq!(refreshes, 12);
        assert_eq!(snap.counter(Counter::ScheduleEpochs), epochs.len() as u64);
        let union = snap.histogram(Histo::VisibilityCandidates).expect("observed per refresh");
        assert_eq!(union.count, refreshes);
        assert!(union.max.unwrap() < 300 && union.min.unwrap() > 60, "{union:?}");
    }

    /// Cells scheduled on first read, in any order and any subset, under
    /// the epoch's dead set: each is the eager schedule's row for that
    /// location, through windows, jumps both ways and repeats.
    #[test]
    fn cells_scheduled_on_first_read_are_the_eager_schedule() {
        let w = world();
        let cfg = SchedulerConfig::default();
        let mut full = w.snapshot();
        let mut lazy = EpochScheduler::new(&w);
        let epochs: Vec<u64> =
            (0..30).chain(400..420).chain([5, 5, 6, 11_519]).chain(11_500..11_519).collect();
        let mut cells = 0;
        for (step, &epoch) in epochs.iter().enumerate() {
            let dead = FailureModel::sample(&w.grid, 200, step as u64);
            full.advance_to(SimTime::from_secs(epoch * 15));
            let want = schedule_epoch_with(&w, &full, epoch, &cfg, &dead);
            lazy.begin(&w, epoch, 15, &cfg, &Noop);
            // Every third step reads no location at all; the others a
            // step-dependent subset, last location first, each user twice.
            let read: Vec<usize> =
                (0..9).rev().filter(|loc| step % 3 != 0 && (loc * 7 + step) % 4 != 0).collect();
            for user in (0..cfg.users_per_location).chain(0..cfg.users_per_location) {
                for &loc in &read {
                    let got = lazy.assignment(loc, user, &dead, &Noop);
                    let want = want.assignments[loc][user];
                    let bits =
                        |a: Option<Assignment>| a.map(|a| (a.satellite, a.gsl_oneway_ms.to_bits()));
                    assert_eq!(bits(got), bits(want), "epoch {epoch} loc {loc} user {user}");
                }
            }
            cells += read.len();
        }
        assert!(cells > 100, "only {cells} cells read");
    }

    #[test]
    fn one_scratch_serves_another_world_by_refreshing() {
        // Same fleet size and epoch, other cities, then another mask: the
        // window must not answer for what it was not collected for.
        let nine = world();
        let mut far = world();
        for loc in &mut far.locations {
            loc.lat_deg = -loc.lat_deg;
            loc.lon_deg += 90.0;
        }
        let cfg = SchedulerConfig::default();
        let steep = SchedulerConfig { min_elevation_deg: 40.0, ..cfg };
        let snap = nine.snapshot();
        let live = FailureModel::none();
        let mut scratch = ScheduleScratch::default();
        let mut out = EpochSchedule::default();
        for (w, cfg) in [(&nine, &cfg), (&far, &cfg), (&far, &steep), (&nine, &cfg)] {
            schedule_epoch_into(w, &snap, 0, cfg, &live, &Noop, &mut scratch, &mut out);
            assert_same_schedule(&out, &schedule_epoch_with(w, &snap, 0, cfg, &live), "reuse");
        }
    }

    #[test]
    fn zero_top_k_degrades_to_best_satellite() {
        let w = world();
        let snap = w.snapshot();
        let cfg = SchedulerConfig { top_k: 0, ..SchedulerConfig::default() };
        let sched = schedule_epoch(&w, &snap, 0, &cfg);
        for per_user in &sched.assignments {
            for a in per_user.iter().flatten() {
                assert!(a.gsl_oneway_ms > 0.0);
            }
        }
    }

    #[test]
    fn explicit_failure_view_overrides_world_base() {
        let w = world();
        let snap = w.snapshot();
        let cfg = SchedulerConfig::default();
        let before = schedule_epoch(&w, &snap, 0, &cfg);
        let seen: Vec<SatelliteId> =
            before.assignments[4].iter().flatten().map(|a| a.satellite).collect();
        // Same world, live view kills what New York sees: the churn path's
        // force-handover at an epoch boundary.
        let live = FailureModel::from_dead(seen.clone());
        let after = schedule_epoch_with(&w, &snap, 0, &cfg, &live);
        for a in after.assignments[4].iter().flatten() {
            assert!(!seen.contains(&a.satellite), "assigned dead satellite {}", a.satellite);
        }
    }

    #[test]
    fn dead_satellites_never_assigned() {
        let w = world();
        let snap = w.snapshot();
        // Kill everything New York can currently see, then check that the
        // remaining assignments avoid the dead set.
        let cfg = SchedulerConfig::default();
        let before = schedule_epoch(&w, &snap, 0, &cfg);
        let seen: Vec<SatelliteId> =
            before.assignments[4].iter().flatten().map(|a| a.satellite).collect();
        let w2 = World::starlink_nine_cities().with_failures(FailureModel::from_dead(seen.clone()));
        let snap2 = w2.snapshot();
        let after = schedule_epoch(&w2, &snap2, 0, &cfg);
        for a in after.assignments[4].iter().flatten() {
            assert!(!seen.contains(&a.satellite), "assigned dead satellite {}", a.satellite);
        }
    }
}
