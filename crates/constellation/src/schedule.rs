//! Time-varying fault injection: satellite churn, link flaps, recovery.
//!
//! The §3.4/§5.4 robustness analysis freezes one outage for a whole run.
//! Real constellations churn continuously — satellites drift out of
//! slot, deorbit, and are replaced while the system serves traffic. A
//! [`FaultSchedule`] makes failures first-class *events in simulated
//! time*: a seeded, deterministic stream of `SatDown`/`SatUp`/
//! `LinkDown`/`LinkUp` transitions, either generated from MTBF/MTTR
//! churn parameters or written by hand for tests. A [`ScheduleCursor`]
//! replays the stream monotonically, materializing the live
//! [`FailureModel`] at any simulated second and reporting exactly which
//! satellites went down (cache state lost) or came back (cold restart)
//! since the last step.
//!
//! The schedule itself is pure data: the simulation layers
//! (`starcdn-sim`'s engine and parallel replayer) consume the same
//! cursor semantics, which is what keeps the sequential and sharded
//! execution paths bit-for-bit in agreement under churn.

use crate::failures::rand_like::SmallRng;
use crate::failures::{link_id, FailureModel, LinkId};
use crate::grid::{Direction, GridTopology};
use serde::{Deserialize, Serialize};
use starcdn_orbit::walker::SatelliteId;

/// One fault transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// Satellite leaves service; its cache contents are lost.
    SatDown(SatelliteId),
    /// Satellite returns to service with a cold (empty) cache.
    SatUp(SatelliteId),
    /// One ISL goes down while both endpoints stay in service.
    LinkDown(SatelliteId, SatelliteId),
    /// A previously cut ISL comes back.
    LinkUp(SatelliteId, SatelliteId),
}

/// A fault event pinned to a simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedFault {
    pub at_secs: u64,
    pub event: FaultEvent,
}

/// MTBF/MTTR churn parameters for [`FaultSchedule::churn`].
///
/// Per-satellite (and optionally per-link) up/down alternation with
/// exponentially distributed durations, deterministic in `seed`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnParams {
    /// Mean up-time of one satellite, seconds.
    pub sat_mtbf_secs: f64,
    /// Mean outage duration of one satellite, seconds.
    pub sat_mttr_secs: f64,
    /// Mean up-time of one ISL, seconds (`None` disables link flaps).
    pub link_mtbf_secs: Option<f64>,
    /// Mean outage duration of one ISL, seconds.
    pub link_mttr_secs: f64,
    /// Events are generated for `[0, horizon_secs)`.
    pub horizon_secs: u64,
    /// Seed of the deterministic event stream.
    pub seed: u64,
}

impl ChurnParams {
    /// Satellite-only churn at the given rates.
    pub fn sats_only(sat_mtbf_secs: f64, sat_mttr_secs: f64, horizon_secs: u64, seed: u64) -> Self {
        ChurnParams {
            sat_mtbf_secs,
            sat_mttr_secs,
            link_mtbf_secs: None,
            link_mttr_secs: 1.0,
            horizon_secs,
            seed,
        }
    }
}

/// Parameters for [`FaultSchedule::solar_storm`]: a spatially-correlated
/// mass outage over a contiguous plane window with staged, jittered
/// recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolarStormParams {
    /// Center of the affected plane window.
    pub center_plane: u16,
    /// Planes within `plane_halfwidth` (torus distance) of the center
    /// are inside the storm footprint.
    pub plane_halfwidth: u16,
    /// Probability that a satellite inside the footprint is knocked out.
    pub kill_prob: f64,
    /// Storm onset: knockouts land in `[onset, onset + jitter]`.
    pub onset_secs: u64,
    /// Spread of the knockout times past the onset, seconds.
    pub onset_jitter_secs: u64,
    /// Earliest staged recovery; each recovery lands in
    /// `[recovery_start, recovery_start + spread]` but never before its
    /// own knockout completed.
    pub recovery_start_secs: u64,
    /// Spread of the staged recoveries, seconds.
    pub recovery_spread_secs: u64,
    /// Seed of the deterministic knockout/jitter stream.
    pub seed: u64,
}

/// A deterministic, time-ordered stream of fault events.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultSchedule {
    /// Sorted by `at_secs`; ties keep insertion order (stable sort).
    events: Vec<TimedFault>,
}

impl FaultSchedule {
    /// No events: the failure view never changes.
    pub const fn empty() -> Self {
        FaultSchedule { events: Vec::new() }
    }

    /// Build from explicit events (any order; sorted stably by time).
    pub fn from_events(events: impl IntoIterator<Item = TimedFault>) -> Self {
        let mut events: Vec<TimedFault> = events.into_iter().collect();
        events.sort_by_key(|e| e.at_secs);
        FaultSchedule { events }
    }

    /// All of `dead` go down at `at_secs` and never recover — the
    /// dynamic encoding of the paper's static outage set.
    pub fn mass_outage_at(at_secs: u64, dead: impl IntoIterator<Item = SatelliteId>) -> Self {
        Self::from_events(
            dead.into_iter().map(|s| TimedFault { at_secs, event: FaultEvent::SatDown(s) }),
        )
    }

    /// Seeded MTBF/MTTR churn over every grid slot (and, when
    /// `link_mtbf_secs` is set, every ISL): each element alternates
    /// up/down with exponentially distributed durations.
    pub fn churn(grid: &GridTopology, p: &ChurnParams) -> Self {
        assert!(p.sat_mtbf_secs > 0.0 && p.sat_mttr_secs > 0.0, "churn rates must be positive");
        let mut events = Vec::new();
        let mut rng = SmallRng::new(p.seed ^ 0x00C0_FFEE);
        for id in grid.iter_ids() {
            for (down, up) in
                alternating_outages(&mut rng, p.sat_mtbf_secs, p.sat_mttr_secs, p.horizon_secs)
            {
                events.push(TimedFault { at_secs: down, event: FaultEvent::SatDown(id) });
                if let Some(up) = up {
                    events.push(TimedFault { at_secs: up, event: FaultEvent::SatUp(id) });
                }
            }
        }
        if let Some(link_mtbf) = p.link_mtbf_secs {
            assert!(link_mtbf > 0.0 && p.link_mttr_secs > 0.0, "link churn rates must be positive");
            for id in grid.iter_ids() {
                // North + East covers every torus link exactly once.
                for dir in [Direction::North, Direction::East] {
                    let Some(n) = grid.neighbor(id, dir) else { continue };
                    for (down, up) in
                        alternating_outages(&mut rng, link_mtbf, p.link_mttr_secs, p.horizon_secs)
                    {
                        events
                            .push(TimedFault { at_secs: down, event: FaultEvent::LinkDown(id, n) });
                        if let Some(up) = up {
                            events
                                .push(TimedFault { at_secs: up, event: FaultEvent::LinkUp(id, n) });
                        }
                    }
                }
            }
        }
        Self::from_events(events)
    }

    /// True when the schedule holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The time-ordered events.
    pub fn events(&self) -> &[TimedFault] {
        &self.events
    }

    /// Time of the last event, if any.
    pub fn last_event_secs(&self) -> Option<u64> {
        self.events.last().map(|e| e.at_secs)
    }

    /// Combine two schedules (events interleave by time).
    #[cfg(test)]
    pub(crate) fn merged(self, other: FaultSchedule) -> FaultSchedule {
        Self::from_events(self.events.into_iter().chain(other.events))
    }

    /// Seeded solar storm: every satellite whose plane lies within
    /// `plane_halfwidth` of `center_plane` is knocked out with
    /// probability `kill_prob` at a jittered onset time, then recovers
    /// (cold) at a staged time drawn from the recovery window. Every
    /// `SatDown` is paired with a later `SatUp`, so the constellation
    /// always heals fully.
    pub fn solar_storm(grid: &GridTopology, p: &SolarStormParams) -> Self {
        assert!((0.0..=1.0).contains(&p.kill_prob), "kill_prob must be a probability");
        let mut rng = SmallRng::new(p.seed ^ 0x5074_A50B_AD50_1A12);
        let mut events = Vec::new();
        for id in grid.iter_ids() {
            if grid.plane_distance(p.center_plane, id.orbit) > p.plane_halfwidth {
                continue;
            }
            if rng.next_f64() >= p.kill_prob {
                continue;
            }
            let down = p.onset_secs + bounded_jitter(&mut rng, p.onset_jitter_secs);
            let up = (p.recovery_start_secs + bounded_jitter(&mut rng, p.recovery_spread_secs))
                .max(down + 1);
            events.push(TimedFault { at_secs: down, event: FaultEvent::SatDown(id) });
            events.push(TimedFault { at_secs: up, event: FaultEvent::SatUp(id) });
        }
        Self::from_events(events)
    }
}

/// Uniform draw from `[0, bound]` (inclusive), `0` when `bound` is 0.
fn bounded_jitter(rng: &mut SmallRng, bound: u64) -> u64 {
    if bound == 0 {
        0
    } else {
        rng.gen_range(bound + 1)
    }
}

/// Alternating (down, up) outage windows for one element: down times are
/// exponentially spaced with mean `mtbf`, outage durations with mean
/// `mttr`. An outage still open at the horizon yields `(down, None)`.
fn alternating_outages(
    rng: &mut SmallRng,
    mtbf: f64,
    mttr: f64,
    horizon: u64,
) -> Vec<(u64, Option<u64>)> {
    let mut out = Vec::new();
    let mut t = rng.next_exp(mtbf);
    while t.is_finite() && (t as u64) < horizon {
        let down = t as u64;
        t += rng.next_exp(mttr);
        let up = if t.is_finite() && (t as u64) < horizon { Some(t as u64) } else { None };
        out.push((down, up));
        if up.is_none() {
            break;
        }
        t += rng.next_exp(mtbf);
    }
    out
}

/// Parameters for [`DemandSchedule::flash_crowd`]: seeded regional
/// demand surges (e.g. a live event concentrating viewers onto a few
/// ground cells) layered on top of a base trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashCrowdParams {
    /// Size of the consumer's location table; surge locations are drawn
    /// from `[0, num_locations)`.
    pub num_locations: u16,
    /// Number of surge windows to draw.
    pub surges: u16,
    /// Earliest surge onset, seconds.
    pub start_secs: u64,
    /// Onsets are drawn from `[start_secs, horizon_secs)`.
    pub horizon_secs: u64,
    /// Demand multiplier at the surge plateau (≥ 1).
    pub peak_multiplier: f64,
    /// Linear ramp from baseline to the plateau, seconds.
    pub ramp_secs: u64,
    /// Plateau duration at `peak_multiplier`, seconds.
    pub hold_secs: u64,
    /// Linear decay back to baseline, seconds.
    pub decay_secs: u64,
    /// Seed of the deterministic surge draw.
    pub seed: u64,
}

/// One demand surge: requests at `location` are amplified by a
/// ramp/plateau/decay envelope starting at `onset_secs`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DemandSurge {
    /// Location index (the consumer maps it onto its location table).
    pub location: u16,
    /// Envelope start, seconds.
    pub onset_secs: u64,
    /// Linear ramp duration, seconds.
    pub ramp_secs: u64,
    /// Plateau duration, seconds.
    pub hold_secs: u64,
    /// Linear decay duration, seconds.
    pub decay_secs: u64,
    /// Multiplier at the plateau.
    pub peak_multiplier: f64,
}

impl DemandSurge {
    /// Time the envelope returns to baseline.
    pub(crate) fn end_secs(&self) -> u64 {
        self.onset_secs + self.ramp_secs + self.hold_secs + self.decay_secs
    }

    /// Demand multiplier at `t_secs`: 1 outside the envelope, linear up
    /// the ramp, `peak_multiplier` across the plateau, linear down the
    /// decay.
    pub(crate) fn multiplier_at(&self, t_secs: u64) -> f64 {
        if t_secs < self.onset_secs || t_secs >= self.end_secs() {
            return 1.0;
        }
        let into = t_secs - self.onset_secs;
        let gain = self.peak_multiplier - 1.0;
        if into < self.ramp_secs {
            1.0 + gain * (into as f64 / self.ramp_secs as f64)
        } else if into < self.ramp_secs + self.hold_secs {
            self.peak_multiplier
        } else {
            let out = into - self.ramp_secs - self.hold_secs;
            1.0 + gain * (1.0 - out as f64 / self.decay_secs as f64)
        }
    }
}

/// A deterministic, onset-ordered stream of demand surges: the demand
/// counterpart of [`FaultSchedule`]. Pure data — spacegen amplifies a
/// trace with it *before* the access log is built, so the engine and
/// the parallel replayer consume identical request streams and
/// bit-for-bit parity is preserved by construction.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct DemandSchedule {
    /// Sorted by `onset_secs`; ties keep insertion order (stable sort).
    surges: Vec<DemandSurge>,
}

impl DemandSchedule {
    /// No surges: demand is never amplified.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build from explicit surges (any order; sorted stably by onset).
    pub fn from_surges(surges: impl IntoIterator<Item = DemandSurge>) -> Self {
        let mut surges: Vec<DemandSurge> = surges.into_iter().collect();
        surges.sort_by_key(|s| s.onset_secs);
        DemandSchedule { surges }
    }

    /// Seeded flash crowd: `p.surges` windows at uniformly drawn
    /// locations and onsets, each with the ramp/plateau/decay envelope
    /// from `p`.
    pub fn flash_crowd(p: &FlashCrowdParams) -> Self {
        assert!(p.num_locations > 0, "flash crowd needs a location table");
        assert!(p.peak_multiplier >= 1.0, "a surge never shrinks demand");
        assert!(p.horizon_secs > p.start_secs, "onset window must be nonempty");
        let mut rng = SmallRng::new(p.seed ^ 0xF1A5_4C20_FEED_0CDE);
        let surges = (0..p.surges).map(|_| DemandSurge {
            location: rng.gen_range(u64::from(p.num_locations)) as u16,
            onset_secs: p.start_secs + rng.gen_range(p.horizon_secs - p.start_secs),
            ramp_secs: p.ramp_secs,
            hold_secs: p.hold_secs,
            decay_secs: p.decay_secs,
            peak_multiplier: p.peak_multiplier,
        });
        Self::from_surges(surges.collect::<Vec<_>>())
    }

    /// True when the schedule holds no surges.
    pub fn is_empty(&self) -> bool {
        self.surges.is_empty()
    }

    /// Number of surges.
    pub fn len(&self) -> usize {
        self.surges.len()
    }

    /// The onset-ordered surges.
    #[cfg(test)]
    pub(crate) fn surges(&self) -> &[DemandSurge] {
        &self.surges
    }

    /// Time the last envelope returns to baseline, if any.
    #[cfg(test)]
    pub(crate) fn last_event_secs(&self) -> Option<u64> {
        self.surges.iter().map(DemandSurge::end_secs).max()
    }

    /// Demand multiplier for `location` at `t_secs`: the strongest
    /// active envelope wins (overlapping surges do not compound).
    pub fn multiplier_at(&self, location: u16, t_secs: u64) -> f64 {
        self.surges
            .iter()
            .filter(|s| s.location == location)
            .map(|s| s.multiplier_at(t_secs))
            .fold(1.0, f64::max)
    }
}

/// What changed across one [`ScheduleCursor::advance_to`] step.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultDelta {
    /// Satellites that left service (cache state is lost now).
    pub went_down: Vec<SatelliteId>,
    /// Satellites that returned to service (cold restart).
    pub came_up: Vec<SatelliteId>,
    /// Links newly cut.
    pub links_cut: Vec<LinkId>,
    /// Links restored.
    pub links_restored: Vec<LinkId>,
}

impl FaultDelta {
    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.went_down.is_empty()
            && self.came_up.is_empty()
            && self.links_cut.is_empty()
            && self.links_restored.is_empty()
    }
}

/// Monotonic replay of a [`FaultSchedule`] on top of a base
/// [`FailureModel`] (e.g. a static out-of-slot set).
#[derive(Debug, Clone)]
pub struct ScheduleCursor<'a> {
    schedule: &'a FaultSchedule,
    next: usize,
    view: FailureModel,
}

impl<'a> ScheduleCursor<'a> {
    /// Start at time −∞ with the given base failure view; nothing is
    /// applied until the first `advance_to`.
    pub fn new(schedule: &'a FaultSchedule, base: FailureModel) -> Self {
        ScheduleCursor { schedule, next: 0, view: base }
    }

    /// Rebuild a cursor mid-stream from a checkpoint: `applied` events
    /// already consumed and the live `view` they produced. A resumed
    /// cursor replays the remaining events exactly as the original
    /// would have (`advance_to` is monotonic, so nothing re-applies).
    pub fn resume(schedule: &'a FaultSchedule, applied: usize, view: FailureModel) -> Self {
        ScheduleCursor { schedule, next: applied.min(schedule.events.len()), view }
    }

    /// How many schedule events have been applied so far (the resume
    /// position for [`ScheduleCursor::resume`]).
    pub fn position(&self) -> usize {
        self.next
    }

    /// The live failure view after the last `advance_to`.
    pub fn view(&self) -> &FailureModel {
        &self.view
    }

    /// Apply every event with `at_secs <= t_secs`. Monotonic: calling
    /// with an earlier time than a previous call is a no-op. Events are
    /// idempotent against the current view (a `SatDown` for an already
    /// dead satellite changes nothing), so the delta reports only real
    /// transitions.
    pub fn advance_to(&mut self, t_secs: u64) -> FaultDelta {
        let mut delta = FaultDelta::default();
        while let Some(e) = self.schedule.events.get(self.next) {
            if e.at_secs > t_secs {
                break;
            }
            self.next += 1;
            match e.event {
                FaultEvent::SatDown(id) => {
                    if self.view.is_alive(id) {
                        self.view.kill(id);
                        delta.went_down.push(id);
                    }
                }
                FaultEvent::SatUp(id) => {
                    if !self.view.is_alive(id) {
                        self.view.revive(id);
                        delta.came_up.push(id);
                    }
                }
                FaultEvent::LinkDown(a, b) => {
                    if !self.view.is_link_cut(a, b) {
                        self.view.cut_link(a, b);
                        delta.links_cut.push(link_id(a, b));
                    }
                }
                FaultEvent::LinkUp(a, b) => {
                    if self.view.is_link_cut(a, b) {
                        self.view.restore_link(a, b);
                        delta.links_restored.push(link_id(a, b));
                    }
                }
            }
        }
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridTopology {
        GridTopology::starlink()
    }

    fn sat(o: u16, s: u16) -> SatelliteId {
        SatelliteId::new(o, s)
    }

    #[test]
    fn empty_schedule_never_changes_view() {
        let sched = FaultSchedule::empty();
        let base = FailureModel::from_dead([sat(1, 1)]);
        let mut cur = ScheduleCursor::new(&sched, base.clone());
        for t in [0, 15, 3600, u64::MAX] {
            assert!(cur.advance_to(t).is_empty());
            assert_eq!(cur.view(), &base);
        }
    }

    #[test]
    fn events_sort_stably_by_time() {
        let sched = FaultSchedule::from_events([
            TimedFault { at_secs: 30, event: FaultEvent::SatUp(sat(0, 0)) },
            TimedFault { at_secs: 10, event: FaultEvent::SatDown(sat(0, 0)) },
            TimedFault { at_secs: 30, event: FaultEvent::SatDown(sat(0, 1)) },
        ]);
        assert_eq!(sched.len(), 3);
        assert_eq!(sched.events()[0].at_secs, 10);
        assert_eq!(sched.last_event_secs(), Some(30));
    }

    #[test]
    fn cursor_applies_down_then_up() {
        let id = sat(5, 5);
        let sched = FaultSchedule::from_events([
            TimedFault { at_secs: 100, event: FaultEvent::SatDown(id) },
            TimedFault { at_secs: 200, event: FaultEvent::SatUp(id) },
        ]);
        let mut cur = ScheduleCursor::new(&sched, FailureModel::none());
        assert!(cur.advance_to(99).is_empty());
        assert!(cur.view().is_alive(id));

        let d = cur.advance_to(100);
        assert_eq!(d.went_down, vec![id]);
        assert!(d.came_up.is_empty());
        assert!(!cur.view().is_alive(id));

        let d = cur.advance_to(500);
        assert_eq!(d.came_up, vec![id]);
        assert!(cur.view().is_alive(id));
        assert!(cur.advance_to(1000).is_empty());
    }

    #[test]
    fn skipped_interval_reports_both_transitions() {
        // Down and up inside one advance step: the satellite restarted —
        // the caller must wipe its cache and mark it cold.
        let id = sat(2, 3);
        let sched = FaultSchedule::from_events([
            TimedFault { at_secs: 10, event: FaultEvent::SatDown(id) },
            TimedFault { at_secs: 20, event: FaultEvent::SatUp(id) },
        ]);
        let mut cur = ScheduleCursor::new(&sched, FailureModel::none());
        let d = cur.advance_to(1000);
        assert_eq!(d.went_down, vec![id]);
        assert_eq!(d.came_up, vec![id]);
        assert!(cur.view().is_alive(id));
    }

    #[test]
    fn redundant_events_are_idempotent() {
        let id = sat(9, 9);
        let sched = FaultSchedule::from_events([
            TimedFault { at_secs: 10, event: FaultEvent::SatDown(id) },
            TimedFault { at_secs: 11, event: FaultEvent::SatDown(id) },
            TimedFault { at_secs: 12, event: FaultEvent::SatUp(id) },
            TimedFault { at_secs: 13, event: FaultEvent::SatUp(id) },
        ]);
        let mut cur = ScheduleCursor::new(&sched, FailureModel::none());
        let d = cur.advance_to(100);
        assert_eq!(d.went_down, vec![id], "second down is a no-op");
        assert_eq!(d.came_up, vec![id], "second up is a no-op");
    }

    #[test]
    fn link_flaps_update_view() {
        let a = sat(0, 0);
        let b = sat(0, 1);
        let sched = FaultSchedule::from_events([
            TimedFault { at_secs: 5, event: FaultEvent::LinkDown(a, b) },
            TimedFault { at_secs: 50, event: FaultEvent::LinkUp(b, a) },
        ]);
        let mut cur = ScheduleCursor::new(&sched, FailureModel::none());
        let d = cur.advance_to(5);
        assert_eq!(d.links_cut, vec![crate::failures::link_id(a, b)]);
        assert!(!cur.view().is_link_alive(a, b));
        let d = cur.advance_to(60);
        assert_eq!(d.links_restored.len(), 1);
        assert!(cur.view().is_link_alive(a, b));
    }

    #[test]
    fn mass_outage_matches_static_model() {
        let g = grid();
        let outage = FailureModel::sample(&g, 126, 7);
        let sched = FaultSchedule::mass_outage_at(0, outage.dead());
        assert_eq!(sched.len(), 126);
        let mut cur = ScheduleCursor::new(&sched, FailureModel::none());
        let d = cur.advance_to(0);
        assert_eq!(d.went_down.len(), 126);
        assert_eq!(cur.view(), &outage);
    }

    #[test]
    fn churn_is_deterministic_in_seed() {
        let g = grid();
        let p = ChurnParams::sats_only(3600.0, 300.0, 7200, 11);
        let a = FaultSchedule::churn(&g, &p);
        let b = FaultSchedule::churn(&g, &p);
        assert_eq!(a, b);
        let c = FaultSchedule::churn(&g, &ChurnParams { seed: 12, ..p });
        assert_ne!(a, c);
    }

    #[test]
    fn churn_density_tracks_mtbf() {
        let g = grid();
        // Expected downs per element ≈ horizon / (mtbf + mttr); with
        // 1296 satellites over 2 h at 1 h MTBF that is ~2000+ events.
        let fast = FaultSchedule::churn(&g, &ChurnParams::sats_only(3600.0, 600.0, 7200, 3));
        let slow = FaultSchedule::churn(&g, &ChurnParams::sats_only(360_000.0, 600.0, 7200, 3));
        assert!(fast.len() > slow.len(), "fast {} !> slow {}", fast.len(), slow.len());
        assert!(fast.len() > 1000, "fast churn too sparse: {}", fast.len());
        // Events stay inside the horizon and sorted.
        for w in fast.events().windows(2) {
            assert!(w[0].at_secs <= w[1].at_secs);
        }
        assert!(fast.last_event_secs().unwrap() < 7200);
    }

    #[test]
    fn churn_with_links_generates_link_events() {
        let g = GridTopology { num_planes: 4, sats_per_plane: 4, seamless: true };
        let p = ChurnParams {
            sat_mtbf_secs: 1e12, // effectively no satellite churn
            sat_mttr_secs: 60.0,
            link_mtbf_secs: Some(1800.0),
            link_mttr_secs: 300.0,
            horizon_secs: 7200,
            seed: 5,
        };
        let sched = FaultSchedule::churn(&g, &p);
        assert!(!sched.is_empty());
        assert!(sched
            .events()
            .iter()
            .all(|e| matches!(e.event, FaultEvent::LinkDown(..) | FaultEvent::LinkUp(..))));
    }

    fn storm_params(seed: u64) -> SolarStormParams {
        SolarStormParams {
            center_plane: 20,
            plane_halfwidth: 4,
            kill_prob: 0.8,
            onset_secs: 120,
            onset_jitter_secs: 30,
            recovery_start_secs: 600,
            recovery_spread_secs: 300,
            seed,
        }
    }

    #[test]
    fn solar_storm_confined_to_plane_window() {
        let g = grid();
        let p = storm_params(7);
        let sched = FaultSchedule::solar_storm(&g, &p);
        assert!(!sched.is_empty(), "an 80% storm over 9 planes must kill satellites");
        for e in sched.events() {
            let (FaultEvent::SatDown(id) | FaultEvent::SatUp(id)) = e.event else {
                panic!("solar storm emits only satellite events");
            };
            assert!(
                g.plane_distance(p.center_plane, id.orbit) <= p.plane_halfwidth,
                "{id} outside the storm footprint"
            );
        }
    }

    #[test]
    fn solar_storm_deterministic_in_seed() {
        let g = grid();
        let a = FaultSchedule::solar_storm(&g, &storm_params(7));
        let b = FaultSchedule::solar_storm(&g, &storm_params(7));
        assert_eq!(a, b);
        let c = FaultSchedule::solar_storm(&g, &storm_params(8));
        assert_ne!(a, c);
    }

    #[test]
    fn solar_storm_full_kill_covers_window_and_heals() {
        let g = grid();
        let p = SolarStormParams { kill_prob: 1.0, ..storm_params(3) };
        let sched = FaultSchedule::solar_storm(&g, &p);
        // 9 planes × 18 slots, one down + one up each.
        assert_eq!(sched.len(), 9 * 18 * 2);
        let mut cur = ScheduleCursor::new(&sched, FailureModel::none());
        cur.advance_to(p.onset_secs + p.onset_jitter_secs);
        assert_eq!(cur.view().dead_count(), 9 * 18, "everyone in the window is down");
        cur.advance_to(u64::MAX);
        assert_eq!(cur.view().dead_count(), 0, "staged recovery must fully heal");
    }

    fn crowd_params(seed: u64) -> FlashCrowdParams {
        FlashCrowdParams {
            num_locations: 9,
            surges: 4,
            start_secs: 300,
            horizon_secs: 3000,
            peak_multiplier: 5.0,
            ramp_secs: 60,
            hold_secs: 120,
            decay_secs: 180,
            seed,
        }
    }

    #[test]
    fn flash_crowd_surges_inside_windows() {
        let sched = DemandSchedule::flash_crowd(&crowd_params(11));
        assert_eq!(sched.len(), 4);
        for s in sched.surges() {
            assert!(s.location < 9);
            assert!((300..3000).contains(&s.onset_secs));
            assert_eq!(s.peak_multiplier, 5.0);
        }
        // Onset-sorted.
        for w in sched.surges().windows(2) {
            assert!(w[0].onset_secs <= w[1].onset_secs);
        }
        assert_eq!(sched.last_event_secs(), sched.surges().iter().map(|s| s.end_secs()).max(),);
    }

    #[test]
    fn flash_crowd_deterministic_in_seed() {
        let a = DemandSchedule::flash_crowd(&crowd_params(11));
        let b = DemandSchedule::flash_crowd(&crowd_params(11));
        assert_eq!(a, b);
        let c = DemandSchedule::flash_crowd(&crowd_params(12));
        assert_ne!(a, c);
    }

    #[test]
    fn surge_envelope_ramps_holds_and_decays() {
        let s = DemandSurge {
            location: 2,
            onset_secs: 100,
            ramp_secs: 50,
            hold_secs: 100,
            decay_secs: 50,
            peak_multiplier: 3.0,
        };
        assert_eq!(s.end_secs(), 300);
        assert_eq!(s.multiplier_at(99), 1.0);
        assert_eq!(s.multiplier_at(125), 2.0, "halfway up the ramp");
        assert_eq!(s.multiplier_at(150), 3.0);
        assert_eq!(s.multiplier_at(249), 3.0, "plateau holds");
        assert_eq!(s.multiplier_at(275), 2.0, "halfway down the decay");
        assert_eq!(s.multiplier_at(300), 1.0, "envelope closed");
    }

    #[test]
    fn overlapping_surges_take_max_not_product() {
        let mk = |onset, peak| DemandSurge {
            location: 0,
            onset_secs: onset,
            ramp_secs: 0,
            hold_secs: 100,
            decay_secs: 0,
            peak_multiplier: peak,
        };
        let sched = DemandSchedule::from_surges([mk(0, 2.0), mk(50, 4.0)]);
        assert_eq!(sched.multiplier_at(0, 10), 2.0);
        assert_eq!(sched.multiplier_at(0, 60), 4.0, "strongest envelope wins");
        assert_eq!(sched.multiplier_at(1, 60), 1.0, "other locations at baseline");
        assert_eq!(sched.multiplier_at(0, 200), 1.0);
        assert!(DemandSchedule::empty().is_empty());
        assert_eq!(DemandSchedule::empty().multiplier_at(0, 0), 1.0);
    }

    use proptest::prelude::*;

    proptest! {
        #[test]
        fn prop_flash_crowd_multiplier_bounded(
            seed in 1u64..40, loc in 0u16..9, t in 0u64..4000,
        ) {
            let sched = DemandSchedule::flash_crowd(&crowd_params(seed));
            let m = sched.multiplier_at(loc, t);
            prop_assert!((1.0..=5.0).contains(&m), "multiplier {} out of envelope", m);
        }

        #[test]
        fn prop_churn_events_time_sorted(seed in 1u64..40, mtbf_mins in 5u64..120) {
            let g = grid();
            let p = ChurnParams {
                sat_mtbf_secs: (mtbf_mins * 60) as f64,
                sat_mttr_secs: 300.0,
                link_mtbf_secs: Some((mtbf_mins * 120) as f64),
                link_mttr_secs: 300.0,
                horizon_secs: 7200,
                seed,
            };
            let sched = FaultSchedule::churn(&g, &p);
            for w in sched.events().windows(2) {
                prop_assert!(w[0].at_secs <= w[1].at_secs, "churn must sort by time");
            }
        }

        #[test]
        fn prop_merged_stays_time_sorted(sa in 1u64..30, sb in 1u64..30) {
            let g = grid();
            let a = FaultSchedule::churn(&g, &ChurnParams::sats_only(1800.0, 300.0, 3600, sa));
            let b = FaultSchedule::churn(&g, &ChurnParams::sats_only(2400.0, 200.0, 3600, sb));
            let total = a.len() + b.len();
            let m = a.merged(b);
            prop_assert_eq!(m.len(), total, "merge must not lose events");
            for w in m.events().windows(2) {
                prop_assert!(w[0].at_secs <= w[1].at_secs, "merge must sort by time");
            }
        }

        #[test]
        fn prop_churn_alternates_down_up_per_satellite(seed in 1u64..40) {
            // Each satellite's event stream must strictly alternate
            // Down, Up, Down, Up, … starting with Down: the generator
            // never emits a redundant transition.
            let g = grid();
            let p = ChurnParams::sats_only(1200.0, 300.0, 7200, seed);
            let sched = FaultSchedule::churn(&g, &p);
            let mut down = std::collections::HashMap::new();
            for e in sched.events() {
                match e.event {
                    FaultEvent::SatDown(id) => {
                        let d = down.entry(id).or_insert(false);
                        prop_assert!(!*d, "{id:?} went down twice without recovering");
                        *d = true;
                    }
                    FaultEvent::SatUp(id) => {
                        let d = down.entry(id).or_insert(false);
                        prop_assert!(*d, "{id:?} came up without going down first");
                        *d = false;
                    }
                    _ => {}
                }
            }
        }

        #[test]
        fn prop_solar_storm_sorted_and_paired(
            seed in 1u64..60,
            center in 0u16..72,
            halfwidth in 0u16..10,
            kill_pct in 1u32..100,
        ) {
            let g = grid();
            let p = SolarStormParams {
                center_plane: center,
                plane_halfwidth: halfwidth,
                kill_prob: kill_pct as f64 / 100.0,
                onset_secs: 100,
                onset_jitter_secs: 45,
                recovery_start_secs: 700,
                recovery_spread_secs: 200,
                seed,
            };
            let sched = FaultSchedule::solar_storm(&g, &p);
            for w in sched.events().windows(2) {
                prop_assert!(w[0].at_secs <= w[1].at_secs, "storm must sort by time");
            }
            // Every SatDown has exactly one matching staged SatUp, later.
            let mut down_at = std::collections::HashMap::new();
            let mut ups = 0usize;
            for e in sched.events() {
                match e.event {
                    FaultEvent::SatDown(id) => {
                        prop_assert!(down_at.insert(id, e.at_secs).is_none(), "{id} downed twice");
                    }
                    FaultEvent::SatUp(id) => {
                        let down = down_at.get(&id).copied();
                        prop_assert!(down.is_some(), "{id} recovered without a knockout");
                        prop_assert!(e.at_secs > down.unwrap(), "{id} recovered before its knockout");
                        ups += 1;
                    }
                    _ => prop_assert!(false, "storm emits only satellite events"),
                }
            }
            prop_assert_eq!(ups, down_at.len(), "unpaired knockout");
        }

        #[test]
        fn prop_merged_storm_and_churn_keeps_cursor_idempotent(
            seed in 1u64..40,
            t in 0u64..7200,
        ) {
            // An overlapping storm + churn stream: after any advance the
            // cursor must be a fixed point at the same time.
            let g = grid();
            let storm = FaultSchedule::solar_storm(&g, &storm_params(seed));
            let churn =
                FaultSchedule::churn(&g, &ChurnParams::sats_only(1800.0, 300.0, 7200, seed));
            let sched = storm.merged(churn);
            for w in sched.events().windows(2) {
                prop_assert!(w[0].at_secs <= w[1].at_secs, "merge must sort by time");
            }
            let mut cur = ScheduleCursor::new(&sched, FailureModel::none());
            cur.advance_to(t);
            let pos = cur.position();
            let view = cur.view().clone();
            let again = cur.advance_to(t);
            prop_assert!(again.is_empty(), "second advance_to({t}) must be a no-op");
            prop_assert_eq!(cur.position(), pos);
            prop_assert_eq!(cur.view(), &view);
        }

        #[test]
        fn prop_advance_to_idempotent_at_same_time(seed in 1u64..40, t in 0u64..7200) {
            let g = grid();
            let p = ChurnParams {
                sat_mtbf_secs: 1200.0,
                sat_mttr_secs: 300.0,
                link_mtbf_secs: Some(2400.0),
                link_mttr_secs: 300.0,
                horizon_secs: 7200,
                seed,
            };
            let sched = FaultSchedule::churn(&g, &p);
            let mut cur = ScheduleCursor::new(&sched, FailureModel::none());
            cur.advance_to(t);
            let view = cur.view().clone();
            let again = cur.advance_to(t);
            prop_assert!(again.is_empty(), "second advance_to({t}) must be a no-op");
            prop_assert_eq!(cur.view(), &view, "view must not move on a repeated time");
        }
    }

    #[test]
    fn merged_interleaves() {
        let a = FaultSchedule::from_events([TimedFault {
            at_secs: 10,
            event: FaultEvent::SatDown(sat(0, 0)),
        }]);
        let b = FaultSchedule::from_events([TimedFault {
            at_secs: 5,
            event: FaultEvent::SatDown(sat(1, 0)),
        }]);
        let m = a.merged(b);
        assert_eq!(m.len(), 2);
        assert_eq!(m.events()[0].at_secs, 5);
    }
}
