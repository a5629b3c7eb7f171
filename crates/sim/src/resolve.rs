//! The first half of a request's life, before any cache is touched:
//! the scheduler-epoch boundary it is resolved under ([`EpochBoundary`])
//! and the step from a log entry to either a [`RoutedRequest`] for the
//! serve kernel ([`starcdn::kernel::serve_one`]) or an outcome accounted
//! on the spot. The engine serves the result at once; the replayer's
//! pre-pass pushes it onto the owner's shard stream. Nothing here reads
//! cache contents — only the failure view, the route, the object size
//! and the ledger's table for the request's epoch — which is why the
//! pre-pass may run ahead of the workers, in epoch-aligned chunks, and
//! stay bit-for-bit the engine.
//!
//! Every fault event is recorded where its counter is counted, stamped
//! with its request's epoch: `Remap` and `Reroute` in
//! [`resolve_request`], `ColdMiss` in [`record_outcome`], the applied
//! churn in [`EpochBoundary::enter`]. So the event timeline is the same
//! in every driver, as the counters are.

use crate::access_log::{record_fault_delta, AccessLogEntry};
use crate::engine::RunSpec;
use crate::overload::{Admission, Decision};
use starcdn::kernel::{bent_pipe, serve_degraded, serve_unreachable, RoutedRequest, ServeEnv};
use starcdn::metrics::{AvailabilityPoint, SystemMetrics};
use starcdn::system::{classify_route_in_recorded, RouteOutcome, ServeOutcome, ServedFrom};
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::{FaultDelta, ScheduleCursor};
use starcdn_telemetry::{Counter, Event, Histo, Recorder, SpanTimer, Stage};

/// The scheduler-epoch boundary, written once for both drivers: the
/// engine crosses it before serving an epoch's first request, each
/// pre-pass chunk before resolving it. It owns the run's fault cursor
/// and admission (either absent when the run has no schedule or no
/// overload enforcement), the epoch last entered and that epoch's span.
pub(crate) struct EpochBoundary<'a> {
    cursor: Option<ScheduleCursor<'a>>,
    pub(crate) admission: Option<Admission<'a>>,
    /// The epoch last entered; `u64::MAX` before the first.
    pub(crate) epoch: u64,
    epoch_secs: u64,
    total_slots: usize,
    rec: &'a dyn Recorder,
    /// What the per-epoch span times: the engine's serving, the
    /// pre-pass's resolving.
    stage: Stage,
    span: Option<SpanTimer<'a>>,
}

impl<'a> EpochBoundary<'a> {
    /// Before the first epoch of a run of `spec` over `base` (the static
    /// failure set), recording into `rec`.
    pub(crate) fn new(
        env: &ServeEnv,
        base: &FailureModel,
        spec: &'a RunSpec<'_>,
        epoch_secs: u64,
        rec: &'a dyn Recorder,
        stage: Stage,
    ) -> Self {
        EpochBoundary {
            cursor: spec.live_schedule().map(|s| ScheduleCursor::new(s, base.clone())),
            admission: spec.live_overload().map(|o| Admission::new(env, o, epoch_secs)),
            epoch: u64::MAX,
            epoch_secs,
            total_slots: env.grid.total_slots(),
            rec,
            stage,
            span: None,
        }
    }

    /// Stand where a run that entered `epoch` stands, without entering
    /// it: the fault cursor applies its churn silently. A pre-pass chunk
    /// starts where the entry before it left one pass.
    pub(crate) fn skip_to(&mut self, epoch: u64) {
        if let Some(cur) = self.cursor.as_mut() {
            cur.advance_to(epoch * self.epoch_secs);
        }
        self.epoch = epoch;
    }

    /// Stand where a checkpoint left a run: in `epoch`, with the fault
    /// cursor it saved.
    pub(crate) fn restore(&mut self, epoch: u64, cursor: Option<ScheduleCursor<'a>>) {
        if cursor.is_some() {
            self.cursor = cursor;
        }
        self.epoch = epoch;
    }

    /// Whether entering `epoch` crosses an `every`-epoch barrier (0
    /// behaves as 1): never before the first epoch. Engine checkpoints
    /// and the pre-pass's shard cuts fall where this holds.
    pub(crate) fn crosses(&self, epoch: u64, every: u64) -> bool {
        let every = every.max(1);
        self.epoch != u64::MAX && epoch / every != self.epoch / every
    }

    /// Enter `epoch`: restart the epoch's span, advance the fault cursor
    /// (recording the applied churn and its wipes and cold marks) and
    /// sample availability from the new view, and roll the ledger over
    /// into `m.utilization`. Returns the churn for the caller to apply to
    /// its caches, when there is any.
    pub(crate) fn enter(&mut self, epoch: u64, m: &mut SystemMetrics) -> Option<FaultDelta> {
        self.epoch = epoch;
        let rec = self.rec;
        if rec.is_enabled() {
            // Replacing the guard closes the previous epoch's span.
            self.span = Some(SpanTimer::start(rec, self.stage, epoch));
        }
        let mut churn = None;
        if let Some(cur) = self.cursor.as_mut() {
            let delta = cur.advance_to(epoch * self.epoch_secs);
            if rec.is_enabled() {
                record_fault_delta(rec, epoch, &delta);
                rec.add(Counter::CacheWipes, delta.went_down.len() as u64);
                rec.add(Counter::ColdMarks, delta.came_up.len() as u64);
            }
            let view = cur.view();
            m.availability.push(AvailabilityPoint {
                epoch,
                alive_sats: (self.total_slots - view.dead_count()) as u32,
                cut_links: view.cut_link_count() as u32,
            });
            churn = (!delta.is_empty()).then_some(delta);
        }
        if let Some(adm) = self.admission.as_mut() {
            m.utilization.extend(adm.advance_to(epoch));
        }
        churn
    }

    /// The live failure view, when a fault schedule runs.
    pub(crate) fn view(&self) -> Option<&FailureModel> {
        self.cursor.as_ref().map(ScheduleCursor::view)
    }

    /// What resolving a request reads of the boundary: the failure view
    /// of its epoch (`base` without a schedule) and the admission.
    pub(crate) fn resolving<'s>(
        &'s mut self,
        base: &'s FailureModel,
    ) -> (&'s FailureModel, Option<&'s mut Admission<'a>>) {
        (self.cursor.as_ref().map_or(base, ScheduleCursor::view), self.admission.as_mut())
    }

    /// The fault cursor's `(events applied, live view)`, for a checkpoint.
    pub(crate) fn cursor_state(&self) -> Option<(u64, FailureModel)> {
        self.cursor.as_ref().map(|c| (c.position() as u64, c.view().clone()))
    }

    /// Close the open epoch's span, so a snapshot taken now holds it.
    pub(crate) fn close_span(&mut self) {
        self.span = None;
    }

    /// End the run: close the last epoch's span and finalize the
    /// ledger's open epochs into `m.utilization`.
    pub(crate) fn finish(mut self, m: &mut SystemMetrics) {
        self.close_span();
        if let Some(adm) = self.admission.as_mut() {
            m.utilization.extend(adm.ledger.finish());
        }
    }
}

/// How [`resolve_request`] left a request.
pub(crate) enum Resolved {
    /// A live owner over a surviving (under overload: admitted) route.
    Serve(RoutedRequest),
    /// Booked in full: no satellite in view, no reachable owner (served
    /// over the origin bent pipe), origin fallback, or drop.
    Accounted,
}

/// Resolve one log entry under `view`, the failure view of its epoch:
/// unreachable → the overload lifecycle when `admission` is set, plain
/// route classification otherwise → [`Resolved`]. Everything decided
/// here is booked here, into `m` and `rec`: the direct serves
/// (unreachable, degraded, origin fallback), drops, sheds and retries,
/// partitions, and the route's remap and detour hops. Forced inline into
/// its two per-request loops for the reason `serve_one` is.
#[inline(always)]
pub(crate) fn resolve_request(
    env: &ServeEnv,
    view: &FailureModel,
    admission: Option<&mut Admission<'_>>,
    epoch: u64,
    e: &AccessLogEntry,
    m: &mut SystemMetrics,
    rec: &dyn Recorder,
) -> Resolved {
    let enabled = rec.is_enabled();
    let Some(fc) = e.first_contact else {
        // No satellite in view: outside the overload lifecycle too (no
        // GSL of ours carries it).
        serve_unreachable(env, m, e.size);
        if enabled {
            rec.add(Counter::RequestsUnreachable, 1);
        }
        return Resolved::Accounted;
    };
    let (route, penalty_ms, replica) = match admission {
        Some(adm) => {
            let lc = crate::overload::decide(env, view, adm, fc, e.object, e.size, rec);
            let partitioned = (lc.partitioned > 0) as u64;
            m.shed_requests += lc.sheds as u64;
            m.retry_attempts += lc.retries as u64;
            m.partitioned_requests += partitioned;
            if enabled {
                rec.add(Counter::RequestsShed, lc.sheds as u64);
                rec.add(Counter::RetryAttempts, lc.retries as u64);
                rec.observe(Histo::RetryCount, lc.retries as u64);
                if partitioned > 0 {
                    rec.add(Counter::RequestsPartitioned, 1);
                }
            }
            match lc.decision {
                Decision::Serve { route, replica, penalty_ms } => {
                    (route, penalty_ms, Some(replica))
                }
                Decision::OriginFallback { penalty_ms } => {
                    bent_pipe(env, m, fc, e.size, e.gsl_oneway_ms, penalty_ms);
                    m.served_origin_fallback += 1;
                    if enabled {
                        rec.add(Counter::OriginFallbacks, 1);
                    }
                    return Resolved::Accounted;
                }
                Decision::Drop => {
                    m.dropped_requests += 1;
                    if enabled {
                        rec.add(Counter::RequestsDropped, 1);
                    }
                    return Resolved::Accounted;
                }
            }
        }
        None => match classify_route_in_recorded(env, view, fc, e.object, rec) {
            RouteOutcome::Routed(route) => (route, 0.0, None),
            degraded => {
                if enabled {
                    rec.add(
                        match degraded {
                            RouteOutcome::Partitioned { .. } => Counter::RequestsPartitioned,
                            _ => Counter::RequestsUnroutable,
                        },
                        1,
                    );
                }
                serve_degraded(env, m, degraded, fc, e.size, e.gsl_oneway_ms);
                return Resolved::Accounted;
            }
        },
    };
    route.book(m);
    if enabled {
        if route.remapped {
            rec.add(Counter::RemappedRequests, 1);
            rec.event(Event::Remap, epoch, 1);
        }
        if route.extra_hops > 0 {
            rec.add(Counter::RerouteExtraHops, route.extra_hops as u64);
            rec.event(Event::Reroute, epoch, route.extra_hops as u64);
        }
    }
    Resolved::Serve(RoutedRequest {
        object: e.object,
        size: e.size,
        owner: route.owner,
        intra: route.intra,
        inter: route.inter,
        gsl_oneway_ms: e.gsl_oneway_ms,
        penalty_ms,
        replica,
        epoch,
    })
}

/// Record one served request `req` into `rec`: the one place a driver
/// turns a [`ServeOutcome`] into counters, histograms and its cold-miss
/// event, so hit/miss classification cannot differ between the engine
/// and the workers.
pub(crate) fn record_outcome(rec: &dyn Recorder, out: &ServeOutcome, req: &RoutedRequest) {
    rec.add(Counter::RequestsRouted, 1);
    rec.observe(Histo::LatencyUs, (out.latency_ms * 1000.0) as u64);
    rec.observe(Histo::IslHops, out.route_hops as u64);
    rec.observe(Histo::ObjectBytes, req.size);
    if out.served_from.is_space_hit() {
        rec.add(Counter::CacheHits, 1);
        if matches!(out.served_from, ServedFrom::RelayWest | ServedFrom::RelayEast) {
            rec.add(Counter::RelayHits, 1);
        }
    } else {
        rec.add(Counter::CacheMisses, 1);
    }
    if out.cold_miss {
        rec.add(Counter::ColdRestartMisses, 1);
        rec.event(Event::ColdMiss, req.epoch, 1);
    }
    if out.residual_epochs > 0 {
        rec.add(Counter::DelayedHits, 1);
        rec.observe(Histo::ResidualWaitEpochs, out.residual_epochs);
    }
    if out.fetch_retired {
        rec.add(Counter::FetchesRetired, 1);
        rec.add(Counter::CoalescedRequests, out.coalesced);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starcdn::config::StarCdnConfig;
    use starcdn_constellation::schedule::{FaultEvent, FaultSchedule, TimedFault};
    use starcdn_orbit::walker::SatelliteId;
    use starcdn_telemetry::Noop;

    /// Every epoch entered samples availability from the live failure
    /// view, churn applied first; barriers fall where `epoch / every`
    /// changes, never before the first epoch.
    #[test]
    fn entering_an_epoch_samples_the_failure_view() {
        let env = ServeEnv::new(&StarCdnConfig::starcdn(4, 1_000_000));
        let total = env.grid.total_slots() as u32;
        let (sat, a, b) = (SatelliteId::new(1, 1), SatelliteId::new(2, 2), SatelliteId::new(2, 3));
        let mut base = FailureModel::from_dead([sat]);
        base.cut_link(a, b);
        let schedule = FaultSchedule::from_events([
            TimedFault { at_secs: 15, event: FaultEvent::SatUp(sat) },
            TimedFault { at_secs: 15, event: FaultEvent::LinkUp(a, b) },
        ]);
        let spec = RunSpec { schedule: &schedule, ..RunSpec::default() };
        let mut boundary = EpochBoundary::new(&env, &base, &spec, 15, &Noop, Stage::CacheAccess);
        assert!(!boundary.crosses(5, 5), "no barrier before the first epoch");
        let mut m = SystemMetrics::default();
        assert!(boundary.enter(0, &mut m).is_none(), "nothing changes at 0 s");
        let churn = boundary.enter(1, &mut m).expect("the outage ends at 15 s");
        assert_eq!(churn.came_up, [sat]);
        assert_eq!(churn.links_restored.len(), 1);
        assert_eq!(
            m.availability,
            [
                AvailabilityPoint { epoch: 0, alive_sats: total - 1, cut_links: 1 },
                AvailabilityPoint { epoch: 1, alive_sats: total, cut_links: 0 },
            ]
        );
        assert_eq!(boundary.view().map(FailureModel::dead_count), Some(0));
        assert!(boundary.crosses(5, 5) && !boundary.crosses(4, 5) && boundary.crosses(2, 0));
        boundary.finish(&mut m);
        assert!(m.utilization.is_empty(), "no admission, no ledger");
    }
}
