//! The first half of a request's life, before any cache is touched:
//! from a log entry to either a [`RoutedRequest`] for the serve kernel
//! ([`starcdn::kernel::serve_one`]) or an outcome accounted on the spot.
//! The engine serves the result at once; the replayer's pre-pass pushes
//! it onto the owner's shard stream. Nothing here reads cache contents —
//! only the failure view, the route, the object size and the ledger's
//! table for the request's epoch — which is why the pre-pass may run ahead of the workers, in
//! epoch-aligned chunks, and stay bit-for-bit the engine.

use crate::access_log::AccessLogEntry;
use crate::overload::{Admission, Decision};
use starcdn::kernel::{bent_pipe, serve_degraded, serve_unreachable, RoutedRequest, ServeEnv};
use starcdn::metrics::SystemMetrics;
use starcdn::system::{classify_route_in_recorded, RouteOutcome, ServeOutcome, ServedFrom};
use starcdn_constellation::failures::FailureModel;
use starcdn_telemetry::{Counter, Histo, Recorder};

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
        }
        rec.add(Counter::RerouteExtraHops, route.extra_hops as u64);
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

/// Record one served request into `rec`: the one place a driver turns a
/// [`ServeOutcome`] into counters and histograms, so hit/miss
/// classification cannot differ between the engine and the workers.
pub(crate) fn record_outcome(rec: &dyn Recorder, out: &ServeOutcome, size: u64) {
    rec.add(Counter::RequestsRouted, 1);
    rec.observe(Histo::LatencyUs, (out.latency_ms * 1000.0) as u64);
    rec.observe(Histo::IslHops, out.route_hops as u64);
    rec.observe(Histo::ObjectBytes, size);
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
