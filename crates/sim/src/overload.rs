//! The overload-aware request lifecycle.
//!
//! With a finite headroom, every routed request must be *admitted* by a
//! [`CapacityLedger`] before it may touch a cache: the ledger charges the
//! object's bytes against the serving satellite's GSL and every ISL hop
//! of the route for the current epoch. A refused (shed) or unroutable
//! attempt retries against the next same-bucket replica eastward —
//! bounded by [`RetryPolicy::max_attempts`], each failed attempt adding
//! a probe round-trip plus the backoff wait to the request's latency —
//! and finally falls back to an origin-direct bent-pipe serve, or drops
//! once the deadline is blown or even the fallback GSL is saturated.
//!
//! Every terminal outcome is classified exactly once: `ServedPrimary`
//! (admitted at the preferred owner on the first attempt),
//! `ServedReplica` (admitted at a retry target), `ServedOriginFallback`,
//! or `Dropped`. Requests with no visible satellite at all never enter
//! the constellation and stay outside this classification, exactly as in
//! the non-overload path.
//!
//! Determinism (DESIGN.md §10): `decide` depends only on the failure
//! view, the route, the object size, and the ledger state — never on
//! cache contents — so the parallel replayer runs the whole lifecycle on
//! its pre-pass and stays bit-for-bit identical to the engine. The
//! ledger keeps one usage table per epoch, and an attempt charges an
//! epoch other than its request's only when a retry backs off
//! (`OverloadConfig::charges_later_epochs`); without one, every
//! epoch's admissions start from an empty table, and the pre-pass
//! resolves the log in epoch-aligned chunks as it does without
//! admission. With one, it resolves as one chunk, in log order.

use starcdn::kernel::ServeEnv;
use starcdn::system::{
    classify_route_toward_recorded, preferred_owner, ResolvedRoute, RouteOutcome,
};
use starcdn_cache::object::ObjectId;
use starcdn_constellation::capacity::{AdmitDecision, CapacityLedger, UtilizationPoint};
use starcdn_constellation::failures::FailureModel;
use starcdn_orbit::walker::SatelliteId;

/// Bounded-retry parameters of the overload lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Admission attempts before giving up on space (≥ 1; the first
    /// attempt targets the preferred owner, each further attempt the
    /// next same-bucket replica eastward).
    pub max_attempts: u32,
    /// Epochs to wait between attempts; a backed-off attempt admits
    /// against that later epoch's (fresh) budget.
    pub backoff_epochs: u64,
    /// Drop the request once its accumulated retry penalty exceeds this
    /// many milliseconds.
    pub deadline_ms: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 3, backoff_epochs: 0, deadline_ms: 400.0 }
    }
}

/// Overload-mode switch for an engine or replayer run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Usable fraction of each per-epoch link budget. `f64::INFINITY`
    /// disables capacity enforcement entirely: runs are byte-identical
    /// to the non-overload entry points.
    pub headroom: f64,
    /// Retry behaviour for shed or unroutable requests.
    pub retry: RetryPolicy,
}

impl OverloadConfig {
    /// Capacity enforcement off (the strictly-opt-in default).
    pub fn disabled() -> Self {
        OverloadConfig { headroom: f64::INFINITY, retry: RetryPolicy::default() }
    }

    /// Enforcement at the given headroom with the default retry policy.
    pub fn with_headroom(headroom: f64) -> Self {
        OverloadConfig { headroom, retry: RetryPolicy::default() }
    }

    /// Whether admission control actually runs.
    pub(crate) fn is_enabled(&self) -> bool {
        self.headroom.is_finite()
    }

    /// Whether an admission may charge an epoch later than its
    /// request's: only a retry that backs off does. Otherwise every
    /// epoch's admissions start from an empty ledger table, and a log's
    /// epochs may be admitted apart from one another.
    pub(crate) fn charges_later_epochs(&self) -> bool {
        self.is_enabled() && self.retry.backoff_epochs > 0 && self.retry.max_attempts > 1
    }
}

/// Terminal decision for one routed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Decision {
    /// Admitted: serve over `route`, adding `penalty_ms` of accumulated
    /// retry latency. `replica` is true when a retry target (not the
    /// preferred owner) serves.
    Serve { route: ResolvedRoute, replica: bool, penalty_ms: f64 },
    /// Every space attempt failed; serve origin-direct from the first
    /// contact.
    OriginFallback { penalty_ms: f64 },
    /// Deadline blown or even the fallback GSL saturated.
    Drop,
}

/// [`Decision`] plus the per-request counters the caller folds into its
/// metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct LifecycleOutcome {
    pub decision: Decision,
    /// Admission refusals encountered (including the fallback's, if it
    /// was refused).
    pub sheds: u32,
    /// Attempts made beyond the first.
    pub retries: u32,
    /// Attempts whose live target sat across a grid partition from the
    /// first contact.
    pub partitioned: u32,
}

/// The overload side of a run: the capacity ledger with its clock, and
/// what [`decide`] needs beside the serve environment. Lives on its
/// driver's sequential spine: the engine loop, or one replayer pre-pass
/// chunk (a whole log's worth when retries back off).
pub(crate) struct Admission<'a> {
    pub ledger: CapacityLedger,
    cfg: &'a OverloadConfig,
    epoch_ms: f64,
    /// The epoch requests are admitted against; `u64::MAX` before the
    /// first [`Admission::advance_to`].
    pub epoch: u64,
}

impl<'a> Admission<'a> {
    pub(crate) fn new(env: &ServeEnv, overload: &'a OverloadConfig, epoch_secs: u64) -> Self {
        let link = &env.latency.link;
        Admission {
            ledger: CapacityLedger::new(&env.grid, link, epoch_secs, overload.headroom),
            cfg: overload,
            epoch_ms: epoch_secs as f64 * 1000.0,
            epoch: u64::MAX,
        }
    }

    /// Roll the ledger over to `epoch`; returns the utilization samples
    /// of the epochs that closed.
    pub(crate) fn advance_to(&mut self, epoch: u64) -> Vec<UtilizationPoint> {
        self.epoch = epoch;
        self.ledger.advance_to(epoch)
    }
}

/// Run the admission/retry state machine for one request. Deterministic
/// in (view, ledger state, request); never touches cache state.
pub(crate) fn decide(
    env: &ServeEnv,
    view: &FailureModel,
    adm: &mut Admission<'_>,
    first_contact: SatelliteId,
    object: ObjectId,
    size: u64,
    rec: &dyn starcdn_telemetry::Recorder,
) -> LifecycleOutcome {
    let grid = &env.grid;
    let Admission { ledger, cfg, epoch_ms, epoch } = adm;
    let (epoch, epoch_ms) = (*epoch, *epoch_ms);
    let preferred = preferred_owner(grid, env.tiling.as_ref(), first_contact, object);
    let policy = &cfg.retry;
    let backoff_wait_ms = policy.backoff_epochs as f64 * epoch_ms;
    let max_attempts = policy.max_attempts.max(1);
    let mut penalty_ms = 0.0f64;
    let mut sheds = 0u32;
    let mut retries = 0u32;
    let mut partitioned = 0u32;
    let mut last_epoch = epoch;
    let mut deadline_blown = false;
    for attempt in 0..max_attempts {
        if penalty_ms > policy.deadline_ms {
            deadline_blown = true;
            break;
        }
        if attempt > 0 {
            retries += 1;
        }
        // Attempt k probes the k-th same-bucket replica east of the
        // preferred owner (k = 0 is the preferred owner itself), against
        // the budget of the backed-off epoch. The offset is reduced
        // modulo the plane count in `u32`: `max_attempts` is a public
        // `u32`, and `span × k` passes `u16::MAX` long before it does.
        let planes = grid.num_planes as u32;
        let offset = (env.span as u32 % planes) * (attempt % planes) % planes;
        let target = grid.east_by(preferred, offset as u16);
        let admit_epoch = epoch + attempt as u64 * policy.backoff_epochs;
        last_epoch = admit_epoch;
        match classify_route_toward_recorded(grid, view, env.remap, first_contact, target, rec) {
            RouteOutcome::Routed(route) => {
                match ledger.admit(admit_epoch, first_contact, route.owner, size) {
                    AdmitDecision::Admit => {
                        return LifecycleOutcome {
                            decision: Decision::Serve { route, replica: attempt > 0, penalty_ms },
                            sheds,
                            retries,
                            partitioned,
                        };
                    }
                    AdmitDecision::Shed(_) => {
                        sheds += 1;
                        // The refused probe still cost a round trip to the
                        // owner, plus the backoff wait before the next try.
                        penalty_ms += 2.0 * env.latency.route_oneway_ms(route.intra, route.inter)
                            + backoff_wait_ms;
                    }
                }
            }
            RouteOutcome::Partitioned { .. } => {
                // Target alive but cut off behind a grid partition: a
                // wasted attempt; only the backoff wait accrues. Counted
                // separately so callers can surface degraded serving.
                partitioned += 1;
                penalty_ms += backoff_wait_ms;
            }
            RouteOutcome::Unroutable => {
                // Target (and its whole remap chain) dead or unreachable:
                // a wasted attempt; only the backoff wait accrues.
                penalty_ms += backoff_wait_ms;
            }
        }
    }
    if deadline_blown || penalty_ms > policy.deadline_ms {
        return LifecycleOutcome { decision: Decision::Drop, sheds, retries, partitioned };
    }
    // Origin-direct last resort: only the first contact's GSL carries it.
    match ledger.admit_direct(last_epoch, first_contact, size) {
        AdmitDecision::Admit => LifecycleOutcome {
            decision: Decision::OriginFallback { penalty_ms },
            sheds,
            retries,
            partitioned,
        },
        AdmitDecision::Shed(_) => {
            LifecycleOutcome { decision: Decision::Drop, sheds: sheds + 1, retries, partitioned }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starcdn::config::StarCdnConfig;
    use starcdn_constellation::buckets::BucketTiling;
    use starcdn_telemetry::Noop;

    fn ctx() -> (StarCdnConfig, ServeEnv, FailureModel) {
        let cfg = StarCdnConfig::starcdn_no_relay(9, 1_000_000);
        let env = ServeEnv::new(&cfg);
        (cfg, env, FailureModel::none())
    }

    /// The ledger and lifecycle state of a run in its epoch 0 (15 s
    /// epochs over the Table-1 link model `cfg` carries).
    fn admission<'a>(env: &ServeEnv, ocfg: &'a OverloadConfig) -> Admission<'a> {
        let mut adm = Admission::new(env, ocfg, 15);
        adm.advance_to(0);
        adm
    }

    fn run_decide(
        env: &ServeEnv,
        view: &FailureModel,
        adm: &mut Admission<'_>,
        object: u64,
        size: u64,
    ) -> LifecycleOutcome {
        decide(env, view, adm, SatelliteId::new(10, 5), ObjectId(object), size, &Noop)
    }

    /// An object whose preferred owner is *not* the first contact
    /// (10, 5): the route has real ISL hops, so a shed probe costs
    /// latency and the fallback GSL is distinct from the primary's.
    fn remote_object(cfg: &StarCdnConfig) -> u64 {
        let tiling = cfg.num_buckets.map(|l| BucketTiling::new(l).unwrap());
        let fc = SatelliteId::new(10, 5);
        (0..64)
            .find(|&o| preferred_owner(&cfg.grid, tiling.as_ref(), fc, ObjectId(o)) != fc)
            .expect("some bucket must live off the first contact")
    }

    #[test]
    fn ample_budget_serves_primary_with_no_penalty() {
        let (_, env, view) = ctx();
        let ocfg = OverloadConfig::with_headroom(1.0);
        let out = run_decide(&env, &view, &mut admission(&env, &ocfg), 1, 1000);
        match out.decision {
            Decision::Serve { replica, penalty_ms, .. } => {
                assert!(!replica);
                assert_eq!(penalty_ms, 0.0);
            }
            other => panic!("expected primary serve, got {other:?}"),
        }
        assert_eq!(out.sheds, 0);
        assert_eq!(out.retries, 0);
    }

    #[test]
    fn saturated_primary_retries_to_replica() {
        let (cfg, env, view) = ctx();
        // Budget below a single request: every owner sheds, but each
        // retry targets a *different* replica whose GSL... is also below
        // one request. So instead: budget that admits exactly one
        // request per satellite — saturate the primary first, then the
        // second request of the same object must go to the replica.
        let size = 1_000_000u64;
        let headroom = size as f64 * 1.5 / 37_500_000_000.0; // fits 1, not 2
        let ocfg = OverloadConfig::with_headroom(headroom);
        let mut adm = admission(&env, &ocfg);
        let obj = remote_object(&cfg);
        let first = run_decide(&env, &view, &mut adm, obj, size);
        assert!(matches!(first.decision, Decision::Serve { replica: false, .. }), "{first:?}");
        let second = run_decide(&env, &view, &mut adm, obj, size);
        match second.decision {
            Decision::Serve { route, replica, penalty_ms } => {
                assert!(replica, "primary saturated, replica must serve");
                assert!(penalty_ms > 0.0, "shed probe costs latency");
                // The replica is span planes east of the primary.
                let Decision::Serve { route: r1, .. } = first.decision else { unreachable!() };
                assert_eq!(route.owner, cfg.grid.east_by(r1.owner, cfg.relay_span_planes()),);
            }
            other => panic!("expected replica serve, got {other:?}"),
        }
        assert_eq!(second.sheds, 1);
        assert_eq!(second.retries, 1);
    }

    #[test]
    fn exhausted_replicas_fall_back_to_origin_then_drop() {
        let (cfg, env, view) = ctx();
        // Tiny headroom: nothing ever fits an ISL-routed admit, but the
        // first contact's GSL can still take a couple of direct serves.
        let size = 1_000_000u64;
        let headroom = size as f64 * 2.5 / 37_500_000_000.0;
        let mut ocfg = OverloadConfig::with_headroom(headroom);
        ocfg.retry = RetryPolicy { max_attempts: 3, backoff_epochs: 0, deadline_ms: 1e9 };
        let mut adm = admission(&env, &ocfg);
        let obj = remote_object(&cfg);
        // Saturate primary + both retry replicas (3 serves of the same
        // object land on 3 distinct owners, two per owner to fill).
        for _ in 0..6 {
            run_decide(&env, &view, &mut adm, obj, size);
        }
        let fb = run_decide(&env, &view, &mut adm, obj, size);
        assert!(
            matches!(fb.decision, Decision::OriginFallback { .. }),
            "all replicas saturated → origin: {fb:?}"
        );
        assert_eq!(fb.sheds, 3, "every attempt was shed");
        assert_eq!(fb.retries, 2);
        // Keep hammering: the first contact's own GSL saturates too and
        // requests start dropping.
        let mut dropped = false;
        for _ in 0..4 {
            let out = run_decide(&env, &view, &mut adm, obj, size);
            if matches!(out.decision, Decision::Drop) {
                dropped = true;
                break;
            }
        }
        assert!(dropped, "fallback GSL must eventually saturate");
    }

    #[test]
    fn deadline_bounds_the_retry_chain() {
        let (_, env, view) = ctx();
        let size = 1_000_000u64;
        let headroom = size as f64 * 0.5 / 37_500_000_000.0; // nothing fits
        let mut ocfg = OverloadConfig::with_headroom(headroom);
        // One epoch of backoff per attempt (15 s ≫ any deadline).
        ocfg.retry = RetryPolicy { max_attempts: 5, backoff_epochs: 1, deadline_ms: 100.0 };
        let mut adm = admission(&env, &ocfg);
        let out = run_decide(&env, &view, &mut adm, 1, size);
        assert!(matches!(out.decision, Decision::Drop), "{out:?}");
        assert!(out.retries < 4, "deadline must cut the chain short, got {} retries", out.retries);
    }

    #[test]
    fn replica_offset_survives_a_long_retry_chain() {
        let (cfg, env, view) = ctx();
        let size = 1_000_000u64;
        let headroom = size as f64 * 0.5 / 37_500_000_000.0; // nothing fits
        let mut ocfg = OverloadConfig::with_headroom(headroom);
        // Span 3 × attempt 21 846 is the first product past `u16::MAX`.
        ocfg.retry = RetryPolicy { max_attempts: 30_000, backoff_epochs: 0, deadline_ms: 1e12 };
        let mut adm = admission(&env, &ocfg);
        let out = run_decide(&env, &view, &mut adm, remote_object(&cfg), size);
        assert_eq!(out.retries, 29_999);
        assert_eq!(out.sheds, 30_001, "every probe and the origin fallback were shed");
        assert!(matches!(out.decision, Decision::Drop), "{:?}", out.decision);
    }

    #[test]
    fn max_attempts_one_never_retries() {
        let (_, env, view) = ctx();
        let size = 1_000_000u64;
        let headroom = size as f64 * 0.5 / 37_500_000_000.0;
        let mut ocfg = OverloadConfig::with_headroom(headroom);
        ocfg.retry = RetryPolicy { max_attempts: 1, backoff_epochs: 0, deadline_ms: 1e9 };
        let mut adm = admission(&env, &ocfg);
        let out = run_decide(&env, &view, &mut adm, 1, size);
        assert_eq!(out.retries, 0);
        assert!(matches!(out.decision, Decision::OriginFallback { .. } | Decision::Drop));
    }

    #[test]
    fn partitioned_attempts_count_and_fall_back_to_origin() {
        let (cfg, env, _) = ctx();
        // Cut all four ISLs of the first contact: every live replica sits
        // across the partition, so each attempt is Partitioned and the
        // request degrades to the origin bent pipe.
        let fc = SatelliteId::new(10, 5);
        let cuts: Vec<_> = cfg.grid.neighbors(fc).map(|(_, n)| (fc, n)).collect();
        let view = FailureModel::from_outages([], cuts);
        let ocfg = OverloadConfig::with_headroom(1.0);
        let mut adm = admission(&env, &ocfg);
        // Owner on a different slot: no east-shifted retry replica can
        // coincide with the first contact (east_by preserves the slot).
        let tiling = cfg.num_buckets.map(|l| BucketTiling::new(l).unwrap());
        let obj = (0..64)
            .find(|&o| preferred_owner(&cfg.grid, tiling.as_ref(), fc, ObjectId(o)).slot != fc.slot)
            .expect("some bucket owner must sit off the first contact's slot");
        let out = run_decide(&env, &view, &mut adm, obj, 1000);
        assert!(matches!(out.decision, Decision::OriginFallback { .. }), "{out:?}");
        assert_eq!(out.partitioned, 3, "every attempt crossed the partition");
        assert_eq!(out.sheds, 0);
    }

    #[test]
    fn disabled_config_reports_disabled() {
        assert!(!OverloadConfig::disabled().is_enabled());
        assert!(OverloadConfig::with_headroom(0.5).is_enabled());
        let d = RetryPolicy::default();
        assert_eq!(d.max_attempts, 3);
        assert_eq!(d.backoff_epochs, 0);
    }

    #[test]
    fn only_backed_off_retries_charge_a_later_epoch() {
        let (cfg, env, view) = ctx();
        let size = 1_000_000u64;
        let headroom = size as f64 * 1.5 / 37_500_000_000.0; // fits 1, not 2
        let obj = remote_object(&cfg);
        for (max_attempts, backoff_epochs, later) in
            [(3, 0, false), (1, 2, false), (0, 2, false), (3, 1, true), (2, 4, true)]
        {
            let retry = RetryPolicy { max_attempts, backoff_epochs, deadline_ms: 1e9 };
            let ocfg = OverloadConfig { headroom, retry };
            assert_eq!(ocfg.charges_later_epochs(), later, "{retry:?}");
            assert!(!OverloadConfig { headroom: f64::INFINITY, retry }.charges_later_epochs());
            // Saturate the primary, then let the same object retry: the
            // replica's charge lands `backoff_epochs` later, if it retries.
            let mut adm = admission(&env, &ocfg);
            let first = run_decide(&env, &view, &mut adm, obj, size);
            let Decision::Serve { route, .. } = first.decision else { panic!("{first:?}") };
            let second = run_decide(&env, &view, &mut adm, obj, size);
            let charged_later = (1..=8).any(|epoch| {
                let replica = cfg.grid.east_by(route.owner, cfg.relay_span_planes());
                adm.ledger.gsl_used(epoch, replica) > 0
                    || adm.ledger.gsl_used(epoch, SatelliteId::new(10, 5)) > 0
            });
            assert_eq!(charged_later, later, "{retry:?}: {second:?}");
        }
    }
}
