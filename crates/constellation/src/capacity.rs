//! Per-epoch link-capacity accounting and admission control.
//!
//! Table 1 gives each link class a bandwidth (`LinkParams.bandwidth_gbps`)
//! that the latency model never enforces: every request succeeds
//! instantly regardless of load. The [`CapacityLedger`] closes that gap.
//! Each scheduler epoch, every link can move at most
//! `bandwidth_gbps × 10⁹ / 8 × epoch_secs` bytes; a served request
//! charges its object size against the GSL of its serving satellite and
//! against every ISL hop on the canonical route from the first-contact
//! satellite to that owner. [`CapacityLedger::admit`] deterministically
//! answers `Admit` or `Shed(reason)` for the next request given the
//! cumulative charges of its epoch, scaled by a configurable *headroom*
//! (the usable fraction of each budget; `f64::INFINITY` disables
//! enforcement entirely — the strictly-opt-in mode).
//!
//! Two modelling rules keep the ledger deterministic across the
//! sequential engine and the parallel replayer (DESIGN.md §10):
//!
//! * the charge depends only on the route and the object size, never on
//!   the cache outcome (hit or miss move the same bytes over the same
//!   service links, and the replayer's sequential pre-pass has no cache
//!   state to consult);
//! * ISL hops are attributed to the *canonical* healthy-torus path
//!   (planes first, then slots, shorter wrap direction, east/north on
//!   ties). Fault detours add `extra_hops` that are not link-attributed —
//!   a first-order approximation, like the latency model's hop mix.
//!
//! Retries with a backoff charge a *future* epoch's budget, so the
//! ledger keeps one usage table per in-flight epoch and finalizes each
//! into a [`UtilizationPoint`] once [`CapacityLedger::advance_to`] moves
//! past it.

use crate::grid::GridTopology;
use crate::isl::{IslKind, LinkModel};
use serde::{Deserialize, Serialize};
use starcdn_orbit::walker::SatelliteId;
use std::collections::{BTreeMap, HashMap};

/// Why a request was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ShedReason {
    /// The serving satellite's ground-satellite link is out of budget.
    GslSaturated,
    /// An ISL hop on the route is out of budget.
    IslSaturated,
}

/// The admission decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// The bytes were charged; serve the request.
    Admit,
    /// Over budget; nothing was charged.
    Shed(ShedReason),
}

impl AdmitDecision {
    /// True when the request was admitted.
    pub fn is_admit(self) -> bool {
        matches!(self, AdmitDecision::Admit)
    }
}

/// One finalized epoch of the utilization timeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilizationPoint {
    /// Scheduler epoch index.
    pub epoch: u64,
    /// Peak GSL usage across satellites, as a fraction of the raw
    /// (headroom-less) per-epoch GSL budget.
    pub peak_gsl_util: f64,
    /// Peak ISL usage across links, as a fraction of that link class's
    /// raw per-epoch budget.
    pub peak_isl_util: f64,
    /// Bytes admitted onto GSLs this epoch.
    pub gsl_bytes: u64,
    /// Bytes × hops admitted onto ISLs this epoch.
    pub isl_bytes: u64,
    /// Requests shed against this epoch's budgets.
    pub shed_requests: u64,
}

/// Cumulative per-link usage of one epoch.
#[derive(Debug, Default, Clone)]
struct EpochUsage {
    /// GSL bytes per serving-satellite slot index.
    gsl_used: HashMap<u32, u64>,
    /// ISL bytes per link, keyed by normalized (low, high) slot indices.
    isl_used: HashMap<(u32, u32), u64>,
    shed: u64,
}

/// Serializable balances of one in-flight epoch (checkpoint hook).
/// Entries are sorted by key so the export is deterministic regardless
/// of `HashMap` iteration order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochUsageState {
    pub epoch: u64,
    /// `(slot index, bytes)` sorted by slot.
    pub gsl_used: Vec<(u32, u64)>,
    /// `((low, high), bytes)` sorted by link key.
    pub isl_used: Vec<((u32, u32), u64)>,
    pub shed: u64,
}

/// Per-epoch byte budgets and cumulative charges for every link in the
/// grid. See the module docs for the accounting rules.
#[derive(Debug, Clone)]
pub struct CapacityLedger {
    grid: GridTopology,
    /// Raw per-epoch budgets (bytes), before headroom.
    gsl_budget: u64,
    intra_budget: u64,
    inter_budget: u64,
    /// Usable fraction of each budget. Finite by construction: an
    /// infinite headroom means "don't build a ledger at all".
    headroom: f64,
    /// In-flight epochs (current plus backoff targets), by epoch index.
    epochs: BTreeMap<u64, EpochUsage>,
}

/// Bytes a link of `bandwidth_gbps` can move in one epoch.
pub fn epoch_budget_bytes(bandwidth_gbps: f64, epoch_secs: u64) -> u64 {
    (bandwidth_gbps.max(0.0) * 1e9 / 8.0 * epoch_secs as f64) as u64
}

impl CapacityLedger {
    /// Build a ledger for `grid` with the per-class budgets implied by
    /// `link` over `epoch_secs`-second epochs.
    ///
    /// `headroom` must be finite and positive: callers gate on
    /// enabled-ness *before* constructing a ledger (an infinite headroom
    /// is the opt-out, and opting out must leave no trace in the run).
    pub fn new(grid: &GridTopology, link: &LinkModel, epoch_secs: u64, headroom: f64) -> Self {
        assert!(
            headroom.is_finite() && headroom > 0.0,
            "capacity ledger needs a finite positive headroom (got {headroom}); \
             infinite headroom means capacity enforcement is disabled"
        );
        CapacityLedger {
            grid: grid.clone(),
            gsl_budget: epoch_budget_bytes(link.gsl.bandwidth_gbps, epoch_secs),
            intra_budget: epoch_budget_bytes(link.intra_orbit.bandwidth_gbps, epoch_secs),
            inter_budget: epoch_budget_bytes(link.inter_orbit.bandwidth_gbps, epoch_secs),
            headroom,
            epochs: BTreeMap::new(),
        }
    }

    /// The usable byte limit of a raw budget under the headroom.
    fn limit(&self, raw: u64) -> u64 {
        (raw as f64 * self.headroom) as u64
    }

    fn budget_of(&self, kind: IslKind) -> u64 {
        match kind {
            IslKind::IntraOrbit => self.intra_budget,
            IslKind::InterOrbit => self.inter_budget,
            IslKind::Gsl => self.gsl_budget,
        }
    }

    /// Enter `epoch`: finalize every older in-flight epoch into a
    /// [`UtilizationPoint`] (returned in epoch order) and open a usage
    /// table for `epoch` so it appears in the timeline even if idle.
    pub fn advance_to(&mut self, epoch: u64) -> Vec<UtilizationPoint> {
        let newer = self.epochs.split_off(&epoch);
        let done = std::mem::replace(&mut self.epochs, newer);
        let points = done.iter().map(|(&e, u)| self.finalize(e, u)).collect();
        self.epochs.entry(epoch).or_default();
        points
    }

    /// Finalize every remaining in-flight epoch (end of run).
    pub fn finish(&mut self) -> Vec<UtilizationPoint> {
        let done = std::mem::take(&mut self.epochs);
        done.iter().map(|(&e, u)| self.finalize(e, u)).collect()
    }

    fn finalize(&self, epoch: u64, u: &EpochUsage) -> UtilizationPoint {
        let peak_gsl = u.gsl_used.values().copied().max().unwrap_or(0);
        // Peak ISL utilization compares each link against its own class
        // budget; max over fractions is order-independent, so HashMap
        // iteration order cannot leak into the result.
        let mut peak_isl_util = 0.0f64;
        for (&(a, b), &used) in &u.isl_used {
            let kind = self.link_kind(a, b);
            let raw = self.budget_of(kind).max(1);
            peak_isl_util = peak_isl_util.max(used as f64 / raw as f64);
        }
        UtilizationPoint {
            epoch,
            peak_gsl_util: peak_gsl as f64 / self.gsl_budget.max(1) as f64,
            peak_isl_util,
            gsl_bytes: u.gsl_used.values().sum(),
            isl_bytes: u.isl_used.values().sum(),
            shed_requests: u.shed,
        }
    }

    /// ISL class of the link between two slot indices.
    fn link_kind(&self, a: u32, b: u32) -> IslKind {
        let spp = self.grid.sats_per_plane as u32;
        if a / spp == b / spp {
            IslKind::IntraOrbit
        } else {
            IslKind::InterOrbit
        }
    }

    /// Admission for a request arriving at `first_contact` and served by
    /// `owner`, charged against `epoch`'s budgets: the owner's GSL plus
    /// every ISL hop of the canonical path. All-or-nothing — a shed
    /// charges nothing.
    pub fn admit(
        &mut self,
        epoch: u64,
        first_contact: SatelliteId,
        owner: SatelliteId,
        bytes: u64,
    ) -> AdmitDecision {
        let spp = self.grid.sats_per_plane;
        // Check phase (no mutation): GSL first, then each hop.
        let usage = self.epochs.entry(epoch).or_default();
        let gsl_key = owner.index(spp) as u32;
        let gsl_used = usage.gsl_used.get(&gsl_key).copied().unwrap_or(0);
        if exceeds(gsl_used, bytes, (self.gsl_budget as f64 * self.headroom) as u64) {
            usage.shed += 1;
            return AdmitDecision::Shed(ShedReason::GslSaturated);
        }
        let mut over_isl = false;
        for_each_canonical_hop(&self.grid, first_contact, owner, |a, b, kind| {
            let key = link_key(a, b, spp);
            let raw = match kind {
                IslKind::IntraOrbit => self.intra_budget,
                IslKind::InterOrbit => self.inter_budget,
                IslKind::Gsl => self.gsl_budget,
            };
            let used = usage.isl_used.get(&key).copied().unwrap_or(0);
            if exceeds(used, bytes, (raw as f64 * self.headroom) as u64) {
                over_isl = true;
            }
        });
        if over_isl {
            usage.shed += 1;
            return AdmitDecision::Shed(ShedReason::IslSaturated);
        }
        // Commit phase.
        *usage.gsl_used.entry(gsl_key).or_insert(0) += bytes;
        for_each_canonical_hop(&self.grid, first_contact, owner, |a, b, _| {
            *usage.isl_used.entry(link_key(a, b, spp)).or_insert(0) += bytes;
        });
        AdmitDecision::Admit
    }

    /// Admission for an origin-direct (bent-pipe) serve: only the
    /// first-contact satellite's GSL carries the bytes.
    pub fn admit_direct(
        &mut self,
        epoch: u64,
        first_contact: SatelliteId,
        bytes: u64,
    ) -> AdmitDecision {
        let spp = self.grid.sats_per_plane;
        let limit = self.limit(self.gsl_budget);
        let usage = self.epochs.entry(epoch).or_default();
        let key = first_contact.index(spp) as u32;
        let used = usage.gsl_used.entry(key).or_insert(0);
        if exceeds(*used, bytes, limit) {
            usage.shed += 1;
            return AdmitDecision::Shed(ShedReason::GslSaturated);
        }
        *used += bytes;
        AdmitDecision::Admit
    }

    /// GSL bytes charged to `sat` in `epoch` so far.
    pub fn gsl_used(&self, epoch: u64, sat: SatelliteId) -> u64 {
        let key = sat.index(self.grid.sats_per_plane) as u32;
        self.epochs.get(&epoch).and_then(|u| u.gsl_used.get(&key)).copied().unwrap_or(0)
    }

    /// Bytes charged to the ISL between `a` and `b` in `epoch` so far.
    pub fn link_used(&self, epoch: u64, a: SatelliteId, b: SatelliteId) -> u64 {
        let key = link_key(a, b, self.grid.sats_per_plane);
        self.epochs.get(&epoch).and_then(|u| u.isl_used.get(&key)).copied().unwrap_or(0)
    }

    /// Export every in-flight epoch's balances (current plus backoff
    /// targets), in epoch order with sorted entries — the checkpoint
    /// hook. Budgets, headroom, and grid travel via configuration, not
    /// the export.
    pub fn export_state(&self) -> Vec<EpochUsageState> {
        self.epochs
            .iter()
            .map(|(&epoch, u)| {
                let mut gsl_used: Vec<(u32, u64)> =
                    u.gsl_used.iter().map(|(&k, &v)| (k, v)).collect();
                gsl_used.sort_unstable();
                let mut isl_used: Vec<((u32, u32), u64)> =
                    u.isl_used.iter().map(|(&k, &v)| (k, v)).collect();
                isl_used.sort_unstable();
                EpochUsageState { epoch, gsl_used, isl_used, shed: u.shed }
            })
            .collect()
    }

    /// Replace the in-flight balances with a previously exported set,
    /// leaving budgets and headroom as constructed. After an import the
    /// ledger admits, finalizes, and sheds exactly as the exporting
    /// ledger would have.
    pub fn import_state(&mut self, state: &[EpochUsageState]) {
        self.epochs = state
            .iter()
            .map(|s| {
                let u = EpochUsage {
                    gsl_used: s.gsl_used.iter().copied().collect(),
                    isl_used: s.isl_used.iter().copied().collect(),
                    shed: s.shed,
                };
                (s.epoch, u)
            })
            .collect();
    }

    /// The raw (headroom-less) per-epoch GSL budget, bytes.
    pub fn gsl_budget_bytes(&self) -> u64 {
        self.gsl_budget
    }

    /// The raw per-epoch budget of an ISL class, bytes.
    pub fn isl_budget_bytes(&self, kind: IslKind) -> u64 {
        self.budget_of(kind)
    }
}

/// Whether charging `bytes` on top of `used` passes `limit`. Sizes come
/// straight from log records, so a sum past `u64::MAX` is over any
/// limit rather than a wrapped small number.
fn exceeds(used: u64, bytes: u64, limit: u64) -> bool {
    used.checked_add(bytes).is_none_or(|total| total > limit)
}

/// Normalized key for the undirected link between two satellites.
fn link_key(a: SatelliteId, b: SatelliteId, spp: u16) -> (u32, u32) {
    let (x, y) = (a.index(spp) as u32, b.index(spp) as u32);
    if x <= y {
        (x, y)
    } else {
        (y, x)
    }
}

/// Walk the canonical healthy-torus path from `from` to `to` — planes
/// first, then slots, taking the shorter wrap direction (east/north on
/// ties) — calling `f(hop_src, hop_dst, kind)` for every ISL hop. This
/// is the hop sequence behind `GridTopology::hop_distance`, so the hop
/// count always equals the healthy-torus distance.
pub fn for_each_canonical_hop(
    grid: &GridTopology,
    from: SatelliteId,
    to: SatelliteId,
    mut f: impl FnMut(SatelliteId, SatelliteId, IslKind),
) {
    let p = grid.num_planes;
    let s = grid.sats_per_plane;
    let mut cur = from;
    // Inter-orbit axis: step east when the eastward wrap is no longer
    // than the westward one (or when the seam blocks wrapping).
    let east_dist = (to.orbit + p - cur.orbit) % p;
    let go_east = if grid.seamless { east_dist <= p - east_dist } else { to.orbit > cur.orbit };
    let plane_hops = grid.plane_distance(cur.orbit, to.orbit);
    for _ in 0..plane_hops {
        let next_orbit = if go_east { (cur.orbit + 1) % p } else { (cur.orbit + p - 1) % p };
        let next = SatelliteId::new(next_orbit, cur.slot);
        f(cur, next, IslKind::InterOrbit);
        cur = next;
    }
    // Intra-orbit axis: north (slot + 1) when no longer than south.
    let north_dist = (to.slot + s - cur.slot) % s;
    let go_north = north_dist <= s - north_dist;
    let slot_hops = grid.slot_distance(cur.slot, to.slot);
    for _ in 0..slot_hops {
        let next_slot = if go_north { (cur.slot + 1) % s } else { (cur.slot + s - 1) % s };
        let next = SatelliteId::new(cur.orbit, next_slot);
        f(cur, next, IslKind::IntraOrbit);
        cur = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> GridTopology {
        GridTopology::starlink()
    }

    fn ledger(headroom: f64) -> CapacityLedger {
        CapacityLedger::new(&grid(), &LinkModel::table1(), 15, headroom)
    }

    #[test]
    fn budgets_from_table1() {
        let l = ledger(1.0);
        // 20 Gbps × 15 s = 37.5 GB; 100 Gbps × 15 s = 187.5 GB.
        assert_eq!(l.gsl_budget_bytes(), 37_500_000_000);
        assert_eq!(l.isl_budget_bytes(IslKind::IntraOrbit), 187_500_000_000);
        assert_eq!(l.isl_budget_bytes(IslKind::InterOrbit), 187_500_000_000);
        assert_eq!(epoch_budget_bytes(-1.0, 15), 0, "negative bandwidth clamps to zero");
    }

    #[test]
    fn canonical_hops_match_hop_distance() {
        let g = grid();
        for (a, b) in [
            (SatelliteId::new(0, 0), SatelliteId::new(0, 0)),
            (SatelliteId::new(0, 0), SatelliteId::new(3, 2)),
            (SatelliteId::new(70, 17), SatelliteId::new(1, 1)), // wraps both axes
            (SatelliteId::new(10, 5), SatelliteId::new(46, 14)), // tie on planes (36 = 72/2)
        ] {
            let mut hops = Vec::new();
            for_each_canonical_hop(&g, a, b, |x, y, k| hops.push((x, y, k)));
            assert_eq!(hops.len() as u16, g.hop_distance(a, b), "{a}->{b}");
            // Contiguous: each hop starts where the previous ended.
            let mut cur = a;
            for &(x, y, k) in &hops {
                assert_eq!(x, cur);
                assert_eq!(g.hop_distance(x, y), 1);
                let expect =
                    if x.orbit == y.orbit { IslKind::IntraOrbit } else { IslKind::InterOrbit };
                assert_eq!(k, expect);
                cur = y;
            }
            assert_eq!(cur, b);
        }
    }

    #[test]
    fn admit_charges_gsl_and_hops() {
        let mut l = ledger(1.0);
        let fc = SatelliteId::new(10, 5);
        let owner = SatelliteId::new(12, 7);
        assert_eq!(l.admit(0, fc, owner, 1000), AdmitDecision::Admit);
        assert_eq!(l.gsl_used(0, owner), 1000);
        assert_eq!(l.gsl_used(0, fc), 0, "GSL charged at the serving satellite only");
        let mid = SatelliteId::new(11, 5);
        assert_eq!(l.link_used(0, fc, mid), 1000, "first canonical hop charged");
        assert_eq!(l.link_used(0, owner, SatelliteId::new(12, 6)), 1000, "last hop charged");
    }

    #[test]
    fn gsl_saturation_sheds_and_charges_nothing() {
        let mut l = ledger(1.0);
        let fc = SatelliteId::new(0, 0);
        let owner = SatelliteId::new(1, 0);
        let budget = l.gsl_budget_bytes();
        assert!(l.admit(0, fc, owner, budget).is_admit(), "exact budget fits");
        let before = l.link_used(0, fc, owner);
        assert_eq!(l.admit(0, fc, owner, 1), AdmitDecision::Shed(ShedReason::GslSaturated));
        assert_eq!(l.link_used(0, fc, owner), before, "shed is all-or-nothing");
        // A different owner still has GSL budget.
        assert!(l.admit(0, fc, SatelliteId::new(2, 0), 1).is_admit());
    }

    #[test]
    fn isl_saturation_sheds() {
        // Headroom scales every budget; pick one where the ISL (5× the
        // GSL budget) still exceeds a single charge but the shared first
        // hop saturates across many owners.
        let mut l = ledger(1.0);
        let fc = SatelliteId::new(0, 0);
        let far = SatelliteId::new(0, 2); // two intra hops via (0,1)
        let isl_budget = l.isl_budget_bytes(IslKind::IntraOrbit);
        let gsl_budget = l.gsl_budget_bytes();
        // Fill the (0,0)-(0,1) link using distinct owners so no GSL fills:
        // each admit charges the shared first hop.
        let chunk = gsl_budget / 2;
        let mut shed = None;
        for i in 0..2 * (isl_budget / chunk) + 4 {
            let owner = SatelliteId::new(0, 1 + (i % 8) as u16);
            match l.admit(0, fc, owner, chunk) {
                AdmitDecision::Admit => {}
                AdmitDecision::Shed(r) => {
                    shed = Some(r);
                    break;
                }
            }
            let _ = far;
        }
        assert!(
            matches!(shed, Some(ShedReason::IslSaturated) | Some(ShedReason::GslSaturated)),
            "some budget must eventually saturate: {shed:?}"
        );
    }

    #[test]
    fn headroom_scales_the_limit() {
        let mut l = ledger(0.5);
        let fc = SatelliteId::new(0, 0);
        let owner = SatelliteId::new(1, 0);
        let half = l.gsl_budget_bytes() / 2;
        assert!(l.admit(0, fc, owner, half).is_admit());
        assert_eq!(l.admit(0, fc, owner, 1), AdmitDecision::Shed(ShedReason::GslSaturated));
    }

    #[test]
    fn admit_direct_charges_first_contact_gsl() {
        let mut l = ledger(1.0);
        let fc = SatelliteId::new(3, 3);
        assert!(l.admit_direct(0, fc, 500).is_admit());
        assert_eq!(l.gsl_used(0, fc), 500);
        let rest = l.gsl_budget_bytes() - 500;
        assert!(l.admit_direct(0, fc, rest).is_admit());
        assert_eq!(l.admit_direct(0, fc, 1), AdmitDecision::Shed(ShedReason::GslSaturated));
    }

    #[test]
    fn oversized_request_sheds_instead_of_wrapping() {
        let mut l = ledger(1.0);
        let fc = SatelliteId::new(3, 3);
        let owner = SatelliteId::new(4, 3);
        assert!(l.admit(0, fc, owner, 1000).is_admit());
        assert!(l.admit_direct(0, fc, 1000).is_admit());
        // 1000 + u64::MAX wraps to 999, under every limit.
        assert_eq!(l.admit(0, fc, owner, u64::MAX), AdmitDecision::Shed(ShedReason::GslSaturated));
        assert_eq!(l.admit_direct(0, fc, u64::MAX), AdmitDecision::Shed(ShedReason::GslSaturated));
        assert_eq!(l.gsl_used(0, owner), 1000, "shed charges nothing");
        assert_eq!(l.gsl_used(0, fc), 1000);
        assert_eq!(l.link_used(0, fc, owner), 1000);
    }

    #[test]
    fn zero_hop_route_charges_gsl_only() {
        let mut l = ledger(1.0);
        let sat = SatelliteId::new(5, 5);
        assert!(l.admit(0, sat, sat, 100).is_admit());
        assert_eq!(l.gsl_used(0, sat), 100);
    }

    #[test]
    fn utilization_timeline_finalizes_past_epochs() {
        let mut l = ledger(1.0);
        assert!(l.advance_to(0).is_empty(), "nothing before the first epoch");
        let fc = SatelliteId::new(0, 0);
        let owner = SatelliteId::new(1, 0);
        l.admit(0, fc, owner, l.gsl_budget_bytes() / 4);
        l.admit(0, fc, owner, l.gsl_budget_bytes()); // sheds
        let pts = l.advance_to(2);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].epoch, 0);
        assert!((pts[0].peak_gsl_util - 0.25).abs() < 1e-9, "{}", pts[0].peak_gsl_util);
        assert!(pts[0].peak_isl_util > 0.0);
        assert_eq!(pts[0].shed_requests, 1);
        assert_eq!(pts[0].gsl_bytes, l.gsl_budget_bytes() / 4);
        // Epoch 2 was opened even though idle; finish() reports it.
        let rest = l.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].epoch, 2);
        assert_eq!(rest[0].gsl_bytes, 0);
        assert_eq!(rest[0].shed_requests, 0);
    }

    #[test]
    fn backoff_charges_future_epochs_independently() {
        let mut l = ledger(1.0);
        let fc = SatelliteId::new(0, 0);
        let owner = SatelliteId::new(1, 0);
        let budget = l.gsl_budget_bytes();
        l.advance_to(0);
        assert!(l.admit(0, fc, owner, budget).is_admit());
        assert_eq!(l.admit(0, fc, owner, 1), AdmitDecision::Shed(ShedReason::GslSaturated));
        // The next epoch's budget is fresh (the backoff target).
        assert!(l.admit(1, fc, owner, budget).is_admit());
        let pts = l.finish();
        assert_eq!(pts.iter().map(|p| p.epoch).collect::<Vec<_>>(), vec![0, 1]);
        assert!((pts[0].peak_gsl_util - 1.0).abs() < 1e-9);
        assert!((pts[1].peak_gsl_util - 1.0).abs() < 1e-9);
    }

    #[test]
    fn determinism_same_sequence_same_points() {
        let run = || {
            // 1e-4 headroom → 3.75 MB usable GSL per epoch, less than a
            // single 40 MB charge: shedding is guaranteed.
            let mut l = ledger(1e-4);
            let mut shed = 0u64;
            for e in 0..4u64 {
                l.advance_to(e);
                for i in 0..50u64 {
                    let fc = SatelliteId::new((i % 7) as u16, (i % 5) as u16);
                    let owner = SatelliteId::new(((i + 2) % 7) as u16, (i % 5) as u16);
                    if !l.admit(e, fc, owner, 40_000_000 + i).is_admit() {
                        shed += 1;
                    }
                }
            }
            (l.finish(), shed)
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b);
        assert_eq!(sa, sb);
        assert!(sa > 0, "tight headroom must shed");
    }

    #[test]
    #[should_panic(expected = "finite positive headroom")]
    fn infinite_headroom_rejected() {
        ledger(f64::INFINITY);
    }
}
