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
//!   service links, and the replayer's pre-pass has no cache state to
//!   consult);
//! * ISL hops are attributed to the *canonical* healthy-torus path
//!   (planes first, then slots, shorter wrap direction, east/north on
//!   ties). Fault detours add `extra_hops` that are not link-attributed —
//!   a first-order approximation, like the latency model's hop mix.
//!
//! [`CapacityLedger::admit`] takes the epoch to charge, and the ledger
//! keeps one usage table per in-flight epoch — the caller may admit
//! against an epoch it has not advanced to, and a log whose time runs
//! backwards reopens an earlier one — finalizing each into a
//! [`UtilizationPoint`] once [`CapacityLedger::advance_to`] moves past
//! it. The request lifecycle admits every attempt against its request's
//! own epoch, so each epoch's admissions start from an empty table.
//!
//! A usage table is flat (DESIGN.md §7, "The flat ledger"): one `u64`
//! per GSL and per ISL of the grid, indexed by slot, so an admit is a
//! few indexed loads and stores — no hashing, no ordered-map descent
//! and, once its epoch's table exists, no allocation.

use crate::grid::{Direction, GridTopology};
use crate::isl::{IslKind, LinkModel};
use serde::{Deserialize, Serialize};
use starcdn_orbit::walker::SatelliteId;

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

/// Cumulative per-link usage of one in-flight epoch, over a grid of `n`
/// slots: `used[i]` is the GSL of slot `i`, `used[n + i]` the ISL from
/// slot `i` to its east neighbour, `used[2n + i]` the ISL to its north
/// neighbour (see [`hop_index`] for which end owns a link).
#[derive(Debug, Clone)]
struct EpochTable {
    epoch: u64,
    used: Vec<u64>,
    /// Bit `k` is set once a charge has opened `used[k]`, a zero-byte
    /// one included: the export lists opened balances, not non-zero
    /// ones.
    touched: Vec<u64>,
    shed: u64,
}

impl EpochTable {
    fn new(epoch: u64, slots: usize) -> Self {
        let links = 3 * slots;
        EpochTable { epoch, used: vec![0; links], touched: vec![0; links.div_ceil(64)], shed: 0 }
    }

    /// This finalized table, emptied, as the table of `epoch`.
    fn reopened(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self.used.fill(0);
        self.touched.fill(0);
        self.shed = 0;
        self
    }

    /// Open balance `k`; false when it was open already.
    fn open(&mut self, k: usize) -> bool {
        let (word, bit) = (k / 64, 1u64 << (k % 64));
        let fresh = self.touched[word] & bit == 0;
        self.touched[word] |= bit;
        fresh
    }

    fn charge(&mut self, k: usize, bytes: u64) {
        self.open(k);
        self.used[k] += bytes;
    }

    /// The opened balances, in index order.
    fn opened(&self) -> impl Iterator<Item = usize> + '_ {
        self.touched
            .iter()
            .enumerate()
            .flat_map(|(word, &bits)| crate::bits::ones(bits).map(move |b| word * 64 + b as usize))
    }
}

/// Serializable balances of one in-flight epoch (checkpoint hook).
/// Entries are sorted by key so the export is deterministic.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EpochUsageState {
    pub epoch: u64,
    /// `(slot index, bytes)` sorted by slot.
    pub gsl_used: Vec<(u32, u64)>,
    /// `((low, high), bytes)` sorted by link key.
    pub isl_used: Vec<((u32, u32), u64)>,
    pub shed: u64,
}

/// Why [`CapacityLedger::import_state`] refused a set of balances: a
/// flat table cannot hold a key its grid does not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerStateError {
    /// A slot index at or past the grid's slot count.
    OffGrid { epoch: u64, slot: u32 },
    /// Two slots of the grid that no ISL joins, or a pair that is not
    /// `(low, high)`.
    NotALink { epoch: u64, link: (u32, u32) },
    /// An epoch, a GSL or a link listed twice.
    Duplicate { epoch: u64 },
}

impl std::fmt::Display for LedgerStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            LedgerStateError::OffGrid { epoch, slot } => {
                write!(f, "epoch {epoch}: slot {slot} is off the ledger's grid")
            }
            LedgerStateError::NotALink { epoch, link: (a, b) } => {
                write!(f, "epoch {epoch}: ({a}, {b}) is not an ISL of the ledger's grid")
            }
            LedgerStateError::Duplicate { epoch } => {
                write!(f, "epoch {epoch}: an epoch or a balance is listed twice")
            }
        }
    }
}

impl std::error::Error for LedgerStateError {}

/// Per-epoch byte budgets and cumulative charges for every link in the
/// grid. See the module docs for the accounting rules.
#[derive(Debug, Clone)]
pub struct CapacityLedger {
    grid: GridTopology,
    /// Raw per-epoch budgets (bytes), before headroom.
    gsl_budget: u64,
    intra_budget: u64,
    inter_budget: u64,
    /// The usable byte limits: each budget scaled by the headroom, which
    /// is finite by construction (an infinite headroom means "don't
    /// build a ledger at all").
    gsl_limit: u64,
    intra_limit: u64,
    inter_limit: u64,
    /// In-flight epochs (every epoch charged and not yet finalized),
    /// ascending.
    epochs: Vec<EpochTable>,
    /// Finalized tables, kept for the next epoch to open.
    spare: Vec<EpochTable>,
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
        let gsl_budget = epoch_budget_bytes(link.gsl.bandwidth_gbps, epoch_secs);
        let intra_budget = epoch_budget_bytes(link.intra_orbit.bandwidth_gbps, epoch_secs);
        let inter_budget = epoch_budget_bytes(link.inter_orbit.bandwidth_gbps, epoch_secs);
        let limit = |raw: u64| (raw as f64 * headroom) as u64;
        CapacityLedger {
            grid: grid.clone(),
            gsl_budget,
            intra_budget,
            inter_budget,
            gsl_limit: limit(gsl_budget),
            intra_limit: limit(intra_budget),
            inter_limit: limit(inter_budget),
            epochs: Vec::new(),
            spare: Vec::new(),
        }
    }

    /// Position in `self.epochs` of `epoch`'s table, opening one (a
    /// finalized table when there is one to reuse) if the epoch is not
    /// in flight yet. A handful of epochs are ever in flight, so the
    /// scan is shorter than any map lookup.
    fn table_index(&mut self, epoch: u64) -> usize {
        let at = self.epochs.iter().position(|t| t.epoch >= epoch).unwrap_or(self.epochs.len());
        if self.epochs.get(at).is_none_or(|t| t.epoch != epoch) {
            let table = match self.spare.pop() {
                Some(finalized) => finalized.reopened(epoch),
                None => EpochTable::new(epoch, self.grid.total_slots()),
            };
            self.epochs.insert(at, table);
        }
        at
    }

    fn table(&self, epoch: u64) -> Option<&EpochTable> {
        self.epochs.iter().find(|t| t.epoch == epoch)
    }

    /// Enter `epoch`: finalize every older in-flight epoch into a
    /// [`UtilizationPoint`] (returned in epoch order) and open a usage
    /// table for `epoch` so it appears in the timeline even if idle.
    pub fn advance_to(&mut self, epoch: u64) -> Vec<UtilizationPoint> {
        let points = self.retire(self.epochs.partition_point(|t| t.epoch < epoch));
        self.table_index(epoch);
        points
    }

    /// Finalize every remaining in-flight epoch (end of run).
    pub fn finish(&mut self) -> Vec<UtilizationPoint> {
        self.retire(self.epochs.len())
    }

    /// Finalize the `count` oldest in-flight epochs.
    fn retire(&mut self, count: usize) -> Vec<UtilizationPoint> {
        let points = self.epochs[..count].iter().map(|t| self.finalize(t)).collect();
        self.spare.extend(self.epochs.drain(..count));
        points
    }

    fn finalize(&self, t: &EpochTable) -> UtilizationPoint {
        let (gsl, isl) = t.used.split_at(self.grid.total_slots());
        let (east, north) = isl.split_at(self.grid.total_slots());
        let peak = |used: &[u64]| used.iter().copied().max().unwrap_or(0);
        // Peak ISL utilization compares each link against its own class
        // budget. Within a class the busiest link has the largest
        // fraction (conversion and division are monotone), so two
        // divisions give the maximum over all links bit for bit.
        let util = |used: &[u64], raw: u64| peak(used) as f64 / raw.max(1) as f64;
        UtilizationPoint {
            epoch: t.epoch,
            peak_gsl_util: util(gsl, self.gsl_budget),
            peak_isl_util: util(east, self.inter_budget).max(util(north, self.intra_budget)),
            gsl_bytes: gsl.iter().sum(),
            isl_bytes: isl.iter().sum(),
            shed_requests: t.shed,
        }
    }

    /// Admission for a request arriving at `first_contact` and served by
    /// `owner`, charged against `epoch`'s budgets: the owner's GSL plus
    /// every ISL hop of the canonical path. All-or-nothing — a shed
    /// charges nothing. An endpoint outside the ledger's grid has no
    /// link to charge and is shed.
    pub fn admit(
        &mut self,
        epoch: u64,
        first_contact: SatelliteId,
        owner: SatelliteId,
        bytes: u64,
    ) -> AdmitDecision {
        let at = self.table_index(epoch);
        let CapacityLedger { grid, epochs, gsl_limit, intra_limit, inter_limit, .. } = self;
        let table = &mut epochs[at];
        // Check phase (no mutation): GSL first, then each hop.
        let gsl = owner.index(grid.sats_per_plane);
        if !grid.contains(owner) || exceeds(table.used[gsl], bytes, *gsl_limit) {
            table.shed += 1;
            return AdmitDecision::Shed(ShedReason::GslSaturated);
        }
        let mut over_isl = !grid.contains(first_contact);
        if !over_isl {
            for_each_canonical_hop(grid, first_contact, owner, |a, b, kind| {
                let limit = match kind {
                    IslKind::IntraOrbit => *intra_limit,
                    IslKind::InterOrbit => *inter_limit,
                    IslKind::Gsl => *gsl_limit,
                };
                over_isl |= exceeds(table.used[hop_index(grid, a, b)], bytes, limit);
            });
        }
        if over_isl {
            table.shed += 1;
            return AdmitDecision::Shed(ShedReason::IslSaturated);
        }
        // Commit phase.
        table.charge(gsl, bytes);
        for_each_canonical_hop(grid, first_contact, owner, |a, b, _| {
            table.charge(hop_index(grid, a, b), bytes);
        });
        AdmitDecision::Admit
    }

    /// Admission for an origin-direct (bent-pipe) serve: only the
    /// first-contact satellite's GSL carries the bytes. A first contact
    /// outside the ledger's grid is shed.
    pub fn admit_direct(
        &mut self,
        epoch: u64,
        first_contact: SatelliteId,
        bytes: u64,
    ) -> AdmitDecision {
        let at = self.table_index(epoch);
        let table = &mut self.epochs[at];
        if !self.grid.contains(first_contact) {
            table.shed += 1;
            return AdmitDecision::Shed(ShedReason::GslSaturated);
        }
        // The balance is opened before it is checked, so a refusal still
        // lists it (at whatever it held) in the export.
        let gsl = first_contact.index(self.grid.sats_per_plane);
        table.open(gsl);
        if exceeds(table.used[gsl], bytes, self.gsl_limit) {
            table.shed += 1;
            return AdmitDecision::Shed(ShedReason::GslSaturated);
        }
        table.used[gsl] += bytes;
        AdmitDecision::Admit
    }

    /// GSL bytes charged to `sat` in `epoch` so far.
    pub fn gsl_used(&self, epoch: u64, sat: SatelliteId) -> u64 {
        match self.table(epoch) {
            Some(t) if self.grid.contains(sat) => t.used[sat.index(self.grid.sats_per_plane)],
            _ => 0,
        }
    }

    /// Bytes charged to the ISL between `a` and `b` in `epoch` so far.
    pub fn link_used(&self, epoch: u64, a: SatelliteId, b: SatelliteId) -> u64 {
        match (self.table(epoch), link_index(&self.grid, a, b)) {
            (Some(t), Some(k)) => t.used[k],
            _ => 0,
        }
    }

    /// Export every in-flight epoch's balances, in epoch order with
    /// sorted entries — the checkpoint hook. Budgets, headroom, and grid
    /// travel via configuration, not the export.
    pub fn export_state(&self) -> Vec<EpochUsageState> {
        let slots = self.grid.total_slots();
        let spp = self.grid.sats_per_plane;
        self.epochs
            .iter()
            .map(|t| {
                let mut gsl_used = Vec::new();
                let mut isl_used = Vec::new();
                for k in t.opened() {
                    if k < slots {
                        gsl_used.push((k as u32, t.used[k]));
                        continue;
                    }
                    let dir = if k < 2 * slots { Direction::East } else { Direction::North };
                    let end = SatelliteId::from_index(k % slots, spp);
                    let other = self.grid.neighbor(end, dir).expect("only grid links are opened");
                    let (x, y) = (end.index(spp) as u32, other.index(spp) as u32);
                    isl_used.push(((x.min(y), x.max(y)), t.used[k]));
                }
                isl_used.sort_unstable();
                EpochUsageState { epoch: t.epoch, gsl_used, isl_used, shed: t.shed }
            })
            .collect()
    }

    /// Replace the in-flight balances with a previously exported set,
    /// leaving budgets and headroom as constructed. After an import the
    /// ledger admits, finalizes, and sheds exactly as the exporting
    /// ledger would have. A set that names a slot or a link this grid
    /// does not have, or names anything twice, is refused whole and the
    /// ledger keeps what it held.
    pub fn import_state(&mut self, state: &[EpochUsageState]) -> Result<(), LedgerStateError> {
        let slots = self.grid.total_slots();
        let spp = self.grid.sats_per_plane;
        let on_grid = |epoch, slot: u32| {
            if (slot as usize) < slots {
                Ok(SatelliteId::from_index(slot as usize, spp))
            } else {
                Err(LedgerStateError::OffGrid { epoch, slot })
            }
        };
        let mut epochs: Vec<EpochTable> = Vec::with_capacity(state.len());
        for s in state {
            let epoch = s.epoch;
            let mut table = EpochTable::new(epoch, slots);
            table.shed = s.shed;
            let mut set = |k: usize, bytes: u64| {
                table.used[k] = bytes;
                table.open(k).then_some(()).ok_or(LedgerStateError::Duplicate { epoch })
            };
            for &(slot, bytes) in &s.gsl_used {
                set(on_grid(epoch, slot)?.index(spp), bytes)?;
            }
            for &(link, bytes) in &s.isl_used {
                let (a, b) = (on_grid(epoch, link.0)?, on_grid(epoch, link.1)?);
                let k = link_index(&self.grid, a, b)
                    .filter(|_| link.0 < link.1)
                    .ok_or(LedgerStateError::NotALink { epoch, link })?;
                set(k, bytes)?;
            }
            epochs.push(table);
        }
        epochs.sort_by_key(|t| t.epoch);
        if let Some(twice) = epochs.windows(2).find(|w| w[0].epoch == w[1].epoch) {
            return Err(LedgerStateError::Duplicate { epoch: twice[0].epoch });
        }
        self.epochs = epochs;
        Ok(())
    }

    /// The raw (headroom-less) per-epoch GSL budget, bytes.
    #[cfg(test)]
    pub(crate) fn gsl_budget_bytes(&self) -> u64 {
        self.gsl_budget
    }

    /// The raw per-epoch budget of an ISL class, bytes.
    #[cfg(test)]
    pub(crate) fn isl_budget_bytes(&self, kind: IslKind) -> u64 {
        match kind {
            IslKind::IntraOrbit => self.intra_budget,
            IslKind::InterOrbit => self.inter_budget,
            IslKind::Gsl => self.gsl_budget,
        }
    }
}

/// Whether charging `bytes` on top of `used` passes `limit`. Sizes come
/// straight from log records, so a sum past `u64::MAX` is over any
/// limit rather than a wrapped small number.
fn exceeds(used: u64, bytes: u64, limit: u64) -> bool {
    used.checked_add(bytes).is_none_or(|total| total > limit)
}

/// The coordinate, on one axis, of the end that owns the link between
/// neighbouring coordinates `x` and `y`: the western (southern) end —
/// the lower of two adjacent coordinates, the higher across the wrap.
/// On a two-wide axis both steps reach the same neighbour and the two
/// coordinates are always adjacent, so that one physical pair is owned
/// by its lower end and stays one budget.
fn link_end(x: u16, y: u16) -> u16 {
    if x.abs_diff(y) == 1 {
        x.min(y)
    } else {
        x.max(y)
    }
}

/// Table index of the ISL that the hop between grid neighbours `a` and
/// `b` crosses, whichever way it is walked.
fn hop_index(grid: &GridTopology, a: SatelliteId, b: SatelliteId) -> usize {
    let (slots, spp) = (grid.total_slots(), grid.sats_per_plane);
    if a.orbit == b.orbit {
        2 * slots + SatelliteId::new(a.orbit, link_end(a.slot, b.slot)).index(spp)
    } else {
        slots + SatelliteId::new(link_end(a.orbit, b.orbit), a.slot).index(spp)
    }
}

/// [`hop_index`] for any two ids: `None` unless both are on the grid and
/// an ISL joins them.
fn link_index(grid: &GridTopology, a: SatelliteId, b: SatelliteId) -> Option<usize> {
    (grid.contains(a) && grid.contains(b) && grid.hop_distance(a, b) == 1)
        .then(|| hop_index(grid, a, b))
}

/// Walk the canonical healthy-torus path from `from` to `to` — planes
/// first, then slots, taking the shorter wrap direction (east/north on
/// ties) — calling `f(hop_src, hop_dst, kind)` for every ISL hop. This
/// is the hop sequence behind `GridTopology::hop_distance`, so the hop
/// count always equals the healthy-torus distance. Both ends must be on
/// the grid.
pub(crate) fn for_each_canonical_hop(
    grid: &GridTopology,
    from: SatelliteId,
    to: SatelliteId,
    mut f: impl FnMut(SatelliteId, SatelliteId, IslKind),
) {
    let mut cur = from;
    for (dir, hops) in grid.canonical_legs(from, to) {
        let kind = IslKind::of_direction(dir);
        for _ in 0..hops {
            let next = grid.neighbor(cur, dir).expect("a canonical leg never leaves the grid");
            f(cur, next, kind);
            cur = next;
        }
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
        // The next epoch's budget is fresh, charged before any advance.
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
