//! Satellite state propagation.
//!
//! A [`Satellite`] pairs an identifier with its orbit; a [`Propagator`]
//! turns orbits into time-stamped positions. The default propagator
//! evaluates the analytic circular model directly; a caching layer
//! ([`SnapshotPropagator`]) amortizes per-epoch evaluation when many
//! queries share the same simulation step (the common case: the scheduler
//! queries all 1296 satellites every 15 s epoch). It holds its positions
//! in one form, struct-of-arrays columns ([`PositionsSoa`]), which the
//! visibility scans sweep and [`SnapshotPropagator::position_of`] reads.

use crate::coords::{Ecef, Eci, Geodetic};
use crate::kepler::CircularOrbit;
use crate::time::SimTime;
use crate::walker::SatelliteId;
use serde::{Deserialize, Serialize};

/// A satellite: identity plus orbit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Satellite {
    pub id: SatelliteId,
    pub orbit: CircularOrbit,
}

/// Fully resolved satellite state at an instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SatelliteState {
    pub id: SatelliteId,
    pub time: SimTime,
    pub eci: Eci,
    pub ecef: Ecef,
    pub geodetic: Geodetic,
}

/// Anything that can position satellites in time.
pub trait Propagator {
    /// Earth-fixed position of one satellite at time `t`.
    fn position_ecef(&self, sat: &Satellite, t: SimTime) -> Ecef;

    /// Full state for one satellite at time `t`.
    fn state(&self, sat: &Satellite, t: SimTime) -> SatelliteState {
        let eci = sat.orbit.position_eci(t);
        let ecef = eci.to_ecef(t);
        SatelliteState { id: sat.id, time: t, eci, ecef, geodetic: ecef.to_geodetic() }
    }
}

/// Direct analytic evaluation: stateless and exact for the circular model.
#[derive(Debug, Default, Clone, Copy)]
pub struct AnalyticPropagator;

impl Propagator for AnalyticPropagator {
    fn position_ecef(&self, sat: &Satellite, t: SimTime) -> Ecef {
        sat.orbit.position_eci(t).to_ecef(t)
    }
}

/// Per-satellite constants hoisted out of the epoch-advance hot loop,
/// stored struct-of-arrays: everything in `position_eci` + `to_ecef` that
/// does not depend on `t`, one contiguous column per term.
///
/// The time-dependent angles are the argument of latitude
/// `u = phase + n·t` and the Earth-fixed node angle
/// `Ω − θ = raan₀ + (Ω̇_J2 − ω⊕)·t` (the J2-precessing RAAN composed with
/// the frame rotation — both are rotations about z, so they fold into
/// one). With sincos of `phase` and `raan₀` precomputed, each epoch step
/// needs only the sincos of the two *rate* angles — shared by every
/// satellite with the same orbital rates, i.e. computed once per epoch
/// for a whole Walker shell — plus a handful of multiplies per satellite.
/// The columnar layout keeps those multiplies in straight-line loops over
/// contiguous `f64` lanes, which the compiler autovectorizes.
#[derive(Debug, Default)]
struct ConstantsSoa {
    radius_km: Vec<f64>,
    sin_phase: Vec<f64>,
    cos_phase: Vec<f64>,
    sin_raan: Vec<f64>,
    cos_raan: Vec<f64>,
    sin_inc: Vec<f64>,
    cos_inc: Vec<f64>,
    /// Index into the propagator's distinct `(n, Ω̇−ω⊕)` rate table.
    rate_group: Vec<u32>,
}

impl ConstantsSoa {
    fn len(&self) -> usize {
        self.radius_km.len()
    }

    /// Every column sliced to the fleet's length: a loop over `0..len`
    /// that indexes the view carries no bounds checks.
    fn view(&self) -> ConstantsView<'_> {
        let n = self.len();
        ConstantsView {
            radius_km: &self.radius_km[..n],
            sin_phase: &self.sin_phase[..n],
            cos_phase: &self.cos_phase[..n],
            sin_raan: &self.sin_raan[..n],
            cos_raan: &self.cos_raan[..n],
            sin_inc: &self.sin_inc[..n],
            cos_inc: &self.cos_inc[..n],
        }
    }
}

/// [`ConstantsSoa`]'s columns as equally long slices.
struct ConstantsView<'a> {
    radius_km: &'a [f64],
    sin_phase: &'a [f64],
    cos_phase: &'a [f64],
    sin_raan: &'a [f64],
    cos_raan: &'a [f64],
    sin_inc: &'a [f64],
    cos_inc: &'a [f64],
}

impl ConstantsView<'_> {
    /// `(sin, cos)` of satellite `i`'s Earth-fixed node angle
    /// `raan₀ + (Ω̇−ω⊕)·t`, by angle addition from the epoch's
    /// `(sin (Ω̇−ω⊕)·t, cos (Ω̇−ω⊕)·t)`.
    #[inline(always)]
    fn sin_cos_node(&self, i: usize, sot: f64, cot: f64) -> (f64, f64) {
        let sn = self.sin_raan[i] * cot + self.cos_raan[i] * sot;
        let cn = self.cos_raan[i] * cot - self.sin_raan[i] * sot;
        (sn, cn)
    }

    /// ECEF position of satellite `i` given the epoch's rate-angle sincos
    /// `(sin n·t, cos n·t, sin (Ω̇−ω⊕)·t, cos (Ω̇−ω⊕)·t)` — the one copy of
    /// the per-satellite arithmetic, so a full and a subset advance
    /// produce the same bits for the same satellite and time.
    #[inline(always)]
    fn ecef(&self, i: usize, (snt, cnt, sot, cot): (f64, f64, f64, f64)) -> (f64, f64, f64) {
        // Angle addition: u = phase + n·t, node = raan₀ + (Ω̇−ω⊕)·t.
        let su = self.sin_phase[i] * cnt + self.cos_phase[i] * snt;
        let cu = self.cos_phase[i] * cnt - self.sin_phase[i] * snt;
        let (sn, cn) = self.sin_cos_node(i, sot, cot);
        // In-plane vector rotated by the combined node angle about z.
        let xo = self.radius_km[i] * cu;
        let yo = self.radius_km[i] * su * self.cos_inc[i];
        (cn * xo - sn * yo, sn * xo + cn * yo, self.radius_km[i] * su * self.sin_inc[i])
    }
}

/// The fleet's orbital planes: satellites that share `(raan₀,
/// inclination, rate group)` ride one great circle, whose Earth-fixed
/// orientation at any `t` is one node angle and one in-plane turn `n·t`.
/// A Walker shell is a few dozen planes; a TLE catalog is one satellite
/// per plane.
#[derive(Debug, Default)]
struct Planes {
    /// A member of each plane, whose node, inclination and rate constants
    /// are the plane's.
    lead: Vec<u32>,
    /// Members of plane `k`, ascending: `members[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
    members: Vec<u32>,
    /// `cos phase` and `sin phase` of each entry of `members`, stored
    /// alongside it so a plane's members are one contiguous stretch.
    cos_phase: Vec<f64>,
    sin_phase: Vec<f64>,
}

/// Every plane's in-plane basis at one time, for
/// [`SnapshotPropagator::for_each_within`]: `(E1, E2)`, the Earth-fixed
/// unit directions of a member at phase 0 and at phase 90°. A member at
/// phase `φ` points along `cos φ·E1 + sin φ·E2` then.
#[derive(Debug, Default)]
pub(crate) struct PlaneFrames {
    trigs: Vec<(f64, f64, f64, f64)>,
    bases: Vec<([f64; 3], [f64; 3])>,
}

impl Planes {
    /// Group satellite `i` of `c` under the key `key(i)`, planes in the
    /// order of their first member.
    fn group(c: &ConstantsSoa, key: impl Fn(usize) -> (u64, u64, u32)) -> Self {
        let n = c.len();
        let mut plane_of: std::collections::HashMap<(u64, u64, u32), usize> = Default::default();
        let mut of_sat = Vec::with_capacity(n);
        let mut lead = Vec::new();
        for i in 0..n {
            let k = *plane_of.entry(key(i)).or_insert_with(|| {
                lead.push(i as u32);
                lead.len() - 1
            });
            of_sat.push(k);
        }
        // Counting sort by plane: members stay ascending within each.
        let mut starts = vec![0usize; lead.len() + 1];
        for &k in &of_sat {
            starts[k + 1] += 1;
        }
        for k in 0..lead.len() {
            starts[k + 1] += starts[k];
        }
        let mut next = starts.clone();
        let mut members = vec![0u32; n];
        for (i, &k) in of_sat.iter().enumerate() {
            members[next[k]] = i as u32;
            next[k] += 1;
        }
        let cos_phase = members.iter().map(|&i| c.cos_phase[i as usize]).collect();
        let sin_phase = members.iter().map(|&i| c.sin_phase[i as usize]).collect();
        Planes { lead, starts, members, cos_phase, sin_phase }
    }
}

/// Struct-of-arrays snapshot positions: one contiguous column per ECEF
/// axis plus the squared norm `|p|²` of every position and its fleet-wide
/// maximum (the largest orbital radius², which parameterizes the
/// conservative visibility culling bound).
///
/// This is the snapshot's only position store: the visibility scans in
/// [`visibility`](crate::visibility) sweep it directly, so the
/// per-satellite dot products run over plain `f64` slices, and
/// [`SnapshotPropagator::position_of`] reads one lane of it.
#[derive(Debug, Default, Clone)]
pub struct PositionsSoa {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    p2: Vec<f64>,
    r2_max: f64,
}

impl PositionsSoa {
    /// Number of satellites in the snapshot.
    pub fn len(&self) -> usize {
        self.x.len()
    }

    /// True when the snapshot holds no satellites.
    pub fn is_empty(&self) -> bool {
        self.x.is_empty()
    }

    /// ECEF x column, km.
    pub fn x(&self) -> &[f64] {
        &self.x
    }

    /// ECEF y column, km.
    pub fn y(&self) -> &[f64] {
        &self.y
    }

    /// ECEF z column, km.
    pub fn z(&self) -> &[f64] {
        &self.z
    }

    /// Squared position norms `x² + y² + z²`, km².
    pub fn p2(&self) -> &[f64] {
        &self.p2
    }

    /// Fleet-wide maximum of [`PositionsSoa::p2`] (largest orbital
    /// radius²) — the value the visibility culling threshold is built
    /// from.
    pub fn r2_max(&self) -> f64 {
        self.r2_max
    }

    /// Position of satellite `i` recomposed as an [`Ecef`] point.
    pub fn ecef(&self, i: usize) -> Ecef {
        Ecef { x: self.x[i], y: self.y[i], z: self.z[i] }
    }

    fn resize(&mut self, n: usize) {
        self.x.resize(n, 0.0);
        self.y.resize(n, 0.0);
        self.z.resize(n, 0.0);
        self.p2.resize(n, 0.0);
    }
}

/// An epoch-snapshot propagator: positions for a whole constellation are
/// computed once per epoch and then served from the snapshot.
///
/// The simulation engine advances in 15 s steps and, within a step, asks
/// for the same positions many times (per user, per request batch); this
/// cache makes those queries O(1) array lookups. The per-epoch
/// recomputation itself is hoisted (see [`ConstantsSoa`]): for a
/// single-shell constellation an `advance_to` costs two `sin_cos` calls
/// total plus ~a dozen multiplies per satellite, streamed through
/// struct-of-arrays columns. After the first `advance_to` all buffers are
/// warm and subsequent advances perform **zero heap allocations**.
///
/// [`SnapshotPropagator::advance_subset`] moves only a chosen index list
/// to a new epoch (the [`VisibilityWindow`](crate::visibility::VisibilityWindow)'s
/// candidate union). The snapshot is then *incomplete*: the other
/// satellites still hold an older epoch's position, so the whole-fleet
/// accessors (`position_of`, `positions_soa`) panic rather than hand out
/// stale data until the next full `advance_to`. The window's refresh
/// needs no positions at all: the fleet is grouped into orbital planes
/// at construction, and `for_each_within` answers a cone query at any
/// time from each plane's basis.
#[derive(Debug)]
pub struct SnapshotPropagator {
    satellites: Vec<Satellite>,
    epoch: SimTime,
    /// False after an `advance_subset`, true after an `advance_to`.
    complete: bool,
    soa: PositionsSoa,
    sats_per_plane: u16,
    constants: ConstantsSoa,
    planes: Planes,
    /// Distinct `(mean motion, node rate)` pairs across the fleet — one
    /// entry for a uniform Walker shell, a handful for a TLE catalog.
    rates: Vec<(f64, f64)>,
    /// Reusable per-epoch sincos table, one entry per rate pair
    /// (allocation-free after the first advance).
    trigs: Vec<(f64, f64, f64, f64)>,
    /// FNV-1a over every satellite's orbit bits: two snapshots with the
    /// same fingerprint place the same satellites at the same positions.
    fingerprint: u64,
}

impl SnapshotPropagator {
    /// Build a snapshot propagator over a fixed satellite set.
    ///
    /// `sats_per_plane` is used to index positions by [`SatelliteId`].
    pub fn new(satellites: Vec<Satellite>, sats_per_plane: u16) -> Self {
        let mut rates: Vec<(f64, f64)> = Vec::new();
        let mut constants = ConstantsSoa::default();
        let mut fingerprint = 0xcbf2_9ce4_8422_2325u64;
        for s in &satellites {
            let o = &s.orbit;
            for bits in [o.altitude_km, o.inclination_rad, o.raan_rad, o.phase_rad] {
                fingerprint = (fingerprint ^ bits.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
            }
            let n = o.mean_motion_rad_s();
            let node_rate = o.raan_drift_rad_s() - crate::constants::EARTH_ROTATION_RAD_S;
            let key = (n, node_rate);
            let rate_group = match rates.iter().position(|&r| r == key) {
                Some(i) => i,
                None => {
                    rates.push(key);
                    rates.len() - 1
                }
            } as u32;
            let (sin_phase, cos_phase) = o.phase_rad.sin_cos();
            let (sin_raan, cos_raan) = o.raan_rad.sin_cos();
            let (sin_inc, cos_inc) = o.inclination_rad.sin_cos();
            constants.radius_km.push(o.radius_km());
            constants.sin_phase.push(sin_phase);
            constants.cos_phase.push(cos_phase);
            constants.sin_raan.push(sin_raan);
            constants.cos_raan.push(cos_raan);
            constants.sin_inc.push(sin_inc);
            constants.cos_inc.push(cos_inc);
            constants.rate_group.push(rate_group);
        }
        let planes = Planes::group(&constants, |i| {
            let o = &satellites[i].orbit;
            (o.raan_rad.to_bits(), o.inclination_rad.to_bits(), constants.rate_group[i])
        });
        let mut p = SnapshotPropagator {
            soa: PositionsSoa::default(),
            satellites,
            epoch: SimTime::ZERO,
            complete: true,
            sats_per_plane,
            constants,
            planes,
            rates,
            trigs: Vec::new(),
            fingerprint,
        };
        p.advance_to(SimTime::ZERO);
        p
    }

    /// Recompute the snapshot for a new epoch.
    ///
    /// The columnar loops below evaluate exactly the angle-addition
    /// arithmetic the scalar path always used, in the same order, so the
    /// produced positions are bit-for-bit stable across refactors; they
    /// just stream it through contiguous columns (with the whole-shell
    /// single-rate-group case free of the per-satellite trig gather).
    pub fn advance_to(&mut self, t: SimTime) {
        self.set_epoch(t);
        self.complete = true;
        let n = self.constants.len();
        self.soa.resize(n);
        let c = self.constants.view();
        let rate_group = &self.constants.rate_group[..n];
        let soa = &mut self.soa;
        // Every column sliced to `n`: the loops below index in bounds by
        // construction, so they carry no bounds checks.
        let (x, y, z, p2) = (&mut soa.x[..n], &mut soa.y[..n], &mut soa.z[..n], &mut soa.p2[..n]);
        if let [trig] = self.trigs[..] {
            // Uniform shell: one rate pair for the whole fleet, so the
            // sincos values are loop-invariant scalars and the body is a
            // pure column sweep.
            for i in 0..n {
                (x[i], y[i], z[i]) = c.ecef(i, trig);
            }
        } else {
            for i in 0..n {
                (x[i], y[i], z[i]) = c.ecef(i, self.trigs[rate_group[i] as usize]);
            }
        }
        // Squared norms and their maximum feed the visibility culling
        // bound: computed once per epoch here, read by every scan.
        for i in 0..n {
            p2[i] = x[i] * x[i] + y[i] * y[i] + z[i] * z[i];
        }
        let mut r2_max = 0.0f64;
        for &p2 in p2.iter() {
            r2_max = r2_max.max(p2);
        }
        soa.r2_max = r2_max;
    }

    /// Move only the satellites in `indices` (ascending, indexed like
    /// `satellites()`) to epoch `t`: the same per-satellite arithmetic as
    /// [`SnapshotPropagator::advance_to`], so the same bits, at a cost
    /// proportional to the list. Every other satellite keeps its older
    /// position and the snapshot stays incomplete until the next full
    /// advance. `r2_max` keeps the last full advance's value: orbital
    /// radii are constant to the ulp, and the value only parameterizes a
    /// conservative cull with 1e-6 rad of slack.
    pub fn advance_subset(&mut self, t: SimTime, indices: &[u32]) {
        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]), "indices must ascend");
        self.set_epoch(t);
        self.complete = false;
        let c = self.constants.view();
        let rate_group = &self.constants.rate_group;
        let soa = &mut self.soa;
        for &i in indices {
            let i = i as usize;
            let (x, y, z) = c.ecef(i, self.trigs[rate_group[i] as usize]);
            (soa.x[i], soa.y[i], soa.z[i]) = (x, y, z);
            soa.p2[i] = x * x + y * y + z * z;
        }
    }

    /// Stamp the epoch and fill the per-rate-pair sincos table for it.
    fn set_epoch(&mut self, t: SimTime) {
        self.epoch = t;
        rate_trigs_into(&self.rates, t, &mut self.trigs);
    }

    /// Every plane's in-plane basis at `t`, into `frames` (allocation-free
    /// once it has held this fleet's). The composition `advance_to`
    /// evaluates puts a member at argument of latitude `u = φ + n·t` along
    /// `cos u·e1 + sin u·e2`, with `e1 = (cos N, sin N, 0)` and
    /// `e2 = (−sin N·cos i, cos N·cos i, sin i)` (`N` the Earth-fixed node
    /// angle at `t`, by the same angle addition as a position's). The
    /// angle addition for `u` turns that basis by `n·t` once per plane:
    /// `E1 = cos n·t·e1 + sin n·t·e2`, `E2 = −sin n·t·e1 + cos n·t·e2`.
    pub(crate) fn plane_frames_at(&self, t: SimTime, frames: &mut PlaneFrames) {
        rate_trigs_into(&self.rates, t, &mut frames.trigs);
        frames.bases.clear();
        let c = self.constants.view();
        for &lead in &self.planes.lead {
            let lead = lead as usize;
            let (snt, cnt, sot, cot) = frames.trigs[self.constants.rate_group[lead] as usize];
            let (sn, cn) = c.sin_cos_node(lead, sot, cot);
            let (si, ci) = (c.sin_inc[lead], c.cos_inc[lead]);
            let e1 = [cn, sn, 0.0];
            let e2 = [-sn * ci, cn * ci, si];
            let turn = |p: f64, q: f64| [p * e1[0] + q * e2[0], p * e1[1] + q * e2[1], q * e2[2]];
            frames.bases.push((turn(cnt, snt), turn(-snt, cnt)));
        }
    }

    /// Call `hit(i)` for every satellite `i` whose direction from the
    /// Earth's centre lies within the cone `cos d ≥ cos_min` around the
    /// unit vector `g` at the time of `frames` ([`plane_frames_at`]) — read
    /// off the orbital elements, with no position computed. Planes come in
    /// the order of their first member, each plane's members ascending.
    ///
    /// With `a = g·E1`, `b = g·E2` a member at phase `φ` has
    /// `cos d = a·cos φ + b·sin φ`, at most `√(a² + b²)` over the whole
    /// circle: a plane with `a² + b² < cos_min²` (and `cos_min > 0`) is
    /// skipped whole, and each member of the others pays two products.
    ///
    /// [`plane_frames_at`]: SnapshotPropagator::plane_frames_at
    pub(crate) fn for_each_within(
        &self,
        frames: &PlaneFrames,
        g: [f64; 3],
        cos_min: f64,
        mut hit: impl FnMut(u32),
    ) {
        let Planes { starts, members, cos_phase, sin_phase, .. } = &self.planes;
        for (k, (e1, e2)) in frames.bases.iter().enumerate() {
            let a = g[0] * e1[0] + g[1] * e1[1] + g[2] * e1[2];
            let b = g[0] * e2[0] + g[1] * e2[1] + g[2] * e2[2];
            if cos_min > 0.0 && a * a + b * b < cos_min * cos_min {
                continue;
            }
            let plane = starts[k]..starts[k + 1];
            let phases = cos_phase[plane.clone()].iter().zip(&sin_phase[plane.clone()]);
            for (&i, (&cp, &sp)) in members[plane].iter().zip(phases) {
                if a * cp + b * sp >= cos_min {
                    hit(i);
                }
            }
        }
    }

    /// The snapshot's epoch.
    pub fn epoch(&self) -> SimTime {
        self.epoch
    }

    /// True when every satellite sits at [`SnapshotPropagator::epoch`]
    /// (the last advance was a full one).
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Upper bound on how fast any satellite's Earth-fixed unit position
    /// vector turns, rad/s: `max |n| + |Ω̇ − ω⊕|` over the fleet. The
    /// position is the in-plane unit vector at argument of latitude
    /// `phase + n·t` rotated about z by `raan₀ + (Ω̇ − ω⊕)·t`; the first
    /// angle moves it at `|n|`, the rotation at no more than `|Ω̇ − ω⊕|`,
    /// and the two add at worst.
    pub(crate) fn max_angular_rate_rad_s(&self) -> f64 {
        self.rates.iter().map(|&(n, node_rate)| n.abs() + node_rate.abs()).fold(0.0, f64::max)
    }

    /// Identity of the fleet this snapshot positions (a hash of every
    /// orbit's bits): equal fingerprints mean equal positions at equal
    /// epochs, whichever snapshot instance computed them.
    pub(crate) fn fleet_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The satellite set this snapshot covers.
    pub fn satellites(&self) -> &[Satellite] {
        &self.satellites
    }

    /// Position of a satellite (by id) in the current snapshot.
    ///
    /// # Panics
    /// Panics on an incomplete (subset-advanced) snapshot.
    pub fn position_of(&self, id: SatelliteId) -> Ecef {
        self.positions_soa().ecef(id.index(self.sats_per_plane))
    }

    /// Every position in the current snapshot, struct-of-arrays, indexed
    /// like `satellites()`.
    ///
    /// # Panics
    /// Panics on an incomplete (subset-advanced) snapshot.
    pub fn positions_soa(&self) -> &PositionsSoa {
        self.assert_complete();
        &self.soa
    }

    /// The columns of a possibly incomplete snapshot, for the visibility
    /// window: it reads only the indices it had advanced.
    pub(crate) fn columns(&self) -> &PositionsSoa {
        &self.soa
    }

    fn assert_complete(&self) {
        assert!(
            self.complete,
            "snapshot at {} was advanced for a subset only: whole-fleet positions are stale \
             until the next advance_to",
            self.epoch
        );
    }
}

/// The sincos table of every rate pair at `t`, one
/// `(sin n·t, cos n·t, sin (Ω̇−ω⊕)·t, cos (Ω̇−ω⊕)·t)` per rate group, into
/// `out` (allocation-free once it has held the table).
fn rate_trigs_into(rates: &[(f64, f64)], t: SimTime, out: &mut Vec<(f64, f64, f64, f64)>) {
    let ts = t.as_secs_f64();
    out.clear();
    out.extend(rates.iter().map(|&(n, node_rate)| {
        let (snt, cnt) = (n * ts).sin_cos();
        let (sot, cot) = (node_rate * ts).sin_cos();
        (snt, cnt, sot, cot)
    }));
}

impl Propagator for SnapshotPropagator {
    fn position_ecef(&self, sat: &Satellite, t: SimTime) -> Ecef {
        if t == self.epoch && self.complete {
            self.position_of(sat.id)
        } else {
            AnalyticPropagator.position_ecef(sat, t)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::WalkerConstellation;

    #[test]
    fn analytic_state_is_consistent() {
        let shell = WalkerConstellation::test_shell();
        let sat = shell.satellites()[0];
        let t = SimTime::from_secs(1234);
        let st = AnalyticPropagator.state(&sat, t);
        assert_eq!(st.id, sat.id);
        assert_eq!(st.time, t);
        assert!((st.eci.norm() - sat.orbit.radius_km()).abs() < 1e-6);
        assert!((st.geodetic.alt_km - sat.orbit.altitude_km).abs() < 1e-6);
    }

    #[test]
    fn snapshot_matches_analytic_at_epoch() {
        let shell = WalkerConstellation::test_shell();
        let sats = shell.satellites();
        let mut snap = SnapshotPropagator::new(sats.clone(), shell.sats_per_plane);
        let t = SimTime::from_secs(300);
        snap.advance_to(t);
        for sat in &sats {
            let a = AnalyticPropagator.position_ecef(sat, t);
            let b = snap.position_ecef(sat, t);
            assert!(a.distance_km(&b) < 1e-9);
            let c = snap.position_of(sat.id);
            assert!(a.distance_km(&c) < 1e-9);
        }
    }

    #[test]
    fn snapshot_falls_back_off_epoch() {
        let shell = WalkerConstellation::test_shell();
        let sats = shell.satellites();
        let snap = SnapshotPropagator::new(sats.clone(), shell.sats_per_plane);
        let t = SimTime::from_secs(999);
        let a = AnalyticPropagator.position_ecef(&sats[3], t);
        let b = snap.position_ecef(&sats[3], t);
        assert!(a.distance_km(&b) < 1e-9);
    }

    /// A TLE-catalog-like fleet: every satellite on its own slightly
    /// different orbit, so each lands in its own rate group.
    fn mixed_fleet() -> Vec<Satellite> {
        use crate::kepler::CircularOrbit;
        (0..24)
            .map(|i| Satellite {
                id: SatelliteId::from_index(i, 6),
                orbit: CircularOrbit::from_degrees(
                    540.0 + i as f64 * 3.5,
                    52.0 + (i % 5) as f64 * 0.4,
                    i as f64 * 15.0,
                    i as f64 * 31.0,
                ),
            })
            .collect()
    }

    #[test]
    fn snapshot_hoisting_matches_analytic_for_mixed_altitude_fleet() {
        let sats = mixed_fleet();
        let mut snap = SnapshotPropagator::new(sats.clone(), 6);
        for secs in [0u64, 15, 300, 86400, 432_000] {
            let t = SimTime::from_secs(secs);
            snap.advance_to(t);
            for sat in &sats {
                let exact = AnalyticPropagator.position_ecef(sat, t);
                let fast = snap.position_of(sat.id);
                assert!(
                    exact.distance_km(&fast) < 1e-6,
                    "sat {} at t={secs}: {} km apart",
                    sat.id,
                    exact.distance_km(&fast)
                );
            }
        }
    }

    /// The mixed fleet and the uniform shell: both advance paths (many
    /// rate groups, one).
    fn subset_test_fleets() -> Vec<(Vec<Satellite>, u16)> {
        let shell = WalkerConstellation::starlink_shell1();
        vec![(mixed_fleet(), 6), (shell.satellites(), shell.sats_per_plane)]
    }

    #[test]
    fn subset_advance_is_bit_for_bit_the_full_advance() {
        for (sats, per_plane) in subset_test_fleets() {
            let mut full = SnapshotPropagator::new(sats.clone(), per_plane);
            let mut part = SnapshotPropagator::new(sats.clone(), per_plane);
            let r2_max = part.soa.r2_max;
            for (step, secs) in [15u64, 16, 4_000, 3, 2_592_000].into_iter().enumerate() {
                let t = SimTime::from_millis(secs * 1000 + step as u64 * 7);
                let subset: Vec<u32> =
                    (0..sats.len() as u32).filter(|i| (i * 7 + step as u32) % 5 < 2).collect();
                full.advance_to(t);
                part.advance_subset(t, &subset);
                assert_eq!(part.epoch(), t);
                assert!(!part.is_complete());
                for &i in &subset {
                    let i = i as usize;
                    assert_eq!(part.soa.x[i].to_bits(), full.soa.x[i].to_bits(), "x[{i}] at {t}");
                    assert_eq!(part.soa.y[i].to_bits(), full.soa.y[i].to_bits(), "y[{i}] at {t}");
                    assert_eq!(part.soa.z[i].to_bits(), full.soa.z[i].to_bits(), "z[{i}] at {t}");
                    assert_eq!(part.soa.p2[i].to_bits(), full.soa.p2[i].to_bits(), "p2[{i}]");
                }
                // Held from the last full advance, and within an ulp or
                // two of what a full advance would compute now.
                assert_eq!(part.soa.r2_max.to_bits(), r2_max.to_bits());
                assert!((part.soa.r2_max / full.soa.r2_max - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn angular_rate_bounds_every_satellites_earth_fixed_motion() {
        for (sats, per_plane) in subset_test_fleets() {
            let mut a = SnapshotPropagator::new(sats.clone(), per_plane);
            let mut b = SnapshotPropagator::new(sats, per_plane);
            let omega = a.max_angular_rate_rad_s();
            // Shell 1: 2π/95.6 min plus Earth rotation and J2 drift.
            assert!((1.1e-3..1.3e-3).contains(&omega), "ω = {omega}");
            for t0 in [0u64, 999, 86_400 * 17] {
                for dt in [1u64, 15, 126, 900] {
                    a.advance_to(SimTime::from_secs(t0));
                    b.advance_to(SimTime::from_secs(t0 + dt));
                    for i in 0..a.satellites().len() {
                        let (p, q) = (a.positions_soa().ecef(i), b.positions_soa().ecef(i));
                        let cos = (p.x * q.x + p.y * q.y + p.z * q.z) / (p.norm() * q.norm());
                        let turned = cos.clamp(-1.0, 1.0).acos();
                        assert!(
                            turned <= omega * dt as f64 + 1e-7,
                            "turned {turned} rad in {dt} s, bound {}",
                            omega * dt as f64
                        );
                    }
                }
            }
        }
    }

    /// Shell 1 is 72 planes of 18 in index order; a catalog of distinct
    /// orbits is one plane per satellite; members carry their own phases.
    #[test]
    fn planes_group_satellites_that_share_node_inclination_and_rates() {
        let shell = WalkerConstellation::starlink_shell1();
        let snap = SnapshotPropagator::new(shell.satellites(), shell.sats_per_plane);
        let Planes { lead, starts, members, cos_phase, sin_phase } = &snap.planes;
        assert_eq!(lead.len(), 72);
        assert!(starts.windows(2).all(|w| w[1] - w[0] == 18));
        assert_eq!(members, &(0..1296).collect::<Vec<u32>>());
        for (m, &i) in members.iter().enumerate() {
            assert_eq!(cos_phase[m].to_bits(), snap.constants.cos_phase[i as usize].to_bits());
            assert_eq!(sin_phase[m].to_bits(), snap.constants.sin_phase[i as usize].to_bits());
        }
        let mixed = SnapshotPropagator::new(mixed_fleet(), 6);
        assert_eq!(mixed.planes.lead.len(), 24);
        // Two planes dealt alternately: members ascend within each.
        let mut sats = shell.satellites()[..36].to_vec();
        sats.sort_by_key(|s| (s.id.slot, s.id.orbit));
        let two = SnapshotPropagator::new(sats, 18);
        assert_eq!(two.planes.starts, [0, 18, 36]);
        let evens: Vec<u32> = (0..36).step_by(2).collect();
        assert_eq!(&two.planes.members[..18], &evens[..]);
    }

    #[test]
    fn fingerprint_follows_the_orbits_not_the_instance() {
        let shell = WalkerConstellation::starlink_shell1();
        let a = SnapshotPropagator::new(shell.satellites(), shell.sats_per_plane);
        let b = SnapshotPropagator::new(shell.satellites(), shell.sats_per_plane);
        assert_eq!(a.fleet_fingerprint(), b.fleet_fingerprint());
        let mut sats = shell.satellites();
        sats.swap(3, 4);
        let c = SnapshotPropagator::new(sats, shell.sats_per_plane);
        assert_ne!(a.fleet_fingerprint(), c.fleet_fingerprint());
    }

    #[test]
    fn snapshot_positions_move_between_epochs() {
        let shell = WalkerConstellation::test_shell();
        let mut snap = SnapshotPropagator::new(shell.satellites(), shell.sats_per_plane);
        let p0 = snap.position_of(SatelliteId::new(0, 0));
        snap.advance_to(SimTime::from_secs(15));
        let p1 = snap.position_of(SatelliteId::new(0, 0));
        // ~7.6 km/s for 15 s ≈ 114 km of motion.
        let d = p0.distance_km(&p1);
        assert!((80.0..160.0).contains(&d), "moved {d} km in 15 s");
    }

    /// The per-satellite point view (`position_of`, one `Ecef` per id) is
    /// the columns' lane at that id's index, and the squared norms and
    /// their maximum are the columns' own.
    #[test]
    fn soa_view_matches_aos_view_bit_for_bit() {
        let shell = WalkerConstellation::starlink_shell1();
        let mut snap = SnapshotPropagator::new(shell.satellites(), shell.sats_per_plane);
        for secs in [0u64, 15, 450, 86400] {
            snap.advance_to(SimTime::from_secs(secs));
            let soa = snap.positions_soa();
            assert_eq!(soa.len(), snap.satellites().len());
            let mut r2_max = 0.0f64;
            for (i, sat) in snap.satellites().iter().enumerate() {
                let p = snap.position_of(sat.id);
                assert_eq!(soa.x()[i].to_bits(), p.x.to_bits());
                assert_eq!(soa.y()[i].to_bits(), p.y.to_bits());
                assert_eq!(soa.z()[i].to_bits(), p.z.to_bits());
                let p2 = p.x * p.x + p.y * p.y + p.z * p.z;
                assert_eq!(soa.p2()[i].to_bits(), p2.to_bits());
                r2_max = r2_max.max(p2);
            }
            assert_eq!(soa.r2_max().to_bits(), r2_max.to_bits());
        }
    }
}
