//! Ground-to-satellite visibility, elevation angles, and propagation delay.
//!
//! A user terminal can connect to a satellite when the satellite is above
//! a minimum elevation angle (Starlink operates at 25°). At 550 km and a
//! 25° mask, a user typically sees on the order of 10+ satellites of the
//! full shell at mid-latitudes, matching the paper's observation.
//!
//! Three scans, one per use: [`visible_satellites`] evaluates the orbits
//! at any instant (the analytic reference `table1` reads);
//! [`visible_top_k_into`] sweeps a struct-of-arrays snapshot with a
//! conservative cone cull; and a [`VisibilityWindow`] reuses per-ground
//! candidate lists across the epochs they provably cover — the scan the
//! scheduler runs. The last two are bit for bit the brute-force scan
//! (every satellite's exact elevation, a stable sort by it), which is
//! what their tests compare against.

use crate::constants::{EARTH_RADIUS_KM, SPEED_OF_LIGHT_KM_S};
use crate::coords::{Ecef, Geodetic};
use crate::propagator::{PlaneFrames, PositionsSoa, Satellite, SnapshotPropagator};
use crate::time::SimTime;
use crate::walker::SatelliteId;

/// Starlink's minimum elevation mask, degrees.
pub const STARLINK_MIN_ELEVATION_DEG: f64 = 25.0;

/// A visible satellite as seen from a ground location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisibleSatellite {
    pub id: SatelliteId,
    /// Elevation above the local horizon, degrees.
    pub elevation_deg: f64,
    /// Straight-line range, km.
    pub slant_range_km: f64,
}

/// One-way propagation delay in fractional milliseconds (no rounding),
/// used where sub-millisecond resolution matters (latency CDFs).
pub fn propagation_delay_ms_f64(distance_km: f64) -> f64 {
    distance_km / SPEED_OF_LIGHT_KM_S * 1000.0
}

/// Elevation angle (degrees) of a satellite at `sat_ecef` as seen from a
/// ground point `ground_ecef`, and the slant range (km).
///
/// Elevation is the angle between the local horizontal plane and the line
/// of sight: `sin(el) = (r̂_ground · d) / |d|` where `d` is the vector
/// from ground to satellite.
pub fn elevation_and_range(ground_ecef: &Ecef, sat_ecef: &Ecef) -> (f64, f64) {
    let dx = sat_ecef.x - ground_ecef.x;
    let dy = sat_ecef.y - ground_ecef.y;
    let dz = sat_ecef.z - ground_ecef.z;
    let range = (dx * dx + dy * dy + dz * dz).sqrt();
    let gnorm = ground_ecef.norm();
    let dot = (ground_ecef.x * dx + ground_ecef.y * dy + ground_ecef.z * dz) / (gnorm * range);
    (dot.asin().to_degrees(), range)
}

/// All satellites visible from `ground` at time `t` above `min_elevation_deg`,
/// sorted by descending elevation (best first).
pub fn visible_satellites(
    satellites: &[Satellite],
    ground: Geodetic,
    t: SimTime,
    min_elevation_deg: f64,
) -> Vec<VisibleSatellite> {
    let g = ground.to_ecef();
    // From the highest satellite present: a higher satellite is above the
    // mask out to a longer slant range, so the first satellite's altitude
    // would reject it in a mixed-altitude fleet (a TLE catalog).
    let max_altitude_km = satellites.iter().map(|s| s.orbit.altitude_km).reduce(f64::max);
    let max_range = max_slant_range_km(max_altitude_km.unwrap_or(550.0), min_elevation_deg);
    let mut out: Vec<VisibleSatellite> = satellites
        .iter()
        .filter_map(|sat| {
            let p = sat.orbit.position_eci(t).to_ecef(t);
            // Cheap rejection: beyond the max slant range nothing can be
            // above the elevation mask.
            let dx = p.x - g.x;
            if dx.abs() > max_range {
                return None;
            }
            let (el, range) = elevation_and_range(&g, &p);
            (el >= min_elevation_deg && range <= max_range + 1.0).then_some(VisibleSatellite {
                id: sat.id,
                elevation_deg: el,
                slant_range_km: range,
            })
        })
        .collect();
    out.sort_by(|a, b| b.elevation_deg.total_cmp(&a.elevation_deg));
    out
}

/// The maximum Earth-central angle, radians, between a ground point (at
/// radius `ground_radius_km` from the Earth's centre) and any satellite
/// at `orbit_radius_km` that sits above `min_elevation_deg`.
///
/// Spherical trigonometry on the centre–ground–satellite triangle: with
/// elevation `el` the angle at the ground point is `90° + el`, so the
/// central angle is `γ = 90° − el − asin((Rg/Rs)·cos el)`, monotonically
/// decreasing in `el`. Any satellite above the mask therefore satisfies
/// `γ ≤ γ_max`. The returned bound carries 1e-6 rad of slack (~6 m of
/// surface arc), which swamps every floating-point rounding source in
/// the tests built on it while admitting essentially nothing extra.
fn max_central_angle_rad(
    ground_radius_km: f64,
    orbit_radius_km: f64,
    min_elevation_deg: f64,
) -> f64 {
    let el = min_elevation_deg.to_radians();
    let ratio = (ground_radius_km / orbit_radius_km) * el.cos();
    let gamma = std::f64::consts::FRAC_PI_2 - el - ratio.clamp(-1.0, 1.0).asin();
    gamma + 1e-6
}

/// Reusable buffers for [`visible_top_k_into`]: the per-satellite culling
/// verdicts and the tagged candidate list the top-k selection runs over.
/// One scratch per worker makes repeated scans allocation-free once the
/// buffers are warm.
#[derive(Debug, Default)]
pub struct VisScratch {
    /// 1 where the conservative dot-product bound cannot rule the
    /// satellite out (recomputed per scan).
    pass: Vec<u8>,
    /// Candidates tagged with their collection order for tie-breaking.
    tagged: Vec<(usize, VisibleSatellite)>,
}

/// [`max_central_angle_rad`] for a ground point against a fleet whose
/// largest orbital radius² is `r2_max` (a higher satellite can be above
/// the mask at a wider central angle, so one angle is valid for a
/// mixed-altitude fleet); `None` for a degenerate ground or fleet.
fn fleet_central_angle(g2: f64, r2_max: f64, min_elevation_deg: f64) -> Option<f64> {
    (r2_max > 0.0 && g2 > 0.0)
        .then(|| max_central_angle_rad(g2.sqrt(), r2_max.sqrt(), min_elevation_deg))
}

/// What a widened-cone refresh subtracts from `cos 2γ_max` before testing
/// a satellite's `cos d` against it, from the orbital elements
/// ([`SnapshotPropagator::for_each_within`]): a thousand times the rounding
/// of either side (a few ulp of 1), so the lists keep every satellite the
/// same cone tested on computed positions keeps, down to the cone's edge,
/// while admitting ≈ 20 µm of arc more (at shell 1's 25° cone).
const WIDE_COS_SLACK: f64 = 1e-12;

/// `cos²(angle)·|g|²`, the constant of the one-dot-product cone test
/// `cos γ ≥ cos(angle)  ⇔  d > 0 ∧ d² ≥ cos²(angle)·|g|²·|p|²` with
/// `d = g·p`. `None` when the cone is a hemisphere or wider, where the
/// sign shortcut does not hold and nothing is culled.
fn cone_threshold(angle: f64, g2: f64) -> Option<f64> {
    (angle < std::f64::consts::FRAC_PI_2).then(|| {
        let c = angle.cos();
        c * c * g2
    })
}

/// The branch-free cone sweep: `pass[i] = 1` where `threshold` cannot
/// rule satellite `i` out (everywhere when there is no threshold), over
/// zipped column slices — no index bound checks in the hot loop, and the
/// compiler autovectorizes the two fused comparisons per lane.
fn sweep_cone(pass: &mut Vec<u8>, soa: &PositionsSoa, g: &Ecef, threshold: Option<f64>) {
    pass.clear();
    pass.resize(soa.len(), 1);
    if let Some(t) = threshold {
        for ((((pass, x), y), z), p2) in
            pass.iter_mut().zip(soa.x()).zip(soa.y()).zip(soa.z()).zip(soa.p2())
        {
            let d = g.x * x + g.y * y + g.z * z;
            *pass = ((d > 0.0) & (d * d >= t * p2)) as u8;
        }
    }
}

/// Call `survivor(i)` for every set verdict, in index order. Walks the
/// verdicts eight at a time: for a Starlink shell ~97 % of the words are
/// all-zero, so one u64 compare skips eight satellites.
fn for_each_survivor(pass: &[u8], mut survivor: impl FnMut(usize)) {
    let words = pass.chunks_exact(8);
    let tail_start = pass.len() - words.remainder().len();
    for (w, chunk) in words.enumerate() {
        if u64::from_ne_bytes(chunk.try_into().unwrap()) == 0 {
            continue;
        }
        for (j, &v) in chunk.iter().enumerate() {
            if v != 0 {
                survivor(w * 8 + j);
            }
        }
    }
    for (i, &v) in pass.iter().enumerate().skip(tail_start) {
        if v != 0 {
            survivor(i);
        }
    }
}

/// The exact test every cull survivor pays: `keep`, then the
/// `asin`/`sqrt` elevation math; above the mask it is tagged with its
/// collection order and pushed.
#[inline]
fn push_if_visible(
    tagged: &mut Vec<(usize, VisibleSatellite)>,
    id: SatelliteId,
    p: &Ecef,
    g: &Ecef,
    min_elevation_deg: f64,
    keep: &mut impl FnMut(SatelliteId) -> bool,
) {
    if !keep(id) {
        return;
    }
    let (el, range) = elevation_and_range(g, p);
    if el >= min_elevation_deg {
        let tag = tagged.len();
        tagged.push((tag, VisibleSatellite { id, elevation_deg: el, slant_range_km: range }));
    }
}

/// Total order of the top-k selection: elevation descending, collection
/// order ascending (so ties break exactly like a stable elevation-only
/// sort).
fn by_elevation_then_order(
    a: &(usize, VisibleSatellite),
    b: &(usize, VisibleSatellite),
) -> std::cmp::Ordering {
    b.1.elevation_deg.total_cmp(&a.1.elevation_deg).then(a.0.cmp(&b.0))
}

/// The `k` best (highest-elevation) satellites above the mask from
/// `ground`, best first, restricted to ids passing `keep`, computed over
/// a struct-of-arrays snapshot into a caller buffer; `k = usize::MAX`
/// lists every visible satellite.
///
/// Two passes: a branch-free sweep evaluates the conservative culling
/// bound (the cone of the fleet's `γ_max`, see `max_central_angle_rad`)
/// for every satellite over the contiguous x/y/z/p2 columns, then only
/// the survivors — a dozen out of 1296 for a Starlink shell — pay the
/// `keep` lookup and the exact `asin`/`sqrt` elevation math. The bound
/// only rejects satellites below the mask and `keep` is independent of
/// it, so the output is bit for bit the brute-force scan's: every
/// satellite's [`elevation_and_range`], `keep`, `el >= mask`, a stable
/// descending sort by elevation, the first `k`. (A stateful `keep` sees
/// the survivors only.)
#[allow(clippy::too_many_arguments)]
pub fn visible_top_k_into(
    satellites: &[Satellite],
    soa: &PositionsSoa,
    ground: Geodetic,
    min_elevation_deg: f64,
    k: usize,
    mut keep: impl FnMut(SatelliteId) -> bool,
    scratch: &mut VisScratch,
    out: &mut Vec<VisibleSatellite>,
) {
    out.clear();
    if k == 0 {
        return;
    }
    debug_assert_eq!(satellites.len(), soa.len());
    let g = ground.to_ecef();
    let g2 = g.x * g.x + g.y * g.y + g.z * g.z;
    let gamma = fleet_central_angle(g2, soa.r2_max(), min_elevation_deg);
    let VisScratch { pass, tagged } = scratch;
    tagged.clear();
    sweep_cone(pass, soa, &g, gamma.and_then(|gamma| cone_threshold(gamma, g2)));
    for_each_survivor(pass, |i| {
        push_if_visible(tagged, satellites[i].id, &soa.ecef(i), &g, min_elevation_deg, &mut keep)
    });
    best_k_into(tagged, k, out);
}

/// The `k` best of `tagged` appended to `out`, best first, under
/// [`by_elevation_then_order`] (`k ≥ 1`).
fn best_k_into(
    tagged: &mut Vec<(usize, VisibleSatellite)>,
    k: usize,
    out: &mut Vec<VisibleSatellite>,
) {
    if tagged.len() > k {
        tagged.select_nth_unstable_by(k - 1, by_elevation_then_order);
        tagged.truncate(k);
    }
    tagged.sort_unstable_by(by_elevation_then_order);
    out.extend(tagged.iter().map(|&(_, v)| v));
}

/// What a [`VisibilityWindow`]'s candidate lists were collected for. A
/// query with any other fleet, mask or ground set, or a time outside
/// `refreshed_ms ± window_ms`, needs a refresh first.
#[derive(Debug, Clone, Copy, PartialEq)]
struct WindowKey {
    /// [`SnapshotPropagator::fleet_fingerprint`]: every orbit, hence
    /// also the fleet's size.
    fleet: u64,
    min_elevation_deg: f64,
    refreshed_ms: u64,
    window_ms: u64,
}

/// One ground point of a [`VisibilityWindow`]: where it is, and the
/// per-window constants of its cone tests.
#[derive(Debug, Clone, Copy)]
struct WindowGround {
    at: Geodetic,
    ecef: Ecef,
    /// [`cone_threshold`] at `γ_max`: the scans' own per-epoch cull.
    tight: Option<f64>,
}

/// Temporal coherence for repeated top-k scans of one fleet from a fixed
/// set of ground points: a short per-ground candidate list that provably
/// contains every satellite able to rise above the mask within a time
/// window, so a scan inside the window tests a few dozen satellites
/// instead of the fleet.
///
/// **The bound.** Every satellite's Earth-fixed unit position vector
/// turns at no more than `ω` rad/s
/// (`SnapshotPropagator::max_angular_rate_rad_s`), and a satellite
/// above the mask sits within central angle `γ_max` of the ground point
/// (`max_central_angle_rad`, from the fleet's largest radius). By the
/// triangle inequality on the sphere, a satellite farther than
/// `γ_max + margin` from the ground point at `t0` is farther than
/// `γ_max` — below the mask — at every `t` with `|t − t0| ≤ margin / ω`.
/// The margin is one visibility radius, `margin = γ_max`: a refresh
/// collects the satellites inside the cone widened to `2·γ_max` and the
/// lists stay valid for `γ_max / ω` (≈ 126 s for Starlink's shell 1 at a
/// 25° mask), floored to whole milliseconds and taken as the minimum over
/// the ground points. Where `2·γ_max ≥ 90°` the list is simply every
/// satellite and imposes no time limit.
///
/// **A refresh reads orbital elements, not positions.** The widened cone
/// is tested in angular form, plane by plane
/// (`SnapshotPropagator::for_each_within`): a plane whose great circle
/// never comes within `2·γ_max` of the ground point is dropped whole, and
/// each member of the others is kept when `cos d ≥ cos 2γ_max` minus a
/// rounding slack (`WIDE_COS_SLACK`). That is a superset of the
/// cone tested on computed positions, collected in ascending index order,
/// and needs no snapshot state beyond the fleet's constants and its
/// largest radius: a refresh runs on an incomplete snapshot as well, and
/// [`VisibilityWindow::advance`] then moves the new union only.
///
/// **Exactness.** [`VisibilityWindow::top_k_into`] runs the same tight
/// cull, the same `keep`, the same [`elevation_and_range`] and the same
/// top-k order as [`visible_top_k_into`], over the candidates in
/// ascending index order. The lists are a superset of the above-mask
/// satellites, the cull only filters and the exact elevation test
/// decides, so the members, their collection order and therefore the
/// output are bit for bit the full scan's. Liveness is the caller's
/// `keep`, applied per call: the lists hold geometry only.
///
/// All buffers are sized at the first refresh for a given fleet and
/// ground count; later refreshes and scans allocate nothing.
#[derive(Debug, Default)]
pub struct VisibilityWindow {
    key: Option<WindowKey>,
    grounds: Vec<WindowGround>,
    /// Candidate indices of ground `j`, ascending:
    /// `candidates[starts[j]..starts[j + 1]]`.
    candidates: Vec<u32>,
    starts: Vec<usize>,
    /// Sorted union of every ground's candidates — what a scan inside
    /// the window reads, hence all a subset advance has to move.
    union: Vec<u32>,
    /// Epoch this window last subset-advanced a snapshot to: an
    /// incomplete snapshot is readable at that epoch only.
    subset_epoch: Option<SimTime>,
    /// Union membership flags, one per satellite (refresh scratch).
    member: Vec<u8>,
    /// Every plane's basis at the refresh time (refresh scratch).
    frames: PlaneFrames,
    /// Above-mask candidates tagged with their collection order (scan
    /// scratch).
    tagged: Vec<(usize, VisibleSatellite)>,
}

impl VisibilityWindow {
    /// True when the candidate lists are valid for a scan of `snapshot`'s
    /// fleet at time `t` with this mask from exactly these ground points.
    pub fn covers(
        &self,
        snapshot: &SnapshotPropagator,
        t: SimTime,
        min_elevation_deg: f64,
        grounds: &[Geodetic],
    ) -> bool {
        self.key.is_some_and(|k| {
            k.fleet == snapshot.fleet_fingerprint()
                && k.min_elevation_deg == min_elevation_deg
                && t.as_millis().abs_diff(k.refreshed_ms) <= k.window_ms
                && self.grounds.iter().map(|g| &g.at).eq(grounds)
        })
    }

    /// Advance `snapshot` to `t` for a coming scan: refresh at `t` first
    /// when the window does not cover it, then move the candidate union
    /// only. The snapshot is left incomplete, readable by this window's
    /// scans at `t`.
    pub fn advance(
        &mut self,
        snapshot: &mut SnapshotPropagator,
        t: SimTime,
        min_elevation_deg: f64,
        grounds: &[Geodetic],
    ) {
        if !self.covers(snapshot, t, min_elevation_deg, grounds) {
            self.refresh(snapshot, t, min_elevation_deg, grounds);
        }
        snapshot.advance_subset(t, &self.union);
        self.subset_epoch = Some(t);
    }

    /// Collect every ground point's widened-cone candidates at time `t`
    /// from `snapshot`'s orbital elements and restart the window there.
    /// Reads no positions, so `snapshot` may be incomplete and at any
    /// epoch; the fleet's largest radius is the one its last full advance
    /// measured.
    pub fn refresh(
        &mut self,
        snapshot: &SnapshotPropagator,
        t: SimTime,
        min_elevation_deg: f64,
        grounds: &[Geodetic],
    ) {
        let n = snapshot.satellites().len();
        let r2_max = snapshot.columns().r2_max();
        let omega = snapshot.max_angular_rate_rad_s();
        snapshot.plane_frames_at(t, &mut self.frames);
        self.grounds.clear();
        self.candidates.clear();
        self.candidates.reserve(n * grounds.len());
        self.starts.clear();
        self.starts.push(0);
        self.union.clear();
        self.union.reserve(n);
        self.member.clear();
        self.member.resize(n, 0);
        self.tagged.clear();
        self.tagged.reserve(n);
        let mut window_ms = u64::MAX;
        for &at in grounds {
            let ecef = at.to_ecef();
            let g2 = ecef.x * ecef.x + ecef.y * ecef.y + ecef.z * ecef.z;
            let gamma = fleet_central_angle(g2, r2_max, min_elevation_deg);
            let start = self.candidates.len();
            match gamma.filter(|&gamma| cone_threshold(2.0 * gamma, g2).is_some()) {
                Some(gamma) => {
                    // `as` saturates: a motionless fleet never leaves its window.
                    window_ms = window_ms.min((gamma / omega * 1000.0).floor() as u64);
                    let norm = g2.sqrt();
                    let unit = [ecef.x / norm, ecef.y / norm, ecef.z / norm];
                    let cos_min = (2.0 * gamma).cos() - WIDE_COS_SLACK;
                    let candidates = &mut self.candidates;
                    snapshot.for_each_within(&self.frames, unit, cos_min, |i| candidates.push(i));
                    // Planes come in first-member order: ascending for a
                    // plane-major fleet, sorted here for any other.
                    candidates[start..].sort_unstable();
                }
                // A hemisphere or wider (or a degenerate ground or fleet):
                // every satellite, no time limit.
                None => self.candidates.extend(0..n as u32),
            }
            for &i in &self.candidates[start..] {
                self.member[i as usize] = 1;
            }
            self.starts.push(self.candidates.len());
            let tight = gamma.and_then(|gamma| cone_threshold(gamma, g2));
            self.grounds.push(WindowGround { at, ecef, tight });
        }
        for_each_survivor(&self.member, |i| self.union.push(i as u32));
        self.subset_epoch = None;
        self.key = Some(WindowKey {
            fleet: snapshot.fleet_fingerprint(),
            min_elevation_deg,
            refreshed_ms: t.as_millis(),
            window_ms,
        });
    }

    /// The `k` best satellites above the mask from ground point `ground`
    /// (its position in the refresh's ground list) at `snapshot`'s epoch,
    /// restricted to ids passing `keep`: bit for bit
    /// [`visible_top_k_into`]'s output, read off the candidate list.
    /// The caller has established [`VisibilityWindow::covers`] for this
    /// snapshot and epoch.
    ///
    /// # Panics
    /// Panics when `snapshot` is incomplete and was not advanced to its
    /// epoch by [`VisibilityWindow::advance`] of this window — its
    /// candidates' positions would be stale.
    pub fn top_k_into(
        &mut self,
        ground: usize,
        snapshot: &SnapshotPropagator,
        k: usize,
        mut keep: impl FnMut(SatelliteId) -> bool,
        out: &mut Vec<VisibleSatellite>,
    ) {
        out.clear();
        if k == 0 {
            return;
        }
        assert!(
            snapshot.is_complete() || self.subset_epoch == Some(snapshot.epoch()),
            "snapshot at {} is incomplete and this window did not advance it there",
            snapshot.epoch()
        );
        let key = self.key.expect("top_k_into before the first refresh");
        let WindowGround { ecef: g, tight, .. } = self.grounds[ground];
        let soa = snapshot.columns();
        let satellites = snapshot.satellites();
        let tagged = &mut self.tagged;
        tagged.clear();
        let list = &self.candidates[self.starts[ground]..self.starts[ground + 1]];
        // A no-op once `out` has held `k` (or the fleet): later calls
        // never grow it, whatever the sky looks like.
        out.reserve(k.min(satellites.len()));
        for &i in list {
            let i = i as usize;
            let p = soa.ecef(i);
            if let Some(t) = tight {
                let d = g.x * p.x + g.y * p.y + g.z * p.z;
                if !((d > 0.0) & (d * d >= t * soa.p2()[i])) {
                    continue;
                }
            }
            push_if_visible(tagged, satellites[i].id, &p, &g, key.min_elevation_deg, &mut keep);
        }
        best_k_into(tagged, k, out);
    }

    /// Candidate indices of ground point `ground`, ascending.
    pub fn candidates(&self, ground: usize) -> &[u32] {
        &self.candidates[self.starts[ground]..self.starts[ground + 1]]
    }

    /// Sorted union of every ground point's candidates.
    pub fn union(&self) -> &[u32] {
        &self.union
    }

    /// How long either side of a refresh the lists stay valid, ms
    /// (`u64::MAX` when every list is the whole fleet; 0 before the
    /// first refresh).
    pub fn window_ms(&self) -> u64 {
        self.key.map_or(0, |k| k.window_ms)
    }
}

/// Maximum slant range to a satellite at `altitude_km` that is still above
/// `min_elevation_deg` (law of cosines on the Earth-centred triangle).
pub(crate) fn max_slant_range_km(altitude_km: f64, min_elevation_deg: f64) -> f64 {
    let re = EARTH_RADIUS_KM;
    let rs = re + altitude_km;
    let el = min_elevation_deg.to_radians();
    // range = -Re sin(el) + sqrt(Rs^2 - Re^2 cos^2(el))
    -re * el.sin() + (rs * rs - re * re * el.cos() * el.cos()).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::WalkerConstellation;
    use proptest::prelude::*;

    /// The brute-force reference: every satellite's [`elevation_and_range`]
    /// at `position(i)`, then `keep`, then `el >= mask`, then a stable
    /// descending sort by elevation, then the first `k`.
    fn brute_force(
        satellites: &[Satellite],
        position: impl Fn(usize) -> Ecef,
        ground: Geodetic,
        mask: f64,
        k: usize,
        keep: impl Fn(SatelliteId) -> bool,
    ) -> Vec<VisibleSatellite> {
        let g = ground.to_ecef();
        let mut out: Vec<VisibleSatellite> = (0..satellites.len())
            .filter(|&i| keep(satellites[i].id))
            .filter_map(|i| {
                let (el, range) = elevation_and_range(&g, &position(i));
                let id = satellites[i].id;
                (el >= mask).then_some(VisibleSatellite {
                    id,
                    elevation_deg: el,
                    slant_range_km: range,
                })
            })
            .collect();
        out.sort_by(|a, b| b.elevation_deg.total_cmp(&a.elevation_deg));
        out.truncate(k);
        out
    }

    /// [`brute_force`] over a snapshot's columns.
    fn brute_force_snap(
        snap: &SnapshotPropagator,
        g: Geodetic,
        mask: f64,
        k: usize,
        keep: impl Fn(SatelliteId) -> bool,
    ) -> Vec<VisibleSatellite> {
        brute_force(snap.satellites(), |i| snap.positions_soa().ecef(i), g, mask, k, keep)
    }

    /// [`visible_top_k_into`] with a fresh scratch.
    fn scan(
        snap: &SnapshotPropagator,
        g: Geodetic,
        mask: f64,
        k: usize,
        keep: impl FnMut(SatelliteId) -> bool,
    ) -> Vec<VisibleSatellite> {
        let mut out = Vec::new();
        let (sats, soa) = (snap.satellites(), snap.positions_soa());
        visible_top_k_into(sats, soa, g, mask, k, keep, &mut VisScratch::default(), &mut out);
        out
    }

    /// Ids with both floats as bit patterns.
    fn bits(v: &[VisibleSatellite]) -> Vec<(SatelliteId, u64, u64)> {
        v.iter().map(|v| (v.id, v.elevation_deg.to_bits(), v.slant_range_km.to_bits())).collect()
    }

    fn shell1_snapshot() -> SnapshotPropagator {
        let shell = WalkerConstellation::starlink_shell1();
        SnapshotPropagator::new(shell.satellites(), shell.sats_per_plane)
    }

    #[test]
    fn culled_scan_is_bit_for_bit_the_exact_scan() {
        let mut snap = shell1_snapshot();
        for (lat, lon) in [(40.7, -74.0), (0.0, 0.0), (51.5, -0.1), (-33.9, 151.2), (65.0, 25.0)] {
            let g = Geodetic::from_degrees(lat, lon, 0.0);
            for secs in [0u64, 137, 1234, 5000] {
                snap.advance_to(SimTime::from_secs(secs));
                for mask in [5.0, 25.0, 40.0] {
                    let fast = scan(&snap, g, mask, usize::MAX, |_| true);
                    let slow = brute_force_snap(&snap, g, mask, usize::MAX, |_| true);
                    assert_eq!(bits(&fast), bits(&slow), "({lat},{lon}) t={secs} mask={mask}");
                }
            }
        }
    }

    #[test]
    fn top_k_is_prefix_of_full_sort() {
        let mut snap = shell1_snapshot();
        let g = Geodetic::from_degrees(40.7128, -74.0060, 0.0);
        for secs in [0u64, 450, 3600] {
            snap.advance_to(SimTime::from_secs(secs));
            let full = scan(&snap, g, 25.0, usize::MAX, |_| true);
            for k in [0usize, 1, 3, 4, 10, 100] {
                let top = scan(&snap, g, 25.0, k, |_| true);
                assert_eq!(top.len(), k.min(full.len()), "k={k}");
                assert_eq!(bits(&top), bits(&full[..top.len()]), "k={k} t={secs}");
            }
        }
    }

    /// One reused scratch against the brute-force (scalar) scan, for
    /// every `k` and a `keep` that drops one satellite in three.
    #[test]
    fn batched_scans_are_bit_for_bit_the_scalar_scans() {
        let mut snap = shell1_snapshot();
        let mut scratch = VisScratch::default();
        let mut out = Vec::new();
        let keep = |id: SatelliteId| !(id.orbit + id.slot).is_multiple_of(3);
        for (lat, lon) in [(40.7, -74.0), (0.0, 0.0), (-33.9, 151.2), (65.0, 25.0)] {
            let g = Geodetic::from_degrees(lat, lon, 0.0);
            for secs in [0u64, 137, 5000] {
                snap.advance_to(SimTime::from_secs(secs));
                let (sats, soa) = (snap.satellites(), snap.positions_soa());
                for mask in [5.0, 25.0, 40.0] {
                    for k in [0usize, 1, 4, 100, usize::MAX] {
                        visible_top_k_into(sats, soa, g, mask, k, keep, &mut scratch, &mut out);
                        let want = brute_force_snap(&snap, g, mask, k, keep);
                        assert_eq!(bits(&out), bits(&want), "k={k} ({lat},{lon}) t={secs} {mask}");
                    }
                }
            }
        }
    }

    #[test]
    fn batched_top_k_respects_keep_filter_like_scalar() {
        let snap = shell1_snapshot();
        let g = Geodetic::from_degrees(40.7128, -74.0060, 0.0);
        let banned = scan(&snap, g, 25.0, 1, |_| true)[0].id;
        let out = scan(&snap, g, 25.0, 4, |id| id != banned);
        assert_eq!(bits(&out), bits(&brute_force_snap(&snap, g, 25.0, 4, |id| id != banned)));
        assert!(!out.iter().any(|v| v.id == banned));
    }

    #[test]
    fn top_k_respects_keep_filter() {
        let snap = shell1_snapshot();
        let g = Geodetic::from_degrees(40.7128, -74.0060, 0.0);
        let full = scan(&snap, g, 25.0, usize::MAX, |_| true);
        assert!(full.len() >= 2);
        let banned = full[0].id;
        let top = scan(&snap, g, 25.0, 4, |id| id != banned);
        assert!(!top.iter().any(|v| v.id == banned));
        assert_eq!(top[0].id, full[1].id, "next-best satellite moves up");
    }

    proptest! {
        /// §-critical safety property of the fast path: the conservative
        /// bound may only reject satellites that are *below* the mask —
        /// random ground points × orbital phases never produce an
        /// above-mask satellite that fails the sweep's dot-product test.
        #[test]
        fn prop_cull_bound_never_rejects_visible(
            lat in -85.0f64..85.0, lon in -180.0f64..180.0,
            alt in 300.0f64..2000.0, inc in 20.0f64..110.0,
            raan in 0.0f64..360.0, phase in 0.0f64..360.0,
            secs in 0u64..86400, mask in 5.0f64..60.0,
        ) {
            use crate::kepler::CircularOrbit;
            let orbit = CircularOrbit::from_degrees(alt, inc, raan, phase);
            let t = SimTime::from_secs(secs);
            let p = orbit.position_eci(t).to_ecef(t);
            let g = Geodetic::from_degrees(lat, lon, 0.0).to_ecef();
            let (el, _) = elevation_and_range(&g, &p);
            // Vacuously true below the mask; the bound only promises
            // never to cull an *above-mask* satellite.
            let g2 = g.x * g.x + g.y * g.y + g.z * g.z;
            let p2 = p.x * p.x + p.y * p.y + p.z * p.z;
            let gamma = fleet_central_angle(g2, p2, mask).unwrap();
            if let (true, Some(t)) = (el >= mask, cone_threshold(gamma, g2)) {
                let d = g.x * p.x + g.y * p.y + g.z * p.z;
                // An above-mask satellite must pass the conservative test.
                prop_assert!(d > 0.0, "above-mask satellite culled by sign test (el={el})");
                prop_assert!(
                    d * d >= t * p2,
                    "above-mask satellite culled by angle bound (el={el}, mask={mask})"
                );
            }
        }
    }

    #[test]
    fn zenith_satellite_has_90_deg_elevation() {
        let ground = Geodetic::from_degrees(0.0, 0.0, 0.0).to_ecef();
        let sat = Geodetic::from_degrees(0.0, 0.0, 550.0).to_ecef();
        let (el, range) = elevation_and_range(&ground, &sat);
        assert!((el - 90.0).abs() < 1e-9);
        assert!((range - 550.0).abs() < 1e-6);
    }

    #[test]
    fn antipodal_satellite_below_horizon() {
        let ground = Geodetic::from_degrees(0.0, 0.0, 0.0).to_ecef();
        let sat = Geodetic::from_degrees(0.0, 180.0, 550.0).to_ecef();
        let (el, _) = elevation_and_range(&ground, &sat);
        assert!(el < -80.0);
    }

    #[test]
    fn max_slant_range_sane() {
        // At 25° mask and 550 km altitude the max range is ~1120 km.
        let r = max_slant_range_km(550.0, 25.0);
        assert!((1000.0..1300.0).contains(&r), "max range {r}");
        // At zenith-only (90°) the range equals the altitude.
        assert!((max_slant_range_km(550.0, 90.0) - 550.0).abs() < 1e-6);
    }

    #[test]
    fn mid_latitude_user_sees_ten_plus_satellites() {
        // The paper: "a Starlink user can connect to 10+ satellites".
        let shell = WalkerConstellation::starlink_shell1();
        let sats = shell.satellites();
        let nyc = Geodetic::from_degrees(40.7128, -74.0060, 0.0);
        let mut counts = Vec::new();
        for mins in (0..95).step_by(5) {
            let vis = visible_satellites(&sats, nyc, SimTime::from_mins(mins), 25.0);
            counts.push(vis.len());
        }
        let avg = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        assert!(avg >= 8.0, "avg visible = {avg} ({counts:?})");
    }

    #[test]
    fn visibility_sorted_by_elevation() {
        let shell = WalkerConstellation::starlink_shell1();
        let sats = shell.satellites();
        let vis = visible_satellites(
            &sats,
            Geodetic::from_degrees(35.0, 10.0, 0.0),
            SimTime::from_secs(777),
            25.0,
        );
        for w in vis.windows(2) {
            assert!(w[0].elevation_deg >= w[1].elevation_deg);
        }
        for v in &vis {
            assert!(v.elevation_deg >= 25.0);
            assert!(v.slant_range_km <= max_slant_range_km(550.0, 25.0) + 1.0);
        }
    }

    #[test]
    fn direct_scan_sizes_its_range_cut_from_the_highest_satellite() {
        use crate::kepler::CircularOrbit;
        // Altitudes 540 km (first) to 1230 km: the first satellite's
        // maximum slant range is well inside the higher ones'.
        let sats: Vec<Satellite> = (0..24)
            .map(|i| Satellite {
                id: SatelliteId::from_index(i, 6),
                orbit: CircularOrbit::from_degrees(
                    540.0 + i as f64 * 30.0,
                    52.0 + (i % 5) as f64 * 0.4,
                    i as f64 * 15.0,
                    i as f64 * 31.0,
                ),
            })
            .collect();
        let first_cut = max_slant_range_km(sats[0].orbit.altitude_km, 25.0) + 1.0;
        let mut beyond_first_cut = 0;
        for (lat, lon) in [(40.7, -74.0), (0.0, 0.0), (-33.9, 151.2), (51.5, -0.1)] {
            let ground = Geodetic::from_degrees(lat, lon, 0.0);
            for secs in (0..86_400u64).step_by(97) {
                let t = SimTime::from_secs(secs);
                let position = |i: usize| sats[i].orbit.position_eci(t).to_ecef(t);
                let want = brute_force(&sats, position, ground, 25.0, usize::MAX, |_| true);
                let got = visible_satellites(&sats, ground, t, 25.0);
                assert_eq!(got, want, "({lat},{lon}) t={secs}");
                beyond_first_cut += want.iter().filter(|v| v.slant_range_km > first_cut).count();
            }
        }
        assert!(beyond_first_cut > 20, "only {beyond_first_cut} witnesses past the first cut");
    }

    #[test]
    fn snapshot_path_agrees_with_direct_path() {
        let shell = WalkerConstellation::starlink_shell1();
        let sats = shell.satellites();
        let t = SimTime::from_secs(450);
        let mut snap = SnapshotPropagator::new(sats.clone(), shell.sats_per_plane);
        snap.advance_to(t);
        let g = Geodetic::from_degrees(48.0, 16.0, 0.0);
        let a = visible_satellites(&sats, g, t, 25.0);
        let b = scan(&snap, g, 25.0, usize::MAX, |_| true);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.id, y.id);
            assert!((x.elevation_deg - y.elevation_deg).abs() < 1e-9);
        }
    }

    #[test]
    fn gsl_delay_matches_table1_band() {
        // Table 1: GSL delay min 1.82 ms, avg 2.94 ms. Our geometric band:
        // zenith 550 km → 1.83 ms; max range ~1120 km → ~3.7 ms.
        assert!((propagation_delay_ms_f64(550.0) - 1.83).abs() < 0.05);
        let max_ms = propagation_delay_ms_f64(max_slant_range_km(550.0, 25.0));
        assert!((3.0..4.2).contains(&max_ms), "max GSL delay {max_ms} ms");
    }

    #[test]
    fn passes_last_single_digit_minutes() {
        // §3.1.1: a satellite serves a location for under ten minutes.
        // A pass is a run of consecutive 15 s samples in which the
        // satellite is above the 25° mask over NYC.
        let shell = WalkerConstellation::starlink_shell1();
        let sats: Vec<Satellite> = shell.satellites().into_iter().step_by(37).collect();
        let nyc = Geodetic::from_degrees(40.7128, -74.0060, 0.0);
        let step_ms = 15_000;
        let mut run_ms = vec![0u64; shell.total_slots()];
        let (mut passes, mut longest) = (0, 0);
        for k in 0..=(6 * 3600 * 1000 / step_ms) {
            let vis = visible_satellites(&sats, nyc, SimTime::from_millis(k * step_ms), 25.0);
            for (i, run) in run_ms.iter_mut().enumerate() {
                let up = vis.iter().any(|v| v.id.index(shell.sats_per_plane) == i);
                if up {
                    *run += step_ms;
                } else if *run > 0 {
                    passes += 1;
                    longest = longest.max(*run);
                    *run = 0;
                }
            }
            for v in &vis {
                assert!(v.elevation_deg >= 25.0 && v.elevation_deg <= 90.0);
            }
        }
        assert!(passes > 0, "six hours must contain passes");
        assert!(longest <= 600_000, "pass of {longest} ms exceeds ten minutes");
        assert!(longest >= 60_000, "longest pass only {longest} ms — sampling broken?");
    }

    #[test]
    fn polar_user_sees_nothing_in_53_deg_shell() {
        let shell = WalkerConstellation::starlink_shell1();
        let sats = shell.satellites();
        let pole = Geodetic::from_degrees(89.0, 0.0, 0.0);
        let vis = visible_satellites(&sats, pole, SimTime::from_mins(7), 25.0);
        assert!(vis.is_empty(), "polar user saw {} satellites", vis.len());
    }

    #[test]
    fn no_passes_for_polar_ground_site() {
        // One satellite sampled every 15 s for an hour never rises above
        // the mask at 89° N.
        let shell = WalkerConstellation::starlink_shell1();
        let sat = [shell.satellites()[0]];
        let pole = Geodetic::from_degrees(89.0, 0.0, 0.0);
        for k in 0..=240 {
            let t = SimTime::from_secs(15 * k);
            assert!(visible_satellites(&sat, pole, t, 25.0).is_empty(), "pass at {t}");
        }
    }
}
