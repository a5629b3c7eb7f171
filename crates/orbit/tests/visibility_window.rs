//! Oracle for the visibility window: the tracked path (a
//! [`VisibilityWindow`] over a snapshot it subset-advances) against the
//! brute-force scan of a separately, fully advanced snapshot (every
//! satellite's exact elevation, `keep`, the mask, a stable sort, the first
//! `k`), compared id for id with `elevation_deg().to_bits()` and
//! `slant_range_km.to_bits()`.
//!
//! The window's claim is a proof (see `VisibilityWindow`'s docs), so the
//! oracle is wide rather than clever: every epoch of a 48 h run, seeded
//! step patterns in an explicit loop (the vendored `proptest` replays
//! one input per test), four fleets, three masks, three `k`, and a
//! `keep` whose dead set changes at every step. A refresh reads the
//! orbital elements, plane by plane, not positions; its lists are held
//! to the widened cone tested on a complete snapshot's positions, from
//! both sides and down to the cone's edge. The scans rank by the sine of
//! the elevation and take degrees only near the mask and near ties, so a
//! fleet phased onto the mask itself, and masks at and past the horizon
//! and the zenith, hold them to the reference there. Run it under the
//! release profile too (`cargo test --release -p starcdn-orbit --test
//! visibility_window`): the benchmark executes the release build's
//! arithmetic.

use starcdn_orbit::coords::Ecef;
use starcdn_orbit::coords::Geodetic;
use starcdn_orbit::kepler::CircularOrbit;
use starcdn_orbit::propagator::{Satellite, SnapshotPropagator};
use starcdn_orbit::time::SimTime;
use starcdn_orbit::visibility::{
    elevation_and_range, visible_satellites, visible_top_k_into, VisScratch, VisibilityWindow,
    VisibleSatellite,
};
use starcdn_orbit::walker::{SatelliteId, WalkerConstellation};

/// The nine trace cities, (0°, 0°), a high-latitude point at the shell's
/// coverage rim, and a polar point no satellite of a 53° shell ever covers.
const GROUNDS: [(f64, f64); 12] = [
    (19.4326, -99.1332),
    (32.7767, -96.7970),
    (33.7490, -84.3880),
    (38.9072, -77.0369),
    (40.7128, -74.0060),
    (51.5074, -0.1278),
    (50.1109, 8.6821),
    (48.2082, 16.3738),
    (41.0082, 28.9784),
    (0.0, 0.0),
    (65.0, 25.0),
    (89.0, 0.0),
];

fn grounds(points: &[(f64, f64)]) -> Vec<Geodetic> {
    points.iter().map(|&(lat, lon)| Geodetic::from_degrees(lat, lon, 0.0)).collect()
}

fn shell1() -> (Vec<Satellite>, u16) {
    let shell = WalkerConstellation::starlink_shell1();
    (shell.satellites(), shell.sats_per_plane)
}

/// The fleet of `snapshot_hoisting_matches_analytic_for_mixed_altitude_fleet`:
/// every satellite on its own orbit, so each lands in its own rate group.
fn mixed_fleet() -> (Vec<Satellite>, u16) {
    let sats = (0..24)
        .map(|i| Satellite {
            id: SatelliteId::from_index(i, 6),
            orbit: CircularOrbit::from_degrees(
                540.0 + i as f64 * 3.5,
                52.0 + (i % 5) as f64 * 0.4,
                i as f64 * 15.0,
                i as f64 * 31.0,
            ),
        })
        .collect();
    (sats, 6)
}

/// 288 satellites of one rate group (550 km, 53°), every one on a plane
/// of its own: a node 1.25° from the last, phases a golden angle apart.
fn own_planes_fleet() -> (Vec<Satellite>, u16) {
    let sats = (0..288)
        .map(|i| Satellite {
            id: SatelliteId::from_index(i, 18),
            orbit: CircularOrbit::from_degrees(
                550.0,
                53.0,
                i as f64 * 1.25,
                (i as f64 * 137.507_764).rem_euclid(360.0),
            ),
        })
        .collect();
    (sats, 18)
}

/// Shell 1 with its satellites dealt out of plane order, so a plane's
/// members are not a contiguous index range.
fn shuffled_shell1() -> (Vec<Satellite>, u16) {
    let (sats, per_plane) = shell1();
    let n = sats.len();
    // 785 = 5·157 is coprime to 1296 = 2⁴·3⁴: a permutation.
    let shuffled = (0..n).map(|i| sats[i * 785 % n]).collect();
    (shuffled, per_plane)
}

/// 24 satellites at `altitude_km` in two rate groups, for the cones that
/// reach a hemisphere.
fn high_fleet(altitude_km: f64) -> (Vec<Satellite>, u16) {
    let sats = (0..24)
        .map(|i| Satellite {
            id: SatelliteId::from_index(i, 6),
            orbit: CircularOrbit::from_degrees(
                altitude_km + (i % 2) as f64 * 40.0,
                55.0,
                (i / 6) as f64 * 90.0,
                (i % 6) as f64 * 60.0 + (i / 6) as f64 * 15.0,
            ),
        })
        .collect();
    (sats, 6)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The tracked path, composed the way a scheduler composes it: advance
/// through the window (which refreshes first when it does not cover the
/// new time), scan the candidate lists.
struct Tracked {
    window: VisibilityWindow,
    snapshot: SnapshotPropagator,
    refreshes: u64,
    out: Vec<VisibleSatellite>,
}

impl Tracked {
    fn new(fleet: &(Vec<Satellite>, u16)) -> Self {
        Tracked {
            window: VisibilityWindow::default(),
            snapshot: SnapshotPropagator::new(fleet.0.clone(), fleet.1),
            refreshes: 0,
            out: Vec::new(),
        }
    }

    fn step(&mut self, t: SimTime, mask: f64, grounds: &[Geodetic]) {
        self.refreshes += !self.window.covers(&self.snapshot, t, mask, grounds) as u64;
        self.window.advance(&mut self.snapshot, t, mask, grounds);
        assert!(self.window.covers(&self.snapshot, t, mask, grounds));
    }
}

/// `(id, elevation, range)` of one satellite above the mask, as the
/// brute-force scan computes them.
type Seen = (SatelliteId, f64, f64);

/// The brute-force reference: every satellite's [`elevation_and_range`]
/// at `position(i)`, then `keep`, then `el >= mask`, then a stable
/// descending sort by elevation, then the first `k`.
fn brute_force_at(
    satellites: &[Satellite],
    position: impl Fn(usize) -> Ecef,
    ground: Geodetic,
    mask: f64,
    k: usize,
    keep: impl Fn(SatelliteId) -> bool,
) -> Vec<Seen> {
    let g = ground.to_ecef();
    let mut out: Vec<Seen> = satellites
        .iter()
        .enumerate()
        .filter(|(_, sat)| keep(sat.id))
        .filter_map(|(i, sat)| {
            let (el, range) = elevation_and_range(&g, &position(i));
            (el >= mask).then_some((sat.id, el, range))
        })
        .collect();
    out.sort_by(|a, b| b.1.total_cmp(&a.1));
    out.truncate(k);
    out
}

/// [`brute_force_at`] the snapshot's positions.
fn brute_force(
    snap: &SnapshotPropagator,
    ground: Geodetic,
    mask: f64,
    k: usize,
    keep: impl Fn(SatelliteId) -> bool,
) -> Vec<Seen> {
    brute_force_at(snap.satellites(), |i| snap.positions_soa().ecef(i), ground, mask, k, keep)
}

/// A scan's output against the reference, id for id, bit for bit.
fn assert_matches(got: &[VisibleSatellite], want: &[Seen], what: std::fmt::Arguments) {
    assert_eq!(got.len(), want.len(), "{what}: count");
    for (a, b) in got.iter().zip(want) {
        assert_eq!(a.id, b.0, "{what}");
        assert_eq!(a.elevation_deg().to_bits(), b.1.to_bits(), "{what}");
        assert_eq!(a.slant_range_km.to_bits(), b.2.to_bits(), "{what}");
    }
}

/// One time step of both paths, compared bit for bit for every ground.
#[allow(clippy::too_many_arguments)]
fn check_step(
    tracked: &mut Tracked,
    full: &mut SnapshotPropagator,
    t: SimTime,
    mask: f64,
    k: usize,
    grounds: &[Geodetic],
    keep: impl Fn(SatelliteId) -> bool,
    what: &str,
) {
    tracked.step(t, mask, grounds);
    full.advance_to(t);
    for (j, &g) in grounds.iter().enumerate() {
        tracked.window.top_k_into(j, &tracked.snapshot, k, &keep, &mut tracked.out);
        let want = brute_force(full, g, mask, k, &keep);
        assert_matches(&tracked.out, &want, format_args!("{what}: t={t} ground {j}"));
    }
}

#[test]
fn every_epoch_of_48_hours_matches_the_full_scan() {
    let fleet = shell1();
    let grounds = grounds(&GROUNDS);
    let mut tracked = Tracked::new(&fleet);
    let mut full = SnapshotPropagator::new(fleet.0.clone(), fleet.1);
    let epochs = 48 * 3600 / 15;
    let mut seen_nonempty = 0u64;
    for epoch in 0..epochs {
        let t = SimTime::from_secs(epoch * 15);
        check_step(&mut tracked, &mut full, t, 25.0, 4, &grounds, |_| true, "48h");
        seen_nonempty += !tracked.out.is_empty() as u64;
    }
    // The polar point is scanned last and never sees anything; the window
    // is ~126 s, so a refresh falls on every ninth epoch.
    assert_eq!(seen_nonempty, 0, "a 53° shell never covers 89° N at a 25° mask");
    assert_eq!(tracked.window.window_ms() / 15_000, 8);
    assert_eq!(tracked.refreshes, epochs.div_ceil(9));
    let union = tracked.window.union().len();
    assert!((100..=300).contains(&union), "union of {union} candidates for 12 grounds");
}

#[test]
fn seeded_step_patterns_match_the_full_scan() {
    let fleets = [shell1(), mixed_fleet(), high_fleet(8_000.0), own_planes_fleet()];
    let mut refreshes = 0u64;
    let mut steps = 0u64;
    for seed in 0..240u64 {
        let mut rng = seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x5EED;
        let fleet = &fleets[(seed % 4) as usize];
        let mask = [5.0, 25.0, 40.0][(seed / 3 % 3) as usize];
        let k = [1usize, 4, 100][(seed / 9 % 3) as usize];
        let points: Vec<(f64, f64)> = (0..3)
            .map(|_| {
                let lat = (splitmix(&mut rng) % 1400) as f64 / 10.0 - 70.0;
                let lon = (splitmix(&mut rng) % 3600) as f64 / 10.0 - 180.0;
                (lat, lon)
            })
            .chain([GROUNDS[(seed % 12) as usize]])
            .collect();
        let grounds = grounds(&points);
        let mut tracked = Tracked::new(fleet);
        let mut full = SnapshotPropagator::new(fleet.0.clone(), fleet.1);
        // Anywhere in the first 30 days, at millisecond resolution.
        let mut t_ms = splitmix(&mut rng) % (30 * 86_400_000);
        for step in 0..48u64 {
            t_ms = match splitmix(&mut rng) % 8 {
                0..=2 => t_ms + 1_000,
                3 => t_ms + 15_000,
                4 => t_ms + 1_000 + splitmix(&mut rng) % 1_199_000,
                5 => t_ms,
                6 => t_ms.saturating_sub(1 + splitmix(&mut rng) % 60_000),
                _ => t_ms.saturating_sub(splitmix(&mut rng) % 1_200_000),
            };
            // A dead set that is different at every step: about one
            // satellite in five, keyed by (seed, step, id).
            let salt = seed << 32 | step;
            let keep = move |id: SatelliteId| {
                let mut h = salt ^ ((id.orbit as u64) << 16 | id.slot as u64);
                !splitmix(&mut h).is_multiple_of(5)
            };
            let what = format!("seed {seed} step {step} mask {mask} k {k}");
            check_step(
                &mut tracked,
                &mut full,
                SimTime::from_millis(t_ms),
                mask,
                k,
                &grounds,
                keep,
                &what,
            );
            steps += 1;
        }
        refreshes += tracked.refreshes;
    }
    // Both regimes are exercised: steps that reuse the lists and steps
    // that rebuild them.
    assert!(refreshes > 240 * 4, "only {refreshes} refreshes");
    assert!(refreshes < steps * 3 / 4, "{refreshes} refreshes in {steps} steps");
}

/// The claim itself, checked directly: at 1 s granularity (and at the
/// exact millisecond edges) across a whole window, every satellite above
/// the mask is in its ground point's candidate list — for a Walker shell,
/// a fleet of one rate group per satellite, one of one plane per
/// satellite, and one whose cones reach a hemisphere at a 5° mask (its
/// lists are every satellite, checked over ±1 h). The refresh is handed a
/// snapshot that stays at epoch 0: it reads the elements, not positions.
#[test]
fn candidates_hold_every_above_mask_satellite_across_the_window() {
    let grounds = grounds(&GROUNDS);
    let fleets = [
        (shell1(), "shell1"),
        (mixed_fleet(), "mixed"),
        (own_planes_fleet(), "own planes"),
        (high_fleet(8_000.0), "high"),
    ];
    let mut hemispheres = 0;
    for (fleet, name) in fleets {
        let stale = SnapshotPropagator::new(fleet.0.clone(), fleet.1);
        for mask in [5.0, 25.0, 40.0] {
            for t0_secs in [0u64, 7_777, 30 * 86_400] {
                let mut snap = SnapshotPropagator::new(fleet.0.clone(), fleet.1);
                let t0 = SimTime::from_secs(t0_secs);
                let mut window = VisibilityWindow::default();
                window.refresh(&stale, t0, mask, &grounds);
                let w = window.window_ms();
                let span = if w == u64::MAX {
                    hemispheres += 1;
                    for j in 0..grounds.len() {
                        assert_eq!(window.candidates(j).len(), fleet.0.len(), "{name} {mask}");
                    }
                    3_600_000
                } else {
                    assert!(w >= 60_000, "{name} mask {mask}: window of {w} ms");
                    w
                };
                let lo = t0.as_millis().saturating_sub(span);
                let hi = t0.as_millis() + span;
                let times = (lo..=hi).step_by(1000).chain([hi]);
                let mut above = 0u64;
                for t_ms in times {
                    let t = SimTime::from_millis(t_ms);
                    assert!(window.covers(&snap, t, mask, &grounds));
                    snap.advance_to(t);
                    for (j, g) in grounds.iter().enumerate() {
                        let g = g.to_ecef();
                        for i in 0..snap.satellites().len() {
                            if elevation_and_range(&g, &snap.positions_soa().ecef(i)).0 >= mask {
                                above += 1;
                                assert!(
                                    window.candidates(j).binary_search(&(i as u32)).is_ok(),
                                    "{name} mask {mask} t0 {t0_secs}: satellite {i} above \
                                     ground {j} at {t} is not a candidate"
                                );
                            }
                        }
                    }
                }
                assert!(above > 0, "{name} mask {mask}: nothing was ever above the mask");
                if w != u64::MAX {
                    assert!(!window.covers(&snap, SimTime::from_millis(hi + 1), mask, &grounds));
                    if lo > 0 {
                        let before = SimTime::from_millis(lo - 1);
                        assert!(!window.covers(&snap, before, mask, &grounds));
                    }
                }
            }
        }
    }
    assert_eq!(hemispheres, 3, "the high fleet's 5° cones are hemispheres, and only those");
}

/// `max_central_angle_rad` + `fleet_central_angle`, restated: the
/// largest Earth-central angle at which a satellite of the fleet's
/// largest radius² `r2_max` is above `mask` from a ground point at radius²
/// `g2`, plus its 1e-6 rad of slack.
fn gamma_max(g2: f64, r2_max: f64, mask: f64) -> f64 {
    let el = f64::to_radians(mask);
    let ratio = (g2.sqrt() / r2_max.sqrt()) * el.cos();
    std::f64::consts::FRAC_PI_2 - el - ratio.clamp(-1.0, 1.0).asin() + 1e-6
}

/// The widened cone as a refresh used to test it, on a complete
/// snapshot's positions: satellite `i` is in when `d > 0` and
/// `d² ≥ cos²(angle)·|g|²·|p|²` for `d = g·p`.
fn in_cone(snap: &SnapshotPropagator, g: Geodetic, angle: f64, i: usize) -> bool {
    let g = g.to_ecef();
    let p = snap.positions_soa().ecef(i);
    let (g2, p2) = (g.x * g.x + g.y * g.y + g.z * g.z, snap.positions_soa().p2()[i]);
    let c = angle.cos();
    let d = g.x * p.x + g.y * p.y + g.z * p.z;
    (d > 0.0) & (d * d >= c * c * g2 * p2)
}

/// A fleet of `count` satellites on planes of their own, each phased by
/// bisection to sit on the widened cone's edge over `ground` at `t0`
/// (`mask`): the last phase whose position the cone test above keeps,
/// next to one it drops. Planes that never come that close are left at
/// phase 0.
fn edge_fleet(ground: Geodetic, t0: SimTime, mask: f64, count: usize) -> (Vec<Satellite>, usize) {
    let sat = |i: usize, phase_rad: f64| {
        let mut orbit =
            CircularOrbit::from_degrees(550.0, 53.0, i as f64 * 360.0 / count as f64, 0.0);
        orbit.phase_rad = phase_rad;
        Satellite { id: SatelliteId::from_index(i, 1), orbit }
    };
    let kept = |i: usize, phase_rad: f64| {
        let mut one = SnapshotPropagator::new(vec![sat(i, phase_rad)], 1);
        let g = ground.to_ecef();
        let r2_max = one.positions_soa().r2_max();
        let gamma = gamma_max(g.x * g.x + g.y * g.y + g.z * g.z, r2_max, mask);
        one.advance_to(t0);
        in_cone(&one, ground, 2.0 * gamma, 0)
    };
    let mut on_edge = 0;
    let sats = (0..count)
        .map(|i| {
            let step = std::f64::consts::TAU / 360.0;
            let flip =
                (0..360).map(|d| d as f64 * step).find(|&p| kept(i, p) && !kept(i, p + step));
            let Some(mut inside) = flip else { return sat(i, 0.0) };
            let mut outside = inside + step;
            for _ in 0..80 {
                let mid = 0.5 * (inside + outside);
                if mid == inside || mid == outside {
                    break;
                }
                *(if kept(i, mid) { &mut inside } else { &mut outside }) = mid;
            }
            on_edge += 1;
            sat(i, inside)
        })
        .collect();
    (sats, on_edge)
}

/// Each list against the widened cone on a complete snapshot's
/// positions, from both sides: it holds every satellite the cone holds,
/// and nothing beyond the cone widened by 1e-9 of cosine (≈ 20 m of
/// arc). The last fleet sits on the cone's edge by construction, where
/// the two computations differ by rounding: the refresh's slack is what
/// keeps those satellites.
#[test]
fn refresh_lists_the_widened_cone_from_both_sides_down_to_its_edge() {
    let grounds = grounds(&GROUNDS);
    let t_edge = SimTime::from_secs(7_777);
    let (edge, on_edge) = edge_fleet(grounds[4], t_edge, 25.0, 96);
    assert!(on_edge >= 24, "only {on_edge} planes reach the cone's edge");
    let fleets = [
        (shell1(), "shell1"),
        (shuffled_shell1(), "shuffled shell1"),
        (mixed_fleet(), "mixed"),
        (own_planes_fleet(), "own planes"),
        ((edge, 1), "edge"),
    ];
    let mut edge_members = 0;
    for (fleet, name) in fleets {
        let stale = SnapshotPropagator::new(fleet.0.clone(), fleet.1);
        let r2_max = stale.positions_soa().r2_max();
        for mask in [5.0, 25.0, 40.0] {
            for t0 in [SimTime::ZERO, t_edge, SimTime::from_secs(30 * 86_400)] {
                let mut window = VisibilityWindow::default();
                window.refresh(&stale, t0, mask, &grounds);
                let mut full = SnapshotPropagator::new(fleet.0.clone(), fleet.1);
                full.advance_to(t0);
                for (j, &g) in grounds.iter().enumerate() {
                    let e = g.to_ecef();
                    let wide = 2.0 * gamma_max(e.x * e.x + e.y * e.y + e.z * e.z, r2_max, mask);
                    let outer = (wide.cos() - 1e-9).acos();
                    let list = window.candidates(j);
                    for i in 0..fleet.0.len() {
                        let listed = list.binary_search(&(i as u32)).is_ok();
                        let inner = in_cone(&full, g, wide, i);
                        let what = format!("{name} mask {mask} t0 {t0} ground {j} satellite {i}");
                        assert!(listed || !inner, "{what}: inside the cone, not listed");
                        assert!(!listed || in_cone(&full, g, outer, i), "{what}: listed, far out");
                        let on_edge = name == "edge" && mask == 25.0 && j == 4 && t0 == t_edge;
                        edge_members += (on_edge && inner) as usize;
                    }
                }
            }
        }
    }
    // The fleet's largest radius is at least each satellite's own, so
    // every satellite placed on the edge is inside the fleet's cone.
    assert!(edge_members >= on_edge, "{edge_members} of {on_edge} edge satellites inside");
}

/// A fleet of `count` planes of two satellites each, phased by bisection
/// onto `el == mask` over `ground` at `t0` (on a snapshot's positions):
/// slot 0 at the last phase whose elevation is at or above the mask,
/// slot 1 at the next, below it. Their sines are within ulps of the
/// mask's and of each other. Planes that never rise that high keep their
/// two satellites half an orbit apart.
fn mask_edge_fleet(
    ground: Geodetic,
    t0: SimTime,
    mask: f64,
    count: usize,
) -> (Vec<Satellite>, usize) {
    let sat = |i: usize, slot: usize, phase_rad: f64| {
        let mut orbit =
            CircularOrbit::from_degrees(550.0, 53.0, i as f64 * 360.0 / count as f64, 0.0);
        orbit.phase_rad = phase_rad;
        Satellite { id: SatelliteId::from_index(2 * i + slot, 2), orbit }
    };
    let above = |i: usize, phase_rad: f64| {
        let mut one = SnapshotPropagator::new(vec![sat(i, 0, phase_rad)], 2);
        one.advance_to(t0);
        elevation_and_range(&ground.to_ecef(), &one.positions_soa().ecef(0)).0 >= mask
    };
    let mut on_edge = 0;
    let mut sats = Vec::with_capacity(2 * count);
    for i in 0..count {
        let step = std::f64::consts::TAU / 360.0;
        let flip = (0..360).map(|d| d as f64 * step).find(|&p| above(i, p) && !above(i, p + step));
        let (inside, outside) = match flip {
            Some(mut inside) => {
                let mut outside = inside + step;
                for _ in 0..80 {
                    let mid = 0.5 * (inside + outside);
                    if mid == inside || mid == outside {
                        break;
                    }
                    *(if above(i, mid) { &mut inside } else { &mut outside }) = mid;
                }
                on_edge += 1;
                (inside, outside)
            }
            None => (0.0, std::f64::consts::PI),
        };
        sats.extend([sat(i, 0, inside), sat(i, 1, outside)]);
    }
    (sats, on_edge)
}

/// The scans where the mask's band decides: a fleet phased onto the mask
/// over one ground point, scanned there (and from the other grounds) by
/// the window, the snapshot scan and the analytic scan, against the
/// brute force at every `k`. The edge satellites' sines are also near
/// ties of each other, so the top-k selects among them by exact degrees.
#[test]
fn satellites_on_the_mask_match_the_full_scan() {
    let grounds = grounds(&GROUNDS);
    let t0 = SimTime::from_secs(7_777);
    let mut undecided_by_sine = 0;
    for mask in [5.0, 25.0, 40.0] {
        let fleet = mask_edge_fleet(grounds[4], t0, mask, 120);
        assert!(fleet.1 >= 12, "mask {mask}: only {} planes reach the mask", fleet.1);
        let fleet = (fleet.0, 2);
        let mut full = SnapshotPropagator::new(fleet.0.clone(), fleet.1);
        full.advance_to(t0);
        // The fixture has teeth: the sine against the mask's sine gets
        // some of these satellites wrong.
        let (sats, soa) = (full.satellites(), full.positions_soa());
        let mut near = Vec::new();
        let mut scratch = VisScratch::default();
        visible_top_k_into(
            sats,
            soa,
            grounds[4],
            mask - 1.0,
            usize::MAX,
            |_| true,
            &mut scratch,
            &mut near,
        );
        let sin_mask = mask.to_radians().sin();
        undecided_by_sine += near
            .iter()
            .filter(|v| (v.sin_elevation >= sin_mask) != (v.elevation_deg() >= mask))
            .count();
        for k in [1usize, 4, 100] {
            let what = format!("mask {mask} k {k}");
            let mut tracked = Tracked::new(&fleet);
            check_step(&mut tracked, &mut full, t0, mask, k, &grounds, |_| true, &what);
            let mut out = Vec::new();
            for (j, &g) in grounds.iter().enumerate() {
                let (sats, soa) = (full.satellites(), full.positions_soa());
                visible_top_k_into(sats, soa, g, mask, k, |_| true, &mut scratch, &mut out);
                let want = brute_force(&full, g, mask, k, |_| true);
                assert_matches(&out, &want, format_args!("{what}: snapshot scan, ground {j}"));
            }
        }
        for (j, &g) in grounds.iter().enumerate() {
            let position = |i: usize| fleet.0[i].orbit.position_eci(t0).to_ecef(t0);
            let want = brute_force_at(&fleet.0, position, g, mask, usize::MAX, |_| true);
            let got = visible_satellites(&fleet.0, g, t0, mask);
            assert_matches(&got, &want, format_args!("mask {mask}: analytic scan, ground {j}"));
        }
    }
    assert!(undecided_by_sine > 0, "no edge satellite where the sine alone disagrees");
}

/// Masks below the horizon, at it, at the zenith, past it and NaN: each
/// scan keeps what the exact degrees keep (past the zenith, and for NaN,
/// nothing), for shell 1 and for a fleet high enough that a
/// hemisphere sees it.
#[test]
fn masks_at_and_past_the_horizon_and_zenith_match_the_full_scan() {
    let grounds = grounds(&GROUNDS);
    let mut seen = 0;
    for fleet in [shell1(), high_fleet(35_786.0)] {
        for secs in [0u64, 4_321, 86_400] {
            let t = SimTime::from_secs(secs);
            let mut full = SnapshotPropagator::new(fleet.0.clone(), fleet.1);
            full.advance_to(t);
            let (sats, soa) = (full.satellites(), full.positions_soa());
            let (mut out, mut scratch) = (Vec::new(), VisScratch::default());
            for mask in [-10.0, 0.0, 90.0, 95.0, f64::NAN] {
                let mut window = VisibilityWindow::default();
                window.refresh(&full, t, mask, &grounds);
                for (j, &g) in grounds.iter().enumerate() {
                    for k in [1usize, 4, usize::MAX] {
                        let what = format!("mask {mask} t={t} ground {j} k {k}");
                        let want = brute_force(&full, g, mask, k, |_| true);
                        window.top_k_into(j, &full, k, |_| true, &mut out);
                        assert_matches(&out, &want, format_args!("{what}: window"));
                        visible_top_k_into(sats, soa, g, mask, k, |_| true, &mut scratch, &mut out);
                        assert_matches(&out, &want, format_args!("{what}: snapshot scan"));
                        seen += want.len();
                    }
                    let position = |i: usize| fleet.0[i].orbit.position_eci(t).to_ecef(t);
                    let want = brute_force_at(&fleet.0, position, g, mask, usize::MAX, |_| true);
                    let got = visible_satellites(&fleet.0, g, t, mask);
                    assert_matches(
                        &got,
                        &want,
                        format_args!("mask {mask} t={t} ground {j}: analytic"),
                    );
                    if mask > 90.0 || mask.is_nan() {
                        assert!(got.is_empty(), "mask {mask}: {} satellites", got.len());
                    }
                }
            }
        }
    }
    assert!(seen > 1000, "only {seen} satellites above the low masks");
}

#[test]
fn lists_are_ascending_and_the_union_is_their_sorted_merge() {
    let grounds = grounds(&GROUNDS);
    // Shuffled, a plane's members are not contiguous: the lists are
    // sorted, not collected in plane order.
    for fleet in [shell1(), shuffled_shell1()] {
        let snap = SnapshotPropagator::new(fleet.0, fleet.1);
        let mut window = VisibilityWindow::default();
        window.refresh(&snap, SimTime::from_secs(4_321), 25.0, &grounds);
        let mut merged = std::collections::BTreeSet::new();
        for j in 0..grounds.len() {
            let list = window.candidates(j);
            assert!(list.windows(2).all(|w| w[0] < w[1]), "ground {j}: not ascending");
            assert!(list.len() < 80, "ground {j}: {} candidates", list.len());
            merged.extend(list.iter().copied());
        }
        assert!(window.candidates(11).is_empty(), "no satellite comes within 2γ of the pole");
        assert_eq!(window.union(), merged.into_iter().collect::<Vec<_>>());
    }
}

/// Cones that reach a hemisphere: the list is every satellite, there is
/// no time limit, and the scan is still the full scan's — including a
/// mask low enough that not even the tight cull applies.
#[test]
fn hemisphere_cones_list_every_satellite_and_never_expire() {
    let grounds = grounds(&GROUNDS[..4]);
    for (fleet, mask) in [(high_fleet(8_000.0), 5.0), (high_fleet(35_786.0), -10.0)] {
        let mut tracked = Tracked::new(&fleet);
        let mut full = SnapshotPropagator::new(fleet.0.clone(), fleet.1);
        for secs in [0u64, 15, 3_600, 86_400, 20 * 86_400, 60] {
            let t = SimTime::from_secs(secs);
            check_step(&mut tracked, &mut full, t, mask, 4, &grounds, |_| true, "hemisphere");
        }
        assert_eq!(tracked.refreshes, 1);
        assert_eq!(tracked.window.window_ms(), u64::MAX);
        assert_eq!(tracked.window.union().len(), 24);
        assert_eq!(tracked.window.candidates(2).len(), 24);
    }
}

#[test]
fn another_fleet_mask_or_ground_set_is_not_covered() {
    let fleet = shell1();
    let grounds = grounds(&GROUNDS);
    let snap = SnapshotPropagator::new(fleet.0.clone(), fleet.1);
    let mut window = VisibilityWindow::default();
    let t = SimTime::ZERO;
    assert!(!window.covers(&snap, t, 25.0, &grounds), "nothing is covered before a refresh");
    window.refresh(&snap, t, 25.0, &grounds);
    assert!(window.covers(&snap, t, 25.0, &grounds));
    assert!(!window.covers(&snap, t, 24.0, &grounds));
    assert!(!window.covers(&snap, t, 25.0, &grounds[..11]));
    let mut moved = grounds.clone();
    moved[3] = Geodetic::from_degrees(38.9, -77.0, 0.0);
    assert!(!window.covers(&snap, t, 25.0, &moved));
    // Same size, same grounds, one orbit nudged: another fleet.
    let mut other = fleet.0.clone();
    other[700].orbit.phase_rad += 1e-9;
    assert!(!window.covers(&SnapshotPropagator::new(other, fleet.1), t, 25.0, &grounds));
    // The same fleet in another snapshot instance is the same fleet.
    assert!(window.covers(&SnapshotPropagator::new(fleet.0, fleet.1), t, 25.0, &grounds));
}

fn subset_advanced() -> SnapshotPropagator {
    let fleet = shell1();
    let mut snap = SnapshotPropagator::new(fleet.0, fleet.1);
    snap.advance_subset(SimTime::from_secs(15), &[3, 40, 900]);
    assert!(!snap.is_complete());
    snap
}

#[test]
#[should_panic(expected = "subset only")]
fn position_of_on_a_subset_advanced_snapshot_panics() {
    subset_advanced().position_of(SatelliteId::new(0, 3));
}

#[test]
#[should_panic(expected = "subset only")]
fn positions_soa_of_a_subset_advanced_snapshot_panics() {
    subset_advanced().positions_soa();
}

/// A refresh reads no positions: on a snapshot another window left
/// subset-advanced, and on a window's own snapshot past its window (no
/// full advance in between), it lists and scans what a refresh on a
/// complete snapshot does.
#[test]
fn refresh_on_a_subset_advanced_snapshot_matches_a_complete_one() {
    let fleet = shell1();
    let grounds = grounds(&GROUNDS);
    let t = SimTime::from_millis(86_400_000 + 4_321);
    let mut full = SnapshotPropagator::new(fleet.0.clone(), fleet.1);
    full.advance_to(t);
    let mut reference = VisibilityWindow::default();
    reference.refresh(&full, t, 25.0, &grounds);
    // Someone else's subset advance, then a refresh at another epoch.
    let mut from_elements = VisibilityWindow::default();
    from_elements.refresh(&subset_advanced(), t, 25.0, &grounds);
    // This window's own: advanced at 15 s, then past its window.
    let mut own = Tracked::new(&fleet);
    own.step(SimTime::from_secs(15), 25.0, &grounds);
    own.step(t, 25.0, &grounds);
    assert_eq!(own.refreshes, 2);
    assert!(!own.snapshot.is_complete(), "the refresh did a full advance");
    for window in [&from_elements, &own.window] {
        assert_eq!(window.union(), reference.union());
        assert_eq!(window.window_ms(), reference.window_ms());
        for j in 0..grounds.len() {
            assert_eq!(window.candidates(j), reference.candidates(j), "ground {j}");
        }
    }
    let (mut got, mut want) = (Vec::new(), Vec::new());
    for j in 0..grounds.len() {
        own.window.top_k_into(j, &own.snapshot, 4, |_| true, &mut got);
        reference.top_k_into(j, &full, 4, |_| true, &mut want);
        assert_eq!(got, want, "ground {j}");
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(a.elevation_deg().to_bits(), b.elevation_deg().to_bits(), "ground {j}");
            assert_eq!(a.slant_range_km.to_bits(), b.slant_range_km.to_bits(), "ground {j}");
        }
    }
}

#[test]
#[should_panic(expected = "did not advance it")]
fn scanning_a_snapshot_someone_else_subset_advanced_panics() {
    let fleet = shell1();
    let grounds = grounds(&GROUNDS);
    let mut snap = SnapshotPropagator::new(fleet.0, fleet.1);
    let mut window = VisibilityWindow::default();
    window.refresh(&snap, snap.epoch(), 25.0, &grounds);
    snap.advance_subset(SimTime::from_secs(15), &[1, 2, 3]);
    assert!(window.covers(&snap, snap.epoch(), 25.0, &grounds));
    window.top_k_into(0, &snap, 4, |_| true, &mut Vec::new());
}

#[test]
fn a_full_advance_makes_the_snapshot_whole_again() {
    let mut snap = subset_advanced();
    snap.advance_to(SimTime::from_secs(30));
    assert!(snap.is_complete());
    assert_eq!(snap.positions_soa().len(), 1296);
}
