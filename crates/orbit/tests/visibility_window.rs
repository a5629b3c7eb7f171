//! Oracle for the visibility window: the tracked path (a
//! [`VisibilityWindow`] over a snapshot it subset-advances) against the
//! brute-force scan of a separately, fully advanced snapshot (every
//! satellite's exact elevation, `keep`, the mask, a stable sort, the first
//! `k`), compared id for id with `elevation_deg.to_bits()` and
//! `slant_range_km.to_bits()`.
//!
//! The window's claim is a proof (see `VisibilityWindow`'s docs), so the
//! oracle is wide rather than clever: every epoch of a 48 h run, seeded
//! step patterns in an explicit loop (the vendored `proptest` replays
//! one input per test), three fleets, three masks, three `k`, and a
//! `keep` whose dead set changes at every step. Run it under the
//! release profile too (`cargo test --release -p starcdn-orbit --test
//! visibility_window`): the benchmark executes the release build's
//! arithmetic.

use starcdn_orbit::coords::Geodetic;
use starcdn_orbit::kepler::CircularOrbit;
use starcdn_orbit::propagator::{Satellite, SnapshotPropagator};
use starcdn_orbit::time::SimTime;
use starcdn_orbit::visibility::{elevation_and_range, VisibilityWindow, VisibleSatellite};
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
/// through the window, refresh when it does not cover the new time, scan
/// the candidate lists.
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
        self.window.advance(&mut self.snapshot, t, mask, grounds);
        if !self.window.covers(&self.snapshot, t, mask, grounds) {
            self.window.refresh(&self.snapshot, mask, grounds);
            self.refreshes += 1;
        }
    }
}

/// The brute-force reference: every satellite's [`elevation_and_range`]
/// at its snapshot position, then `keep`, then `el >= mask`, then a
/// stable descending sort by elevation, then the first `k`.
fn brute_force(
    snap: &SnapshotPropagator,
    ground: Geodetic,
    mask: f64,
    k: usize,
    keep: impl Fn(SatelliteId) -> bool,
) -> Vec<VisibleSatellite> {
    let g = ground.to_ecef();
    let mut out: Vec<VisibleSatellite> = snap
        .satellites()
        .iter()
        .enumerate()
        .filter(|(_, sat)| keep(sat.id))
        .filter_map(|(i, sat)| {
            let (el, range) = elevation_and_range(&g, &snap.positions_soa().ecef(i));
            (el >= mask).then_some(VisibleSatellite {
                id: sat.id,
                elevation_deg: el,
                slant_range_km: range,
            })
        })
        .collect();
    out.sort_by(|a, b| b.elevation_deg.total_cmp(&a.elevation_deg));
    out.truncate(k);
    out
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
        assert_eq!(tracked.out.len(), want.len(), "{what}: t={t} ground {j}: count");
        for (a, b) in tracked.out.iter().zip(&want) {
            assert_eq!(a.id, b.id, "{what}: t={t} ground {j}");
            assert_eq!(a.elevation_deg.to_bits(), b.elevation_deg.to_bits(), "{what}: t={t}");
            assert_eq!(a.slant_range_km.to_bits(), b.slant_range_km.to_bits(), "{what}: t={t}");
        }
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
    let fleets = [shell1(), mixed_fleet(), high_fleet(8_000.0)];
    let mut refreshes = 0u64;
    let mut steps = 0u64;
    for seed in 0..240u64 {
        let mut rng = seed.wrapping_mul(0xA076_1D64_78BD_642F) ^ 0x5EED;
        let fleet = &fleets[(seed % 3) as usize];
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
/// the mask is in its ground point's candidate list.
#[test]
fn candidates_hold_every_above_mask_satellite_across_the_window() {
    let grounds = grounds(&GROUNDS);
    for (fleet, name) in [(shell1(), "shell1"), (mixed_fleet(), "mixed")] {
        for mask in [5.0, 25.0, 40.0] {
            for t0_secs in [0u64, 7_777, 30 * 86_400] {
                let mut snap = SnapshotPropagator::new(fleet.0.clone(), fleet.1);
                let t0 = SimTime::from_secs(t0_secs);
                snap.advance_to(t0);
                let mut window = VisibilityWindow::default();
                window.refresh(&snap, mask, &grounds);
                let w = window.window_ms();
                assert!((60_000..600_000).contains(&w), "{name} mask {mask}: window of {w} ms");
                let lo = t0.as_millis().saturating_sub(w);
                let hi = t0.as_millis() + w;
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
                assert!(!window.covers(&snap, SimTime::from_millis(hi + 1), mask, &grounds));
                if lo > 0 {
                    assert!(!window.covers(&snap, SimTime::from_millis(lo - 1), mask, &grounds));
                }
            }
        }
    }
}

#[test]
fn lists_are_ascending_and_the_union_is_their_sorted_merge() {
    let fleet = shell1();
    let grounds = grounds(&GROUNDS);
    let mut snap = SnapshotPropagator::new(fleet.0, fleet.1);
    snap.advance_to(SimTime::from_secs(4_321));
    let mut window = VisibilityWindow::default();
    window.refresh(&snap, 25.0, &grounds);
    let mut merged = std::collections::BTreeSet::new();
    for j in 0..grounds.len() {
        let list = window.candidates(j);
        assert!(list.windows(2).all(|w| w[0] < w[1]), "ground {j}: not ascending");
        assert!(list.len() < 80, "ground {j}: {} candidates", list.len());
        merged.extend(list.iter().copied());
    }
    assert!(window.candidates(11).is_empty(), "no satellite comes within 2γ of the pole point");
    assert_eq!(window.union(), merged.into_iter().collect::<Vec<_>>());
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
    window.refresh(&snap, 25.0, &grounds);
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

#[test]
#[should_panic(expected = "subset only")]
fn refresh_from_a_subset_advanced_snapshot_panics() {
    VisibilityWindow::default().refresh(&subset_advanced(), 25.0, &grounds(&GROUNDS));
}

#[test]
#[should_panic(expected = "did not advance it")]
fn scanning_a_snapshot_someone_else_subset_advanced_panics() {
    let fleet = shell1();
    let grounds = grounds(&GROUNDS);
    let mut snap = SnapshotPropagator::new(fleet.0, fleet.1);
    let mut window = VisibilityWindow::default();
    window.refresh(&snap, 25.0, &grounds);
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
