//! Ground-track (sub-satellite point) computation.
//!
//! Reproduces the geometry behind the paper's Fig. 3: the trajectory of a
//! satellite and of its neighbour three planes to the west nearly
//! coincide one period later, which is why relayed fetch from the west
//! inter-orbit neighbour recovers a "historical footprint" of requests.

use crate::coords::Geodetic;
use crate::kepler::CircularOrbit;
use crate::time::{SimDuration, SimTime};

/// One sample of a ground track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrackPoint {
    pub time: SimTime,
    pub point: Geodetic,
}

/// Sample the sub-satellite point of `orbit` from `start` for `duration`
/// every `step`.
pub fn ground_track(
    orbit: &CircularOrbit,
    start: SimTime,
    duration: SimDuration,
    step: SimDuration,
) -> Vec<TrackPoint> {
    assert!(step.as_millis() > 0, "step must be positive");
    let mut out = Vec::new();
    let mut t = start;
    let end = start + duration;
    while t <= end {
        let g = orbit.position_eci(t).to_ecef(t).to_geodetic();
        out.push(TrackPoint { time: t, point: Geodetic { alt_km: 0.0, ..g } });
        t += step;
    }
    out
}

/// Mean great-circle distance (km) between two tracks sampled at the same
/// times, after shifting the second track by `shift`.
///
/// Used to quantify Fig. 3's claim: `track_similarity(east_orbit, west_orbit,
/// one_period)` is small because the west neighbour covered (almost) the
/// same ground one period earlier.
pub fn track_similarity_km(
    a: &CircularOrbit,
    b: &CircularOrbit,
    b_shift: SimDuration,
    samples: usize,
    step: SimDuration,
) -> f64 {
    assert!(samples > 0);
    let mut total = 0.0;
    for k in 0..samples {
        let t = SimTime::from_millis(k as u64 * step.as_millis());
        let pa = a.position_eci(t).to_ecef(t).to_geodetic();
        let tb = t + b_shift;
        let pb = b.position_eci(tb).to_ecef(tb).to_geodetic();
        total += pa.haversine_km(&pb);
    }
    total / samples as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::{SatelliteId, WalkerConstellation};

    #[test]
    fn track_stays_within_inclination_band() {
        let shell = WalkerConstellation::starlink_shell1();
        let orbit = shell.orbit_for(SatelliteId::new(0, 0));
        let track = ground_track(
            &orbit,
            SimTime::ZERO,
            SimDuration::from_secs(6000),
            SimDuration::from_secs(15),
        );
        assert!(!track.is_empty());
        for tp in &track {
            assert!(tp.point.lat_deg().abs() <= 53.5);
            assert!(tp.point.alt_km.abs() < 1e-9);
        }
    }

    #[test]
    fn track_moves_between_samples() {
        let shell = WalkerConstellation::starlink_shell1();
        let orbit = shell.orbit_for(SatelliteId::new(10, 5));
        let track = ground_track(
            &orbit,
            SimTime::ZERO,
            SimDuration::from_secs(120),
            SimDuration::from_secs(15),
        );
        for w in track.windows(2) {
            let d = w[0].point.haversine_km(&w[1].point);
            // Ground speed ~7.3 km/s relative to surface → ~110 km per 15 s.
            assert!((50.0..200.0).contains(&d), "step moved {d} km");
        }
    }

    #[test]
    fn fig3_west_neighbor_retraces_track_one_period_later() {
        // Fig. 3's geometry: satellite vs its inter-orbit neighbours. The
        // best retrace offset across 1..=4 planes west should beat a random
        // same-plane comparison by a wide margin. (With 72 planes and a
        // ~95.6-min period the Earth rotates ~3.9 plane-spacings per
        // period, so the ~4-planes-west neighbour is the closest retrace —
        // the paper's Fig. 3 shows three planes for its TLE epoch.)
        let shell = WalkerConstellation::starlink_shell1();
        let east = shell.orbit_for(SatelliteId::new(10, 0));
        let period = SimDuration::from_secs_f64(east.period_s());
        let step = SimDuration::from_secs(30);

        let mut best = f64::INFINITY;
        let mut best_planes = 0u16;
        for planes_west in 1u16..=8 {
            let west = shell.orbit_for(SatelliteId::new(10 - planes_west, 0));
            // west(t) ≈ east(t + period): the east satellite retraces its
            // west neighbour's track one period later, possibly offset
            // along-track; search a small phase window for the alignment.
            for slot_shift in -3i64..=3 {
                let shift_ms = period.as_millis() as i64
                    + slot_shift * (east.period_s() * 1000.0 / 18.0) as i64;
                if shift_ms < 0 {
                    continue;
                }
                let sim = track_similarity_km(
                    &west,
                    &east,
                    SimDuration::from_millis(shift_ms as u64),
                    60,
                    step,
                );
                if sim < best {
                    best = sim;
                    best_planes = planes_west;
                }
            }
        }
        // Baseline: a satellite half the constellation away, no shift.
        let far = shell.orbit_for(SatelliteId::new(46, 9));
        let baseline = track_similarity_km(&east, &far, SimDuration(0), 60, step);
        assert!(
            best < baseline * 0.25,
            "west-neighbour retrace {best:.0} km vs baseline {baseline:.0} km"
        );
        assert!(best < 700.0, "retrace distance {best:.0} km");
        // The Earth rotates ~4.8 plane spacings per period, so the best
        // retrace sits a handful of planes west (the paper's Fig. 3 shows
        // 3 planes for its TLE epoch).
        assert!((3..=6).contains(&best_planes), "best retrace at {best_planes} planes west");
    }

    #[test]
    fn dwell_time_under_ten_minutes() {
        // The paper: a LEO satellite serves a location for < 10 minutes.
        let shell = WalkerConstellation::starlink_shell1();
        let nyc = Geodetic::from_degrees(40.7128, -74.0060, 0.0);
        let mut max_dwell = SimDuration(0);
        for (orbit_idx, slot) in
            (0..72).step_by(6).flat_map(|o| (0..18).step_by(3).map(move |s| (o, s)))
        {
            let orbit = shell.orbit_for(SatelliteId::new(orbit_idx, slot));
            // Time within 940 km (the ground radius of the 25° elevation
            // cone) of NYC.
            let step = SimDuration::from_secs(15);
            let track = ground_track(&orbit, SimTime::ZERO, SimDuration::from_secs(6000), step);
            let inside = track.iter().filter(|tp| tp.point.haversine_km(&nyc) <= 940.0).count();
            let d = SimDuration::from_millis(inside as u64 * step.as_millis());
            max_dwell = max_dwell.max(d);
        }
        assert!(max_dwell <= SimDuration::from_secs(600), "dwell = {max_dwell}");
        assert!(max_dwell > SimDuration(0), "no satellite ever covered NYC");
    }

    #[test]
    #[should_panic(expected = "step must be positive")]
    fn zero_step_panics() {
        let shell = WalkerConstellation::test_shell();
        let orbit = shell.orbit_for(SatelliteId::new(0, 0));
        ground_track(&orbit, SimTime::ZERO, SimDuration::from_secs(10), SimDuration(0));
    }
}
