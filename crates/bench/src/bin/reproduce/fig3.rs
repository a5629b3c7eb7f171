//! Fig. 3: ground tracks of two satellites several planes apart.
//!
//! The paper's Fig. 3 shows that a satellite's west inter-orbit
//! neighbour retraced (almost) the same ground track one period earlier
//! — the geometric basis for relayed fetch. This entry prints sampled
//! ground tracks for both satellites plus the retrace error.

use starcdn_bench::table::print_table;
use starcdn_bench::Args;
use starcdn_orbit::groundtrack::{ground_track, track_similarity_km};
use starcdn_orbit::time::{SimDuration, SimTime};
use starcdn_orbit::walker::{SatelliteId, WalkerConstellation};

pub fn run(_a: Args) {
    let shell = WalkerConstellation::starlink_shell1();
    let east = shell.orbit_for(SatelliteId::new(10, 0));
    let period = SimDuration::from_secs_f64(east.period_s());

    // Find the west offset (in planes) with the best one-period retrace.
    // The Earth rotates ~24° ≈ 4.8 plane spacings per orbital period, so
    // the optimum sits around 5 planes west (the paper's Fig. 3 uses 3
    // for its TLE epoch; the exact offset depends on shell phasing).
    let mut best = (f64::INFINITY, 0u16, 0i64);
    for planes_west in 1u16..=8 {
        let west = shell.orbit_for(SatelliteId::new(10 - planes_west, 0));
        for slot_shift in -5i64..=5 {
            let shift_ms =
                period.as_millis() as i64 + slot_shift * (east.period_s() * 1000.0 / 18.0) as i64;
            if shift_ms < 0 {
                continue;
            }
            // west(t) ≈ east(t + T): the west neighbour occupied this
            // ground track one period earlier.
            let err = track_similarity_km(
                &west,
                &east,
                SimDuration::from_millis(shift_ms as u64),
                120,
                SimDuration::from_secs(30),
            );
            if err < best.0 {
                best = (err, planes_west, slot_shift);
            }
        }
    }
    let (err_km, planes_west, slot_shift) = best;

    println!("\n## Fig. 3: orbital retrace (paper: satellite ~3 planes west repeats the track one period later)\n");
    println!("best retrace: {planes_west} planes west, slot shift {slot_shift}, mean track error {err_km:.0} km over one period");

    // Print both tracks, sampled every 5 minutes for one period.
    let track_a = ground_track(&east, SimTime::ZERO, period, SimDuration::from_secs(300));
    let west = shell.orbit_for(SatelliteId::new(10 - planes_west, 0));
    let track_b = ground_track(&west, SimTime::ZERO, period, SimDuration::from_secs(300));
    let rows: Vec<Vec<String>> = track_a
        .iter()
        .zip(&track_b)
        .map(|(a, b)| {
            vec![
                a.time.to_string(),
                format!("({:+.1}, {:+.1})", a.point.lat_deg(), a.point.lon_deg()),
                format!("({:+.1}, {:+.1})", b.point.lat_deg(), b.point.lon_deg()),
            ]
        })
        .collect();
    print_table(
        "ground tracks (lat, lon) sampled every 5 min",
        &["t", "satellite S10-0", &format!("satellite S{}-0 (west)", 10 - planes_west)],
        &rows,
    );
}
