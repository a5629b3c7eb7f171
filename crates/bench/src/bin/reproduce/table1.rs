//! Table 1: propagation delay and bandwidth of Starlink links.
//!
//! Regenerates the table from shell geometry: intra-/inter-orbit ISL
//! delays are measured across the whole 72×18 constellation, GSL delays
//! across the visibility cone of the nine trace cities over one orbital
//! period. Paper values are printed alongside.

use spacegen::trace::Location;
use starcdn_bench::table::print_table;
use starcdn_bench::Args;
use starcdn_constellation::isl::geometric_delay_stats;
use starcdn_orbit::time::SimTime;
use starcdn_orbit::visibility::{propagation_delay_ms_f64, visible_satellites};
use starcdn_orbit::walker::WalkerConstellation;

pub fn run(_a: Args) {
    let shell = WalkerConstellation::starlink_shell1();
    let stats = geometric_delay_stats(&shell, SimTime::ZERO);

    // GSL delay statistics across cities and one orbit of motion.
    let sats = shell.satellites();
    let mut gsl = Vec::new();
    for loc in Location::akamai_nine() {
        for mins in (0..96).step_by(4) {
            for v in visible_satellites(&sats, loc.geodetic(), SimTime::from_mins(mins), 25.0) {
                gsl.push(propagation_delay_ms_f64(v.slant_range_km));
            }
        }
    }
    let n = gsl.len() as f64;
    let avg = gsl.iter().sum::<f64>() / n;
    let min = gsl.iter().cloned().fold(f64::INFINITY, f64::min);
    let std = (gsl.iter().map(|x| (x - avg).powi(2)).sum::<f64>() / n).sqrt();

    let rows = vec![
        vec![
            "Intra-orbit ISL".into(),
            "8.03 / 0.376 / 4.76".into(),
            format!(
                "{:.2} / {:.3} / {:.2}",
                stats.intra_avg_ms, stats.intra_std_ms, stats.intra_min_ms
            ),
            "100".into(),
        ],
        vec![
            "Inter-orbit ISL".into(),
            "2.15 / 0.492 / 1.32".into(),
            format!(
                "{:.2} / {:.3} / {:.2}",
                stats.inter_avg_ms, stats.inter_std_ms, stats.inter_min_ms
            ),
            "100".into(),
        ],
        vec![
            "GSL".into(),
            "2.94 / 1.01 / 1.82".into(),
            format!("{avg:.2} / {std:.3} / {min:.2}"),
            "20".into(),
        ],
    ];
    print_table(
        "Table 1: link delays — paper (avg/std/min ms) vs measured geometry",
        &["link", "paper", "measured", "bandwidth (Gbps)"],
        &rows,
    );
}
