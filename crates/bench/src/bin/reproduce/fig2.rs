//! Fig. 2: object/traffic overlap with New York vs geographic distance.
//!
//! The paper's observations: regions < 3000 km from New York share
//! ~55 % of objects and ~90 % of traffic volume; beyond 3000 km both
//! overlaps drop sharply (London: ~25 % of traffic).

use spacegen::classes::TrafficClass;
use spacegen::validate::overlap_vs_distance;
use starcdn_bench::table::{pct, print_table};
use starcdn_bench::workload::Workload;
use starcdn_bench::Args;

pub fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let series = overlap_vs_distance(&w.production, &w.locations, "New York");

    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|d| {
            vec![
                d.location.clone(),
                format!("{:.0} km", d.distance_km),
                pct(d.object_overlap),
                pct(d.traffic_overlap),
            ]
        })
        .collect();
    print_table(
        "Fig. 2: overlap with New York vs distance (paper: <3000 km ≈ 55% objects / 90% traffic; >3000 km low)",
        &["location", "distance", "object overlap", "traffic overlap"],
        &rows,
    );

    // Summary bands matching the paper's prose.
    let near: Vec<_> = series.iter().filter(|d| d.distance_km < 3000.0).collect();
    let far: Vec<_> = series.iter().filter(|d| d.distance_km >= 3000.0).collect();
    let avg = |v: &[&spacegen::validate::DistanceOverlap],
               f: fn(&spacegen::validate::DistanceOverlap) -> f64| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().map(|d| f(d)).sum::<f64>() / v.len() as f64
        }
    };
    println!(
        "\n<3000 km: objects {} traffic {}   |   ≥3000 km: objects {} traffic {}",
        pct(avg(&near, |d| d.object_overlap)),
        pct(avg(&near, |d| d.traffic_overlap)),
        pct(avg(&far, |d| d.object_overlap)),
        pct(avg(&far, |d| d.traffic_overlap)),
    );
}
