//! Calibration sweep (not a paper figure): prints hit rates of Naive
//! LRU, StarCDN and Static Cache across cache ratios, used to pick
//! `workload::RATIO_AT_100GB` so that the paper's 10–100 GB labels land
//! in the paper's hit-rate bands (LRU ≈ 60 %, StarCDN ≈ 71–75 %).

use spacegen::classes::TrafficClass;
use starcdn::variants::Variant;
use starcdn_bench::table::{pct, print_table};
use starcdn_bench::workload::Workload;
use starcdn_bench::{Args, Scale};

pub fn run(a: Args) {
    eprintln!("calibrate: scale {:?} seed {}", a.scale, a.seed);
    let w = Workload::build(TrafficClass::Video, a);
    let (uniq, ws_bytes) = w.production.unique_objects();
    eprintln!(
        "production trace: {} requests, {} unique objects, {} unique bytes",
        w.production.len(),
        uniq,
        ws_bytes
    );
    let runner = w.runner(a.seed);

    let ratios: &[f64] = if a.scale == Scale::Smoke {
        &[0.002, 0.01, 0.05, 0.10]
    } else {
        &[0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.10, 0.20]
    };

    let mut rows = Vec::new();
    for &ratio in ratios {
        let cache = ((ws_bytes as f64) * ratio).max(1.0) as u64;
        let lru = runner.run(Variant::NaiveLru, cache);
        let star = runner.run(Variant::StarCdn { l: 4 }, cache);
        let star9 = runner.run(Variant::StarCdn { l: 9 }, cache);
        let stat = runner.run(Variant::StaticCache, cache);
        rows.push(vec![
            format!("{:.3}%", ratio * 100.0),
            pct(lru.stats.request_hit_rate()),
            pct(star.stats.request_hit_rate()),
            pct(star9.stats.request_hit_rate()),
            pct(stat.stats.request_hit_rate()),
            pct(lru.stats.byte_hit_rate()),
            pct(star.stats.byte_hit_rate()),
        ]);
    }
    print_table(
        "calibration: RHR/BHR vs cache ratio (video)",
        &["cache/WS", "LRU RHR", "Star4 RHR", "Star9 RHR", "Static RHR", "LRU BHR", "Star4 BHR"],
        &rows,
    );
}
