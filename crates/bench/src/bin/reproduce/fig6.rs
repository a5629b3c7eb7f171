//! Fig. 6: synthetic-vs-production trace fidelity.
//!
//! (a) object spread CDF, (b) traffic spread CDF, (c/d) request/byte
//! hit-rate curves of a stationary CDN LRU cache, (e/f) the same for a
//! satellite fleet in motion (naive LRU). The paper reports ≤0.4 %
//! average hit-rate difference for the CDN simulation and ≤2 % for the
//! satellite simulation.

use spacegen::classes::TrafficClass;
use spacegen::validate::{cdf_distance, object_spread_cdf, traffic_spread_cdf};
use starcdn::variants::Variant;
use starcdn_bench::table::{pct, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::Args;
use starcdn_cache::policy::PolicyKind;
use starcdn_cache::simulate::hit_rate_curve;

pub(crate) fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let synth = w.synthetic(a.seed + 1);
    let n = w.locations.len();

    // (a) + (b): spread CDFs.
    let osp = object_spread_cdf(&w.production, n);
    let oss = object_spread_cdf(&synth, n);
    let tsp = traffic_spread_cdf(&w.production, n);
    let tss = traffic_spread_cdf(&synth, n);
    let rows: Vec<Vec<String>> = (0..n)
        .map(|k| vec![format!("{}", k + 1), pct(osp[k]), pct(oss[k]), pct(tsp[k]), pct(tss[k])])
        .collect();
    print_table(
        "Fig. 6a/6b: spread CDFs (fraction of objects/traffic at ≤ k locations)",
        &["k", "obj prod", "obj synth", "traffic prod", "traffic synth"],
        &rows,
    );
    println!(
        "KS distance: objects {:.3}, traffic {:.3}",
        cdf_distance(&osp, &oss),
        cdf_distance(&tsp, &tss)
    );

    // (c) + (d): stationary CDN LRU hit-rate curves (per-location caches,
    // all locations pooled like the paper's "CDN LRU simulation").
    let (_, ws) = w.production.unique_objects();
    let labels = [100u64, 250, 500, 750, 1000]; // paper sweeps to 1000 GB here
    let sizes: Vec<u64> = labels.iter().map(|&g| cache_bytes_for_gb(g, ws)).collect();
    let prod_acc = w.production.accesses();
    let synth_acc = synth.accesses();
    let hp = hit_rate_curve(PolicyKind::Lru, &sizes, &prod_acc);
    let hs = hit_rate_curve(PolicyKind::Lru, &sizes, &synth_acc);
    let mut rows = Vec::new();
    let mut rhr_diff = 0.0;
    let mut bhr_diff = 0.0;
    for (i, &g) in labels.iter().enumerate() {
        rhr_diff += (hp[i].stats.request_hit_rate() - hs[i].stats.request_hit_rate()).abs();
        bhr_diff += (hp[i].stats.byte_hit_rate() - hs[i].stats.byte_hit_rate()).abs();
        rows.push(vec![
            format!("{g} GB"),
            pct(hp[i].stats.request_hit_rate()),
            pct(hs[i].stats.request_hit_rate()),
            pct(hp[i].stats.byte_hit_rate()),
            pct(hs[i].stats.byte_hit_rate()),
        ]);
    }
    print_table(
        "Fig. 6c/6d: CDN LRU hit rates (paper: avg diff 0.4% RHR / 0.3% BHR)",
        &["cache", "RHR prod", "RHR synth", "BHR prod", "BHR synth"],
        &rows,
    );
    println!(
        "avg |diff|: RHR {:.2}% BHR {:.2}%",
        rhr_diff / labels.len() as f64 * 100.0,
        bhr_diff / labels.len() as f64 * 100.0
    );

    // (e) + (f): satellites in motion with naive LRU.
    let rp = w.runner(a.seed);
    let rs = w.runner_for(&synth, a.seed);
    let sat_labels = [10u64, 25, 50, 75, 100];
    let mut rows = Vec::new();
    let mut rhr_diff = 0.0;
    let mut bhr_diff = 0.0;
    for &g in &sat_labels {
        let cache = cache_bytes_for_gb(g, ws);
        let mp = rp.run(Variant::NaiveLru, cache);
        let msy = rs.run(Variant::NaiveLru, cache);
        rhr_diff += (mp.stats.request_hit_rate() - msy.stats.request_hit_rate()).abs();
        bhr_diff += (mp.stats.byte_hit_rate() - msy.stats.byte_hit_rate()).abs();
        rows.push(vec![
            format!("{g} GB"),
            pct(mp.stats.request_hit_rate()),
            pct(msy.stats.request_hit_rate()),
            pct(mp.stats.byte_hit_rate()),
            pct(msy.stats.byte_hit_rate()),
        ]);
    }
    print_table(
        "Fig. 6e/6f: satellite (naive LRU) hit rates (paper: avg diff 2% RHR / 1% BHR)",
        &["cache", "RHR prod", "RHR synth", "BHR prod", "BHR synth"],
        &rows,
    );
    println!(
        "avg |diff|: RHR {:.2}% BHR {:.2}%",
        rhr_diff / sat_labels.len() as f64 * 100.0,
        bhr_diff / sat_labels.len() as f64 * 100.0
    );
}
