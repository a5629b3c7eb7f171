//! Fig. 13: synthetic-vs-production fidelity under terrestrial and
//! StarCDN-Fetch emulation (Appendix A.2).
//!
//! Complements Fig. 6: the same trace pair is replayed through (a/b) a
//! stationary terrestrial cache and (c/d) the StarCDN-Fetch architecture
//! (hashing, no relay); the paper reports small hit-rate differences
//! throughout.

use spacegen::classes::TrafficClass;
use starcdn::variants::Variant;
use starcdn_bench::table::{pct, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::Args;
use starcdn_cache::policy::PolicyKind;
use starcdn_cache::simulate::hit_rate_curve;

pub(crate) fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let synth = w.synthetic(a.seed + 1);
    let (_, ws) = w.production.unique_objects();

    // (a/b): terrestrial cache emulation.
    let labels = [100u64, 250, 500, 750, 1000];
    let sizes: Vec<u64> = labels.iter().map(|&g| cache_bytes_for_gb(g, ws)).collect();
    let hp = hit_rate_curve(PolicyKind::Lru, &sizes, &w.production.accesses());
    let hs = hit_rate_curve(PolicyKind::Lru, &sizes, &synth.accesses());
    let rows: Vec<Vec<String>> = labels
        .iter()
        .enumerate()
        .map(|(i, &g)| {
            vec![
                format!("{g} GB"),
                pct(hp[i].stats.request_hit_rate()),
                pct(hs[i].stats.request_hit_rate()),
                pct(hp[i].stats.byte_hit_rate()),
                pct(hs[i].stats.byte_hit_rate()),
            ]
        })
        .collect();
    print_table(
        "Fig. 13a/13b: terrestrial cache emulation",
        &["cache", "RHR prod", "RHR synth", "BHR prod", "BHR synth"],
        &rows,
    );

    // (c/d): StarCDN-Fetch emulation.
    let rp = w.runner(a.seed);
    let rs = w.runner_for(&synth, a.seed);
    let mut rows = Vec::new();
    let mut rdiff = 0.0;
    let mut bdiff = 0.0;
    let sat_labels = [10u64, 25, 50, 75, 100];
    for &g in &sat_labels {
        let cache = cache_bytes_for_gb(g, ws);
        let mp = rp.run(Variant::StarCdnNoRelay { l: 4 }, cache);
        let msy = rs.run(Variant::StarCdnNoRelay { l: 4 }, cache);
        rdiff += (mp.stats.request_hit_rate() - msy.stats.request_hit_rate()).abs();
        bdiff += (mp.stats.byte_hit_rate() - msy.stats.byte_hit_rate()).abs();
        rows.push(vec![
            format!("{g} GB"),
            pct(mp.stats.request_hit_rate()),
            pct(msy.stats.request_hit_rate()),
            pct(mp.stats.byte_hit_rate()),
            pct(msy.stats.byte_hit_rate()),
        ]);
    }
    print_table(
        "Fig. 13c/13d: StarCDN-Fetch emulation (paper: differences stay small)",
        &["cache", "RHR prod", "RHR synth", "BHR prod", "BHR synth"],
        &rows,
    );
    println!(
        "avg |diff| (StarCDN-Fetch): RHR {:.2}% BHR {:.2}%",
        rdiff / sat_labels.len() as f64 * 100.0,
        bdiff / sat_labels.len() as f64 * 100.0
    );
}
