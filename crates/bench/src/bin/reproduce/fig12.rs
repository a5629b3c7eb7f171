//! Fig. 12: request/byte hit-rate curves for the web and download
//! traffic classes.
//!
//! Paper: StarCDN beats LRU noticeably for both classes (downloads BHR
//! improves by >30 %); Static Cache upper-bounds everything; L = 9
//! outperforms L = 4; hit-rate curves rise more gradually than video
//! because these classes have smaller footprints.

use spacegen::classes::TrafficClass;
use starcdn::variants::Variant;
use starcdn_bench::table::{pct, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::Args;

pub fn run(a: Args) {
    for class in [TrafficClass::Web, TrafficClass::Download] {
        let w = Workload::build(class, a);
        let (uniq, ws) = w.production.unique_objects();
        eprintln!(
            "{}: {} requests over {} objects ({} bytes)",
            class.name(),
            w.production.len(),
            uniq,
            ws
        );
        let runner = w.runner(a.seed);
        let variants = [
            Variant::StaticCache,
            Variant::StarCdn { l: 9 },
            Variant::StarCdn { l: 4 },
            Variant::NaiveLru,
        ];
        let mut rhr_rows = Vec::new();
        let mut bhr_rows = Vec::new();
        for gb in [10u64, 20, 30, 40, 50] {
            let cache = cache_bytes_for_gb(gb, ws);
            let mut rhr = vec![format!("{gb} GB")];
            let mut bhr = vec![format!("{gb} GB")];
            for v in variants {
                let m = runner.run(v, cache);
                rhr.push(pct(m.stats.request_hit_rate()));
                bhr.push(pct(m.stats.byte_hit_rate()));
            }
            rhr_rows.push(rhr);
            bhr_rows.push(bhr);
        }
        let header: Vec<String> = std::iter::once("cache".to_string())
            .chain(variants.iter().map(|v| v.label()))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        print_table(
            &format!("Fig. 12 ({}): request hit rate", class.name()),
            &header_refs,
            &rhr_rows,
        );
        print_table(&format!("Fig. 12 ({}): byte hit rate", class.name()), &header_refs, &bhr_rows);
    }
    println!(
        "\npaper: StarCDN boosts download BHR by >30%; fewer buckets (L=4) < more buckets (L=9)"
    );
}
