//! Fig. 7: request/byte hit-rate curves for StarCDN variants, the LRU
//! baseline, and the Static Cache ideal, at L = 4 and L = 9.
//!
//! Paper reference points (video, Fig. 7a–d): at 50 GB and L = 4, LRU
//! reaches 60 % RHR vs StarCDN 71 %; the max LRU→StarCDN gap is 15 pts
//! (60 GB, L = 9); consistent hashing alone adds ~6 pts RHR (L = 4) /
//! ~9.7 pts (L = 9); relayed fetch adds a further ~4.8 / ~4.1 pts.

use spacegen::classes::TrafficClass;
use starcdn::variants::Variant;
use starcdn_bench::table::{pct, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload, FIG7_SIZES_GB};
use starcdn_bench::Args;

pub fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let (_, ws) = w.production.unique_objects();
    let runner = w.runner(a.seed);
    eprintln!("fig7: {} requests, working set {} bytes", runner.log.len(), ws);

    for l in [4u32, 9] {
        let variants = Variant::fig7_set(l);
        let mut rhr_rows = Vec::new();
        let mut bhr_rows = Vec::new();
        for &gb in FIG7_SIZES_GB.iter() {
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
        print_table(&format!("Fig. 7 (L={l}): request hit rate"), &header_refs, &rhr_rows);
        print_table(&format!("Fig. 7 (L={l}): byte hit rate"), &header_refs, &bhr_rows);
    }
    println!("\npaper: LRU 60% vs StarCDN 71% RHR at 50 GB (L=4); max gap 15 pts (60 GB, L=9)");
}
