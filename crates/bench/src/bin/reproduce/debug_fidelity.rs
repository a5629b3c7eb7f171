//! Diagnostic (not a paper figure): compare production vs synthetic
//! per-location statistics that determine LRU hit-rate curves —
//! unique-object counts, popularity concentration, and the realized
//! stack-distance distribution.

use spacegen::classes::TrafficClass;
use spacegen::fd::FootprintDescriptor;
use starcdn_bench::workload::Workload;
use starcdn_bench::Args;
use std::collections::HashMap;

pub(crate) fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let synth = w.synthetic(a.seed + 1);
    let n = w.locations.len();

    for (name, trace) in [("production", &w.production), ("synthetic", &synth)] {
        let (uniq, ws) = trace.unique_objects();
        println!(
            "{name}: {} requests, {} unique objects, ws {:.2} GB, reqs/obj {:.1}",
            trace.len(),
            uniq,
            ws as f64 / 1e9,
            trace.len() as f64 / uniq as f64
        );
        // Head concentration: share of requests to the top 1% objects.
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for r in &trace.requests {
            *counts.entry(r.object.0).or_default() += 1;
        }
        let mut v: Vec<u64> = counts.values().copied().collect();
        v.sort_unstable_by(|x, y| y.cmp(x));
        let top1 = v.iter().take(v.len() / 100 + 1).sum::<u64>() as f64;
        println!("  top-1% objects carry {:.1}% of requests", top1 / trace.len() as f64 * 100.0);

        // Per-location realized stack-distance quantiles (location 4).
        let loc = &trace.split_by_location(n)[4];
        let fd = FootprintDescriptor::from_trace(loc, 0);
        println!(
            "  loc4: {} reqs, max stack distance {:.2} GB, rate {:.2}/s",
            loc.len(),
            fd.max_stack_distance as f64 / 1e9,
            fd.req_rate_hz
        );
        // Realized distance quantiles via a fresh extraction.
        let mut dists = sample_distances(loc);
        dists.sort_unstable();
        if !dists.is_empty() {
            for q in [0.25, 0.5, 0.75, 0.9] {
                let idx = ((dists.len() - 1) as f64 * q) as usize;
                print!("  d_q{}={:.0}MB", (q * 100.0) as u32, dists[idx] as f64 / 1e6);
            }
            println!("  (n={})", dists.len());
        }
    }
}

/// All finite stack distances of a single-location trace.
fn sample_distances(trace: &spacegen::trace::Trace) -> Vec<u64> {
    use std::collections::HashMap;
    // O(n^2/k) naive-ish: maintain set since last access via position map
    // — reuse the FD machinery instead by re-deriving from scratch here.
    let mut last: HashMap<u64, usize> = HashMap::new();
    let mut out = Vec::new();
    // Brute-force with running unique-set windows is too slow; use the
    // same Fenwick trick inline.
    let n = trace.len();
    let mut tree = vec![0i64; n + 1];
    let add = |tree: &mut Vec<i64>, mut i: usize, v: i64| {
        i += 1;
        while i < tree.len() {
            tree[i] += v;
            i += i & i.wrapping_neg();
        }
    };
    let prefix = |tree: &Vec<i64>, mut i: usize| {
        let mut s = 0i64;
        i += 1;
        while i > 0 {
            s += tree[i];
            i -= i & i.wrapping_neg();
        }
        s
    };
    for (i, r) in trace.requests.iter().enumerate() {
        if let Some(&j) = last.get(&r.object.0) {
            let d = prefix(&tree, i.saturating_sub(1)) - prefix(&tree, j);
            out.push(d as u64);
            add(&mut tree, j, -(r.size as i64));
        }
        add(&mut tree, i, r.size as i64);
        last.insert(r.object.0, i);
    }
    out
}
