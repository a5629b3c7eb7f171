//! Ablation: delayed hits + request coalescing (DESIGN.md §14).
//!
//! At LEO RTTs an origin fetch stays in flight for whole scheduler
//! epochs, so a request for an object already being fetched is neither
//! a hit nor an independent miss — it coalesces onto the outstanding
//! fetch and waits only the residual latency. This entry sweeps the
//! fetch latency (in epochs) × the eviction policy (all seven,
//! including the aggregate-delay-weighted MAD) under satellite churn
//! and an overloaded admission lifecycle, and reports the outcome mix
//! and mean request latency per cell.
//!
//! Built-in gates, enforced every run:
//!
//! * fetch latency 0 is the model switched off: its metrics must be
//!   byte-identical to the same configuration without any delayed-hit
//!   wiring (the pre-model serving pipeline);
//! * with latency > 0, MAD must beat plain LRU on mean latency — the
//!   point of latency-aware eviction ("Caching with Delayed Hits").
//!
//! Writes `BENCH_delayed.json` (gitignored trajectory dump) and, at
//! default scale, `results/ablation_delayed.json` (the committed seeded
//! snapshot; the committed `.txt` neighbour is the captured stdout
//! table).

use spacegen::classes::TrafficClass;
use starcdn::config::{DelayedHitConfig, StarCdnConfig};
use starcdn::metrics::SystemMetrics;
use starcdn::system::SpaceCdn;
use starcdn_bench::table::{ms, pct, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::Args;
use starcdn_cache::policy::PolicyKind;
use starcdn_constellation::schedule::{ChurnParams, FaultSchedule};
use starcdn_sim::access_log::build_access_log;
use starcdn_sim::engine::{run_space_overloaded, SimConfig};
use starcdn_sim::overload::OverloadConfig;
use starcdn_sim::world::World;

const EPOCH_SECS: u64 = 15;
const NUM_BUCKETS: u32 = 4;
const CACHE_GB: u64 = 4;
const WAIT_MS_PER_EPOCH: f64 = 40.0;
/// Fetch latency grid, scheduler epochs in flight. 0 = model off.
const FETCH_EPOCHS: [u64; 4] = [0, 1, 2, 4];
/// Origin heterogeneity: objects spread over this many latency tiers
/// (tier t fetches in t × base epochs). Heterogeneous origins are
/// where latency-aware eviction has room to beat hit-rate maximisers.
const ORIGIN_TIERS: u64 = 8;

fn mean_latency_ms(m: &SystemMetrics) -> f64 {
    if m.latencies_ms.is_empty() {
        return 0.0;
    }
    m.latencies_ms.iter().sum::<f64>() / m.latencies_ms.len() as f64
}

fn latency_bits(m: &SystemMetrics) -> Vec<u64> {
    m.latencies_ms.iter().map(|l| l.to_bits()).collect()
}

pub(crate) fn run(a: Args) {
    let horizon_secs = a.scale.trace_hours() * 3600;
    let w = Workload::build(TrafficClass::Video, a);
    let (_, ws) = w.production.unique_objects();
    // A small cache keeps eviction pressure high for the whole run, so
    // the policies actually differ.
    let cache = cache_bytes_for_gb(CACHE_GB, ws);

    // Churn restarts caches cold mid-run (refetch storms are where
    // coalescing matters), and a tight headroom keeps the admission
    // lifecycle engaged. Headroom is calibrated in mean objects per
    // epoch, as in `ablation_overload`.
    let base = World::starlink_nine_cities();
    let churn = ChurnParams::sats_only(4.0 * 3600.0, 600.0, horizon_secs, a.seed ^ 0xDE1A);
    let schedule = FaultSchedule::churn(&base.grid, &churn);
    let world = base.with_fault_schedule(schedule.clone());
    let log = build_access_log(
        &world,
        &w.production,
        EPOCH_SECS,
        &SimConfig { seed: a.seed, ..SimConfig::default() }.scheduler(),
    );
    let mean_obj = (w.production.total_bytes() / (w.production.len() as u64).max(1)) as f64;
    let overload = OverloadConfig::with_headroom(mean_obj / 37_500_000_000.0 * 8.0);

    let run_cell = |policy: PolicyKind, delayed: DelayedHitConfig| -> SystemMetrics {
        let mut cfg = StarCdnConfig::starcdn(NUM_BUCKETS, cache).with_delayed_hits(delayed);
        cfg.policy = policy;
        let mut cdn = SpaceCdn::new(cfg);
        run_space_overloaded(&mut cdn, &log, &schedule, &overload)
    };

    let mut rows = Vec::new();
    let mut json_cells = Vec::new();
    let mut means: Vec<(PolicyKind, u64, f64)> = Vec::new();
    for policy in PolicyKind::ALL {
        // Gate 1: fetch latency 0 is byte-identical to the config that
        // never heard of the delayed-hit model.
        let baseline = {
            let mut cfg = StarCdnConfig::starcdn(NUM_BUCKETS, cache);
            cfg.policy = policy;
            let mut cdn = SpaceCdn::new(cfg);
            run_space_overloaded(&mut cdn, &log, &schedule, &overload)
        };
        for fetch_epochs in FETCH_EPOCHS {
            let m = run_cell(
                policy,
                DelayedHitConfig::with_latency(fetch_epochs, WAIT_MS_PER_EPOCH)
                    .with_origin_tiers(ORIGIN_TIERS),
            );
            if fetch_epochs == 0 {
                assert_eq!(
                    m.stats,
                    baseline.stats,
                    "{}: L=0 must be the pre-model path",
                    policy.name()
                );
                assert_eq!(
                    latency_bits(&m),
                    latency_bits(&baseline),
                    "{}: L=0 latency bit patterns",
                    policy.name()
                );
                assert_eq!(
                    m.delayed_hits,
                    0,
                    "{}: model off records no delayed hits",
                    policy.name()
                );
                assert_eq!(
                    m.coalesced_requests,
                    0,
                    "{}: model off coalesces nothing",
                    policy.name()
                );
            }
            let residual_epochs: u64 = m.residual_epoch_hist.iter().map(|(&r, &n)| r * n).sum();
            let mean = mean_latency_ms(&m);
            means.push((policy, fetch_epochs, mean));
            rows.push(vec![
                policy.name().to_string(),
                fetch_epochs.to_string(),
                pct(m.stats.request_hit_rate()),
                m.delayed_hits.to_string(),
                m.coalesced_requests.to_string(),
                residual_epochs.to_string(),
                ms(mean),
                m.shed_requests.to_string(),
            ]);
            json_cells.push(format!(
                "    {{\"policy\": \"{}\", \"fetch_epochs\": {fetch_epochs}, \
                 \"requests\": {}, \"hit_rate\": {:.6}, \"delayed_hits\": {}, \
                 \"coalesced_requests\": {}, \"residual_epochs\": {residual_epochs}, \
                 \"mean_latency_ms\": {:.6}, \"shed_requests\": {}, \"dropped_requests\": {}}}",
                policy.name(),
                m.stats.requests,
                m.stats.request_hit_rate(),
                m.delayed_hits,
                m.coalesced_requests,
                mean,
                m.shed_requests,
                m.dropped_requests,
            ));
        }
        json_cells.push(format!(
            "    {{\"policy\": \"{}\", \"fetch_epochs\": 0, \"baseline_mean_latency_ms\": {:.6}, \
             \"baseline_hit_rate\": {:.6}}}",
            policy.name(),
            mean_latency_ms(&baseline),
            baseline.stats.request_hit_rate(),
        ));
    }

    print_table(
        &format!(
            "Ablation §14: delayed hits + coalescing under churn + overload \
             (L buckets={NUM_BUCKETS}, {CACHE_GB} GB, wait {WAIT_MS_PER_EPOCH} ms/epoch, \
             {ORIGIN_TIERS} origin tiers, {} requests)",
            log.entries.len()
        ),
        &["policy", "fetch_ep", "hit_rate", "delayed", "coalesced", "resid_ep", "mean_lat", "shed"],
        &rows,
    );

    // Gate 2: latency-aware eviction pays off — MAD beats plain LRU on
    // mean latency at every non-zero fetch latency.
    for &fetch_epochs in FETCH_EPOCHS.iter().filter(|&&l| l > 0) {
        let find = |p: PolicyKind| {
            means
                .iter()
                .find(|&&(pol, l, _)| pol == p && l == fetch_epochs)
                .map(|&(_, _, mean)| mean)
                .expect("cell exists")
        };
        let (lru, mad) = (find(PolicyKind::Lru), find(PolicyKind::Mad));
        assert!(
            mad < lru,
            "MAD mean latency {mad} ms must beat LRU {lru} ms at fetch_epochs={fetch_epochs}"
        );
        println!(
            "fetch_epochs={fetch_epochs}: MAD mean {mad:.3} ms vs LRU {lru:.3} ms \
             ({:.2}% better)",
            (1.0 - mad / lru) * 100.0
        );
    }

    let json = format!(
        "{{\n  \"scale\": \"{:?}\",\n  \"seed\": {},\n  \"epoch_secs\": {EPOCH_SECS},\n  \
         \"num_buckets\": {NUM_BUCKETS},\n  \"cache_gb\": {CACHE_GB},\n  \
         \"wait_ms_per_epoch\": {WAIT_MS_PER_EPOCH},\n  \"origin_tiers\": {ORIGIN_TIERS},\n  \
         \"requests\": {},\n  \
         \"cells\": [\n{}\n  ]\n}}\n",
        a.scale,
        a.seed,
        log.entries.len(),
        json_cells.join(",\n"),
    );
    starcdn_bench::output::write_root_artifact("BENCH_delayed.json", &json);
    starcdn_bench::output::write_results_artifact(a.scale, "ablation_delayed.json", &json);
}
