//! Ablation: overload — demand multiplier x capacity headroom. Sweeps
//! how hard the constellation is driven against how much of each link's
//! per-epoch byte budget admission control may spend, and reports the
//! lifecycle outcome mix (shed / retry / origin fallback / drop), the
//! hit rate, latency percentiles, and peak GSL utilization. Writes
//! `BENCH_overload.json` so later capacity-model changes have a
//! trajectory to defend. Infinite headroom is the control row: the
//! lifecycle is disabled and the run is byte-identical to the plain
//! replayer.

use serde::Serialize;
use spacegen::classes::TrafficClass;
use starcdn::config::StarCdnConfig;
use starcdn_bench::table::{pct, print_table};
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::{Args, Scale};
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::FaultSchedule;
use starcdn_sim::access_log::{build_access_log, AccessLog};
use starcdn_sim::engine::SimConfig;
use starcdn_sim::overload::{OverloadConfig, RetryPolicy};
use starcdn_sim::replayer::replay_parallel_overloaded;
use starcdn_sim::world::World;

const WORKERS: usize = 4;

#[derive(Debug, Serialize)]
struct OverloadResult {
    demand_multiplier: u64,
    /// Usable fraction of each per-epoch link budget (`None` = enforcement off).
    headroom: Option<f64>,
    requests: u64,
    hit_rate: f64,
    shed_requests: u64,
    retry_attempts: u64,
    served_primary: u64,
    served_replica: u64,
    served_origin_fallback: u64,
    dropped_requests: u64,
    p50_latency_ms: f64,
    p99_latency_ms: f64,
    /// Peak per-epoch GSL utilization against the *raw* budget.
    peak_gsl_util: f64,
    /// The same peak against the headroom-scaled limit (1.0 = a
    /// satellite saturated its admissible budget; `None` when
    /// enforcement is off).
    peak_gsl_of_limit: Option<f64>,
}

#[derive(Debug, Serialize)]
struct OverloadReport {
    scale: String,
    seed: u64,
    workers: usize,
    base_entries: u64,
    results: Vec<OverloadResult>,
}

/// Demand multiplier `m`: every access-log entry is repeated `m` times
/// (consecutively, so the log stays time-ordered).
fn multiply(log: &AccessLog, m: u64) -> AccessLog {
    let mut out = log.clone();
    if m <= 1 {
        return out;
    }
    out.entries = Vec::with_capacity(log.entries.len() * m as usize);
    for e in &log.entries {
        for _ in 0..m {
            out.entries.push(*e);
        }
    }
    out
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

pub(crate) fn run(a: Args) {
    let w = Workload::build(TrafficClass::Video, a);
    let (_, ws) = w.production.unique_objects();
    let cache = cache_bytes_for_gb(50, ws);
    let sim = SimConfig { seed: a.seed, ..SimConfig::default() };
    let world = World::starlink_nine_cities();
    let log = build_access_log(&world, &w.production, sim.epoch_secs, &sim.scheduler());
    let base_entries = log.entries.len() as u64;

    // Headroom anchored to the trace's mean object size: `k` mean-size
    // objects per satellite per epoch. Table-1 budgets (20 Gbps GSL) are
    // orders of magnitude above what a scaled trace moves, so absolute
    // fractions would never shed.
    let mean = (log.entries.iter().map(|e| e.size).sum::<u64>() / (log.entries.len() as u64).max(1))
        as f64;
    let per_object = mean / 37_500_000_000.0;
    let demands: &[u64] = if a.scale == Scale::Smoke { &[1, 10] } else { &[1, 4, 10] };
    let headrooms: [(Option<f64>, &str); 3] =
        [(None, "inf"), (Some(per_object * 8.0), "8 obj"), (Some(per_object * 1.5), "1.5 obj")];

    let cfg = StarCdnConfig::starcdn_no_relay(9, cache);
    let mut results = Vec::new();
    let mut rows = Vec::new();
    for &m in demands {
        let demand = multiply(&log, m);
        for (headroom, hlabel) in headrooms {
            let overload = match headroom {
                None => OverloadConfig::disabled(),
                Some(h) => OverloadConfig {
                    headroom: h,
                    retry: RetryPolicy { max_attempts: 3, backoff_epochs: 0, deadline_ms: 1e9 },
                },
            };
            let metrics = replay_parallel_overloaded(
                cfg.clone(),
                FailureModel::none(),
                &demand,
                &FaultSchedule::empty(),
                WORKERS,
                &overload,
            );
            let mut lat = metrics.latencies_ms.clone();
            lat.sort_by(f64::total_cmp);
            let peak = metrics.utilization.iter().map(|p| p.peak_gsl_util).fold(0.0f64, f64::max);
            let r = OverloadResult {
                demand_multiplier: m,
                headroom,
                requests: demand.entries.len() as u64,
                hit_rate: metrics.stats.request_hit_rate(),
                shed_requests: metrics.shed_requests,
                retry_attempts: metrics.retry_attempts,
                served_primary: metrics.served_primary,
                served_replica: metrics.served_replica,
                served_origin_fallback: metrics.served_origin_fallback,
                dropped_requests: metrics.dropped_requests,
                p50_latency_ms: percentile(&lat, 0.50),
                p99_latency_ms: percentile(&lat, 0.99),
                peak_gsl_util: peak,
                peak_gsl_of_limit: headroom.map(|h| peak / h),
            };
            rows.push(vec![
                format!("{m}x"),
                hlabel.to_string(),
                pct(r.hit_rate),
                r.shed_requests.to_string(),
                r.retry_attempts.to_string(),
                r.served_origin_fallback.to_string(),
                r.dropped_requests.to_string(),
                format!("{:.2}", r.p50_latency_ms),
                format!("{:.2}", r.p99_latency_ms),
                r.peak_gsl_of_limit.map_or("-".to_string(), |u| format!("{u:.2}")),
            ]);
            results.push(r);
        }
    }

    print_table(
        "Ablation: demand multiplier x capacity headroom (L=9, no relay, 4 workers). \
         Headroom in mean-object budgets per satellite-epoch; `inf` disables the \
         lifecycle. Tighter budgets shed more, retries shift serves to replicas, \
         and drops appear only once even the fallback GSL saturates",
        &[
            "demand",
            "headroom",
            "hit rate",
            "shed",
            "retries",
            "fallbacks",
            "drops",
            "p50 ms",
            "p99 ms",
            "peak gsl/limit",
        ],
        &rows,
    );

    let report = OverloadReport {
        scale: format!("{:?}", a.scale),
        seed: a.seed,
        workers: WORKERS,
        base_entries,
        results,
    };
    let json = serde_json::to_string_pretty(&report).expect("encode BENCH_overload.json");
    starcdn_bench::output::write_root_artifact("BENCH_overload.json", &json);
}
