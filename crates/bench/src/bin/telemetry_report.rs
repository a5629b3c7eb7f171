//! Telemetry demonstration and overhead benchmark: runs the full
//! pipeline (columnar log build → engine replay with churn → parallel
//! replayer)
//! with a [`MemoryRecorder`] attached, prints the per-stage and
//! per-epoch breakdown, checks the no-op-recorder overhead, and writes
//! `BENCH_telemetry.json` + `BENCH_telemetry.csv`.
//!
//! Also asserts the telemetry determinism contract end-to-end: the
//! metrics returned with a live recorder are identical to the no-op
//! run's, and two recorded runs produce byte-identical exports.

use spacegen::classes::TrafficClass;
use starcdn::config::StarCdnConfig;
use starcdn::system::SpaceCdn;
use starcdn_bench::args;
use starcdn_bench::table::print_table;
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_constellation::schedule::{ChurnParams, FaultSchedule};
use starcdn_sim::engine::SimConfig;
use starcdn_sim::{build_access_log_columns_recorded, World};
use starcdn_sim::{engine, replayer, RunSpec};
use starcdn_telemetry::{Counter, Histo, MemoryRecorder, Noop, Recorder, TelemetrySnapshot};
use std::time::Instant;

const REPLAY_WORKERS: usize = 4;

/// One full pipeline pass against `rec`; returns (requests, metrics
/// fingerprint) so callers can compare recorded vs no-op runs.
fn run_pipeline(
    world: &World,
    workload: &Workload,
    sim: &SimConfig,
    cache: u64,
    schedule: &FaultSchedule,
    rec: &dyn Recorder,
) -> (u64, String) {
    let log = build_access_log_columns_recorded(
        world,
        &workload.production,
        sim.epoch_secs,
        &sim.scheduler(),
        rec,
    );
    let cfg = StarCdnConfig::starcdn_no_relay(9, cache);
    let spec = RunSpec { schedule, recorder: rec, ..RunSpec::default() };
    let mut cdn = SpaceCdn::new(cfg.clone());
    let m_seq = engine::run(&mut cdn, &log, &spec).expect("no checkpoint, no I/O");
    let m_par = replayer::run(&cfg, &world.failures, &log, REPLAY_WORKERS, &spec)
        .expect("no checkpoint, no I/O");
    assert_eq!(m_seq.stats, m_par.stats, "replayer diverged from engine");
    let fingerprint = format!(
        "req={} hits={} uplink={} remap={} reroute={} cold={}",
        m_seq.stats.requests,
        m_seq.stats.hits,
        m_seq.uplink_bytes,
        m_seq.remapped_requests,
        m_seq.reroute_extra_hops,
        m_seq.cold_restart_misses,
    );
    (m_seq.stats.requests, fingerprint)
}

fn main() {
    let a = args::from_env();
    let w = Workload::build(TrafficClass::Video, a);
    let (_, ws) = w.production.unique_objects();
    let cache = cache_bytes_for_gb(50, ws);
    let sim = SimConfig { seed: a.seed, ..SimConfig::default() };
    let world = World::starlink_nine_cities();
    let horizon = a.scale.trace_hours() * 3600;
    let schedule = FaultSchedule::churn(
        &world.grid,
        &ChurnParams::sats_only(6.0 * 3600.0, 900.0, horizon, a.seed ^ 0xC0FFEE),
    );

    // Baseline: no-op recorder. This is the configuration every
    // experiment binary runs in, so its wall time is the reference.
    let t0 = Instant::now();
    let (requests, noop_fp) = run_pipeline(&world, &w, &sim, cache, &schedule, &Noop);
    let noop_secs = t0.elapsed().as_secs_f64();

    // Recorded run: same pipeline, memory recorder attached.
    let rec = MemoryRecorder::new();
    let t0 = Instant::now();
    let (_, rec_fp) = run_pipeline(&world, &w, &sim, cache, &schedule, &rec);
    let rec_secs = t0.elapsed().as_secs_f64();
    assert_eq!(noop_fp, rec_fp, "telemetry changed simulation output");
    let snap = rec.snapshot();

    // Determinism: a second recorded run exports byte-identically.
    let rec2 = MemoryRecorder::new();
    run_pipeline(&world, &w, &sim, cache, &schedule, &rec2);
    let snap2 = rec2.snapshot();
    assert_eq!(snap.counters, snap2.counters, "counters are not deterministic");
    assert_eq!(snap.events, snap2.events, "event timeline is not deterministic");
    assert_eq!(
        histogram_fingerprint(&snap),
        histogram_fingerprint(&snap2),
        "histograms are not deterministic"
    );

    let overhead_pct = (rec_secs / noop_secs.max(1e-9) - 1.0) * 100.0;
    println!(
        "scale={:?} seed={} requests={} noop={:.3}s recorded={:.3}s overhead={:+.1}%",
        a.scale, a.seed, requests, noop_secs, rec_secs, overhead_pct
    );

    // Per-stage totals.
    let totals = snap.stage_totals();
    let grand_total_ns: u64 = totals.iter().map(|(_, c)| c.total_ns).sum();
    let rows: Vec<Vec<String>> = totals
        .iter()
        .map(|(stage, c)| {
            vec![
                stage.name().to_string(),
                c.count.to_string(),
                format!("{:.3}", c.total_ns as f64 / 1e9),
                format!("{:.3}", c.mean_ns() / 1e6),
                format!("{:.1}%", 100.0 * c.total_ns as f64 / grand_total_ns.max(1) as f64),
            ]
        })
        .collect();
    print_table(
        "Per-stage time, summed over the epoch timeline (recorded run)",
        &["stage", "spans", "total_s", "mean_ms", "share"],
        &rows,
    );

    // Per-epoch timeline, coarsened to at most 12 printed rows.
    let epochs: std::collections::BTreeSet<u64> =
        snap.spans.keys().map(|&(_, epoch)| epoch).collect();
    let stride = (epochs.len() / 12).max(1);
    let rows: Vec<Vec<String>> = epochs
        .iter()
        .step_by(stride)
        .map(|&epoch| {
            let ns_of = |stage| {
                snap.spans
                    .get(&(stage, epoch))
                    .map_or(0, |c: &starcdn_telemetry::SpanStats| c.total_ns)
            };
            use starcdn_telemetry::Stage;
            vec![
                epoch.to_string(),
                format!("{:.2}", ns_of(Stage::Propagate) as f64 / 1e6),
                format!("{:.2}", ns_of(Stage::Visibility) as f64 / 1e6),
                format!("{:.2}", ns_of(Stage::Schedule) as f64 / 1e6),
                format!("{:.2}", ns_of(Stage::ResolveOwner) as f64 / 1e6),
                format!("{:.2}", ns_of(Stage::CacheAccess) as f64 / 1e6),
            ]
        })
        .collect();
    print_table(
        "Per-epoch stage timeline, ms (sampled rows)",
        &["epoch", "propagate", "visibility", "schedule", "resolve", "cache"],
        &rows,
    );

    // Headline counters and latency quantiles.
    println!(
        "\nrouted={} unreachable={} hits={} misses={} relay_hits={} remapped={} \
         cold_misses={} fault_events={}",
        snap.counter(Counter::RequestsRouted),
        snap.counter(Counter::RequestsUnreachable),
        snap.counter(Counter::CacheHits),
        snap.counter(Counter::CacheMisses),
        snap.counter(Counter::RelayHits),
        snap.counter(Counter::RemappedRequests),
        snap.counter(Counter::ColdRestartMisses),
        snap.counter(Counter::FaultEventsApplied),
    );
    // The scheduler's visibility window: how many epochs rescanned the
    // fleet, and how many satellites the others propagated and tested.
    let refreshes = snap.counter(Counter::VisibilityRefreshes);
    let epochs = snap.counter(Counter::ScheduleEpochs);
    assert!(refreshes >= 1 && refreshes <= epochs, "{refreshes} refreshes in {epochs} epochs");
    if let Some(union) = snap.histogram(Histo::VisibilityCandidates) {
        println!(
            "visibility window: {refreshes} refreshes in {epochs} scheduled epochs, candidate \
             union {}..{} satellites (mean {:.0})",
            union.min.unwrap_or(0),
            union.max.unwrap_or(0),
            union.sum as f64 / union.count.max(1) as f64,
        );
    }
    if let Some(lat) = snap.histogram(Histo::LatencyUs) {
        println!(
            "latency_us: p50<={} p90<={} p99<={} max={} (log2 buckets)",
            lat.quantile(0.50).unwrap_or(0),
            lat.quantile(0.90).unwrap_or(0),
            lat.quantile(0.99).unwrap_or(0),
            lat.max.unwrap_or(0),
        );
    }

    // Exports: the snapshot JSON embedded in a report envelope, plus the
    // flat CSV.
    let json = format!(
        "{{\n\"scale\": \"{:?}\",\n\"seed\": {},\n\"requests\": {},\n\
         \"noop_secs\": {:.6},\n\"recorded_secs\": {:.6},\n\
         \"overhead_pct\": {:.3},\n\"telemetry\": {}}}\n",
        a.scale,
        a.seed,
        requests,
        noop_secs,
        rec_secs,
        overhead_pct,
        snap.to_json(),
    );
    starcdn_bench::output::write_root_artifact("BENCH_telemetry.json", &json);
    starcdn_bench::output::write_root_artifact("BENCH_telemetry.csv", &snap.to_csv());
}

/// Deterministic digest of every histogram's exact bucket contents.
fn histogram_fingerprint(s: &TelemetrySnapshot) -> String {
    let mut out = String::new();
    for (h, hs) in &s.histograms {
        out.push_str(h.name());
        out.push(':');
        out.push_str(&format!("{:?};", hs.buckets));
    }
    out
}
