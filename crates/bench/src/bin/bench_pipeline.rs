//! Pipeline throughput benchmark: entries/sec for every stage of the
//! trace → access-log → replay pipeline, row vs columnar, plus the
//! visibility-culling microbenchmark. Writes `BENCH_pipeline.json` at
//! the repo root (gitignored trajectory dump) and, at the default
//! scale, the committed before/after summary
//! `results/bench_pipeline.json`.
//!
//! Stages measured:
//! * access-log build: the sequential row reference
//!   (`build_access_log`), then columnar sequential and parallel at
//!   1/2/4/8 workers (`build_access_log_columns*`; all outputs asserted
//!   bit-for-bit equal to the sequential row build);
//! * the shared 39-byte binary codec, decoded into rows vs straight
//!   into columns;
//! * per-satellite visibility scan: exact-only vs culled vs top-k vs
//!   the batched struct-of-arrays top-k;
//! * deterministic engine replay, row (`run_space`) vs columnar
//!   (`run_space_columns`);
//! * parallel sharded replayer, row vs columnar.
//!
//! `--gate-columnar` exits nonzero if the columnar 8-worker log build
//! is slower than the sequential row build — the CI regression gate
//! for the struct-of-arrays hot path.

use spacegen::classes::TrafficClass;
use starcdn::config::StarCdnConfig;
use starcdn::system::SpaceCdn;
use starcdn_bench::output::{write_results_artifact, write_root_artifact};
use starcdn_bench::table::print_table;
use starcdn_bench::workload::{cache_bytes_for_gb, Workload};
use starcdn_bench::{args, Scale};
use starcdn_orbit::coords::{Ecef, Geodetic};
use starcdn_orbit::time::SimTime;
use starcdn_orbit::visibility::{
    elevation_and_range, visible_from_positions, visible_top_k_from_positions, visible_top_k_into,
    VisScratch, VisibleSatellite,
};
use starcdn_sim::columns::AccessLogColumns;
use starcdn_sim::engine::{run_space, run_space_columns, SimConfig};
use starcdn_sim::{
    build_access_log, build_access_log_columns, build_access_log_columns_parallel, replayer,
    AccessLog, LogView, RunSpec, World,
};
use std::time::Instant;

const LOG_WORKERS: [usize; 4] = [1, 2, 4, 8];
const REPLAY_WORKERS: usize = 8;
/// Epochs scanned by the visibility microbenchmark (one simulated hour).
const VIS_EPOCHS: u64 = 240;

#[derive(Debug)]
struct StageResult {
    stage: String,
    items: u64,
    secs: f64,
    items_per_sec: f64,
    /// Speedup over this stage's named baseline (1.0 for baselines).
    speedup: f64,
}

impl StageResult {
    fn to_json(&self) -> String {
        format!(
            "    {{\"stage\": \"{}\", \"items\": {}, \"secs\": {:.6}, \
             \"items_per_sec\": {:.1}, \"speedup\": {:.4}}}",
            self.stage, self.items, self.secs, self.items_per_sec, self.speedup
        )
    }
}

fn stage(name: &str, items: u64, secs: f64, baseline_secs: f64) -> StageResult {
    StageResult {
        stage: name.to_string(),
        items,
        secs,
        items_per_sec: items as f64 / secs.max(1e-9),
        speedup: baseline_secs / secs.max(1e-9),
    }
}

/// The pre-culling exact visibility scan, kept here as the "before"
/// side of the culling microbenchmark.
fn visible_exact_only(
    world: &World,
    positions: &[Ecef],
    ground: Geodetic,
    min_elevation_deg: f64,
) -> usize {
    let g = ground.to_ecef();
    world
        .satellites
        .iter()
        .zip(positions)
        .filter(|(_, p)| elevation_and_range(&g, p).0 >= min_elevation_deg)
        .count()
}

fn report_json(
    scale: &str,
    seed: u64,
    trace_entries: u64,
    hardware_threads: usize,
    stages: &[StageResult],
) -> String {
    let find = |name: &str| stages.iter().find(|s| s.stage == name);
    let row = find("log_build_seq").map_or(0.0, |s| s.items_per_sec);
    let cols8 = find("log_build_cols_par8").map_or(0.0, |s| s.items_per_sec);
    let stage_rows: Vec<String> = stages.iter().map(StageResult::to_json).collect();
    format!
        ("{{\n  \"scale\": \"{scale}\",\n  \"seed\": {seed},\n  \"trace_entries\": {trace_entries},\n  \
         \"hardware_threads\": {hardware_threads},\n  \"stages\": [\n{}\n  ],\n  \
         \"columnar_vs_row\": {{\"row_seq_entries_per_sec\": {row:.1}, \
         \"cols_par8_entries_per_sec\": {cols8:.1}, \"speedup\": {:.4}}}\n}}\n",
        stage_rows.join(",\n"),
        cols8 / row.max(1e-9),
    )
}

fn main() {
    // `--gate-columnar` is ours; everything else goes to the common parser.
    let (gate_args, rest): (Vec<String>, Vec<String>) =
        std::env::args().skip(1).partition(|t| t == "--gate-columnar");
    let gate = !gate_args.is_empty();
    let a = args::parse_args(rest);
    let w = Workload::build(TrafficClass::Video, a);
    let (_, ws) = w.production.unique_objects();
    let cache = cache_bytes_for_gb(50, ws);
    let sim = SimConfig { seed: a.seed, ..SimConfig::default() };
    let scheduler = sim.scheduler();
    let world = World::starlink_nine_cities();
    let entries = w.production.len() as u64;
    let mut stages = Vec::new();

    // Stage 1: access-log build — the sequential row reference, then the
    // columnar builders; every variant is asserted bit-for-bit equal to
    // the sequential row build.
    let t0 = Instant::now();
    let seq = build_access_log(&world, &w.production, sim.epoch_secs, &scheduler);
    let seq_secs = t0.elapsed().as_secs_f64();
    stages.push(stage("log_build_seq", entries, seq_secs, seq_secs));
    let t0 = Instant::now();
    let cols = build_access_log_columns(&world, &w.production, sim.epoch_secs, &scheduler);
    let cols_secs = t0.elapsed().as_secs_f64();
    assert!(
        cols.len() == seq.len() && cols.iter().zip(&seq.entries).all(|(c, r)| c == *r),
        "columnar build diverged from row build"
    );
    stages.push(stage("log_build_cols_seq", entries, cols_secs, seq_secs));
    for workers in LOG_WORKERS {
        let t0 = Instant::now();
        let par = build_access_log_columns_parallel(
            &world,
            &w.production,
            sim.epoch_secs,
            &scheduler,
            workers,
        );
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(cols, par, "parallel columnar build diverged at {workers} workers");
        stages.push(stage(&format!("log_build_cols_par{workers}"), entries, secs, seq_secs));
    }

    // Stage 2: the shared binary codec — decode into rows vs straight
    // into columns (identical bytes, no per-entry structs on the right).
    let mut bin = Vec::new();
    cols.write_binary(&mut bin).expect("encode log");
    let t0 = Instant::now();
    let rows_back = AccessLog::read_binary(bin.as_slice()).expect("decode rows");
    let rows_read_secs = t0.elapsed().as_secs_f64();
    assert_eq!(rows_back.len(), seq.len());
    drop(rows_back);
    stages.push(stage("binary_read_rows", entries, rows_read_secs, rows_read_secs));
    let t0 = Instant::now();
    let cols_back = AccessLogColumns::read_binary(bin.as_slice()).expect("decode columns");
    let cols_read_secs = t0.elapsed().as_secs_f64();
    assert_eq!(cols_back, cols);
    drop(cols_back);
    drop(bin);
    stages.push(stage("binary_read_cols", entries, cols_read_secs, rows_read_secs));

    // Stage 3: visibility scan — exact-only vs culled vs top-k vs the
    // batched SoA top-k, all nine cities over VIS_EPOCHS epochs.
    let grounds: Vec<Geodetic> =
        world.locations.iter().map(|l| Geodetic::from_degrees(l.lat_deg, l.lon_deg, 0.0)).collect();
    let scans = VIS_EPOCHS * grounds.len() as u64 * world.satellites.len() as u64;
    let mut snap = world.snapshot();
    let mut sink = 0usize;
    let t0 = Instant::now();
    for e in 0..VIS_EPOCHS {
        snap.advance_to(SimTime::from_secs(e * sim.epoch_secs));
        for g in &grounds {
            sink += visible_exact_only(&world, snap.positions(), *g, sim.min_elevation_deg);
        }
    }
    let exact_secs = t0.elapsed().as_secs_f64();
    stages.push(stage("visibility_exact", scans, exact_secs, exact_secs));
    let mut culled_sink = 0usize;
    let t0 = Instant::now();
    for e in 0..VIS_EPOCHS {
        snap.advance_to(SimTime::from_secs(e * sim.epoch_secs));
        for g in &grounds {
            culled_sink += visible_from_positions(
                &world.satellites,
                snap.positions(),
                *g,
                sim.min_elevation_deg,
            )
            .len();
        }
    }
    let culled_secs = t0.elapsed().as_secs_f64();
    assert_eq!(sink, culled_sink, "culling changed the visible set");
    stages.push(stage("visibility_culled", scans, culled_secs, exact_secs));
    let t0 = Instant::now();
    let mut topk_sink = 0usize;
    for e in 0..VIS_EPOCHS {
        snap.advance_to(SimTime::from_secs(e * sim.epoch_secs));
        for g in &grounds {
            topk_sink += visible_top_k_from_positions(
                &world.satellites,
                snap.positions(),
                *g,
                sim.min_elevation_deg,
                sim.top_k,
                |_| true,
            )
            .len();
        }
    }
    let topk_secs = t0.elapsed().as_secs_f64();
    assert!(topk_sink <= culled_sink);
    stages.push(stage("visibility_top_k", scans, topk_secs, exact_secs));
    let mut scratch = VisScratch::default();
    let mut visible: Vec<VisibleSatellite> = Vec::new();
    let mut batched_sink = 0usize;
    let t0 = Instant::now();
    for e in 0..VIS_EPOCHS {
        snap.advance_to(SimTime::from_secs(e * sim.epoch_secs));
        for g in &grounds {
            visible_top_k_into(
                &world.satellites,
                snap.positions_soa(),
                *g,
                sim.min_elevation_deg,
                sim.top_k,
                |_| true,
                &mut scratch,
                &mut visible,
            );
            batched_sink += visible.len();
        }
    }
    let batched_secs = t0.elapsed().as_secs_f64();
    assert_eq!(batched_sink, topk_sink, "batched top-k changed the selected set");
    stages.push(stage("visibility_batched_top_k", scans, batched_secs, exact_secs));

    // Stage 4: deterministic engine replay, row vs columnar.
    let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(9, cache));
    let t0 = Instant::now();
    let m = run_space(&mut cdn, &seq);
    let replay_secs = t0.elapsed().as_secs_f64();
    assert_eq!(m.stats.requests, seq.len() as u64);
    stages.push(stage("engine_replay", entries, replay_secs, replay_secs));
    let mut cdn_cols = SpaceCdn::new(StarCdnConfig::starcdn(9, cache));
    let t0 = Instant::now();
    let m_cols = run_space_columns(&mut cdn_cols, &cols);
    let cols_replay_secs = t0.elapsed().as_secs_f64();
    assert_eq!(m_cols.stats, m.stats, "columnar engine replay diverged");
    stages.push(stage("engine_replay_cols", entries, cols_replay_secs, replay_secs));

    // Stage 5: parallel sharded replayer, row vs columnar.
    let replay_cfg = StarCdnConfig::starcdn(9, cache);
    let mut replay_stage = |name: &str, log: LogView<'_>| {
        let t0 = Instant::now();
        let m =
            replayer::run(&replay_cfg, &world.failures, log, REPLAY_WORKERS, &RunSpec::default())
                .expect("no checkpoint, no I/O");
        let secs = t0.elapsed().as_secs_f64();
        assert_eq!(m.stats.requests, seq.len() as u64);
        stages.push(stage(&format!("{name}{REPLAY_WORKERS}"), entries, secs, replay_secs));
    };
    replay_stage("replayer_par", (&seq).into());
    replay_stage("replayer_cols_par", (&cols).into());

    let scale = format!("{:?}", a.scale);
    let hardware_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "scale={} seed={} trace_entries={} hardware_threads={}",
        scale, a.seed, entries, hardware_threads
    );
    let rows: Vec<Vec<String>> = stages
        .iter()
        .map(|s| {
            vec![
                s.stage.clone(),
                s.items.to_string(),
                format!("{:.3}", s.secs),
                format!("{:.0}", s.items_per_sec),
                format!("{:.2}x", s.speedup),
            ]
        })
        .collect();
    print_table(
        "Pipeline throughput: trace -> access log -> replay, row vs columnar. \
         Speedups are against each stage's baseline (sequential row build / row \
         binary decode / exact visibility scan / sequential row replay)",
        &["stage", "items", "secs", "items/s", "speedup"],
        &rows,
    );

    let json = report_json(&scale, a.seed, entries, hardware_threads, &stages);
    write_root_artifact("BENCH_pipeline.json", &json);
    if a.scale == Scale::Default {
        // The committed before/after record: seeded, default scale.
        write_results_artifact("bench_pipeline.json", &json);
    }

    if gate {
        let ips = |name: &str| {
            stages.iter().find(|s| s.stage == name).map(|s| s.items_per_sec).unwrap_or(0.0)
        };
        let row = ips("log_build_seq");
        let cols8 = ips("log_build_cols_par8");
        if cols8 < row {
            eprintln!(
                "columnar gate FAILED: log_build_cols_par8 {cols8:.0}/s < log_build_seq {row:.0}/s"
            );
            std::process::exit(1);
        }
        println!("columnar gate ok: {cols8:.0}/s >= {row:.0}/s ({:.2}x)", cols8 / row.max(1e-9));
    }
}
