//! Checkpoint overhead benchmark.
//!
//! Measures the cost of crash-consistent checkpointing (DESIGN.md §11)
//! against the uninterrupted engine run: wall-clock overhead, bytes per
//! checkpoint, and restore latency as a function of the checkpoint
//! interval. Writes `BENCH_checkpoint.json`. `--gate F` then fails the
//! run if the relative overhead is out of family with the committed
//! record `F`.
//!
//! That a killed run resumes bit for bit — past a torn newest file and
//! a stranded `.tmp` — is `tests/crash_recovery.rs`
//! (`torn_checkpoint_is_skipped_and_resume_still_exact`). An unknown
//! flag or a missing value exits 2 before anything is written.

use spacegen::trace::{LocationId, Request, Trace};
use starcdn::config::StarCdnConfig;
use starcdn::metrics::SystemMetrics;
use starcdn::system::SpaceCdn;
use starcdn_bench::table::print_table;
use starcdn_bench::Flags;
use starcdn_cache::object::ObjectId;
use starcdn_constellation::schedule::{FaultEvent, FaultSchedule, TimedFault};
use starcdn_io::RealIo;
use starcdn_orbit::time::SimTime;
use starcdn_orbit::walker::SatelliteId;
use starcdn_sim::engine::SimConfig;
use starcdn_sim::{
    build_access_log, engine, list_checkpoint_files, AccessLog, CheckpointPolicy, Checkpointing,
    OverloadConfig, RunSpec, World,
};
use starcdn_telemetry::{MemoryRecorder, Recorder};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Scheduler epochs the harness workload covers.
const EPOCHS: u64 = 200;
const EPOCH_SECS: u64 = 15;
const REQS_PER_SEC: u64 = 4;

fn workload() -> (AccessLog, FaultSchedule, OverloadConfig) {
    let w = World::starlink_nine_cities();
    let total = EPOCHS * EPOCH_SECS * REQS_PER_SEC;
    let reqs: Vec<Request> = (0..total)
        .map(|k| Request {
            time: SimTime::from_secs(k / REQS_PER_SEC),
            object: ObjectId((k * 2654435761) % 500),
            size: 1000 + (k % 7) * 250,
            location: LocationId((k % 9) as u16),
        })
        .collect();
    let log =
        build_access_log(&w, &Trace::new(reqs), EPOCH_SECS, &SimConfig::default().scheduler());
    let schedule = FaultSchedule::from_events([
        TimedFault { at_secs: 600, event: FaultEvent::SatDown(SatelliteId::new(3, 7)) },
        TimedFault { at_secs: 900, event: FaultEvent::SatDown(SatelliteId::new(10, 2)) },
        TimedFault { at_secs: 1500, event: FaultEvent::SatUp(SatelliteId::new(3, 7)) },
        TimedFault { at_secs: 2100, event: FaultEvent::SatUp(SatelliteId::new(10, 2)) },
    ]);
    (log, schedule, OverloadConfig::with_headroom(0.4))
}

fn cdn() -> SpaceCdn {
    SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000))
}

/// A fresh fleet through the engine under the harness workload's
/// schedule and overload; `checkpoint` is `(policy, resume)`.
fn run_engine(
    log: &AccessLog,
    sched: &FaultSchedule,
    overload: &OverloadConfig,
    rec: &dyn Recorder,
    checkpoint: Option<(&CheckpointPolicy, bool)>,
) -> Result<SystemMetrics, starcdn_sim::CheckpointError> {
    let spec = RunSpec {
        schedule: sched,
        overload: *overload,
        recorder: rec,
        checkpoint: checkpoint.map(|(policy, resume)| Checkpointing {
            policy,
            io: &RealIo,
            resume,
        }),
    };
    engine::run(&mut cdn(), log, &spec)
}

/// Assert the current run's relative overhead is in family with the
/// committed pre-shim baseline: the `Io` seam must not make
/// checkpointing measurably slower. The committed numbers come from a
/// short run on a different machine and fsync timing swings ~3× between
/// runs even on one host, so the gate compares the *relative* overhead
/// percentage with a generous margin (3× + 500 points) — wide enough
/// for scheduler noise, far below the order-of-magnitude blowup a real
/// regression (per-byte sync, rewriting the file per section) would
/// produce. Fine-grained evidence that `RealIo` is free comes from the
/// seam's shape instead: one dynamic dispatch per I/O *operation*
/// (nanoseconds) against operations that each cost an fsync
/// (milliseconds).
fn gate_against(baseline_path: &Path, current: &[(u64, f64)]) {
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("read baseline {}: {e}", baseline_path.display()));
    // The baseline is this binary's own hand-written JSON; pull the two
    // fields per interval object with a scan (the offline build carries
    // no JSON parser).
    let field = |obj: &str, key: &str| -> Option<f64> {
        let rest = &obj[obj.find(&format!("\"{key}\":"))? + key.len() + 3..];
        rest.trim_start().split([',', '}']).next()?.trim().parse().ok()
    };
    let baseline: Vec<(u64, f64)> = text
        .split('{')
        .filter(|obj| obj.contains("\"every_n_epochs\""))
        .filter_map(|obj| Some((field(obj, "every_n_epochs")? as u64, field(obj, "overhead_pct")?)))
        .collect();
    assert!(!baseline.is_empty(), "no intervals found in {}", baseline_path.display());
    let mut ok = true;
    for (every_n, overhead_pct) in current {
        let Some(&(_, base_pct)) = baseline.iter().find(|(n, _)| n == every_n) else {
            continue;
        };
        let limit = base_pct * 3.0 + 500.0;
        let verdict = if *overhead_pct <= limit { "ok" } else { "FAIL" };
        println!(
            "gate every_n={every_n}: overhead {overhead_pct:+.1}% vs baseline {base_pct:+.1}% \
             (limit {limit:+.1}%) {verdict}"
        );
        ok &= *overhead_pct <= limit;
    }
    if !ok {
        eprintln!("FAIL: checkpoint overhead regressed past the committed pre-shim baseline");
        std::process::exit(1);
    }
}

fn run_overhead(gate: Option<PathBuf>) {
    let (log, sched, overload) = workload();

    // Baseline: the non-checkpointed engine.
    let t0 = Instant::now();
    let rec = MemoryRecorder::new();
    let base = run_engine(&log, &sched, &overload, &rec, None).expect("no checkpoint, no I/O");
    let base_secs = t0.elapsed().as_secs_f64();

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut overheads = Vec::new();
    for every_n in [1u64, 5, 20] {
        let dir = std::env::temp_dir()
            .join(format!("starcdn-ckpt-bench-{}-{every_n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policy = CheckpointPolicy { every_n_epochs: every_n, dir: dir.clone(), keep_last: 0 };

        let t0 = Instant::now();
        let m = run_engine(&log, &sched, &overload, &MemoryRecorder::new(), Some((&policy, false)))
            .expect("checkpointed run");
        let ckpt_secs = t0.elapsed().as_secs_f64();
        assert_eq!(m.stats.requests, base.stats.requests, "checkpointed run diverged");

        let files = list_checkpoint_files(&dir);
        let total_bytes: u64 =
            files.iter().map(|(_, p)| std::fs::metadata(p).map_or(0, |md| md.len())).sum();
        let avg_bytes = if files.is_empty() { 0 } else { total_bytes / files.len() as u64 };

        // Restore latency: resume from the newest checkpoint (replays
        // only the tail of the log).
        let t0 = Instant::now();
        run_engine(&log, &sched, &overload, &MemoryRecorder::new(), Some((&policy, true)))
            .expect("resume");
        let resume_secs = t0.elapsed().as_secs_f64();

        let overhead_pct = (ckpt_secs / base_secs.max(1e-9) - 1.0) * 100.0;
        overheads.push((every_n, overhead_pct));
        rows.push(vec![
            every_n.to_string(),
            files.len().to_string(),
            format!("{:.3}", ckpt_secs),
            format!("{:+.1}%", overhead_pct),
            avg_bytes.to_string(),
            format!("{:.3}", resume_secs),
        ]);
        json_rows.push(format!(
            "    {{\"every_n_epochs\": {every_n}, \"checkpoints\": {}, \"run_secs\": {ckpt_secs:.6}, \
             \"overhead_pct\": {overhead_pct:.3}, \"avg_checkpoint_bytes\": {avg_bytes}, \
             \"total_checkpoint_bytes\": {total_bytes}, \"resume_secs\": {resume_secs:.6}}}",
            files.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    print_table(
        &format!(
            "Checkpoint overhead vs interval ({EPOCHS} epochs, {} requests, churn+overload; \
             baseline uninterrupted run {base_secs:.3}s)",
            log.entries.len()
        ),
        &["every_n", "ckpts", "run_s", "overhead", "avg_bytes", "resume_s"],
        &rows,
    );

    let json = format!(
        "{{\n  \"epochs\": {EPOCHS},\n  \"requests\": {},\n  \"baseline_secs\": {base_secs:.6},\n  \
         \"intervals\": [\n{}\n  ]\n}}\n",
        log.entries.len(),
        json_rows.join(",\n")
    );
    starcdn_bench::output::write_root_artifact("BENCH_checkpoint.json", &json);

    if let Some(baseline) = gate {
        gate_against(&baseline, &overheads);
    }
}

fn main() {
    let flags = Flags::from_env(&["--gate"]);
    run_overhead(flags.get("--gate"));
}
