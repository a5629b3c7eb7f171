//! Storage-fault torture sweep (DESIGN.md §15).
//!
//! Runs the checkpointed engine and the segmented parallel replayer
//! under thousands of seeded [`FaultyIo`] schedules — the write-side
//! mix (short writes, write errors, fsync failures, failed and torn
//! renames, ENOSPC), pure crash points, single-fault availability
//! plans, and read-side EIO/bit-flip plans — and enforces the torture
//! invariant over every one:
//!
//! * a faulted run either completes **bit-for-bit identical** to the
//!   golden uninterrupted run or fails with a **typed**
//!   [`CheckpointError`] — never a panic, never silent divergence;
//! * recovery on real I/O afterwards reproduces the golden digest
//!   (resuming, or rerunning when no checkpoint survived);
//! * with `keep_last = 2`, any single file-damaging fault leaves a
//!   restorable checkpoint whenever at least one rename completed.
//!
//! Flags: `--seeds N` scales the sweep (default 1280 schedules),
//! `--scale smoke` runs a 10× smaller CI-sized sweep; a malformed value
//! exits 2. Writes `BENCH_torture.json` and exits non-zero on any
//! violation.

use spacegen::trace::{LocationId, Request, Trace};
use starcdn::config::StarCdnConfig;
use starcdn::system::SpaceCdn;
use starcdn_bench::table::print_table;
use starcdn_bench::{Flags, Scale};
use starcdn_cache::object::ObjectId;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::FaultSchedule;
use starcdn_io::{FaultPlan, FaultyIo, Io, RealIo};
use starcdn_orbit::time::SimTime;
use starcdn_sim::engine::SimConfig;
use starcdn_sim::{
    build_access_log, engine, list_checkpoint_files, metrics_digest, replayer, AccessLog,
    CheckpointError, CheckpointPolicy, Checkpointing, OverloadConfig, RunSpec, World,
};
use starcdn_telemetry::{MemoryRecorder, Recorder};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

const EPOCH_SECS: u64 = 15;
const WORKERS: usize = 4;

fn workload() -> AccessLog {
    let w = World::starlink_nine_cities();
    let reqs: Vec<Request> = (0..2400u64)
        .map(|k| Request {
            time: SimTime::from_secs(k / 4),
            object: ObjectId((k * 7) % 64),
            size: 1000 + (k % 5) * 300,
            location: LocationId((k % 9) as u16),
        })
        .collect();
    build_access_log(&w, &Trace::new(reqs), EPOCH_SECS, &SimConfig::default().scheduler())
}

fn cdn() -> SpaceCdn {
    SpaceCdn::new(StarCdnConfig::starcdn(4, 2_000_000))
}

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("starcdn-torture-bin-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// The [`RunSpec`] of a checkpointed (or, with `resume`, resumed) run.
fn ckpt_spec<'a>(
    schedule: &'a FaultSchedule,
    overload: &OverloadConfig,
    policy: &'a CheckpointPolicy,
    rec: &'a dyn Recorder,
    io: &'a dyn Io,
    resume: bool,
) -> RunSpec<'a> {
    RunSpec {
        schedule,
        overload: *overload,
        recorder: rec,
        checkpoint: Some(Checkpointing { policy, io, resume }),
    }
}

fn policy(dir: &Path, every: u64, keep: usize) -> CheckpointPolicy {
    CheckpointPolicy { every_n_epochs: every, dir: dir.to_path_buf(), keep_last: keep }
}

/// Per-leg tallies; `violations` carries human-readable invariant
/// breaches (digest mismatches, wrong error types, missed restores).
#[derive(Default)]
struct Tally {
    schedules: u64,
    completed_identical: u64,
    typed_errors: u64,
    resumed_identical: u64,
    reran_fresh: u64,
    faults_injected: u64,
    crashes: u64,
    panics: u64,
    violations: Vec<String>,
}

impl Tally {
    fn run(&mut self, tag: String, f: impl FnOnce(&mut Tally) -> Result<(), String>) {
        self.schedules += 1;
        let mut scratch = Tally::default();
        match catch_unwind(AssertUnwindSafe(|| f(&mut scratch))) {
            Ok(Ok(())) => {}
            Ok(Err(v)) => self.violations.push(format!("{tag}: {v}")),
            Err(_) => {
                self.panics += 1;
                self.violations.push(format!("{tag}: PANIC"));
            }
        }
        self.completed_identical += scratch.completed_identical;
        self.typed_errors += scratch.typed_errors;
        self.resumed_identical += scratch.resumed_identical;
        self.reran_fresh += scratch.reran_fresh;
        self.faults_injected += scratch.faults_injected;
        self.crashes += scratch.crashes;
    }
}

/// Recovery on real I/O: resume must reproduce `golden`, or report
/// `NoValidCheckpoint` — in which case a fresh run must reproduce it.
fn recover_engine(
    t: &mut Tally,
    log: &AccessLog,
    pol: &CheckpointPolicy,
    golden: u64,
) -> Result<(), String> {
    let sched = FaultSchedule::empty();
    let ov = OverloadConfig::disabled();
    match engine::run(
        &mut cdn(),
        log,
        &ckpt_spec(&sched, &ov, pol, &MemoryRecorder::new(), &RealIo, true),
    ) {
        Ok(m) if metrics_digest(&m) == golden => {
            t.resumed_identical += 1;
            Ok(())
        }
        Ok(_) => Err("resume silently diverged".into()),
        Err(CheckpointError::NoValidCheckpoint) => {
            let m = engine::run(
                &mut cdn(),
                log,
                &ckpt_spec(&sched, &ov, pol, &MemoryRecorder::new(), &RealIo, false),
            )
            .map_err(|e| format!("fresh rerun failed: {e}"))?;
            if metrics_digest(&m) != golden {
                return Err("fresh rerun diverged".into());
            }
            t.reran_fresh += 1;
            Ok(())
        }
        Err(e) => Err(format!("unexpected resume error: {e}")),
    }
}

fn engine_schedule(
    t: &mut Tally,
    log: &AccessLog,
    golden: u64,
    plan: FaultPlan,
    dir: &Path,
) -> Result<(), String> {
    let sched = FaultSchedule::empty();
    let ov = OverloadConfig::disabled();
    let pol = policy(dir, 3, 0);
    let io = FaultyIo::new(plan);
    match engine::run(
        &mut cdn(),
        log,
        &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &io, false),
    ) {
        Ok(m) => {
            if metrics_digest(&m) != golden {
                return Err("faulted run silently diverged".into());
            }
            t.completed_identical += 1;
        }
        Err(CheckpointError::Io(_)) => t.typed_errors += 1,
        Err(e) => return Err(format!("unexpected error type: {e}")),
    }
    let s = io.stats();
    t.faults_injected += s.faults;
    t.crashes += u64::from(s.crashed());
    recover_engine(t, log, &pol, golden)
}

fn single_fault_schedule(
    t: &mut Tally,
    log: &AccessLog,
    golden: u64,
    seed: u64,
    dir: &Path,
) -> Result<(), String> {
    let sched = FaultSchedule::empty();
    let ov = OverloadConfig::disabled();
    let pol = policy(dir, 2, 2);
    let io = FaultyIo::new(FaultPlan::single(seed));
    match engine::run(
        &mut cdn(),
        log,
        &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &io, false),
    ) {
        Ok(m) => {
            if metrics_digest(&m) != golden {
                return Err("faulted run silently diverged".into());
            }
            t.completed_identical += 1;
        }
        Err(CheckpointError::Io(_)) => t.typed_errors += 1,
        Err(e) => return Err(format!("unexpected error type: {e}")),
    }
    let s = io.stats();
    t.faults_injected += s.faults;
    if s.clean_renames >= 1 {
        // The availability invariant: resume MUST succeed here.
        let m = engine::run(
            &mut cdn(),
            log,
            &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &RealIo, true),
        )
        .map_err(|e| format!("{} clean renames on disk but resume failed: {e}", s.clean_renames))?;
        if metrics_digest(&m) != golden {
            return Err("resume after single fault diverged".into());
        }
        t.resumed_identical += 1;
    }
    Ok(())
}

fn replayer_schedule(
    t: &mut Tally,
    log: &AccessLog,
    golden: u64,
    plan: FaultPlan,
    dir: &Path,
) -> Result<(), String> {
    let sched = FaultSchedule::empty();
    let ov = OverloadConfig::disabled();
    let cfg = StarCdnConfig::starcdn_no_relay(4, 2_000_000);
    let pol = policy(dir, 3, 0);
    let io = FaultyIo::new(plan);
    match replayer::run(
        &cfg,
        &FailureModel::none(),
        log,
        WORKERS,
        &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &io, false),
    ) {
        Ok(m) => {
            if metrics_digest(&m) != golden {
                return Err("faulted replay silently diverged".into());
            }
            t.completed_identical += 1;
        }
        Err(CheckpointError::Io(_)) => t.typed_errors += 1,
        Err(e) => return Err(format!("unexpected error type: {e}")),
    }
    let s = io.stats();
    t.faults_injected += s.faults;
    t.crashes += u64::from(s.crashed());

    let rerun = |t: &mut Tally| -> Result<(), String> {
        let m = replayer::run(
            &cfg,
            &FailureModel::none(),
            log,
            WORKERS,
            &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &RealIo, false),
        )
        .map_err(|e| format!("fresh replay failed: {e}"))?;
        if metrics_digest(&m) != golden {
            return Err("fresh replay diverged".into());
        }
        t.reran_fresh += 1;
        Ok(())
    };
    if list_checkpoint_files(&pol.dir).is_empty() {
        return rerun(t);
    }
    match replayer::run(
        &cfg,
        &FailureModel::none(),
        log,
        WORKERS,
        &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &RealIo, true),
    ) {
        Ok(m) if metrics_digest(&m) == golden => {
            t.resumed_identical += 1;
            Ok(())
        }
        Ok(_) => Err("replay resume silently diverged".into()),
        Err(CheckpointError::NoValidCheckpoint) => rerun(t),
        Err(e) => Err(format!("unexpected resume error: {e}")),
    }
}

fn read_fault_schedule(
    t: &mut Tally,
    log: &AccessLog,
    golden: u64,
    seed: u64,
    pol: &CheckpointPolicy,
) -> Result<(), String> {
    let sched = FaultSchedule::empty();
    let ov = OverloadConfig::disabled();
    let io = FaultyIo::new(FaultPlan::read_faults(seed));
    match engine::run(
        &mut cdn(),
        log,
        &ckpt_spec(&sched, &ov, pol, &MemoryRecorder::new(), &io, true),
    ) {
        Ok(m) => {
            if metrics_digest(&m) != golden {
                return Err("corrupted resume was silent".into());
            }
            t.resumed_identical += 1;
        }
        Err(CheckpointError::NoValidCheckpoint) => t.typed_errors += 1,
        Err(e) => return Err(format!("unexpected resume error: {e}")),
    }
    let s = io.stats();
    t.faults_injected += s.read_errs + s.bit_flips;
    Ok(())
}

fn main() {
    starcdn_bench::interrupt::install();
    let flags = Flags::from_env(&["--seeds", "--scale"]);
    let mut total: u64 = flags.get("--seeds").unwrap_or(1280);
    if flags.get("--scale") == Some(Scale::Smoke) {
        total /= 10;
    }
    // Leg budgets: engine legs carry most of the sweep; the replayer
    // legs are ~20× costlier per schedule, so they get a smaller share.
    let n_eng_seeded = total * 30 / 128;
    let n_eng_crash = total * 20 / 128;
    let n_single = total * 30 / 128;
    let n_read = total * 30 / 128;
    let n_rep_seeded = total * 10 / 128;
    let n_rep_crash = total - n_eng_seeded - n_eng_crash - n_single - n_read - n_rep_seeded;

    let log = workload();
    let sched = FaultSchedule::empty();
    let ov = OverloadConfig::disabled();

    // Golden digests, one per policy shape.
    let gold = |every, keep| {
        let dir = tmpdir(&format!("gold-{every}-{keep}"));
        let m = engine::run(
            &mut cdn(),
            &log,
            &ckpt_spec(
                &sched,
                &ov,
                &policy(&dir, every, keep),
                &MemoryRecorder::new(),
                &RealIo,
                false,
            ),
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        metrics_digest(&m)
    };
    let eng_gold = gold(3, 0);
    let single_gold = gold(2, 2);
    let rep_gold = {
        let dir = tmpdir("gold-rep");
        let m = replayer::run(
            &StarCdnConfig::starcdn_no_relay(4, 2_000_000),
            &FailureModel::none(),
            &log,
            WORKERS,
            &ckpt_spec(&sched, &ov, &policy(&dir, 3, 0), &MemoryRecorder::new(), &RealIo, false),
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        metrics_digest(&m)
    };
    // An intact checkpoint directory for the read-fault leg to chew on.
    let read_dir = tmpdir("read-gold");
    let read_pol = policy(&read_dir, 2, 0);
    engine::run(
        &mut cdn(),
        &log,
        &ckpt_spec(&sched, &ov, &read_pol, &MemoryRecorder::new(), &RealIo, false),
    )
    .unwrap();

    let t0 = std::time::Instant::now();
    let mut legs: Vec<(&str, Tally)> = Vec::new();

    let mut t = Tally::default();
    for seed in 0..n_eng_seeded {
        if starcdn_bench::interrupt::interrupted() {
            break;
        }
        let dir = tmpdir("eng-seeded");
        t.run(format!("engine-seeded {seed}"), |t| {
            engine_schedule(t, &log, eng_gold, FaultPlan::seeded(seed), &dir)
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    legs.push(("engine-seeded", t));

    let mut t = Tally::default();
    for seed in 0..n_eng_crash {
        if starcdn_bench::interrupt::interrupted() {
            break;
        }
        let dir = tmpdir("eng-crash");
        t.run(format!("engine-crash {seed}"), |t| {
            engine_schedule(t, &log, eng_gold, FaultPlan::crash_only(seed), &dir)
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    legs.push(("engine-crash", t));

    let mut t = Tally::default();
    for seed in 0..n_single {
        if starcdn_bench::interrupt::interrupted() {
            break;
        }
        let dir = tmpdir("single");
        t.run(format!("single-keep2 {seed}"), |t| {
            single_fault_schedule(t, &log, single_gold, seed, &dir)
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    legs.push(("single-keep2", t));

    let mut t = Tally::default();
    for seed in 0..n_read {
        if starcdn_bench::interrupt::interrupted() {
            break;
        }
        t.run(format!("read-resume {seed}"), |t| {
            read_fault_schedule(t, &log, eng_gold, seed, &read_pol)
        });
    }
    legs.push(("read-resume", t));

    let mut t = Tally::default();
    for seed in 0..n_rep_seeded {
        if starcdn_bench::interrupt::interrupted() {
            break;
        }
        let dir = tmpdir("rep-seeded");
        t.run(format!("replayer-seeded {seed}"), |t| {
            replayer_schedule(t, &log, rep_gold, FaultPlan::seeded(seed), &dir)
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    legs.push(("replayer-seeded", t));

    let mut t = Tally::default();
    for seed in 0..n_rep_crash {
        if starcdn_bench::interrupt::interrupted() {
            break;
        }
        let dir = tmpdir("rep-crash");
        t.run(format!("replayer-crash {seed}"), |t| {
            replayer_schedule(t, &log, rep_gold, FaultPlan::crash_only(seed), &dir)
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    legs.push(("replayer-crash", t));
    let _ = std::fs::remove_dir_all(&read_dir);
    let elapsed = t0.elapsed().as_secs_f64();

    let rows: Vec<Vec<String>> = legs
        .iter()
        .map(|(name, t)| {
            vec![
                name.to_string(),
                t.schedules.to_string(),
                t.completed_identical.to_string(),
                t.typed_errors.to_string(),
                t.resumed_identical.to_string(),
                t.reran_fresh.to_string(),
                t.faults_injected.to_string(),
                t.crashes.to_string(),
                t.panics.to_string(),
                t.violations.len().to_string(),
            ]
        })
        .collect();
    let schedules: u64 = legs.iter().map(|(_, t)| t.schedules).sum();
    print_table(
        &format!("Storage-fault torture sweep ({schedules} schedules, {elapsed:.1}s)"),
        &[
            "leg", "scheds", "ok=gold", "typed", "resumed", "reran", "faults", "crashes", "panics",
            "viols",
        ],
        &rows,
    );

    let json_legs: Vec<String> = legs
        .iter()
        .map(|(name, t)| {
            format!(
                "    {{\"leg\": \"{name}\", \"schedules\": {}, \"completed_identical\": {}, \
                 \"typed_errors\": {}, \"resumed_identical\": {}, \"reran_fresh\": {}, \
                 \"faults_injected\": {}, \"crashes\": {}, \"panics\": {}, \"violations\": {}}}",
                t.schedules,
                t.completed_identical,
                t.typed_errors,
                t.resumed_identical,
                t.reran_fresh,
                t.faults_injected,
                t.crashes,
                t.panics,
                t.violations.len()
            )
        })
        .collect();
    let panics: u64 = legs.iter().map(|(_, t)| t.panics).sum();
    let violations: usize = legs.iter().map(|(_, t)| t.violations.len()).sum();
    let interrupted = starcdn_bench::interrupt::interrupted();
    let json = format!(
        "{{\n  \"schedules\": {schedules},\n  \"panics\": {panics},\n  \
         \"violations\": {violations},\n  \"interrupted\": {interrupted},\n  \
         \"elapsed_secs\": {elapsed:.3},\n  \"legs\": [\n{}\n  ]\n}}\n",
        json_legs.join(",\n")
    );
    starcdn_bench::output::write_root_artifact("BENCH_torture.json", &json);

    for (_, t) in &legs {
        for v in &t.violations {
            eprintln!("VIOLATION: {v}");
        }
    }
    if interrupted && panics == 0 && violations == 0 {
        eprintln!("interrupted after {schedules} schedules; partial artifact flushed");
        std::process::exit(starcdn_bench::interrupt::EXIT_INTERRUPTED);
    }
    if panics > 0 || violations > 0 {
        eprintln!(
            "FAIL: {panics} panic(s), {violations} violation(s) across {schedules} schedules"
        );
        std::process::exit(1);
    }
    println!("OK: {schedules} schedules, zero panics, zero silent divergence");
}
