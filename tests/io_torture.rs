//! Integration: storage-fault torture for the checkpoint stack
//! (DESIGN.md §15).
//!
//! Every test drives the checkpointed engine or replayer through a
//! seeded [`FaultyIo`] schedule — short writes, write errors, fsync
//! failures, failed and torn renames, ENOSPC, crash points, read
//! errors, bit flips — and enforces one invariant:
//!
//! > A faulted run either completes bit-for-bit identical to the
//! > golden uninterrupted run, or fails with a typed
//! > [`CheckpointError`]. Resuming afterwards on real I/O either
//! > reproduces the golden run exactly or reports
//! > [`CheckpointError::NoValidCheckpoint`]. Nothing ever panics, and
//! > nothing ever silently diverges.
//!
//! Each sweep runs `IO_TORTURE_SEEDS` seeds per scenario (32 by
//! default, 192 schedules across the six sweeps) and prints one tally
//! line. The full record, `results/io_torture.txt`, is those lines at
//! 256 seeds (1536 schedules):
//!
//! ```text
//! IO_TORTURE_SEEDS=256 cargo test --release --test io_torture -- --nocapture --test-threads=1
//! ```

mod common;

use common::ckpt_spec;
use spacegen::trace::{LocationId, Request, Trace};
use starcdn::config::StarCdnConfig;
use starcdn::system::SpaceCdn;
use starcdn_cache::object::ObjectId;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::FaultSchedule;
use starcdn_io::{FaultKind, FaultPlan, FaultyIo, Io, RealIo};
use starcdn_orbit::time::SimTime;
use starcdn_sim::engine::SimConfig;
use starcdn_sim::{
    build_access_log, engine, list_checkpoint_files, metrics_digest, replayer, sweep_stale_tmps,
    AccessLog, CheckpointError, CheckpointPolicy, OverloadConfig, World,
};
use starcdn_telemetry::MemoryRecorder;
use std::path::{Path, PathBuf};

const EPOCH_SECS: u64 = 15;

/// Seeds per scenario: `IO_TORTURE_SEEDS`, 32 when unset.
fn seeds() -> u64 {
    std::env::var("IO_TORTURE_SEEDS").ok().and_then(|s| s.parse().ok()).unwrap_or(32)
}

/// What one sweep did, printed as one line when it ends.
#[derive(Default)]
struct Tally {
    schedules: u64,
    faults: u64,
    crashes: u64,
    completed_identical: u64,
    typed_errors: u64,
    resumed: u64,
    rerun_fresh: u64,
}

impl Tally {
    /// Count one schedule and what its plan injected through `io`.
    fn faulted(&mut self, io: &FaultyIo) {
        let s = io.stats();
        self.schedules += 1;
        self.faults += s.faults;
        self.crashes += u64::from(s.crashed_at.is_some());
    }

    fn print(&self, sweep: &str) {
        println!(
            "io_torture {sweep}: {} schedules, {} faults injected, {} crash points, \
             {} completed identical, {} typed errors, {} resumed, {} rerun fresh",
            self.schedules,
            self.faults,
            self.crashes,
            self.completed_identical,
            self.typed_errors,
            self.resumed,
            self.rerun_fresh
        );
    }
}

fn log() -> AccessLog {
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

fn tmpdir(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("starcdn-torture-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn policy(dir: &Path, every: u64, keep: usize) -> CheckpointPolicy {
    CheckpointPolicy { every_n_epochs: every, dir: dir.to_path_buf(), keep_last: keep }
}

fn fresh_cdn() -> SpaceCdn {
    SpaceCdn::new(StarCdnConfig::starcdn(4, 2_000_000))
}

fn tmp_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .filter(|n| n.ends_with(".tmp"))
                .collect()
        })
        .unwrap_or_default()
}

/// The recovery half of every write-side sweep: after a faulted run
/// left `dir` in whatever state it left it, resume on real I/O must
/// either reproduce the golden digest or report `NoValidCheckpoint` —
/// in which case a fresh run must reproduce it. Either way the stale
/// tmp sweep on open leaves no `.tmp` files behind.
fn assert_recoverable(
    t: &mut Tally,
    dir: &Path,
    pol: &CheckpointPolicy,
    log: &AccessLog,
    golden: u64,
    tag: &str,
) {
    let sched = FaultSchedule::empty();
    let ov = OverloadConfig::disabled();
    match engine::run(
        &mut fresh_cdn(),
        log,
        &ckpt_spec(&sched, &ov, pol, &MemoryRecorder::new(), &RealIo, true),
    ) {
        Ok(m) => {
            assert_eq!(metrics_digest(&m), golden, "{tag}: resume diverged");
            t.resumed += 1;
        }
        Err(CheckpointError::NoValidCheckpoint) => {
            let m = engine::run(
                &mut fresh_cdn(),
                log,
                &ckpt_spec(&sched, &ov, pol, &MemoryRecorder::new(), &RealIo, false),
            )
            .unwrap();
            assert_eq!(metrics_digest(&m), golden, "{tag}: fresh rerun diverged");
            t.rerun_fresh += 1;
        }
        Err(e) => panic!("{tag}: unexpected resume error: {e}"),
    }
    assert!(tmp_files(dir).is_empty(), "{tag}: stale tmps survived the open sweep");
}

/// One engine leg: run under the given plan, demand typed-error-or-
/// bit-identical, then demand recoverability on real I/O.
fn engine_leg(t: &mut Tally, golden: u64, log: &AccessLog, plan: FaultPlan, dir: &Path, tag: &str) {
    let sched = FaultSchedule::empty();
    let ov = OverloadConfig::disabled();
    let pol = policy(dir, 3, 0);
    let io = FaultyIo::new(plan);
    match engine::run(
        &mut fresh_cdn(),
        log,
        &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &io, false),
    ) {
        Ok(m) => {
            assert_eq!(metrics_digest(&m), golden, "{tag}: faulted run silently diverged");
            t.completed_identical += 1;
        }
        Err(CheckpointError::Io(e)) => {
            // Ordinary failures clean their own tmp; only a crash point
            // (dead process) may strand one for the next open's sweep.
            if !e.is_crash() {
                assert!(tmp_files(dir).is_empty(), "{tag}: non-crash failure leaked a tmp");
            }
            t.typed_errors += 1;
        }
        Err(e) => panic!("{tag}: unexpected error type: {e}"),
    }
    t.faulted(&io);
    assert_recoverable(t, dir, &pol, log, golden, tag);
}

#[test]
fn engine_seeded_write_fault_sweep() {
    let log = log();
    let gold_dir = tmpdir("eng-gold");
    let golden = engine::run(
        &mut fresh_cdn(),
        &log,
        &ckpt_spec(
            &FaultSchedule::empty(),
            &OverloadConfig::disabled(),
            &policy(&gold_dir, 3, 0),
            &MemoryRecorder::new(),
            &RealIo,
            false,
        ),
    )
    .unwrap();
    let golden = metrics_digest(&golden);

    let mut t = Tally::default();
    for seed in 0..seeds() {
        let dir = tmpdir(&format!("eng-seeded-{seed}"));
        engine_leg(&mut t, golden, &log, FaultPlan::seeded(seed), &dir, &format!("seed {seed}"));
        let _ = std::fs::remove_dir_all(&dir);
    }
    t.print("engine-seeded");
    assert!(t.faults > 0, "the sweep must actually inject faults");
    let _ = std::fs::remove_dir_all(&gold_dir);
}

#[test]
fn engine_crash_point_sweep() {
    let log = log();
    let gold_dir = tmpdir("crash-gold");
    let golden = engine::run(
        &mut fresh_cdn(),
        &log,
        &ckpt_spec(
            &FaultSchedule::empty(),
            &OverloadConfig::disabled(),
            &policy(&gold_dir, 3, 0),
            &MemoryRecorder::new(),
            &RealIo,
            false,
        ),
    )
    .unwrap();
    let golden = metrics_digest(&golden);

    let mut t = Tally::default();
    for seed in 0..seeds() {
        let dir = tmpdir(&format!("eng-crash-{seed}"));
        let tag = format!("crash {seed}");
        engine_leg(&mut t, golden, &log, FaultPlan::crash_only(seed), &dir, &tag);
        let _ = std::fs::remove_dir_all(&dir);
    }
    t.print("engine-crash");
    assert!(t.crashes > 0, "the sweep must actually hit crash points");
    let _ = std::fs::remove_dir_all(&gold_dir);
}

#[test]
fn single_fault_with_keep2_always_leaves_a_restorable_checkpoint() {
    // The availability invariant: one file-damaging fault (no crash, no
    // ENOSPC) against `keep_last = 2` can damage at most one of the two
    // retained checkpoints, so as long as at least one rename completed
    // untouched, resume MUST succeed — fallback is allowed, failure is
    // not.
    let log = log();
    let sched = FaultSchedule::empty();
    let ov = OverloadConfig::disabled();
    let gold_dir = tmpdir("single-gold");
    let golden = engine::run(
        &mut fresh_cdn(),
        &log,
        &ckpt_spec(&sched, &ov, &policy(&gold_dir, 2, 2), &MemoryRecorder::new(), &RealIo, false),
    )
    .unwrap();
    let golden = metrics_digest(&golden);

    let mut t = Tally::default();
    for seed in 0..seeds() * 2 {
        let dir = tmpdir(&format!("single-{seed}"));
        let pol = policy(&dir, 2, 2);
        let io = FaultyIo::new(FaultPlan::single(seed));
        match engine::run(
            &mut fresh_cdn(),
            &log,
            &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &io, false),
        ) {
            Ok(m) => {
                assert_eq!(
                    metrics_digest(&m),
                    golden,
                    "seed {seed}: faulted run silently diverged"
                );
                t.completed_identical += 1;
            }
            Err(CheckpointError::Io(_)) => t.typed_errors += 1,
            Err(e) => panic!("seed {seed}: unexpected error type: {e}"),
        }
        t.faulted(&io);
        let stats = io.stats();
        assert!(stats.crashed_at.is_none(), "single plans never crash");
        if stats.clean_renames >= 1 {
            t.resumed += 1;
            let m = engine::run(
                &mut fresh_cdn(),
                &log,
                &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &RealIo, true),
            )
            .unwrap_or_else(|e| {
                panic!(
                    "seed {seed}: {} clean renames on disk but resume failed: {e}",
                    stats.clean_renames
                )
            });
            assert_eq!(metrics_digest(&m), golden, "seed {seed}: resume diverged");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    t.print("single-keep2");
    assert!(t.resumed > 0, "the sweep must exercise the restorable case");
    let _ = std::fs::remove_dir_all(&gold_dir);
}

#[test]
fn replayer_seeded_and_crash_sweeps() {
    let log = log();
    let sched = FaultSchedule::empty();
    let ov = OverloadConfig::disabled();
    let cfg = StarCdnConfig::starcdn_no_relay(4, 2_000_000);
    let workers = 4;

    let gold_dir = tmpdir("rep-gold");
    let golden = replayer::run(
        &cfg,
        &FailureModel::none(),
        &log,
        workers,
        &ckpt_spec(&sched, &ov, &policy(&gold_dir, 3, 0), &MemoryRecorder::new(), &RealIo, false),
    )
    .unwrap();
    let golden = metrics_digest(&golden);

    let replay = |pol: &CheckpointPolicy, io: &dyn Io, resume: bool| {
        let rec = MemoryRecorder::new();
        let spec = ckpt_spec(&sched, &ov, pol, &rec, io, resume);
        replayer::run(&cfg, &FailureModel::none(), &log, workers, &spec)
    };
    let mut tallies = [("replayer-seeded", Tally::default()), ("replayer-crash", Tally::default())];
    for seed in 0..seeds() / 2 {
        let plans = [FaultPlan::seeded(seed), FaultPlan::crash_only(seed)];
        for ((mode, t), plan) in tallies.iter_mut().zip(plans) {
            let dir = tmpdir(&format!("rep-{mode}-{seed}"));
            let pol = policy(&dir, 3, 0);
            let io = FaultyIo::new(plan);
            match replay(&pol, &io, false) {
                Ok(m) => {
                    let digest = metrics_digest(&m);
                    assert_eq!(digest, golden, "{mode} {seed}: faulted replay silently diverged");
                    t.completed_identical += 1;
                }
                Err(CheckpointError::Io(_)) => t.typed_errors += 1,
                Err(e) => panic!("{mode} {seed}: unexpected error type: {e}"),
            }
            t.faulted(&io);
            let resumed = match list_checkpoint_files(&dir).is_empty() {
                true => Err(CheckpointError::NoValidCheckpoint),
                false => replay(&pol, &RealIo, true),
            };
            let recovered = match resumed {
                Ok(m) => {
                    t.resumed += 1;
                    m
                }
                Err(CheckpointError::NoValidCheckpoint) => {
                    t.rerun_fresh += 1;
                    replay(&pol, &RealIo, false).unwrap()
                }
                Err(e) => panic!("{mode} {seed}: unexpected resume error: {e}"),
            };
            assert_eq!(metrics_digest(&recovered), golden, "{mode} {seed}: recovery diverged");
            assert!(tmp_files(&dir).is_empty(), "{mode} {seed}: stale tmps survived");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    for (mode, t) in &tallies {
        t.print(mode);
    }
    let _ = std::fs::remove_dir_all(&gold_dir);
}

#[test]
fn read_fault_resume_sweep() {
    // Torture the *resume* path over an intact checkpoint directory:
    // EIO and silent single-bit flips on every other read. The
    // container CRCs must turn every flip into a detected fallback —
    // an Ok resume is bit-identical, a failed one is typed.
    let log = log();
    let sched = FaultSchedule::empty();
    let ov = OverloadConfig::disabled();
    let dir = tmpdir("readf");
    let pol = policy(&dir, 2, 0);
    let golden = engine::run(
        &mut fresh_cdn(),
        &log,
        &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &RealIo, false),
    )
    .unwrap();
    let golden = metrics_digest(&golden);

    let (mut t, mut flips, mut eios) = (Tally::default(), 0u64, 0u64);
    for seed in 0..seeds() {
        let io = FaultyIo::new(FaultPlan::read_faults(seed));
        // Here the faulted run is the resume itself.
        match engine::run(
            &mut fresh_cdn(),
            &log,
            &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &io, true),
        ) {
            Ok(m) => {
                assert_eq!(metrics_digest(&m), golden, "seed {seed}: corrupted resume was silent");
                t.resumed += 1;
            }
            Err(CheckpointError::NoValidCheckpoint) => t.typed_errors += 1,
            Err(e) => panic!("seed {seed}: unexpected resume error: {e}"),
        }
        t.faulted(&io);
        let s = io.stats();
        flips += s.bit_flips;
        eios += s.read_errs;
    }
    t.print("read-resume");
    assert!(flips > 0, "the sweep must inject bit flips");
    assert!(eios > 0, "the sweep must inject read errors");
    assert!(t.resumed > 0, "some seeds must still resume through the noise");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adversarial_checkpoint_dirs_never_panic() {
    use std::ffi::OsString;
    use std::os::unix::ffi::OsStringExt;

    let log = log();
    let sched = FaultSchedule::empty();
    let ov = OverloadConfig::disabled();

    // A directory holding real checkpoints *and* every flavor of junk:
    // resume must thread past all of it to the newest valid file.
    let dir = tmpdir("adversarial");
    let pol = policy(&dir, 5, 0);
    let golden = engine::run(
        &mut fresh_cdn(),
        &log,
        &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &RealIo, false),
    )
    .unwrap();
    let golden = metrics_digest(&golden);

    // Newer-than-valid garbage, so every piece sits first in fallback
    // order: a checkpoint-named subdirectory, a zero-length file,
    // random bytes, and a non-UTF-8 filename.
    std::fs::create_dir(dir.join("ckpt-9999999998.ckpt")).unwrap();
    std::fs::write(dir.join("ckpt-9999999997.ckpt"), b"").unwrap();
    std::fs::write(dir.join("ckpt-9999999996.ckpt"), vec![0xA5u8; 1313]).unwrap();
    let mut weird = b"ckpt-".to_vec();
    weird.extend([0xFF, 0xFE, 0x80]);
    weird.extend(b".ckpt");
    std::fs::write(dir.join(OsString::from_vec(weird)), b"not utf-8").unwrap();

    let m = engine::run(
        &mut fresh_cdn(),
        &log,
        &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &RealIo, true),
    )
    .unwrap();
    assert_eq!(metrics_digest(&m), golden, "junk in the dir changed the resumed run");
    let _ = std::fs::remove_dir_all(&dir);

    // A directory holding ONLY junk: typed failure, no panic.
    let dir = tmpdir("adversarial-only-junk");
    let pol = policy(&dir, 5, 0);
    std::fs::create_dir(dir.join("ckpt-0000000005.ckpt")).unwrap();
    std::fs::write(dir.join("ckpt-0000000010.ckpt"), b"").unwrap();
    std::fs::write(dir.join("ckpt-0000000015.ckpt"), vec![0x5Au8; 777]).unwrap();
    let err = engine::run(
        &mut fresh_cdn(),
        &log,
        &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &RealIo, true),
    )
    .unwrap_err();
    assert!(matches!(err, CheckpointError::NoValidCheckpoint), "got {err:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_write_strands_a_tmp_and_the_next_open_sweeps_it() {
    let log = log();
    let sched = FaultSchedule::empty();
    let ov = OverloadConfig::disabled();
    let dir = tmpdir("tmp-lifecycle");
    let pol = policy(&dir, 1, 0);

    // Ops: 0 = open sweep's list_dir, 1 = create_dir_all, 2 = create
    // tmp, 3 = the checkpoint body write — die there, mid-write.
    let io = FaultyIo::new(FaultPlan { crash_at_op: Some(3), ..FaultPlan::none() });
    let err = engine::run(
        &mut fresh_cdn(),
        &log,
        &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &io, false),
    )
    .unwrap_err();
    match err {
        CheckpointError::Io(e) => assert!(e.is_crash(), "expected a crash point, got {e}"),
        e => panic!("unexpected error type: {e}"),
    }
    let stranded = tmp_files(&dir);
    assert_eq!(stranded.len(), 1, "a crash mid-write must strand its tmp: {stranded:?}");

    // The sweep collects it…
    assert_eq!(sweep_stale_tmps(&dir), 1);
    assert!(tmp_files(&dir).is_empty());

    // …and a later crash's dropping is cleaned implicitly by the next
    // run's own open sweep.
    let io = FaultyIo::new(FaultPlan { crash_at_op: Some(3), ..FaultPlan::none() });
    let _ = engine::run(
        &mut fresh_cdn(),
        &log,
        &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &io, false),
    );
    assert_eq!(tmp_files(&dir).len(), 1);
    engine::run(
        &mut fresh_cdn(),
        &log,
        &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &RealIo, false),
    )
    .unwrap();
    assert!(tmp_files(&dir).is_empty(), "the open sweep must collect stale tmps");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_crash_checkpoint_failure_cleans_its_own_tmp() {
    let log = log();
    let sched = FaultSchedule::empty();
    let ov = OverloadConfig::disabled();
    let dir = tmpdir("tmp-clean");
    let pol = policy(&dir, 1, 0);

    // Every fsync fails: the first checkpoint write errors out, and
    // write_atomic must have removed its tmp on the way down.
    let io = FaultyIo::new(FaultPlan {
        seed: 0,
        kinds: vec![FaultKind::SyncFail],
        denom: 1,
        max_faults: None,
        enospc_budget: None,
        crash_at_op: None,
    });
    let err = engine::run(
        &mut fresh_cdn(),
        &log,
        &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &io, false),
    )
    .unwrap_err();
    assert!(matches!(err, CheckpointError::Io(_)), "got {err:?}");
    assert!(io.stats().sync_fails >= 1);
    assert!(tmp_files(&dir).is_empty(), "failed write must not leak its tmp");
    assert!(list_checkpoint_files(&dir).is_empty(), "nothing durable was ever renamed in");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_crash_while_cleaning_up_a_failed_write_is_the_error() {
    let log = log();
    let sched = FaultSchedule::empty();
    let ov = OverloadConfig::disabled();
    let dir = tmpdir("tmp-cleanup-crash");
    let pol = policy(&dir, 1, 0);

    // Ops: 0 = open sweep's list_dir, 1 = create_dir_all, 2 = create
    // tmp, 3 = the body write fails, 4 = removing the tmp — die there.
    // The process is dead, so the tmp stays and the crash is reported
    // (seed 187 of the seeded sweep reported the write error instead).
    let io = FaultyIo::new(FaultPlan {
        seed: 0,
        kinds: vec![FaultKind::WriteErr],
        denom: 1,
        max_faults: Some(1),
        enospc_budget: None,
        crash_at_op: Some(4),
    });
    let err = engine::run(
        &mut fresh_cdn(),
        &log,
        &ckpt_spec(&sched, &ov, &pol, &MemoryRecorder::new(), &io, false),
    )
    .unwrap_err();
    match err {
        CheckpointError::Io(e) => assert!(e.is_crash(), "expected the cleanup's crash, got {e}"),
        e => panic!("unexpected error type: {e}"),
    }
    assert_eq!(io.stats().write_errs, 1);
    assert_eq!(tmp_files(&dir).len(), 1, "a dead process cleans nothing up");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_io_under_read_faults_is_typed_or_exact() {
    // The 39-byte access-log codec through the same seam: reads under
    // EIO/bit-flip plans must return Ok (possibly corrupt data — the
    // trace format carries no CRC by design) or a typed error; never
    // panic. Truncations must come back as typed corruption.
    let log = log();
    let dir = tmpdir("trace-io");
    let path = dir.join("log.bin");
    let mut bytes = Vec::new();
    log.write_binary(&mut bytes).unwrap();
    std::fs::write(&path, bytes).unwrap();
    let back = AccessLog::read_binary_path_io(&path, &starcdn_io::RealIo).unwrap();
    assert_eq!(back.entries.len(), log.entries.len());

    for seed in 0..seeds() {
        let io = FaultyIo::new(FaultPlan::read_faults(seed));
        match AccessLog::read_binary_path_io(&path, &io) {
            Ok(_) | Err(_) => {} // typed either way; the point is no panic
        }
    }

    // A torn tail is corruption, not a panic and not a silent drop.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
    let err = AccessLog::read_binary_path_io(&path, &starcdn_io::RealIo).unwrap_err();
    assert!(err.to_string().contains("truncated"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}
