//! The `spacegen` binary end to end: synthesize → extract → generate →
//! validate on a small trace, and the error paths a well-formed but
//! unusual trace file takes (never a panic).

use spacegen::io::ModelBundle;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn spacegen(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spacegen")).args(args).output().expect("spawn spacegen")
}

/// A fresh scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spacegen-cli-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(dir: &Path, file: &str) -> String {
    dir.join(file).to_str().unwrap().to_owned()
}

fn assert_ok(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{what} failed ({}): {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{what}: {stderr}");
}

fn assert_clean_error(out: &Output, what: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "{what} must fail");
    assert!(!stderr.contains("panicked"), "{what} panicked: {stderr}");
    assert!(stderr.contains("spacegen:"), "{what}: no error message: {stderr}");
}

#[test]
fn synthesize_extract_generate_validate() {
    let dir = scratch("pipeline");
    let (prod, models, synth) =
        (path(&dir, "prod.csv"), path(&dir, "models.json"), path(&dir, "synth.csv"));

    let out = spacegen(&["synthesize", "--hours", "1", "--scale", "0.01", "--out", &prod]);
    assert_ok(&out, "synthesize");

    // The location count comes from the trace: the nine cities.
    assert_ok(&spacegen(&["extract", "--trace", &prod, "--out", &models]), "extract");
    let bundle = ModelBundle::read_json(File::open(&models).unwrap()).unwrap();
    assert_eq!(bundle.pfds.len(), 9);
    assert_eq!(bundle.gpd.num_locations, 9);

    let out = spacegen(&["generate", "--models", &models, "--requests", "2000", "--out", &synth]);
    assert_ok(&out, "generate");

    let out = spacegen(&["validate", "--production", &prod, "--synthetic", &synth]);
    assert_ok(&out, "validate");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("spread KS"), "{stdout}");
    assert!(stdout.contains("LRU @"), "{stdout}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn locations_missing_from_a_sparse_trace_are_modelled_empty() {
    // Requests from locations 0 and 5 only: six locations, four of them
    // without a request.
    let dir = scratch("sparse");
    let (prod, models) = (path(&dir, "sparse.csv"), path(&dir, "models.json"));
    let rows: String =
        (0..40u64).map(|i| format!("{},{},{},{}\n", i * 100, i % 7, 1000, (i % 2) * 5)).collect();
    std::fs::write(&prod, format!("time_ms,object,size,location\n{rows}")).unwrap();

    assert_ok(&spacegen(&["extract", "--trace", &prod, "--out", &models]), "extract");
    let bundle = ModelBundle::read_json(File::open(&models).unwrap()).unwrap();
    assert_eq!(bundle.pfds.len(), 6);

    let out = spacegen(&["validate", "--production", &prod, "--synthetic", &prod]);
    assert_ok(&out, "validate");

    // Generation leaves the four empty locations out instead of waiting
    // for objects the GPD never gives them.
    let synth = path(&dir, "synth.csv");
    let args = ["generate", "--models", &models, "--requests", "200", "--out", &synth];
    assert_ok(&spacegen_within(&args, Duration::from_secs(30)), "generate");
    let trace = spacegen::io::read_csv(File::open(&synth).unwrap()).unwrap();
    assert!(!trace.is_empty());
    assert!(trace.requests.iter().all(|r| matches!(r.location.0, 0 | 5)));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Run `spacegen`, killing it (and failing) if it outlives `deadline`.
fn spacegen_within(args: &[&str], deadline: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_spacegen"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn spacegen");
    let start = Instant::now();
    while child.try_wait().expect("poll spacegen").is_none() {
        if start.elapsed() > deadline {
            child.kill().expect("kill spacegen");
            child.wait().expect("reap spacegen");
            panic!("spacegen {args:?} still running after {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("collect spacegen")
}

#[test]
fn an_empty_trace_is_an_error_not_a_panic() {
    let dir = scratch("empty");
    let (empty, models) = (path(&dir, "empty.csv"), path(&dir, "models.json"));
    std::fs::write(&empty, "time_ms,object,size,location\n").unwrap();

    assert_clean_error(&spacegen(&["extract", "--trace", &empty, "--out", &models]), "extract");
    let out = spacegen(&["validate", "--production", &empty, "--synthetic", &empty]);
    assert_clean_error(&out, "validate");
    std::fs::remove_dir_all(&dir).unwrap();
}
