//! Serving-plane soak: socket parity and the seeded network-chaos sweep
//! (DESIGN.md §16).
//!
//! Two gates, mirroring the storage torture harness:
//!
//! 1. **Zero-fault parity** — `starcdn_net::serve_replay` over loopback
//!    TCP must reproduce the in-process `replay_parallel` metrics
//!    digest bit-for-bit at 1, 4, and 8 shards.
//! 2. **Chaos sweep** — hundreds of seeded `ChaosNet` schedules
//!    (connection refusals, mid-stream disconnects, torn frames,
//!    stalls, duplicate delivery) over the in-memory transport. Every
//!    schedule must either converge to the golden digest or fail with a
//!    typed `NetError` — never a panic, never silent divergence.
//!
//! Flags: `--seeds N` sets the sweep size (default 500), `--scale
//! smoke` runs a CI-sized 200-seed sweep; a malformed value exits 2.
//! Ctrl-C/SIGTERM stops the sweep cleanly and flushes a partial artifact
//! marked interrupted. Writes `BENCH_serve.json` (trajectory) and, on
//! uninterrupted default-scale runs, `results/bench_serve.json`
//! (committed record). Exits non-zero on any violation.

use spacegen::trace::{LocationId, Request, Trace};
use starcdn::config::StarCdnConfig;
use starcdn_bench::table::print_table;
use starcdn_bench::{interrupt, output, Flags, Scale};
use starcdn_cache::object::ObjectId;
use starcdn_constellation::failures::FailureModel;
use starcdn_net::{serve_replay, ChaosNet, ChaosPlan, MemNet, NetError, RealNet, ServeConfig};
use starcdn_orbit::time::SimTime;
use starcdn_sim::engine::SimConfig;
use starcdn_sim::{build_access_log, metrics_digest, replay_parallel, AccessLog, ServePlan, World};
use starcdn_telemetry::Noop;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

const BATCH_OPS: usize = 64;
const CHAOS_SHARDS: usize = 4;
/// One chaos decision in this many injects a fault. `ChaosNet` decides
/// per connect and per write, and a router write carries a window of
/// frames, so this is sized by the faults a sweep injects: a smoke sweep
/// must inject at least 665 (≈ 725 at 9).
const CHAOS_DENOM: u64 = 9;

fn workload() -> AccessLog {
    let w = World::starlink_nine_cities();
    let reqs: Vec<Request> = (0..3000u64)
        .map(|k| Request {
            time: SimTime::from_secs(k / 6),
            object: ObjectId((k * 7919) % 200),
            size: 500 + (k % 5) * 100,
            location: LocationId((k % 9) as u16),
        })
        .collect();
    build_access_log(&w, &Trace::new(reqs), 15, &SimConfig::default().scheduler())
}

fn cfg() -> StarCdnConfig {
    StarCdnConfig::starcdn_no_relay(4, 100_000)
}

/// Millisecond-scale deadlines: chaos stalls are detected fast enough
/// that a 500-schedule sweep stays in CI budget.
fn scfg() -> ServeConfig {
    ServeConfig {
        deadline: Duration::from_millis(40),
        backoff_base: Duration::from_micros(200),
        backoff_cap: Duration::from_millis(5),
        max_attempts: 8,
        overall_deadline: Duration::from_secs(60),
        ..ServeConfig::default()
    }
}

#[derive(Default)]
struct Tally {
    schedules: u64,
    matched: u64,
    typed: u64,
    panics: u64,
    faults_injected: u64,
    violations: Vec<String>,
}

fn main() {
    interrupt::install();
    let flags = Flags::from_env(&["--seeds", "--scale"]);
    let scale = flags.get("--scale").unwrap_or(Scale::Default);
    let mut seeds: u64 = flags.get("--seeds").unwrap_or(500);
    if scale == Scale::Smoke {
        seeds = seeds.min(200);
    }

    let log = workload();
    let t0 = std::time::Instant::now();

    // Gate 1: zero-fault parity over loopback TCP.
    let mut parity_rows: Vec<Vec<String>> = Vec::new();
    let mut parity_ok = true;
    for shards in [1usize, 4, 8] {
        let golden = metrics_digest(&replay_parallel(cfg(), FailureModel::none(), &log, shards));
        let plan = ServePlan::build(
            &cfg(),
            &FailureModel::none(),
            &log,
            None,
            None,
            shards,
            BATCH_OPS,
            &Noop,
        )
        .unwrap();
        let start = std::time::Instant::now();
        let verdict = match serve_replay(&RealNet, &plan, &scfg(), &Noop) {
            Ok(report) if metrics_digest(&report.metrics) == golden => {
                format!("match ({} frames)", report.stats.frames_sent)
            }
            Ok(_) => {
                parity_ok = false;
                "DIGEST MISMATCH".to_string()
            }
            Err(e) => {
                parity_ok = false;
                format!("ERROR: {e}")
            }
        };
        parity_rows.push(vec![
            shards.to_string(),
            verdict,
            format!("{:.0} ms", start.elapsed().as_secs_f64() * 1e3),
        ]);
    }
    print_table(
        "Zero-fault socket parity (loopback TCP)",
        &["shards", "verdict", "time"],
        &parity_rows,
    );

    // Gate 2: the seeded chaos sweep over the in-memory transport.
    let golden = metrics_digest(&replay_parallel(cfg(), FailureModel::none(), &log, CHAOS_SHARDS));
    let plan = ServePlan::build(
        &cfg(),
        &FailureModel::none(),
        &log,
        None,
        None,
        CHAOS_SHARDS,
        BATCH_OPS,
        &Noop,
    )
    .unwrap();
    let mut t = Tally::default();
    for seed in 0..seeds {
        if interrupt::interrupted() {
            break;
        }
        t.schedules += 1;
        let net = ChaosNet::new(Box::new(MemNet::new()), ChaosPlan::all(seed, CHAOS_DENOM));
        let outcome = catch_unwind(AssertUnwindSafe(|| serve_replay(&net, &plan, &scfg(), &Noop)));
        t.faults_injected += net.stats().injected;
        match outcome {
            Ok(Ok(report)) => {
                if metrics_digest(&report.metrics) == golden {
                    t.matched += 1;
                } else {
                    t.violations.push(format!("seed {seed}: converged but diverged from golden"));
                }
            }
            Ok(Err(e)) => match e {
                NetError::RetriesExhausted { .. } | NetError::Timeout(_) => t.typed += 1,
                other => t.violations.push(format!("seed {seed}: unexpected error {other}")),
            },
            Err(_) => {
                t.panics += 1;
                t.violations.push(format!("seed {seed}: PANIC"));
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let interrupted = interrupt::interrupted();

    print_table(
        &format!("Seeded network-chaos sweep ({} schedules, {elapsed:.1}s)", t.schedules),
        &["scheds", "match=gold", "typed", "panics", "faults", "viols"],
        &[vec![
            t.schedules.to_string(),
            t.matched.to_string(),
            t.typed.to_string(),
            t.panics.to_string(),
            t.faults_injected.to_string(),
            t.violations.len().to_string(),
        ]],
    );

    let json = format!(
        "{{\n  \"parity_ok\": {parity_ok},\n  \"schedules\": {},\n  \"matched\": {},\n  \
         \"typed_errors\": {},\n  \"panics\": {},\n  \"faults_injected\": {},\n  \
         \"violations\": {},\n  \"interrupted\": {interrupted},\n  \"elapsed_secs\": {elapsed:.3}\n}}\n",
        t.schedules,
        t.matched,
        t.typed,
        t.panics,
        t.faults_injected,
        t.violations.len(),
    );
    output::write_root_artifact("BENCH_serve.json", &json);

    for v in &t.violations {
        eprintln!("VIOLATION: {v}");
    }
    if interrupted {
        eprintln!("interrupted after {} schedules; partial artifact flushed", t.schedules);
        std::process::exit(interrupt::EXIT_INTERRUPTED);
    }
    if !parity_ok || t.panics > 0 || !t.violations.is_empty() {
        eprintln!(
            "FAIL: parity_ok={parity_ok}, {} panic(s), {} violation(s) across {} schedules",
            t.panics,
            t.violations.len(),
            t.schedules
        );
        std::process::exit(1);
    }
    // The committed record reflects uninterrupted, passing,
    // default-scale runs only.
    output::write_results_artifact(scale, "bench_serve.json", &json);
    println!(
        "OK: parity at 1/4/8 shards, {} chaos schedules, zero panics, zero silent divergence",
        t.schedules
    );
}
