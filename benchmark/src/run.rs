//! One run of one workload: set-up, the untimed reference pass, then
//! either the end-to-end phase (`--trace 0`) or the traced layer phase
//! (`--trace 1`).

use crate::drivers::{self, Reference};
use crate::json::Json;
use crate::layers;
use crate::metrics::{self, Value};
use crate::sampler::{self, run_interleaved, Samples};
use crate::spans::Tracer;
use crate::workloads::{self, Inputs, SetupTimes, Workload};
use std::cell::RefCell;
use std::path::PathBuf;
use std::time::Duration;

/// Constructions of the inputs in the traced run, whose set-up spans
/// give the `spacegen.*` and `codec.*` rates. The end-to-end run sets up
/// once more in every round of its loop instead.
const TRACED_SETUPS: usize = 5;

/// Fewest timed iterations of a driver, however slow the machine.
const MIN_ITERS: usize = 5;

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<Value>,
}

/// Where run artefacts go: `benchmark/out/`, beside this package's
/// manifest. The build happens in the checkout it runs in, so the
/// compile-time path is the run-time one.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Best effort: a run's result does not depend on its artefacts.
pub fn write_artefact(name: &str, json: &Json) {
    let dir = out_dir();
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(name), json.encode() + "\n"));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", dir.join(name).display());
    }
}

pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

fn summary_json(secs: &[f64]) -> Json {
    match sampler::summarize(secs) {
        None => Json::Null,
        Some(s) => Json::obj([
            ("n", Json::Int(s.n as u64)),
            ("min", Json::Num(s.min)),
            ("q1", Json::Num(s.q1)),
            ("median", Json::Num(s.median)),
            ("q3", Json::Num(s.q3)),
            ("max", Json::Num(s.max)),
            ("mad", Json::Num(s.mad)),
            ("high_percentile", Json::Num(s.high.0)),
            ("high_value", Json::Num(s.high.1)),
            ("iqr_over_median", Json::Num(s.iqr_over_median())),
        ]),
    }
}

fn samples_json(s: &Samples) -> Json {
    Json::obj([
        ("attempted", Json::Int(s.attempted())),
        ("failed", Json::Int(s.failed)),
        ("summary_s", summary_json(&s.secs)),
        ("samples_s", Json::nums(&s.secs)),
    ])
}

/// Ops and failures of a run, with the first messages kept.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn add(&mut self, attempted: u64, failed: u64, errors: impl IntoIterator<Item = String>) {
        self.attempted += attempted;
        self.failed += failed;
        self.errors.extend(errors);
    }
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let spec = args.workload;
    let mut tr = Tracer::new(args.trace);
    let mut tally = Tally::default();

    tr.set_iteration(1);
    let (inp, first_setup) = workloads::setup(spec, args.seed, &mut tr)?;
    tr.set_iteration(0);
    tally.add(1, 0, []);

    let (reference, checks, failures) = drivers::reference_pass(&inp, &mut tr);
    tally.add(checks, failures.len() as u64, failures);

    let mut report = vec![
        ("workload", Json::str(spec.name)),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("traced", Json::Bool(args.trace)),
        ("hardware_threads", Json::Int(hardware_threads() as u64)),
        ("workers", Json::Int(drivers::WORKERS as u64)),
        ("requests", Json::Int(inp.requests())),
        ("epochs", Json::Int(inp.epochs())),
        ("transport", Json::str("host loopback TCP (not a link)")),
        ("caches", Json::str("every iteration starts from empty modelled caches")),
        ("allocator", Json::str("glibc malloc, mmap off, trimming off")),
        ("digest_pipeline", Json::str(format!("{:016x}", reference.pipeline_digest))),
        ("digest_sharded", Json::str(format!("{:016x}", reference.sharded_digest))),
    ];
    println!("{} requests count {}", spec.name, inp.requests());
    println!("{} digest.pipeline hex {:016x}", spec.name, reference.pipeline_digest);
    println!("{} digest.sharded hex {:016x}", spec.name, reference.sharded_digest);

    let values = if args.trace {
        let mut setups: Vec<SetupTimes> = vec![first_setup];
        for repeat in 1..TRACED_SETUPS {
            tr.set_iteration(repeat as u64 + 1);
            setups.push(workloads::setup(spec, args.seed, &mut tr)?.1);
        }
        tr.set_iteration(0);
        tally.add(TRACED_SETUPS as u64 - 1, 0, []);
        let layer = layers::measure(&inp, &reference, &setups, args.seconds, &mut tr);
        tally.add(layer.attempted, layer.failed, layer.errors);
        let trace = Json::obj([
            ("workload", Json::str(spec.name)),
            ("seed", Json::Int(args.seed)),
            ("ack_rtt_us", summary_json(&layer.ack_rtt_us)),
            ("ack_rtt_samples", Json::Int(layer.ack_rtt_us.len() as u64)),
            ("spans", tr.to_json()),
        ]);
        write_artefact(&format!("trace.{}.json", spec.name), &trace);
        metrics::in_table_order(&metrics::per_layer_table(), &layer.values)?
    } else {
        let measured = end_to_end(inp, &reference, args.seconds, &mut tally, &mut report)?;
        metrics::in_table_order(&metrics::end_to_end_table(), &measured)?
    };

    for v in &values {
        println!("{} {} {} {}", spec.name, v.name, v.unit, v.value);
    }
    println!("{} ops_attempted count {}", spec.name, tally.attempted);
    println!("{} ops_failed count {}", spec.name, tally.failed);
    for e in tally.errors.iter().take(10) {
        eprintln!("FAILED {}: {e}", spec.name);
    }
    let correct = tally.failed == 0 && values.iter().all(|v| v.value.is_finite());
    report.push(("correct", Json::Bool(correct)));
    report.push(("ops_attempted", Json::Int(tally.attempted)));
    report.push(("ops_failed", Json::Int(tally.failed)));
    report.push(("errors", Json::Arr(tally.errors.iter().map(Json::str).collect())));
    report.push((
        "metrics",
        Json::Obj(values.iter().map(|v| (v.name.to_string(), Json::Num(v.value))).collect()),
    ));
    let name = format!("{}.trace{}.json", spec.name, args.trace as u8);
    write_artefact(&name, &Json::obj(report));
    Ok(RunResult { correct, attempted: tally.attempted, failed: tally.failed, values })
}

/// The end-to-end phase: rounds of one set-up and one iteration of each
/// driver on that round's inputs, for the measuring time, tracing off,
/// `Noop` recorder.
fn end_to_end(
    inp: Inputs,
    reference: &Reference,
    seconds: f64,
    tally: &mut Tally,
    report: &mut Vec<(&'static str, Json)>,
) -> Result<Vec<(&'static str, f64)>, String> {
    // One disabled tracer per operation: the four closures below are
    // alive at once, interleaved by the sampler.
    let (mut tr_u, mut tr_p, mut tr_r, mut tr_s) =
        (Tracer::new(false), Tracer::new(false), Tracer::new(false), Tracer::new(false));
    let (spec, seed, requests) = (inp.spec, inp.seed, inp.requests());
    // Set-up is timed like a driver, once per round, so that its samples
    // cover the whole window too: constructions made back to back at the
    // start of a run all land in whatever state the machine is in then.
    // The round's drivers run on what it built; the previous inputs are
    // dropped first, so peak memory stays that of one copy. The digests
    // below check that every construction gave the same inputs.
    let current = RefCell::new(Some(inp));
    let mut setup = || {
        current.borrow_mut().take();
        let (fresh, times) = workloads::setup(spec, seed, &mut tr_u)?;
        *current.borrow_mut() = Some(fresh);
        Ok(times.total)
    };
    let no_inputs = || "the round's set-up failed".to_string();
    let mut pipeline = || {
        let inp = current.borrow();
        let run = drivers::pipeline(inp.as_ref().ok_or_else(no_inputs)?, &mut tr_p);
        drivers::expect_digest(&run.metrics, reference.pipeline_digest)?;
        Ok(run.secs)
    };
    let mut replay = || {
        let inp = current.borrow();
        let (m, secs) =
            drivers::replay(inp.as_ref().ok_or_else(no_inputs)?, &mut tr_r, drivers::WORKERS);
        drivers::expect_digest(&m, reference.sharded_digest)?;
        Ok(secs)
    };
    let mut serve = || {
        let inp = current.borrow();
        let run =
            drivers::serve(inp.as_ref().ok_or_else(no_inputs)?, &mut tr_s, crate::abi::noop())?;
        drivers::expect_digest(&run.metrics, reference.sharded_digest)?;
        Ok(run.secs)
    };
    let samples = run_interleaved(
        Duration::from_secs_f64(seconds),
        MIN_ITERS,
        &mut [&mut setup, &mut pipeline, &mut replay, &mut serve],
    );
    let [setup, pipeline, replay, serve] = &samples[..] else {
        return Err("the sampler lost a driver".to_string());
    };

    // The fastest iteration of each operation, in seconds.
    let mut fastest = |name: &'static str, samples: &Samples| {
        tally.add(samples.attempted(), samples.failed, samples.errors.iter().cloned());
        let summary = sampler::summarize(&samples.secs);
        if let Some(s) = &summary {
            println!(
                "{} {name}.iteration_ms min/q1/median/q3 {:.3}/{:.3}/{:.3}/{:.3} n={} p{}={:.3}",
                spec.name,
                s.min * 1e3,
                s.q1 * 1e3,
                s.median * 1e3,
                s.q3 * 1e3,
                s.n,
                s.high.0,
                s.high.1 * 1e3,
            );
        }
        report.push((name, samples_json(samples)));
        summary.map_or(0.0, |s| s.min)
    };
    let setup_s = fastest("setup", setup);
    let requests = requests as f64;
    // 0 seconds (no successful iteration) gives an infinite rate, which
    // `run` reports as incorrect.
    let pipeline_rps = requests / fastest("pipeline", pipeline);
    let replay_rps = requests / fastest("replay", replay);
    let serve_rps = requests / fastest("serve", serve);
    let (hit_rate, latency_ms) = drivers::sim_stats(&reference.pipeline);
    Ok(vec![
        ("setup_s", setup_s),
        ("pipeline_rps", pipeline_rps),
        ("replay_rps", replay_rps),
        ("serve_rps", serve_rps),
        ("peak_rss_mb", peak_rss_mb()?),
        ("sim_hit_rate", hit_rate),
        ("sim_latency_ms_mean", latency_ms),
    ])
}
