//! The repository's benchmark. See benchmark/README.md.
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload and prints, as the last line of standard output, one JSON
//! object `{correct, attempted, failed, metrics}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Without `--workload` it runs every workload, each in a child process
//! of this binary, one at a time (suite.rs).

mod abi;
mod drivers;
mod json;
mod layers;
mod metrics;
mod run;
mod sampler;
mod spans;
mod suite;
mod workloads;

use json::Json;
use std::process::ExitCode;

const USAGE: &str = "usage: starcdn-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
[--trace <0|1>] [--traced] [--check-repeat] [--print-benchmark-json]
  --workload <name>   run one workload (steady_video, sparse_longhaul, degraded_churn,
                      sharded_replay) and print its result as one JSON line
  --seed <n>          workload seed (default 42); the same seed gives the same inputs
  --seconds <s>       seconds a run measures for (default: run_seconds of BENCHMARK.json)
  --trace <0|1>       0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics
  without --workload, every workload runs in a child process of its own:
  --traced            also make the traced run of each workload
  --check-repeat      run the end-to-end set twice and compare within the bounds
  --print-benchmark-json   print the text of BENCHMARK.json and exit";

#[derive(Debug)]
pub struct Cli {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub traced: bool,
    pub check_repeat: bool,
    pub print_benchmark_json: bool,
}

fn parse_cli(argv: impl IntoIterator<Item = String>) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        traced: false,
        check_repeat: false,
        print_benchmark_json: false,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => {
                cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                cli.seconds = s;
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--traced" => cli.traced = true,
            "--check-repeat" => cli.check_repeat = true,
            "--print-benchmark-json" => cli.print_benchmark_json = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(cli)
}

/// Keep glibc malloc from returning memory to the kernel in this process:
/// no `mmap` for large blocks, no trimming of the heap.
///
/// Left alone, malloc maps every block above a threshold that follows
/// the sizes freed so far, and unmaps it when freed. Whether the
/// replayer's multi-megabyte buffers are reused from the heap or mapped,
/// zeroed and page-faulted afresh on every iteration then depends on the
/// exact sequence of sizes freed before, and the request count moves
/// those by a fraction of a percent with the seed: `steady_video` landed
/// on 285, 325 or 345 MB of peak RSS by seed alone, and `replay_rps`
/// followed it by 10 %. With `mmap` and trimming off, the heap grows to
/// its high-water mark in the first round and is reused from then on:
/// every seed runs in the same regime (307–311 MB), a later change that
/// shifts an allocation size by a few bytes cannot flip it, and the
/// timed iterations take no page faults for memory the process already
/// had.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    // SAFETY: `mallopt(int, int) -> int` is glibc's documented tuning
    // call; it only stores allocator parameters, and it runs first in
    // `main`, before this process has a second thread.
    let pinned = unsafe { mallopt(M_MMAP_MAX, 0) == 1 && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 };
    if !pinned {
        eprintln!("warning: mallopt refused; malloc keeps its adaptive thresholds");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn result_line(r: &run::RunResult) -> String {
    let metrics = r
        .values
        .iter()
        .map(|v| {
            let entry = Json::obj([("value", Json::Num(v.value)), ("unit", Json::str(v.unit))]);
            (v.name.to_string(), entry)
        })
        .collect();
    Json::obj([
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::Int(r.attempted.max(1))),
        ("failed", Json::Int(r.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .encode()
}

fn main() -> ExitCode {
    pin_allocator();
    let cli = match parse_cli(std::env::args().skip(1)) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.print_benchmark_json {
        let workloads: Vec<(&str, &str)> =
            workloads::WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        print!("{}", metrics::benchmark_json(&workloads));
        return ExitCode::SUCCESS;
    }
    // Every workload reports 2-worker rows (`replay_rps`, `serve_rps`,
    // `*_w2`); on one hardware thread they would be faked, so refuse.
    let threads = run::hardware_threads();
    if threads < drivers::WORKERS {
        eprintln!(
            "error: {threads} hardware thread(s); the benchmark's 2-worker rows (replay_rps, \
             serve_rps, replayer.rps_w2, logbuild.par2_speedup) need {} and are not emitted",
            drivers::WORKERS
        );
        return ExitCode::from(2);
    }
    let Some(name) = &cli.workload else {
        return suite::run(&cli);
    };
    let Some(workload) = workloads::find(name) else {
        eprintln!("error: unknown workload `{name}`\n{USAGE}");
        return ExitCode::from(2);
    };
    let args = run::RunArgs { workload, seed: cli.seed, seconds: cli.seconds, trace: cli.trace };
    match run::run(&args) {
        Ok(result) => {
            println!("{}", result_line(&result));
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let c =
            cli(&["--workload", "steady_video", "--seed", "7", "--seconds", "10", "--trace", "1"])
                .unwrap();
        assert_eq!(c.workload.as_deref(), Some("steady_video"));
        assert_eq!((c.seed, c.seconds, c.trace), (7, 10.0, true));
        let d = cli(&[]).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (42, metrics::RUN_SECONDS as f64, false));
        assert!(d.workload.is_none());
    }

    #[test]
    fn rejects_malformed_arguments() {
        assert!(cli(&["--seed"]).unwrap_err().contains("needs a value"));
        assert!(cli(&["--seed", "x"]).is_err());
        assert!(cli(&["--seconds", "0"]).is_err());
        assert!(cli(&["--seconds", "nan"]).is_err());
        assert!(cli(&["--trace", "2"]).is_err());
        assert!(cli(&["--bogus"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let r = run::RunResult {
            correct: true,
            attempted: 12,
            failed: 0,
            values: vec![metrics::Value { name: "setup_s", unit: "s", value: 0.8127 }],
        };
        assert_eq!(
            result_line(&r),
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }
}
