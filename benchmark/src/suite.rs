//! The one-command mode: every workload, each in its own child process
//! of this binary (so `peak_rss_mb` is the workload's own), one at a
//! time. Prints every metric as `workload metric unit value`, writes
//! `benchmark/out/report.json` (and `trace.json` with `--traced`), and
//! exits non-zero when a check failed or, with `--check-repeat`, when
//! two sets of runs of the same code disagree beyond the bounds.

use crate::json::Json;
use crate::metrics::END_TO_END;
use crate::run::{hardware_threads, out_dir, write_artefact};
use crate::workloads::WORKLOADS;
use crate::Cli;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

/// `metric → value text` of one child run, from its
/// `workload metric unit value` lines.
type Lines = BTreeMap<String, String>;

fn run_child(workload: &str, cli: &Cli, trace: bool) -> Result<Lines, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = Lines::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.first() == Some(&workload) {
            println!("{line}");
            if let [_, metric, _unit, value] = fields[..] {
                lines.insert(metric.to_string(), value.to_string());
            }
        }
    }
    if !output.status.success() {
        return Err(format!("{workload} (trace {}) exited with {}", trace as u8, output.status));
    }
    Ok(lines)
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The child's artefact file, embedded verbatim.
fn artefact(name: &str) -> Json {
    std::fs::read_to_string(out_dir().join(name)).map_or(Json::Null, Json::Raw)
}

/// Differences between two end-to-end sets of one workload that the
/// benchmark's own bounds do not allow.
fn disagreements(workload: &str, first: &Lines, second: &Lines) -> Vec<String> {
    let mut out = Vec::new();
    let number = |lines: &Lines, key: &str| lines.get(key).and_then(|v| v.parse::<f64>().ok());
    for m in &END_TO_END {
        let (Some(a), Some(b)) = (number(first, m.name), number(second, m.name)) else {
            out.push(format!("{workload} {}: missing from a run", m.name));
            continue;
        };
        let worse = m.better.worse_by(a, b).max(m.better.worse_by(b, a));
        if worse > m.bound {
            out.push(format!("{workload} {}: {a} vs {b} differ by more than {}", m.name, m.bound));
        }
    }
    // Simulated quantities and digests repeat exactly, or not at all.
    for key in
        ["sim_hit_rate", "sim_latency_ms_mean", "digest.pipeline", "digest.sharded", "requests"]
    {
        if first.get(key) != second.get(key) {
            out.push(format!(
                "{workload} {key}: {:?} vs {:?} must be identical",
                first.get(key),
                second.get(key)
            ));
        }
    }
    out
}

pub fn run(cli: &Cli) -> ExitCode {
    let mut problems: Vec<String> = Vec::new();
    let mut runs = Vec::new();
    let mut traces = Vec::new();
    for w in &WORKLOADS {
        let first = run_child(w.name, cli, false).unwrap_or_else(|e| {
            problems.push(e);
            Lines::new()
        });
        runs.push(artefact(&format!("{}.trace0.json", w.name)));
        if cli.check_repeat {
            match run_child(w.name, cli, false) {
                Ok(second) => problems.extend(disagreements(w.name, &first, &second)),
                Err(e) => problems.push(e),
            }
            runs.push(artefact(&format!("{}.trace0.json", w.name)));
        }
        if cli.traced {
            if let Err(e) = run_child(w.name, cli, true) {
                problems.push(e);
            }
            runs.push(artefact(&format!("{}.trace1.json", w.name)));
            traces.push((w.name.to_string(), artefact(&format!("trace.{}.json", w.name))));
        }
    }
    let report = Json::obj([
        ("seed", Json::Int(cli.seed)),
        ("seconds", Json::Num(cli.seconds)),
        ("hardware_threads", Json::Int(hardware_threads() as u64)),
        ("rustc", Json::str(tool_version("rustc", &["--version"]))),
        ("commit", Json::str(tool_version("git", &["rev-parse", "HEAD"]))),
        ("check_repeat", Json::Bool(cli.check_repeat)),
        ("problems", Json::Arr(problems.iter().map(Json::str).collect())),
        ("runs", Json::Arr(runs)),
    ]);
    write_artefact("report.json", &report);
    if cli.traced {
        write_artefact("trace.json", &Json::Obj(traces));
    }
    for p in &problems {
        eprintln!("PROBLEM: {p}");
    }
    if problems.is_empty() {
        println!(
            "ok: {} workloads, report in {}",
            WORKLOADS.len(),
            out_dir().join("report.json").display()
        );
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(pairs: &[(&str, &str)]) -> Lines {
        pairs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    }

    fn full(pipeline_rps: &str, hit: &str) -> Lines {
        lines(&[
            ("setup_s", "1.0"),
            ("pipeline_rps", pipeline_rps),
            ("replay_rps", "5e6"),
            ("serve_rps", "1e6"),
            ("peak_rss_mb", "300"),
            ("sim_hit_rate", hit),
            ("sim_latency_ms_mean", "40.5"),
            ("digest.pipeline", "00ff"),
            ("digest.sharded", "ff00"),
            ("requests", "1000"),
        ])
    }

    #[test]
    fn repeat_check_uses_the_bounds_and_exactness() {
        assert!(disagreements("w", &full("1000", "0.8"), &full("1050", "0.8")).is_empty());
        let slow = disagreements("w", &full("1000", "0.8"), &full("700", "0.8"));
        assert_eq!(slow.len(), 1, "{slow:?}");
        assert!(slow[0].contains("pipeline_rps"));
        // Within the 2 % bound, but simulated statistics must be identical.
        let drift = disagreements("w", &full("1000", "0.8"), &full("1000", "0.8001"));
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("must be identical"));
        assert!(!disagreements("w", &full("1000", "0.8"), &Lines::new()).is_empty());
    }
}
