//! The names the benchmark reports: workloads, end-to-end metrics with
//! their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repository root is generated from these tables
//! (`--print-benchmark-json`) and a unit test keeps the two equal.

use crate::json::Json;

/// Seconds one run measures for; `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 28;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }

    /// By what share of `base` is `new` worse (negative = better)?
    pub fn worse_by(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Higher => (base - new) / base,
            Better::Lower => (new - base) / base,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

use Better::{Higher, Lower};

/// Host quantities unless named `sim_*`; every workload reports all.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25 },
    EndToEnd { name: "pipeline_rps", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "replay_rps", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "serve_rps", unit: "1/s", better: Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: Lower, bound: 0.25 },
    EndToEnd { name: "sim_hit_rate", unit: "ratio", better: Higher, bound: 0.03 },
    EndToEnd { name: "sim_latency_ms_mean", unit: "ms", better: Lower, bound: 0.05 },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

/// Per-layer metrics, in the order the pipeline runs its layers. Which
/// end-to-end metric each should move, on which workload, is the
/// interaction table of benchmark/README.md.
pub const PER_LAYER: [Layer; 66] = [
    layer("spacegen.trace_rps", "1/s", Higher),
    layer("orbit.propagate_sats_per_s", "1/s", Higher),
    layer("orbit.visibility_checks_per_s", "1/s", Higher),
    layer("orbit.visible_per_scan", "count", Higher),
    layer("scheduler.epochs_per_s", "1/s", Higher),
    layer("logbuild.entries_per_s", "1/s", Higher),
    layer("logbuild.epochs_per_s", "1/s", Higher),
    layer("logbuild.par2_speedup", "ratio", Higher),
    layer("logbuild.share", "ratio", Lower),
    layer("codec.write_mb_per_s", "MB/s", Higher),
    layer("codec.read_entries_per_s", "1/s", Higher),
    layer("cache.lru_access_per_s", "1/s", Higher),
    layer("cache.hit_ratio", "ratio", Higher),
    layer("cache.delayed_access_per_s", "1/s", Higher),
    layer("buckets.owner_lookups_per_s", "1/s", Higher),
    layer("routing.grid_paths_per_s", "1/s", Higher),
    layer("routing.bfs_paths_per_s", "1/s", Higher),
    layer("capacity.admits_per_s", "1/s", Higher),
    layer("core.resolve_routes_per_s", "1/s", Higher),
    layer("engine.rps", "1/s", Higher),
    layer("engine.ns_per_req", "ns", Lower),
    layer("engine.share", "ratio", Lower),
    layer("engine.rows_over_cols", "ratio", Lower),
    layer("overload.shed_per_req", "ratio", Lower),
    layer("overload.retry_per_req", "ratio", Lower),
    layer("overload.fallback_share", "ratio", Lower),
    layer("overload.drop_share", "ratio", Lower),
    layer("delayed.hit_share", "ratio", Higher),
    layer("delayed.coalesced_share", "ratio", Higher),
    layer("faults.remapped_share", "ratio", Lower),
    layer("replayer.rps_w1", "1/s", Higher),
    layer("replayer.rps_w2", "1/s", Higher),
    layer("replayer.w2_over_w1", "ratio", Higher),
    layer("replayer.w2_over_engine", "ratio", Higher),
    layer("replayer.iter_ms_p50", "ms", Lower),
    layer("replayer.iter_ms_hi", "ms", Lower),
    layer("replayer.iter_hi_pct", "%", Higher),
    layer("replayer.iter_samples", "count", Higher),
    layer("serveplan.build_rps", "1/s", Higher),
    layer("serveplan.bytes_per_req", "B", Lower),
    layer("shardstate.apply_ops_per_s", "1/s", Higher),
    layer("shardstate.drain_bytes", "B", Lower),
    layer("frame.encode_mb_per_s", "MB/s", Higher),
    layer("frame.decode_frames_per_s", "1/s", Higher),
    layer("plane.serve_rps_tcp", "1/s", Higher),
    layer("plane.serve_rps_mem", "1/s", Higher),
    layer("plane.tcp_over_mem", "ratio", Lower),
    layer("plane.serve_rps_b16", "1/s", Higher),
    layer("plane.serve_rps_b512", "1/s", Higher),
    layer("plane.over_replayer", "ratio", Lower),
    layer("plane.iter_ms_p50", "ms", Lower),
    layer("plane.iter_ms_hi", "ms", Lower),
    layer("plane.iter_hi_pct", "%", Higher),
    layer("plane.iter_samples", "count", Higher),
    layer("plane.frames_sent", "count", Lower),
    layer("plane.frames_resent", "count", Lower),
    layer("plane.timeouts", "count", Lower),
    layer("plane.reconnects", "count", Lower),
    layer("plane.duplicates_dropped", "count", Lower),
    layer("plane.ack_rtt_us_p50", "us", Lower),
    layer("plane.ack_rtt_us_p99", "us", Lower),
    layer("plane.ack_rtt_samples", "count", Higher),
    layer("telemetry.recorded_over_noop", "ratio", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
    layer("harness.iter_iqr_over_median", "ratio", Lower),
    layer("harness.traced_iterations", "count", Higher),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Pair measured values with a metric table: every metric of the table
/// exactly once, in table order. A missing or unknown name is a bug in
/// the benchmark, reported as an error instead of a partial result.
pub fn in_table_order(
    table: &[(&'static str, &'static str)],
    measured: &[(&'static str, f64)],
) -> Result<Vec<Value>, String> {
    if let Some((name, _)) = measured.iter().find(|(n, _)| !table.iter().any(|(t, _)| t == n)) {
        return Err(format!("measured `{name}` is not a declared metric"));
    }
    table
        .iter()
        .map(|&(name, unit)| {
            let mut hits = measured.iter().filter(|(n, _)| *n == name);
            match (hits.next(), hits.next()) {
                (Some(&(_, value)), None) => Ok(Value { name, unit, value }),
                (None, _) => Err(format!("declared metric `{name}` was not measured")),
                (Some(_), Some(_)) => Err(format!("metric `{name}` was measured twice")),
            }
        })
        .collect()
}

pub fn end_to_end_table() -> Vec<(&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
}

pub fn per_layer_table() -> Vec<(&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
}

/// The text of the repository's `BENCHMARK.json`.
pub fn benchmark_json(workloads: &[(&str, &str)]) -> String {
    let line = |j: Json| format!("    {}", j.encode());
    let workloads: Vec<String> = workloads
        .iter()
        .map(|(name, why)| line(Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            line(Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ]))
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            line(Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ]))
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> =
            END_TO_END.iter().map(|m| m.name).chain(PER_LAYER.iter().map(|m| m.name)).collect();
        let total = names.len();
        for n in &names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(), "{n}");
            assert!(n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{n}");
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(unit.len() <= 16, "{unit}");
            assert!(
                unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn table_order_rejects_missing_unknown_and_duplicate() {
        let table = [("a", "s"), ("b", "1/s")];
        let ok = in_table_order(&table, &[("b", 2.0), ("a", 1.0)]).unwrap();
        assert_eq!(ok[0], Value { name: "a", unit: "s", value: 1.0 });
        assert_eq!(ok[1].name, "b");
        assert!(in_table_order(&table, &[("a", 1.0)])
            .unwrap_err()
            .contains("`b` was not measured"));
        assert!(in_table_order(&table, &[("a", 1.0), ("b", 1.0), ("c", 1.0)]).is_err());
        assert!(in_table_order(&table, &[("a", 1.0), ("a", 2.0), ("b", 1.0)])
            .unwrap_err()
            .contains("twice"));
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((Better::Higher.worse_by(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((Better::Lower.worse_by(100.0, 90.0) + 0.1).abs() < 1e-12);
        assert_eq!(Better::Lower.worse_by(0.0, 5.0), 0.0);
    }

    /// The committed `BENCHMARK.json` is this file's tables, verbatim.
    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let workloads: Vec<(&str, &str)> =
            crate::workloads::WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(committed, benchmark_json(&workloads), "regenerate with --print-benchmark-json");
    }
}
