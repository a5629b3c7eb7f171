//! `spacegen` — the trace-generation command-line tool.
//!
//! Mirrors the workflow of the paper's open-sourced SpaceGEN:
//!
//! ```text
//! spacegen synthesize --class video --hours 24 --seed 1 --out prod.csv
//!     Generate a production-like multi-city trace from the built-in
//!     workload model (the Akamai-trace substitute).
//!
//! spacegen extract --trace prod.csv --out models.json
//!     Extract the traffic models (per-location pFDs + GPD).
//!
//! spacegen generate --models models.json --requests 100000 --seed 2 --out synth.csv
//!     Run Algorithm 1 against extracted models.
//!
//! spacegen validate --production prod.csv --synthetic synth.csv
//!     Print fidelity statistics (spreads, LRU hit rates).
//! ```
//!
//! Traces ending in `.bin` use the compact binary format; anything else
//! is CSV. The number of locations is read from the trace(s): the highest
//! location id plus one. An empty trace is an error.

use spacegen::classes::TrafficClass;
use spacegen::generator::{generate, GeneratorConfig, TimestampMode};
use spacegen::io::{read_binary, read_csv, write_binary, write_csv, ModelBundle};
use spacegen::production::ProductionModel;
use spacegen::trace::{Location, Trace};
use spacegen::validate::{cdf_distance, object_spread_cdf, traffic_spread_cdf};
use starcdn_cache::policy::PolicyKind;
use starcdn_cache::simulate::hit_rate_curve;
use starcdn_orbit::time::SimDuration;
use std::collections::HashMap;
use std::fs::File;
use std::process::exit;

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    let opts = parse_opts(args);
    match cmd.as_str() {
        "synthesize" => synthesize(&opts),
        "extract" => extract(&opts),
        "generate" => generate_cmd(&opts),
        "validate" => validate(&opts),
        "--help" | "-h" | "help" => usage(),
        other => die(&format!("unknown command `{other}`")),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: spacegen <synthesize|extract|generate|validate> [--class C] [--hours H] \
         [--seed S] [--scale X] [--trace F] [--models F] [--requests N] \
         [--production F] [--synthetic F] [--out F]"
    );
    exit(2)
}

fn die(msg: &str) -> ! {
    eprintln!("spacegen: {msg}");
    exit(2)
}

fn parse_opts(args: impl Iterator<Item = String>) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let mut it = args.peekable();
    while let Some(k) = it.next() {
        let Some(key) = k.strip_prefix("--") else {
            die(&format!("expected --flag, got `{k}`"));
        };
        let Some(v) = it.next() else { die(&format!("--{key} needs a value")) };
        out.insert(key.to_string(), v);
    }
    out
}

fn opt<'a>(opts: &'a HashMap<String, String>, key: &str, default: &'a str) -> &'a str {
    opts.get(key).map(String::as_str).unwrap_or(default)
}

fn required<'a>(opts: &'a HashMap<String, String>, key: &str) -> &'a str {
    opts.get(key).map(String::as_str).unwrap_or_else(|| die(&format!("--{key} is required")))
}

fn load_trace(path: &str) -> Trace {
    let f = File::open(path).unwrap_or_else(|e| die(&format!("open {path}: {e}")));
    let result = if path.ends_with(".bin") { read_binary(f) } else { read_csv(f) };
    result.unwrap_or_else(|e| die(&format!("read {path}: {e}")))
}

/// Locations a trace spans: its highest location id plus one. Dies on an
/// empty trace, which has no locations to model.
fn location_count(trace: &Trace, path: &str) -> usize {
    let max = trace.requests.iter().map(|r| r.location.0).max();
    max.map_or_else(|| die(&format!("{path}: the trace is empty")), |m| usize::from(m) + 1)
}

fn save_trace(trace: &Trace, path: &str) {
    let f = File::create(path).unwrap_or_else(|e| die(&format!("create {path}: {e}")));
    let result = if path.ends_with(".bin") { write_binary(trace, f) } else { write_csv(trace, f) };
    result.unwrap_or_else(|e| die(&format!("write {path}: {e}")));
    eprintln!("wrote {} requests to {path}", trace.len());
}

fn synthesize(opts: &HashMap<String, String>) {
    let class: TrafficClass =
        opt(opts, "class", "video").parse().unwrap_or_else(|e: String| die(&e));
    let hours: u64 = opt(opts, "hours", "24").parse().unwrap_or_else(|_| die("--hours: bad u64"));
    let seed: u64 = opt(opts, "seed", "42").parse().unwrap_or_else(|_| die("--seed: bad u64"));
    let scale: f64 = opt(opts, "scale", "0.1").parse().unwrap_or_else(|_| die("--scale: bad f64"));
    let out = required(opts, "out");

    let locations = Location::akamai_nine();
    let model = ProductionModel::build(class.params().scaled(scale), &locations, seed);
    let trace = model.generate_trace(SimDuration::from_hours(hours), seed);
    save_trace(&trace, out);
}

fn extract(opts: &HashMap<String, String>) {
    let path = required(opts, "trace");
    let trace = load_trace(path);
    let n = location_count(&trace, path);
    let seed: u64 = opt(opts, "seed", "0").parse().unwrap_or_else(|_| die("--seed: bad u64"));
    let out = required(opts, "out");
    let bundle = ModelBundle::from_trace(&trace, n, seed);
    let f = File::create(out).unwrap_or_else(|e| die(&format!("create {out}: {e}")));
    bundle.write_json(f).unwrap_or_else(|e| die(&format!("write {out}: {e}")));
    eprintln!(
        "extracted {} pFDs + GPD over {} objects to {out}",
        bundle.pfds.len(),
        bundle.gpd.len()
    );
}

fn generate_cmd(opts: &HashMap<String, String>) {
    let models = required(opts, "models");
    let f = File::open(models).unwrap_or_else(|e| die(&format!("open {models}: {e}")));
    let bundle = ModelBundle::read_json(f).unwrap_or_else(|e| die(&format!("read {models}: {e}")));
    let requests: usize =
        opt(opts, "requests", "100000").parse().unwrap_or_else(|_| die("--requests: bad usize"));
    let seed: u64 = opt(opts, "seed", "0").parse().unwrap_or_else(|_| die("--seed: bad u64"));
    let out = required(opts, "out");

    let cfg = GeneratorConfig {
        requests_at_fastest: requests,
        warmup_at_fastest: requests,
        seed,
        timestamps: TimestampMode::AverageRate,
    };
    let trace = generate(&bundle.gpd, &bundle.pfds, &cfg);
    save_trace(&trace, out);
}

fn validate(opts: &HashMap<String, String>) {
    let (prod_path, synth_path) = (required(opts, "production"), required(opts, "synthetic"));
    let (prod, synth) = (load_trace(prod_path), load_trace(synth_path));
    let n = location_count(&prod, prod_path).max(location_count(&synth, synth_path));

    println!(
        "production: {} requests / {} objects; synthetic: {} / {}",
        prod.len(),
        prod.unique_objects().0,
        synth.len(),
        synth.unique_objects().0
    );
    println!(
        "spread KS: objects {:.3}, traffic {:.3}",
        cdf_distance(&object_spread_cdf(&prod, n), &object_spread_cdf(&synth, n)),
        cdf_distance(&traffic_spread_cdf(&prod, n), &traffic_spread_cdf(&synth, n)),
    );
    let (_, ws) = prod.unique_objects();
    let sizes = [ws / 100, ws / 20, ws / 5];
    let hp = hit_rate_curve(PolicyKind::Lru, &sizes, &prod.accesses());
    let hs = hit_rate_curve(PolicyKind::Lru, &sizes, &synth.accesses());
    for (i, &s) in sizes.iter().enumerate() {
        println!(
            "LRU @ {:>10} B: production {:.1}% vs synthetic {:.1}% RHR",
            s,
            hp[i].stats.request_hit_rate() * 100.0,
            hs[i].stats.request_hit_rate() * 100.0
        );
    }
}
