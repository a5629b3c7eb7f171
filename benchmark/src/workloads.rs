//! The four workloads and their set-up.
//!
//! A workload is an input regime: a seeded production trace (video
//! class over the nine cities, 15 s epochs), a world (plain or under a
//! churn schedule) and a CDN configuration. Every run drives the same
//! three end-to-end paths over it — trace → log → engine in process,
//! the sharded replayer, and the socket plane over loopback TCP — and
//! the workloads differ in which layer that work lands on. Sizes are
//! fixed here, not taken from the repository's scale presets, so that a
//! recalibration there cannot silently move the benchmark.

use crate::abi;
use crate::spans::Tracer;

/// Calibration of the paper's "GB" cache labels: a 100 "GB" cache holds
/// this share of the trace's unique bytes (EXPERIMENTS.md; the value
/// `crates/bench` uses at the time the benchmark was defined).
const CACHE_SHARE_AT_100GB: f64 = 0.04;

/// Seed of the content catalog (object sizes, home cities, which city
/// can see which object). The catalog is part of a workload's
/// definition, like its cache size; `--seed` draws what varies from day
/// to day over that catalog: the requests, the scheduler's picks and the
/// fault schedule. Measured over ten seeds, drawing the catalog from
/// `--seed` too moved `sim_hit_rate` by 2–3 % and `sim_latency_ms_mean`
/// by 4–5 % between seeds, which would have needed bounds too wide to
/// notice a change in the model; with the catalog fixed they move by
/// well under 1 %.
const CATALOG_SEED: u64 = 42;

/// Faults and overload of the degraded workload.
pub struct Degraded {
    pub sat_mtbf_secs: f64,
    pub sat_mttr_secs: f64,
    /// Admission headroom, mean-size objects per satellite per epoch.
    pub headroom_objects: f64,
    pub fetch_epochs: u64,
    pub wait_ms_per_epoch: f64,
    pub origin_tiers: u64,
}

pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub catalog_factor: f64,
    pub rate_factor: f64,
    pub minutes: u64,
    pub buckets: u32,
    pub cache_label_gb: f64,
    /// Relayed fetch in the pipeline's configuration. The replayer and
    /// the socket plane always run the no-relay twin: `ServePlan::build`
    /// rejects relay (cross-shard reads), and engine ≡ replayer holds
    /// for no-relay only.
    pub relay: bool,
    pub degraded: Option<Degraded>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "steady_video",
        why: "the paper's headline configuration (9 buckets, 50 GB, relay): ~0.9 M requests over 4 h, \
              engine ~80 % of the pipeline, so cache, route and engine work shows and scheduling barely does",
        catalog_factor: 0.5,
        rate_factor: 2.0,
        minutes: 4 * 60,
        buckets: 9,
        cache_label_gb: 50.0,
        relay: true,
        degraded: None,
    },
    Workload {
        name: "sparse_longhaul",
        why: "same layers, weights inverted: ~94 k requests over 11520 epochs (48 h), log build \
              (propagate, visibility, schedule) ~95 % of the pipeline, so an engine gain should move nothing",
        catalog_factor: 0.02,
        rate_factor: 0.02,
        minutes: 48 * 60,
        buckets: 9,
        cache_label_gb: 50.0,
        relay: true,
        degraded: None,
    },
    Workload {
        name: "degraded_churn",
        why: "satellite churn, tight admission headroom and delayed hits: remap, BFS detours, ledger, \
              retry, fallback, drop and coalescing all populated; ~10x the plain per-request cost",
        catalog_factor: 0.5,
        rate_factor: 2.0,
        minutes: 30,
        buckets: 4,
        cache_label_gb: 4.0,
        relay: true,
        degraded: Some(Degraded {
            sat_mtbf_secs: 4.0 * 3600.0,
            sat_mttr_secs: 600.0,
            headroom_objects: 16.0,
            fetch_epochs: 2,
            wait_ms_per_epoch: 40.0,
            origin_tiers: 8,
        }),
    },
    Workload {
        name: "sharded_replay",
        why: "no-relay configuration, 2 h log: most of the measuring time goes to the sharded replayer, \
              frame codec and socket plane, and per-connection fixed cost is a visible share of a serve",
        catalog_factor: 0.5,
        rate_factor: 2.0,
        minutes: 2 * 60,
        buckets: 9,
        cache_label_gb: 50.0,
        relay: false,
        degraded: None,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Everything the drivers need, generated from the seed alone.
pub struct Inputs {
    pub spec: &'static Workload,
    pub seed: u64,
    pub world: abi::World,
    pub trace: abi::Trace,
    /// The access log as the replayer and the socket plane receive it:
    /// built columnar, written with the binary codec, read back as rows.
    pub rows: abi::AccessLog,
    /// Pipeline configuration.
    pub cfg: abi::StarCdnConfig,
    /// Its no-relay twin, for the replayer and the socket plane.
    pub cfg_sharded: abi::StarCdnConfig,
    pub overload: Option<abi::OverloadConfig>,
}

impl Inputs {
    pub fn requests(&self) -> u64 {
        self.trace.len() as u64
    }

    pub fn epochs(&self) -> u64 {
        self.spec.minutes * 60 / abi::EPOCH_SECS
    }
}

/// Seconds spent in the set-up steps that have a layer of their own.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total: f64,
    pub generate: f64,
    pub codec_write: f64,
    pub codec_read: f64,
    pub codec_bytes: u64,
}

/// One construction of a workload's inputs.
pub fn setup(
    spec: &'static Workload,
    seed: u64,
    tr: &mut Tracer,
) -> Result<(Inputs, SetupTimes), String> {
    let all = tr.begin("setup");
    let world = match &spec.degraded {
        None => abi::world(),
        Some(d) => {
            abi::churn_world(d.sat_mtbf_secs, d.sat_mttr_secs, spec.minutes * 60, seed ^ 0xDE1A)
        }
    };
    let (trace, generate) = tr.time("spacegen.generate", || {
        abi::generate_trace(spec.catalog_factor, spec.rate_factor, spec.minutes, CATALOG_SEED, seed)
    });
    if trace.is_empty() {
        return Err("the seed generated an empty trace".to_string());
    }
    let cache_bytes = (spec.cache_label_gb / 100.0
        * CACHE_SHARE_AT_100GB
        * abi::working_set_bytes(&trace) as f64)
        .max(1.0) as u64;
    let dress = |cfg: abi::StarCdnConfig| match &spec.degraded {
        None => cfg,
        Some(d) => abi::with_delayed_hits(cfg, d.fetch_epochs, d.wait_ms_per_epoch, d.origin_tiers),
    };
    let cfg = dress(abi::cdn_config(spec.buckets, cache_bytes, spec.relay));
    let cfg_sharded = dress(abi::cdn_config(spec.buckets, cache_bytes, false));
    let overload =
        spec.degraded.as_ref().map(|d| abi::overload_objects_per_epoch(&trace, d.headroom_objects));

    let (cols, _) = tr.time("setup.logbuild", || abi::build_log_columns(&world, &trace, seed));
    let (bytes, codec_write) = tr.time("codec.write", || abi::codec_write(&cols));
    let bytes = bytes?;
    drop(cols);
    let (rows, codec_read) = tr.time("codec.read", || abi::codec_read(&bytes));
    let rows = rows?;
    if rows.len() != trace.len() {
        return Err(format!("codec hand-off lost entries: {} of {}", rows.len(), trace.len()));
    }
    let times = SetupTimes {
        total: tr.end(all),
        generate,
        codec_write,
        codec_read,
        codec_bytes: bytes.len() as u64,
    };
    let inputs = Inputs { spec, seed, world, trace, rows, cfg, cfg_sharded, overload };
    Ok((inputs, times))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_table_is_within_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
            assert!(find(w.name).is_some());
            // `BucketTiling` needs a perfect square.
            let root = (w.buckets as f64).sqrt().round() as u32;
            assert_eq!(root * root, w.buckets, "{}", w.name);
        }
        assert!(find("nope").is_none());
    }
}
