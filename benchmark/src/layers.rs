//! The layer phase of a traced run (`--trace 1`): every per-layer
//! metric, measured from outside by timing calls into each layer's
//! public functions on the workload's own inputs.
//!
//! Layers that are whole calls of a driver (log build, engine, plan
//! build, serve) are timed as child spans of that driver. Layers that
//! sit *inside* a monolithic call (orbit, scheduler, routing, ledger,
//! cache, frame codec) cannot be children of it from out here, so they
//! are probed on their own as sibling `probe.*` spans: estimates of the
//! layer's speed on these inputs, not a decomposition of the call.

use crate::abi::{self, Transport};
use crate::drivers::{self, Reference, BATCH_OPS, WORKERS};
use crate::sampler::{self, median, per_sec, run_for, Samples};
use crate::spans::{AckRttRecorder, Tracer};
use crate::workloads::{Inputs, SetupTimes};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Requests a probe replays: enough to leave caches and branch
/// predictors in the regime of the full log, small enough to repeat.
const PROBE_REQUESTS: usize = 200_000;

/// A BFS visits most of the 1296-slot grid per search; it gets fewer.
const BFS_PROBE_REQUESTS: usize = 4_000;

/// Epochs per timed call of the orbit and scheduler probes.
const PROBE_EPOCHS: u64 = 64;

/// Slices the measuring time is cut into; a loop takes one or two, a
/// small probe half of one.
const SLICES: f64 = 26.0;

const MIN_ITERS: usize = 3;

#[derive(Default)]
pub struct LayerReport {
    pub values: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Exact router send → cumulative ack round trips, µs.
    pub ack_rtt_us: Vec<f64>,
}

struct Phase<'a> {
    tr: &'a mut Tracer,
    slice: Duration,
    report: LayerReport,
}

impl Phase<'_> {
    fn put(&mut self, name: &'static str, value: f64) {
        self.report.values.push((name, value));
    }

    fn absorb(&mut self, samples: &Samples) {
        self.report.attempted += samples.attempted();
        self.report.failed += samples.failed;
        self.report.errors.extend(samples.errors.iter().cloned());
    }

    /// Repeat a driver-sized operation for `weight` slices under one
    /// parent span; `op` returns the seconds to count.
    fn timed(
        &mut self,
        span: &'static str,
        weight: f64,
        mut op: impl FnMut(&mut Tracer) -> Result<f64, String>,
    ) -> Vec<f64> {
        let open = self.tr.begin(span);
        let tr = &mut *self.tr;
        let mut iteration = 0;
        let samples = run_for(self.slice.mul_f64(weight), MIN_ITERS, || {
            iteration += 1;
            tr.set_iteration(iteration);
            op(tr)
        });
        tr.set_iteration(0);
        self.tr.end(open);
        self.absorb(&samples);
        samples.secs
    }

    /// Repeat a probe for half a slice; `op` returns (items, checksum,
    /// seconds it spent inside the layer) and the result is the median
    /// items per second.
    fn rate_of(&mut self, span: &'static str, mut op: impl FnMut() -> (u64, u64, f64)) -> f64 {
        let mut rates = Vec::new();
        self.timed(span, 0.5, |_| {
            let (items, checksum, secs) = op();
            black_box(checksum);
            rates.push(items as f64 / secs.max(1e-9));
            Ok(secs)
        });
        median(&rates)
    }

    /// [`Phase::rate_of`] for a probe that is one call into the layer.
    fn rate(&mut self, span: &'static str, mut op: impl FnMut() -> (u64, u64)) -> f64 {
        self.rate_of(span, || {
            let t0 = Instant::now();
            let (items, checksum) = op();
            (items, checksum, t0.elapsed().as_secs_f64())
        })
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// p50, the highest supported percentile and the sample count of an
/// iteration-time sample, in ms.
fn iteration_stats(secs: &[f64]) -> (f64, f64, f64, f64) {
    match sampler::summarize(secs) {
        Some(s) => (s.median * 1e3, s.high.1 * 1e3, s.high.0, s.n as f64),
        None => (0.0, 0.0, 0.0, 0.0),
    }
}

pub fn measure(
    inp: &Inputs,
    reference: &Reference,
    setups: &[SetupTimes],
    seconds: f64,
    tr: &mut Tracer,
) -> LayerReport {
    let slice = Duration::from_secs_f64(seconds / SLICES);
    let mut ph = Phase { tr, slice, report: LayerReport::default() };
    let requests = inp.requests();
    let degraded = inp.overload.as_ref();

    // Set-up layers, from the set-up spans of this run.
    let col = |f: fn(&SetupTimes) -> f64| setups.iter().map(f).collect::<Vec<f64>>();
    let codec_bytes = setups.first().map_or(0, |s| s.codec_bytes);
    ph.put("spacegen.trace_rps", per_sec(requests, &col(|s| s.generate)));
    ph.put("codec.write_mb_per_s", per_sec(codec_bytes, &col(|s| s.codec_write)) / 1e6);
    ph.put("codec.read_entries_per_s", per_sec(requests, &col(|s| s.codec_read)));

    // The pipeline, traced and untraced, iteration by iteration.
    let (mut logbuild, mut engine, mut log_share, mut engine_share) =
        (vec![], vec![], vec![], vec![]);
    let traced = ph.timed("layers.pipeline", 2.0, |tr| {
        let run = drivers::pipeline(inp, tr);
        drivers::expect_digest(&run.metrics, reference.pipeline_digest)?;
        logbuild.push(run.logbuild_secs);
        engine.push(run.engine_secs);
        log_share.push(run.logbuild_secs / run.secs);
        engine_share.push(run.engine_secs / run.secs);
        Ok(run.secs)
    });
    let mut quiet = Tracer::new(false);
    let untraced = ph.timed("layers.pipeline_untraced", 2.0, |_| {
        let run = drivers::pipeline(inp, &mut quiet);
        drivers::expect_digest(&run.metrics, reference.pipeline_digest)?;
        Ok(run.secs)
    });
    ph.put("logbuild.entries_per_s", per_sec(requests, &logbuild));
    ph.put("logbuild.epochs_per_s", per_sec(inp.epochs(), &logbuild));
    ph.put("logbuild.share", median(&log_share));
    ph.put("engine.rps", per_sec(requests, &engine));
    ph.put("engine.ns_per_req", median(&engine) * 1e9 / requests as f64);
    ph.put("engine.share", median(&engine_share));
    ph.put("trace.overhead_ratio", ratio(median(&traced), median(&untraced)));
    ph.put(
        "harness.iter_iqr_over_median",
        sampler::summarize(&untraced).map_or(0.0, |s| s.iqr_over_median()),
    );
    ph.put("harness.traced_iterations", traced.len() as f64);

    // Exact counts of the degraded lifecycle, from the reference run.
    let m = &reference.pipeline;
    let per_request = |n: u64| n as f64 / requests as f64;
    ph.put("overload.shed_per_req", per_request(m.shed_requests));
    ph.put("overload.retry_per_req", per_request(m.retry_attempts));
    ph.put("overload.fallback_share", per_request(m.served_origin_fallback));
    ph.put("overload.drop_share", per_request(m.dropped_requests));
    ph.put("delayed.hit_share", per_request(m.delayed_hits));
    ph.put("delayed.coalesced_share", per_request(m.coalesced_requests));
    ph.put("faults.remapped_share", per_request(m.remapped_requests));

    // Log build at 2 workers against the sequential build above.
    let par2 = ph.timed("logbuild.par2", 1.0, |tr| {
        let (cols, secs) = tr.time("logbuild", || {
            abi::build_log_columns_parallel(&inp.world, &inp.trace, inp.seed, WORKERS)
        });
        black_box(cols.len());
        Ok(secs)
    });
    ph.put("logbuild.par2_speedup", ratio(median(&logbuild), median(&par2)));

    // Engine variants over one prebuilt log: rows, recorded telemetry,
    // and the sequential engine on the replayer's configuration.
    let cols = abi::build_log_columns(&inp.world, &inp.trace, inp.seed);
    let engine_rows = ph.timed("engine.rows", 1.0, |tr| {
        let mut cdn = abi::new_cdn(&inp.cfg);
        let (m, secs) =
            tr.time("engine", || abi::engine_rows(&mut cdn, &inp.rows, &inp.world, degraded));
        drivers::expect_digest(&m, reference.pipeline_digest)?;
        Ok(secs)
    });
    ph.put("engine.rows_over_cols", ratio(median(&engine_rows), median(&engine)));
    let engine_recorded = ph.timed("engine.recorded", 1.0, |tr| {
        let mut cdn = abi::new_cdn(&inp.cfg);
        let (m, secs) =
            tr.time("engine", || abi::engine_columns(&mut cdn, &cols, &inp.world, degraded, true));
        drivers::expect_digest(&m, reference.pipeline_digest)?;
        Ok(secs)
    });
    ph.put("telemetry.recorded_over_noop", ratio(median(&engine_recorded), median(&engine)));
    let engine_sharded = ph.timed("engine.sharded_config", 1.0, |tr| {
        let mut cdn = abi::new_cdn(&inp.cfg_sharded);
        let (m, secs) =
            tr.time("engine", || abi::engine_columns(&mut cdn, &cols, &inp.world, degraded, false));
        black_box(m.stats.hits);
        Ok(secs)
    });
    drop(cols);

    // The replayer at 1 and 2 workers.
    let replay_at = |ph: &mut Phase, span: &'static str, weight: f64, workers: usize| {
        ph.timed(span, weight, |tr| {
            let (m, secs) = drivers::replay(inp, tr, workers);
            if workers == WORKERS {
                drivers::expect_digest(&m, reference.sharded_digest)?;
            }
            Ok(secs)
        })
    };
    let w1 = replay_at(&mut ph, "replayer.w1", 1.0, 1);
    let w2 = replay_at(&mut ph, "replayer.w2", 2.0, WORKERS);
    ph.put("replayer.rps_w1", per_sec(requests, &w1));
    ph.put("replayer.rps_w2", per_sec(requests, &w2));
    ph.put("replayer.w2_over_w1", ratio(median(&w1), median(&w2)));
    ph.put("replayer.w2_over_engine", ratio(median(&engine_sharded), median(&w2)));
    let (p50, hi, pct, n) = iteration_stats(&w2);
    ph.put("replayer.iter_ms_p50", p50);
    ph.put("replayer.iter_ms_hi", hi);
    ph.put("replayer.iter_hi_pct", pct);
    ph.put("replayer.iter_samples", n);

    // Plan build, then the shard state and the frame codec fed the
    // plan's batches with no transport in between.
    let mut plan = None;
    let plan_secs = ph.timed("serveplan", 1.0, |tr| {
        let (built, secs) = tr.time("serveplan.build", || drivers::build_plan(inp, BATCH_OPS));
        plan = Some(built?);
        Ok(secs)
    });
    ph.put("serveplan.build_rps", per_sec(requests, &plan_secs));
    if let Some(plan) = plan {
        plane_layers(&mut ph, inp, reference, &plan, &w2);
    } else {
        ph.report.errors.push("no serve plan: plane layers not measured".to_string());
        ph.report.failed += 1;
    }

    probes(&mut ph, inp);
    ph.report
}

/// Everything measured over a built plan: shard state, frame codec and
/// the socket plane itself.
fn plane_layers(
    ph: &mut Phase,
    inp: &Inputs,
    reference: &Reference,
    plan: &abi::ServePlan,
    replay_w2: &[f64],
) {
    let requests = inp.requests();
    ph.put("serveplan.bytes_per_req", abi::plan_bytes(plan) as f64 / requests as f64);

    let (mut ops, mut drain) = (0, 0);
    let apply = ph.timed("probe.shardstate.apply", 1.0, |tr| {
        let (applied, secs) = tr.time("shardstate.apply", || abi::apply_plan(plan));
        (ops, drain) = applied?;
        Ok(secs)
    });
    ph.put("shardstate.apply_ops_per_s", per_sec(ops, &apply));
    ph.put("shardstate.drain_bytes", drain as f64);

    let mut wire = Vec::new();
    let encode = ph.timed("probe.frame.encode", 1.0, |tr| {
        let (frames, secs) = tr.time("frame.encode", || abi::encode_frames(plan));
        wire = frames;
        Ok(secs)
    });
    let wire_bytes: u64 = wire.iter().map(|f| f.len() as u64).sum();
    ph.put("frame.encode_mb_per_s", per_sec(wire_bytes, &encode) / 1e6);
    let decode = ph.timed("probe.frame.decode", 1.0, |tr| {
        let (frames, secs) = tr.time("frame.decode", || abi::decode_frames(&wire));
        if frames? != wire.len() as u64 {
            return Err("frame codec lost a frame".to_string());
        }
        Ok(secs)
    });
    ph.put("frame.decode_frames_per_s", per_sec(wire.len() as u64, &decode));
    drop(wire);

    // The plane: loopback TCP against in-process pipes, and small and
    // large batches against the default 64 (per-frame vs per-op cost).
    let serve_loop = |ph: &mut Phase,
                      span: &'static str,
                      weight: f64,
                      plan: &abi::ServePlan,
                      transport: Transport,
                      rec: &dyn abi::Recorder| {
        let mut last = abi::ServeStats::default();
        let secs = ph.timed(span, weight, |tr| {
            let (m, stats, secs) = drivers::serve_plan(plan, tr, transport, rec)?;
            drivers::expect_digest(&m, reference.sharded_digest)?;
            last = stats;
            Ok(secs)
        });
        (secs, last)
    };
    let (tcp, stats) = serve_loop(ph, "plane.tcp", 2.0, plan, Transport::LoopbackTcp, abi::noop());
    let (mem, _) = serve_loop(ph, "plane.mem", 1.0, plan, Transport::Memory, abi::noop());
    let rtt = AckRttRecorder::default();
    serve_loop(ph, "plane.tcp_ack_rtt", 1.0, plan, Transport::LoopbackTcp, &rtt);
    let batch_rps = |ph: &mut Phase, span: &'static str, batch_ops: usize| match drivers::build_plan(
        inp, batch_ops,
    ) {
        Ok(p) => {
            let (secs, _) = serve_loop(ph, span, 1.0, &p, Transport::LoopbackTcp, abi::noop());
            per_sec(requests, &secs)
        }
        Err(e) => {
            ph.report.errors.push(e);
            ph.report.failed += 1;
            0.0
        }
    };
    let b16 = batch_rps(ph, "plane.tcp_b16", 16);
    let b512 = batch_rps(ph, "plane.tcp_b512", 512);

    ph.put("plane.serve_rps_tcp", per_sec(requests, &tcp));
    ph.put("plane.serve_rps_mem", per_sec(requests, &mem));
    ph.put("plane.tcp_over_mem", ratio(median(&tcp), median(&mem)));
    ph.put("plane.serve_rps_b16", b16);
    ph.put("plane.serve_rps_b512", b512);
    ph.put("plane.over_replayer", ratio(median(&tcp), median(replay_w2)));
    let (p50, hi, pct, n) = iteration_stats(&tcp);
    ph.put("plane.iter_ms_p50", p50);
    ph.put("plane.iter_ms_hi", hi);
    ph.put("plane.iter_hi_pct", pct);
    ph.put("plane.iter_samples", n);
    // Counters of the last default-batch TCP serve; `serve_plan` has
    // already failed any iteration where the last four were not 0.
    ph.put("plane.frames_sent", stats.frames_sent as f64);
    ph.put("plane.frames_resent", stats.frames_resent as f64);
    ph.put("plane.timeouts", stats.timeouts as f64);
    ph.put("plane.reconnects", stats.reconnects as f64);
    ph.put("plane.duplicates_dropped", stats.duplicates_dropped as f64);

    let samples = rtt.take();
    let summary = sampler::summarize(&samples);
    ph.put("plane.ack_rtt_us_p50", summary.as_ref().map_or(0.0, |s| s.median));
    ph.put("plane.ack_rtt_us_p99", sampler::percentile(&samples, 990));
    ph.put("plane.ack_rtt_samples", samples.len() as f64);
    if samples.len() < 1000 {
        ph.report.failed += 1;
        ph.report
            .errors
            .push(format!("ack RTT p99 needs >= 1000 exact samples, got {}", samples.len()));
    }
    ph.report.ack_rtt_us = samples;
}

/// Probes of the layers inside the monolithic calls.
fn probes(ph: &mut Phase, inp: &Inputs) {
    let grid = &inp.cfg.grid;
    let capacity = inp.cfg.cache_capacity_bytes;
    let sample = abi::request_sample(&inp.rows, PROBE_REQUESTS);

    // Orbit and scheduler: the snapshot advances one epoch per step, as
    // in the log build; only the call under test is inside the clock.
    let mut orbit = abi::OrbitProbe::new(&inp.world, inp.seed);
    let mut stepped = |advance: bool, step: &mut dyn FnMut(&mut abi::OrbitProbe) -> (u64, u64)| {
        let (mut items, mut extra, mut secs) = (0, 0, 0.0);
        for _ in 0..PROBE_EPOCHS {
            if advance {
                orbit.propagate();
            }
            let t0 = Instant::now();
            let (i, e) = step(&mut orbit);
            secs += t0.elapsed().as_secs_f64();
            items += i;
            extra += e;
        }
        (items, extra, secs)
    };
    let propagate =
        ph.rate_of("probe.orbit.propagate", || stepped(false, &mut |o| (o.propagate(), 0)));
    ph.put("orbit.propagate_sats_per_s", propagate);
    let (mut scans, mut selected) = (0u64, 0u64);
    let locations = inp.world.locations.len() as u64;
    let visibility = ph.rate_of("probe.orbit.visibility", || {
        let (checks, picked, secs) = stepped(true, &mut |o| o.visibility());
        scans += PROBE_EPOCHS * locations;
        selected += picked;
        (checks, picked, secs)
    });
    ph.put("orbit.visibility_checks_per_s", visibility);
    ph.put("orbit.visible_per_scan", ratio(selected as f64, scans as f64));
    let schedule =
        ph.rate_of("probe.scheduler.epoch", || stepped(true, &mut |o| (o.schedule(), 0)));
    ph.put("scheduler.epochs_per_s", schedule);

    let mut hits = (0, 0);
    let lru = ph.rate("probe.cache.lru", || {
        hits = abi::cache_replay(&sample, capacity);
        hits
    });
    ph.put("cache.lru_access_per_s", lru);
    ph.put("cache.hit_ratio", ratio(hits.1 as f64, hits.0 as f64));
    let fetch_epochs = inp.spec.degraded.as_ref().map_or(1, |d| d.fetch_epochs);
    let delayed = ph
        .rate("probe.cache.delayed", || abi::cache_replay_delayed(&sample, capacity, fetch_epochs));
    ph.put("cache.delayed_access_per_s", delayed);

    let lookups =
        ph.rate("probe.buckets.owner", || abi::bucket_lookups(&sample, grid, inp.spec.buckets));
    ph.put("buckets.owner_lookups_per_s", lookups);
    let paths = ph.rate("probe.routing.grid", || abi::grid_paths(&sample, grid));
    ph.put("routing.grid_paths_per_s", paths);
    let view = abi::midrun_failures(&inp.world);
    let few = abi::request_sample(&inp.rows, BFS_PROBE_REQUESTS);
    let bfs = ph.rate("probe.routing.bfs", || abi::bfs_paths(&few, grid, &view));
    ph.put("routing.bfs_paths_per_s", bfs);
    let headroom = inp.overload.map_or(1.0, |o| o.headroom);
    let admits =
        ph.rate("probe.capacity.admit", || abi::ledger_admits(&sample, &inp.cfg, headroom));
    ph.put("capacity.admits_per_s", admits);
    let cdn = abi::new_cdn(&inp.cfg);
    let routes = ph.rate("probe.core.resolve_route", || abi::resolve_routes(&cdn, &sample));
    ph.put("core.resolve_routes_per_s", routes);
}
