//! The three end-to-end paths every workload is driven through, and
//! the output checks that turn a wrong result into a failed operation
//! instead of a fast time.
//!
//! * `pipeline`: trace → columnar access log → fresh `SpaceCdn` →
//!   engine → `SystemMetrics`, in process on the calling thread.
//! * `replay`: decoded row log → `replay_parallel` at 2 workers.
//! * `serve`: decoded row log → `ServePlan::build` → `serve_replay`
//!   over loopback TCP, 2 shards, one connection each, window 8,
//!   router on the calling thread. Closed loop: a shard's next frame
//!   goes out only when the window has room.
//!
//! Every iteration starts from empty modelled caches, so the simulated
//! statistics include the cold start.

use crate::abi::{self, Transport};
use crate::spans::Tracer;
use crate::workloads::Inputs;

/// Workers = shards = connections. The machine this was sized on has 2
/// hardware threads; a run refuses to start on fewer (main.rs).
pub const WORKERS: usize = 2;

/// Ops per `Ops` frame in the end-to-end serve.
pub const BATCH_OPS: usize = 64;

/// A shard's `DrainAck` carries 8 bytes of latency sample per request
/// plus its counters, per-satellite table and timelines; this much is
/// left for everything that is not a latency sample.
const DRAIN_SLACK_BYTES: usize = 128 * 1024;

/// Largest request count one shard may hold before its `DrainAck`
/// outgrows `MAX_FRAME_LEN` and the serve can never finish.
pub const MAX_REQUESTS_PER_SHARD: u64 = ((abi::MAX_FRAME_LEN - DRAIN_SLACK_BYTES) / 8) as u64;

pub struct PipelineRun {
    pub metrics: abi::SystemMetrics,
    pub secs: f64,
    pub logbuild_secs: f64,
    pub engine_secs: f64,
}

pub fn pipeline(inp: &Inputs, tr: &mut Tracer) -> PipelineRun {
    let all = tr.begin("pipeline");
    let (cols, logbuild_secs) =
        tr.time("logbuild", || abi::build_log_columns(&inp.world, &inp.trace, inp.seed));
    let (mut cdn, _) = tr.time("cdn.new", || abi::new_cdn(&inp.cfg));
    let (metrics, engine_secs) = tr.time("engine", || {
        abi::engine_columns(&mut cdn, &cols, &inp.world, inp.overload.as_ref(), false)
    });
    PipelineRun { metrics, secs: tr.end(all), logbuild_secs, engine_secs }
}

pub fn replay(inp: &Inputs, tr: &mut Tracer, workers: usize) -> (abi::SystemMetrics, f64) {
    tr.time("replay", || {
        abi::replay(&inp.cfg_sharded, &inp.world, &inp.rows, inp.overload.as_ref(), workers)
    })
}

pub fn build_plan(inp: &Inputs, batch_ops: usize) -> Result<abi::ServePlan, String> {
    abi::build_plan(
        &inp.cfg_sharded,
        &inp.world,
        &inp.rows,
        inp.overload.as_ref(),
        WORKERS,
        batch_ops,
    )
}

/// Fail fast, naming the cap, instead of letting the router reconnect
/// until `Timeout("serve overall deadline")`.
pub fn guard_drain_cap(plan: &abi::ServePlan) -> Result<(), String> {
    let worst = abi::max_requests_per_shard(plan);
    if worst > MAX_REQUESTS_PER_SHARD {
        return Err(format!(
            "drain cap: a shard holds {worst} requests, more than {MAX_REQUESTS_PER_SHARD}; its \
             DrainAck (8 B of latency sample per request) would exceed MAX_FRAME_LEN = {} B and \
             serve_replay would spin for {} s into Timeout(\"serve overall deadline\")",
            abi::MAX_FRAME_LEN,
            abi::serve_overall_deadline().as_secs(),
        ));
    }
    Ok(())
}

/// One serve over an already-built plan; fails unless the run was
/// clean (no resend, timeout, reconnect or duplicate on a fault-free
/// transport).
pub fn serve_plan(
    plan: &abi::ServePlan,
    tr: &mut Tracer,
    transport: Transport,
    rec: &dyn abi::Recorder,
) -> Result<(abi::SystemMetrics, abi::ServeStats, f64), String> {
    guard_drain_cap(plan)?;
    let (result, secs) = tr.time("plane.serve", || abi::serve(plan, transport, rec));
    let (metrics, stats) = result.map_err(|e| format!("serve_replay: {e}"))?;
    let dirty = stats.frames_resent + stats.timeouts + stats.reconnects + stats.duplicates_dropped;
    if dirty > 0 {
        return Err(format!("fault-free serve was not clean: {stats:?}"));
    }
    Ok((metrics, stats, secs))
}

pub struct ServeRun {
    pub metrics: abi::SystemMetrics,
    /// Plan build plus serve.
    pub secs: f64,
    pub plan: abi::ServePlan,
}

/// The end-to-end serve: plan build + serve over loopback TCP.
pub fn serve(inp: &Inputs, tr: &mut Tracer, rec: &dyn abi::Recorder) -> Result<ServeRun, String> {
    let all = tr.begin("serve");
    let (plan, plan_secs) = tr.time("serveplan.build", || build_plan(inp, BATCH_OPS));
    let served = plan.and_then(|plan| {
        let (metrics, _, serve_secs) = serve_plan(&plan, tr, Transport::LoopbackTcp, rec)?;
        Ok(ServeRun { metrics, secs: plan_secs + serve_secs, plan })
    });
    tr.end(all);
    served
}

// ---------------------------------------------------------------- checks

/// `metrics_digest` with the latency samples sorted first: the sharded
/// paths merge samples in shard order, so runs at different shard
/// counts agree on this digest and not on the plain one.
pub fn canonical_digest(m: &abi::SystemMetrics) -> u64 {
    let mut sorted = m.clone();
    sorted.latencies_ms.sort_by(f64::total_cmp);
    abi::metrics_digest(&sorted)
}

/// The conservation identities of `tests/overload.rs`, plus
/// coalesced ≤ misses.
pub fn check_conservation(inp: &Inputs, m: &abi::SystemMetrics) -> Result<(), String> {
    let entries = inp.requests();
    if m.stats.requests + m.dropped_requests != entries {
        return Err(format!(
            "recorded {} + dropped {} != {entries} log entries",
            m.stats.requests, m.dropped_requests
        ));
    }
    if inp.overload.is_some() {
        let classified = m.served_primary
            + m.served_replica
            + m.served_origin_fallback
            + abi::unreachable_requests(m);
        if classified != m.stats.requests {
            return Err(format!(
                "primary + replica + fallback + unreachable = {classified} != {} recorded",
                m.stats.requests
            ));
        }
    }
    let misses = m.stats.requests - m.stats.hits;
    if m.coalesced_requests > misses {
        return Err(format!("coalesced {} > misses {misses}", m.coalesced_requests));
    }
    Ok(())
}

/// What the timed iterations are compared against.
pub struct Reference {
    /// The pipeline's metrics on this seed (source of `sim_*`).
    pub pipeline: abi::SystemMetrics,
    pub pipeline_digest: u64,
    /// Digest shared by replay at 2 workers and both serves.
    pub sharded_digest: u64,
}

/// One untimed pass through every path: the warm-up iteration that is
/// discarded, and the cross-implementation checks. Each check is one
/// operation; failures are returned, not panicked.
pub fn reference_pass(inp: &Inputs, tr: &mut Tracer) -> (Reference, u64, Vec<String>) {
    let mut failures = Vec::new();
    let mut checks = 0u64;
    let mut check = |name: &str, result: Result<(), String>| {
        checks += 1;
        if let Err(e) = result {
            failures.push(format!("{name}: {e}"));
        }
    };
    let run = pipeline(inp, tr);
    let pipeline_digest = abi::metrics_digest(&run.metrics);
    check("conservation", check_conservation(inp, &run.metrics));

    let mut cdn = abi::new_cdn(&inp.cfg);
    let rows = abi::engine_rows(&mut cdn, &inp.rows, &inp.world, inp.overload.as_ref());
    check("row engine == columnar engine", expect_digest(&rows, pipeline_digest));
    drop((rows, cdn));

    let (w2, _) = replay(inp, tr, WORKERS);
    let sharded_digest = abi::metrics_digest(&w2);
    let (w1, _) = replay(inp, tr, 1);
    check(
        "replay at 1 worker == replay at 2, latencies sorted",
        same_digest(canonical_digest(&w1), canonical_digest(&w2)),
    );
    drop((w1, w2));

    let tcp = serve(inp, tr, abi::noop());
    check(
        "serve over loopback TCP == replay",
        tcp.as_ref().map_err(String::clone).and_then(|r| expect_digest(&r.metrics, sharded_digest)),
    );
    check(
        "serve over MemNet == replay",
        tcp.and_then(|r| serve_plan(&r.plan, tr, Transport::Memory, abi::noop()))
            .and_then(|(mem, _, _)| expect_digest(&mem, sharded_digest)),
    );

    (Reference { pipeline: run.metrics, pipeline_digest, sharded_digest }, checks, failures)
}

fn same_digest(got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("metrics_digest {got:016x} != {want:016x}"))
    }
}

/// Compare one run's output with the reference pass's digest.
pub fn expect_digest(m: &abi::SystemMetrics, want: u64) -> Result<(), String> {
    same_digest(abi::metrics_digest(m), want)
}

/// Simulated request hit rate and mean latency of a run.
pub fn sim_stats(m: &abi::SystemMetrics) -> (f64, f64) {
    let hit_rate = m.stats.hits as f64 / m.stats.requests.max(1) as f64;
    let mean_ms = m.latencies_ms.iter().sum::<f64>() / m.latencies_ms.len().max(1) as f64;
    (hit_rate, mean_ms)
}
