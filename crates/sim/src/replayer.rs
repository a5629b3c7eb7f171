//! The parallel cache replayer.
//!
//! The paper's replayer spawns one process per satellite, every process
//! running the same cache code, and uses TCP to mimic ISL message
//! exchange. This reproduction shards satellites over scoped worker
//! threads: a sequential pre-pass resolves every request to its owner
//! ([`crate::resolve`], the function the engine resolves with) and
//! appends it to that owner's shard stream, then each worker replays its
//! stream in log order through [`starcdn::kernel::serve_one`] — the body
//! the engine serves with. There are no channels — the streams are plain
//! vectors handed to the workers by reference. Per-satellite caches sit
//! behind `parking_lot` mutexes so relay probes can read neighbour
//! caches across shards (DESIGN.md substitution #3).
//!
//! Determinism: each satellite's own request stream is processed in
//! order, so *per-satellite* cache behaviour is exact. Relay probes read
//! a neighbour's cache at whatever point that shard has reached, so
//! relay hit counts can differ slightly from the sequential engine run
//! (bounded by in-flight skew); variants without relayed fetch produce
//! bit-identical statistics. Locks are never held two-at-a-time, so the
//! workers cannot deadlock.
//!
//! Fault schedules keep that exactness: the sequential pre-pass resolves
//! every request against the live failure view of its epoch and injects
//! cache-wipe / mark-cold pseudo-ops into the owning satellite's shard
//! stream. A dead satellite receives no routed requests while dead, so
//! the pseudo-ops land at the same stream position the sequential engine
//! applies them — per-satellite behaviour stays bit-for-bit identical
//! for no-relay configurations. (Relay probes under churn resolve
//! candidates against the *base* failure set, the same approximation as
//! the static path; with one worker, whose single stream is the log's
//! order, the replay is the engine's exactly, relay included.) The
//! overload lifecycle runs on the pre-pass too: it depends only on
//! routes, sizes and cumulative ledger state, never on cache contents,
//! so its decision sequence is the engine's.
//!
//! Checkpoints (the private `replayer_checkpoint` module) cut the run
//! into segments at pre-pass barriers; a run without one is a single
//! segment.
//!
//! Proactive-prefetch configurations are *not* simulated here (prefetch
//! rounds are global barriers, which would defeat the sharding); use the
//! sequential engine for the prefetch ablation.

use crate::access_log::AccessLog;
use crate::checkpoint::CheckpointError;
use crate::columns::LogView;
use crate::engine::{FaultEventWatermark, RunSpec};
use crate::overload::{Admission, OverloadConfig};
use crate::replayer_checkpoint::{ReplayCheckpointer, ReplayState};
use crate::resolve::{record_outcome, resolve_request, Resolved};
use crossbeam::thread;
use parking_lot::Mutex;
use starcdn::config::StarCdnConfig;
use starcdn::kernel::{serve_one, RoutedRequest, ServeEnv, SlotStore};
use starcdn::metrics::{AvailabilityPoint, SystemMetrics};
use starcdn_cache::policy::Cache;
use starcdn_cache::InflightQueue;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::{FaultSchedule, ScheduleCursor};
use starcdn_telemetry::{
    Counter, Event, Histo, MemoryRecorder, Recorder, SpanTimer, Stage, TelemetrySnapshot,
};
use std::ops::DerefMut;

/// One element of a shard's ordered work stream.
pub(crate) enum ShardOp {
    /// A routed request, stamped with its scheduler epoch (the
    /// delayed-hit clock) so each shard replays its own slots' fetch
    /// timelines exactly as the sequential engine does.
    Request(RoutedRequest),
    /// The satellite at this slot index went down: its cache is lost.
    Wipe(usize),
    /// The satellite at this slot index recovered: cold until first hit.
    MarkCold(usize),
}

/// Replay `log` (rows or columns) against the fleet described by
/// `cfg`/`failures` on `num_workers` threads, as `spec` describes;
/// returns the aggregate metrics. The schedule applies on top of the
/// static `failures` base.
///
/// Workers record into private per-shard [`MemoryRecorder`]s that are
/// merged into `spec.recorder` in shard index order after the last
/// segment joins, so the returned metrics — and the recorded snapshot —
/// are identical run-to-run regardless of thread interleaving. Fault
/// events are stamped with their epoch in the pre-pass, which already
/// walks the schedule sequentially.
///
/// A checkpointed run joins all workers at every `every_n_epochs`
/// barrier — so the snapshot is globally consistent even with relay
/// probes reading neighbour caches across shards — and writes the
/// worker-side state there. A resumed run re-runs the pre-pass in full
/// (it is deterministic and cheap next to the cache work) and restores
/// per-worker state in shard index order, so it finishes bit-for-bit
/// identical to the uninterrupted run at any worker count. A run
/// without a checkpoint cannot fail.
///
/// `spec.measure_from_secs` is not honoured — the sharded workers share
/// no instant at which to reset — so the whole log is measured.
///
/// # Panics
/// Panics when `num_workers` is zero.
pub fn run<'a>(
    cfg: &StarCdnConfig,
    base_failures: &FailureModel,
    log: impl Into<LogView<'a>>,
    num_workers: usize,
    spec: &RunSpec<'_>,
) -> Result<SystemMetrics, CheckpointError> {
    assert!(num_workers > 0);
    let log = log.into();
    let rec = spec.recorder;
    let enabled = rec.is_enabled();
    let env = ServeEnv::new(cfg);

    let checkpointer = spec
        .checkpoint
        .as_ref()
        .map(|ck| ReplayCheckpointer::open(ck, cfg, base_failures, log, spec, num_workers));
    // A resume first finds a checkpoint to start from, so a hopeless one
    // fails before the pre-pass runs or records anything.
    let resuming = checkpointer.as_ref().filter(|cp| cp.resuming());
    let mut restored = match resuming {
        Some(cp) => Some(cp.load_newest(cfg, u64::MAX, rec)?),
        None => None,
    };

    // Sequential pre-pass: partition by owner, preserving per-owner
    // order. Route resolution uses the live failure view of each entry's
    // epoch; wipe/cold pseudo-ops land in the owning satellite's stream
    // at the epoch boundary. Unreachable or unroutable requests and the
    // degraded-mode counters are accounted directly there.
    let barrier_every = checkpointer.as_ref().map(|cp| cp.every_n_epochs());
    let PrePass { shards, direct, cuts } =
        prepare_shards(&env, base_failures, log, spec, num_workers, barrier_every);

    // Per-worker recorders: workers never touch the shared `rec`, so the
    // hot path has no cross-thread contention and the merged snapshot is
    // independent of thread interleaving.
    let worker_recs: Vec<MemoryRecorder> = if enabled {
        (0..num_workers).map(|_| MemoryRecorder::new()).collect()
    } else {
        Vec::new()
    };
    let mut state = ReplayState::fresh(cfg, num_workers);
    let mut starts: Vec<usize> = vec![0; num_workers];
    let mut next_segment = 0usize; // segments are [0, cuts.len()]
    while let (Some(cp), Some(r)) = (resuming, restored.take()) {
        // A valid checkpoint can still be wrong for this log (its
        // barrier is past the log's end): fall back to an older one.
        let Some(pos) = cuts.iter().position(|c| c.barrier_epoch == r.barrier_epoch) else {
            rec.event(Event::CheckpointRestoreFallback, r.barrier_epoch, 1);
            restored = Some(cp.load_newest(cfg, r.barrier_epoch, rec)?);
            continue;
        };
        state = r.state;
        for (wr, snap) in worker_recs.iter().zip(&r.telemetry) {
            wr.absorb(snap);
        }
        starts = cuts[pos].lens.clone();
        next_segment = pos + 1;
    }

    for seg in next_segment..=cuts.len() {
        let ends: Vec<usize> = match cuts.get(seg) {
            Some(cut) => cut.lens.clone(),
            None => shards.iter().map(Vec::len).collect(),
        };
        {
            let (env, starts, ends, shards, worker_recs) =
                (&env, &starts, &ends, &shards, &worker_recs);
            let store = SharedSlots { caches: &state.caches, inflight: &state.inflight };
            thread::scope(|s| {
                let handles: Vec<_> = state
                    .metrics
                    .iter_mut()
                    .zip(state.cold.iter_mut())
                    .enumerate()
                    .map(|(w, (m, cold))| {
                        s.spawn(move |_| {
                            let wrec = worker_recs.get(w);
                            let _shard_span =
                                wrec.map(|r| SpanTimer::start(r, Stage::ReplayShard, w as u64));
                            let (ops, mut store) = (&shards[w][starts[w]..ends[w]], store);
                            run_shard_ops(ops, &mut store, env, base_failures, m, cold, wrec);
                        })
                    })
                    .collect();
                for h in handles {
                    h.join().expect("worker panicked");
                }
            })
            .expect("replayer scope");
        }
        starts = ends;
        if let (Some(cp), Some(cut)) = (&checkpointer, cuts.get(seg)) {
            // All workers joined: the snapshot is globally consistent.
            cp.write(cut.barrier_epoch, &state, &worker_recs)?;
        }
    }

    // Deterministic telemetry merge: snapshot each worker recorder in
    // shard index order, fold into one snapshot, absorb once. The shard
    // streams themselves are deterministic, so the merged snapshot is
    // bit-for-bit stable across runs and worker interleavings.
    if enabled {
        let mut merged = TelemetrySnapshot::default();
        for wr in &worker_recs {
            merged.merge(&wr.snapshot());
        }
        rec.absorb(&merged);
    }

    let mut total = direct;
    for m in &state.metrics {
        total.merge(m);
    }
    Ok(total)
}

// The names `benchmark/src/abi.rs` calls (that package is frozen by
// BENCHMARK.json and pinned to these signatures). Each is [`run`] with
// the arguments it names; neither can fail, since no checkpoint is set.

/// [`run`] with the default [`RunSpec`] over a row log.
pub fn replay_parallel(
    cfg: StarCdnConfig,
    failures: FailureModel,
    log: &AccessLog,
    num_workers: usize,
) -> SystemMetrics {
    run(&cfg, &failures, log, num_workers, &RunSpec::default())
        .expect("a run without a checkpoint performs no I/O")
}

/// [`run`] under a fault schedule and an overload configuration, over a
/// row log.
pub fn replay_parallel_overloaded(
    cfg: StarCdnConfig,
    failures: FailureModel,
    log: &AccessLog,
    schedule: &FaultSchedule,
    num_workers: usize,
    overload: &OverloadConfig,
) -> SystemMetrics {
    let spec = RunSpec { schedule, overload: *overload, ..RunSpec::default() };
    run(&cfg, &failures, log, num_workers, &spec)
        .expect("a run without a checkpoint performs no I/O")
}

/// A checkpointable barrier recorded by the pre-pass: the length of every
/// shard stream at the moment the log crossed an `every_n`-epoch
/// boundary (before that boundary's churn pseudo-ops were pushed).
/// Workers joining at these cut points see a globally consistent state.
pub(crate) struct ShardCut {
    pub barrier_epoch: u64,
    pub lens: Vec<usize>,
}

/// Everything the sequential pre-pass produces: per-shard op streams,
/// the directly-accounted metrics (unreachable/unroutable requests,
/// availability and utilization timelines, overload outcomes), and —
/// when `barrier_every` is set — the segment cut table for the
/// checkpointed path.
pub(crate) struct PrePass {
    pub shards: Vec<Vec<ShardOp>>,
    pub direct: SystemMetrics,
    pub cuts: Vec<ShardCut>,
}

/// The sequential pre-pass, shared by [`run`] and the socket plane's
/// [`crate::serve::ServePlan`] so both resolve, admit, and shard every
/// request identically: [`resolve_request`] per entry under the live
/// failure view of its epoch, then a push onto the owner's stream.
/// `barrier_every` additionally records a [`ShardCut`] each time the log
/// crosses that many scheduler epochs; `None` records no cuts and
/// changes nothing else. Of `spec`, the schedule, the overload
/// configuration and the recorder are read.
pub(crate) fn prepare_shards(
    env: &ServeEnv,
    base_failures: &FailureModel,
    log: LogView<'_>,
    spec: &RunSpec<'_>,
    num_workers: usize,
    barrier_every: Option<u64>,
) -> PrePass {
    let rec = spec.recorder;
    let spp = env.grid.sats_per_plane;
    let total_slots = env.grid.total_slots();

    let enabled = rec.is_enabled();
    // Reserve each shard for its expected share up front: the op streams
    // together hold nearly every entry, and pre-sizing keeps the hot
    // pre-pass loop free of reallocation copies.
    let shard_hint = log.len() / num_workers + 16;
    let mut shards: Vec<Vec<ShardOp>> =
        (0..num_workers).map(|_| Vec::with_capacity(shard_hint)).collect();
    let mut cuts: Vec<ShardCut> = Vec::new();
    let mut direct = SystemMetrics::default();
    let mut cursor = spec.live_schedule().map(|s| ScheduleCursor::new(s, base_failures.clone()));
    let epoch_secs = log.epoch_secs().max(1);
    // Overload mode: the capacity ledger lives on this sequential
    // pre-pass (per-shard results merge in shard index order below), so
    // admission decisions are identical to the sequential engine's.
    let mut admission = spec.live_overload().map(|o| Admission::new(env, o, epoch_secs));
    let mut current_epoch = u64::MAX;
    let mut seg_epoch = u64::MAX;
    // Telemetry epoch tracking is independent of the fault cursor so the
    // static (no-schedule) path still gets a per-epoch resolve timeline.
    let mut tele_epoch = u64::MAX;
    let mut resolve_span: Option<SpanTimer> = None;
    let mut watermark = FaultEventWatermark::default();
    for e in log.entries() {
        let epoch = e.time.as_secs() / epoch_secs;
        if let Some(every) = barrier_every {
            let every = every.max(1);
            // Cut before this epoch's churn pseudo-ops are pushed: a
            // checkpoint at this barrier captures the state *before*
            // the boundary, mirroring the engine checkpoint semantics.
            if seg_epoch != u64::MAX && epoch / every != seg_epoch / every {
                cuts.push(ShardCut {
                    barrier_epoch: epoch,
                    lens: shards.iter().map(Vec::len).collect(),
                });
            }
            seg_epoch = epoch;
        }
        if enabled && epoch != tele_epoch {
            if tele_epoch != u64::MAX {
                watermark.flush(rec, tele_epoch, &direct);
            }
            tele_epoch = epoch;
            // Replacing the span drops (and thus reports) the previous
            // epoch's resolve time.
            resolve_span = Some(SpanTimer::start(rec, Stage::ResolveOwner, epoch));
        }
        if let Some(cur) = cursor.as_mut() {
            if epoch != current_epoch {
                current_epoch = epoch;
                let delta = cur.advance_to(epoch * epoch_secs);
                if enabled {
                    crate::access_log::record_fault_delta(rec, epoch, &delta);
                    rec.add(Counter::CacheWipes, delta.went_down.len() as u64);
                    rec.add(Counter::ColdMarks, delta.came_up.len() as u64);
                }
                for &id in &delta.went_down {
                    let idx = id.index(spp);
                    shards[idx % num_workers].push(ShardOp::Wipe(idx));
                }
                for &id in &delta.came_up {
                    let idx = id.index(spp);
                    shards[idx % num_workers].push(ShardOp::MarkCold(idx));
                }
                direct.availability.push(AvailabilityPoint {
                    epoch,
                    alive_sats: (total_slots - cur.view().dead_count()) as u32,
                    cut_links: cur.view().cut_link_count() as u32,
                });
            }
        }
        if let Some(adm) = admission.as_mut().filter(|adm| adm.epoch != epoch) {
            direct.utilization.extend(adm.advance_to(epoch));
        }
        let view = cursor.as_ref().map(|c| c.view()).unwrap_or(base_failures);
        // Workers only touch caches: whatever is decided without one is
        // accounted here, on the sequential spine.
        if let Resolved::Serve(req) =
            resolve_request(env, view, admission.as_mut(), epoch, &e, &mut direct, rec)
        {
            shards[req.owner.index(spp) % num_workers].push(ShardOp::Request(req));
        }
    }
    // Close out the last epoch's resolve span and event cells, then
    // record how much work each shard was handed.
    drop(resolve_span);
    if let Some(mut adm) = admission {
        direct.utilization.extend(adm.ledger.finish());
    }
    if enabled {
        if tele_epoch != u64::MAX {
            watermark.flush(rec, tele_epoch, &direct);
        }
        for shard in &shards {
            rec.observe(Histo::QueueDepth, shard.len() as u64);
        }
    }
    PrePass { shards, direct, cuts }
}

/// The threaded replayer's slot store: every slot behind its own mutex,
/// because a relay probe reads a neighbour's cache on another worker's
/// shard. The in-flight queues are only ever touched by the worker that
/// owns their slot — those mutexes are uncontended and exist for `Sync`.
#[derive(Clone, Copy)]
struct SharedSlots<'s> {
    caches: &'s [Mutex<Box<dyn Cache + Send>>],
    inflight: &'s [Mutex<InflightQueue>],
}

impl SlotStore for SharedSlots<'_> {
    fn cache(&mut self, slot: usize) -> impl DerefMut<Target = Box<dyn Cache + Send>> {
        self.caches[slot].lock()
    }

    fn inflight(&mut self, slot: usize) -> impl DerefMut<Target = InflightQueue> {
        self.inflight[slot].lock()
    }
}

/// Replay one contiguous slice of a shard's op stream against `store`,
/// accumulating into the worker's persistent `m`/`cold` state: wipe,
/// mark cold, or [`serve_one`]. Relay candidates resolve against the
/// static `base_failures`, not a live view — workers run ahead of and
/// behind the pre-pass's churn cursor.
pub(crate) fn run_shard_ops<S: SlotStore>(
    ops: &[ShardOp],
    store: &mut S,
    env: &ServeEnv,
    base_failures: &FailureModel,
    m: &mut SystemMetrics,
    cold: &mut [bool],
    wrec: Option<&MemoryRecorder>,
) {
    for op in ops {
        match op {
            ShardOp::Request(req) => {
                let out = serve_one(store, env, base_failures, cold, m, req);
                if let Some(r) = wrec {
                    record_outcome(r, &out, req.size);
                }
            }
            ShardOp::Wipe(idx) => {
                store.cache(*idx).clear();
                store.inflight(*idx).clear();
                cold[*idx] = false;
            }
            ShardOp::MarkCold(idx) => cold[*idx] = true,
        }
    }
}

// ---------------------------------------------------------------------------
// Shard-op wire codec (used by the socket serving plane in `crate::serve`).
//
// The serving plane ships pre-resolved op streams over TCP and must
// decode them without ever panicking on hostile input.
// ---------------------------------------------------------------------------

const OP_REQUEST: u8 = 0;
const OP_WIPE: u8 = 1;
const OP_MARK_COLD: u8 = 2;

/// Append one shard op to `w` (tag byte + fields, little-endian; floats
/// travel as bit patterns so replay stays bit-exact).
pub(crate) fn put_shard_op(w: &mut crate::checkpoint::ByteWriter, op: &ShardOp) {
    match op {
        ShardOp::Request(e) => {
            w.u8(OP_REQUEST);
            w.u64(e.object.0);
            w.u64(e.size);
            w.u16(e.owner.orbit);
            w.u16(e.owner.slot);
            w.u16(e.intra);
            w.u16(e.inter);
            w.f64_bits(e.gsl_oneway_ms);
            w.f64_bits(e.penalty_ms);
            w.u8(match e.replica {
                None => 0,
                Some(false) => 1,
                Some(true) => 2,
            });
            w.u64(e.epoch);
        }
        ShardOp::Wipe(idx) => {
            w.u8(OP_WIPE);
            w.u64(*idx as u64);
        }
        ShardOp::MarkCold(idx) => {
            w.u8(OP_MARK_COLD);
            w.u64(*idx as u64);
        }
    }
}

/// Decode one shard op. Slot indices and owner ids are validated against
/// `total_slots` (with `spp` = sats per plane) so a corrupt or hostile
/// stream becomes a typed error instead of an out-of-bounds panic in
/// [`run_shard_ops`].
pub(crate) fn get_shard_op(
    r: &mut crate::checkpoint::ByteReader<'_>,
    spp: u16,
    total_slots: usize,
) -> Result<ShardOp, crate::checkpoint::CheckpointError> {
    use crate::checkpoint::CheckpointError;
    match r.u8()? {
        OP_REQUEST => {
            // Fields decode in wire order: a struct literal evaluates
            // its fields as written.
            let req = RoutedRequest {
                object: starcdn_cache::object::ObjectId(r.u64()?),
                size: r.u64()?,
                owner: starcdn_orbit::walker::SatelliteId::new(r.u16()?, r.u16()?),
                intra: r.u16()?,
                inter: r.u16()?,
                gsl_oneway_ms: r.f64_bits()?,
                penalty_ms: r.f64_bits()?,
                replica: match r.u8()? {
                    0 => None,
                    1 => Some(false),
                    2 => Some(true),
                    _ => return Err(CheckpointError::Malformed("bad replica tag")),
                },
                epoch: r.u64()?,
            };
            if req.owner.index(spp) >= total_slots {
                return Err(CheckpointError::Malformed("op owner out of range"));
            }
            Ok(ShardOp::Request(req))
        }
        OP_WIPE => {
            let idx = r.u64()? as usize;
            if idx >= total_slots {
                return Err(CheckpointError::Malformed("wipe slot out of range"));
            }
            Ok(ShardOp::Wipe(idx))
        }
        OP_MARK_COLD => {
            let idx = r.u64()? as usize;
            if idx >= total_slots {
                return Err(CheckpointError::Malformed("mark-cold slot out of range"));
            }
            Ok(ShardOp::MarkCold(idx))
        }
        _ => Err(CheckpointError::Malformed("unknown shard op tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_log::build_access_log;
    use crate::engine::{run_space, SimConfig};
    use crate::world::World;
    use spacegen::trace::{LocationId, Request, Trace};
    use starcdn::system::SpaceCdn;
    use starcdn_cache::object::ObjectId;
    use starcdn_constellation::schedule::{FaultEvent, TimedFault};
    use starcdn_orbit::time::SimTime;

    fn log() -> AccessLog {
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

    #[test]
    fn matches_engine_exactly_without_relay() {
        let log = log();
        for cfg in [StarCdnConfig::starcdn_no_relay(4, 100_000), StarCdnConfig::naive_lru(100_000)]
        {
            let mut seq = SpaceCdn::new(cfg.clone());
            let m_seq = run_space(&mut seq, &log);
            let m_par = replay_parallel(cfg, FailureModel::none(), &log, 4);
            assert_eq!(m_seq.stats, m_par.stats);
            assert_eq!(m_seq.uplink_bytes, m_par.uplink_bytes);
            assert_eq!(m_seq.served_local, m_par.served_local);
            // Per-satellite stats identical too.
            assert_eq!(m_seq.per_satellite, m_par.per_satellite);
        }
    }

    #[test]
    #[should_panic(expected = "3×3 bucket tile does not fit a 3×2 grid")]
    fn pre_pass_refuses_a_tile_wider_than_a_grid_axis() {
        let cfg = StarCdnConfig {
            grid: starcdn_constellation::grid::GridTopology {
                num_planes: 3,
                sats_per_plane: 2,
                seamless: true,
            },
            ..StarCdnConfig::starcdn(9, 100_000)
        };
        let log = AccessLog { entries: Vec::new(), epoch_secs: 15 };
        replay_parallel(cfg, FailureModel::none(), &log, 2);
    }

    #[test]
    fn close_to_engine_with_relay() {
        let log = log();
        let cfg = StarCdnConfig::starcdn(4, 100_000);
        let mut seq = SpaceCdn::new(cfg.clone());
        let m_seq = run_space(&mut seq, &log);
        let m_par = replay_parallel(cfg, FailureModel::none(), &log, 4);
        assert_eq!(m_par.stats.requests, m_seq.stats.requests);
        let d = (m_par.stats.request_hit_rate() - m_seq.stats.request_hit_rate()).abs();
        assert!(d < 0.05, "parallel RHR deviates by {d}");
    }

    #[test]
    fn single_worker_degenerate_case() {
        let log = log();
        let cfg = StarCdnConfig::starcdn_no_relay(9, 50_000);
        let m1 = replay_parallel(cfg.clone(), FailureModel::none(), &log, 1);
        let m8 = replay_parallel(cfg, FailureModel::none(), &log, 8);
        assert_eq!(m1.stats, m8.stats);
    }

    #[test]
    fn handles_failures() {
        let log = log();
        let w = World::starlink_nine_cities();
        let failures = FailureModel::sample(&w.grid, 126, 3);
        let cfg = StarCdnConfig::starcdn_no_relay(9, 100_000);
        let mut seq = SpaceCdn::with_failures(cfg.clone(), failures.clone());
        let m_seq = run_space(&mut seq, &log);
        let m_par = replay_parallel(cfg, failures, &log, 4);
        assert_eq!(m_seq.stats, m_par.stats);
        assert_eq!(m_seq.remapped_requests, m_par.remapped_requests);
        assert_eq!(m_seq.reroute_extra_hops, m_par.reroute_extra_hops);
    }

    #[test]
    fn empty_schedule_matches_static_path() {
        let log = log();
        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        let m_static = replay_parallel(cfg.clone(), FailureModel::none(), &log, 4);
        let empty = FaultSchedule::empty();
        let spec = RunSpec { schedule: &empty, ..RunSpec::default() };
        let m_sched = run(&cfg, &FailureModel::none(), &log, 4, &spec).unwrap();
        assert_eq!(m_static.stats, m_sched.stats);
        assert_eq!(m_static.per_satellite, m_sched.per_satellite);
        assert!(m_sched.availability.is_empty());
    }

    #[test]
    fn churn_matches_engine_exactly_without_relay() {
        let log = log();
        let w = World::starlink_nine_cities();
        // A handful of restarts among the satellites actually serving
        // traffic, plus a background of random failures.
        let busy: Vec<_> = {
            let mut probe = SpaceCdn::new(StarCdnConfig::starcdn_no_relay(4, 100_000));
            run_space(&mut probe, &log);
            let mut sats: Vec<_> =
                probe.metrics.per_satellite.iter().map(|(s, st)| (*s, st.requests)).collect();
            sats.sort_by_key(|(s, r)| (std::cmp::Reverse(*r), *s));
            sats.into_iter().take(6).map(|(s, _)| s).collect()
        };
        let mut events = Vec::new();
        for (i, &s) in busy.iter().enumerate() {
            events.push(TimedFault { at_secs: 60 + 15 * i as u64, event: FaultEvent::SatDown(s) });
            events.push(TimedFault { at_secs: 240 + 15 * i as u64, event: FaultEvent::SatUp(s) });
        }
        let sched = FaultSchedule::from_events(events);
        let base = FailureModel::sample(&w.grid, 20, 9);

        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        let mut seq = SpaceCdn::with_failures(cfg.clone(), base.clone());
        let spec = RunSpec { schedule: &sched, ..RunSpec::default() };
        let m_seq = crate::engine::run(&mut seq, &log, &spec).unwrap();
        for workers in [1, 4] {
            let m_par = run(&cfg, &base, &log, workers, &spec).unwrap();
            assert_eq!(m_seq.stats, m_par.stats, "{workers} workers");
            assert_eq!(m_seq.per_satellite, m_par.per_satellite);
            assert_eq!(m_seq.uplink_bytes, m_par.uplink_bytes);
            assert_eq!(m_seq.cold_restart_misses, m_par.cold_restart_misses);
            assert_eq!(m_seq.remapped_requests, m_par.remapped_requests);
            assert_eq!(m_seq.reroute_extra_hops, m_par.reroute_extra_hops);
            assert_eq!(m_seq.availability, m_par.availability);
        }
    }

    #[test]
    fn delayed_matches_engine_exactly_without_relay() {
        use starcdn::config::DelayedHitConfig;
        // Single location: the first contact is stable within a scheduler
        // epoch, so same-epoch repeats land on one owner and coalesce;
        // the small capacity keeps misses (and fetches) going all run.
        let w = World::starlink_nine_cities();
        let reqs: Vec<Request> = (0..3000u64)
            .map(|k| Request {
                time: SimTime::from_secs(k / 6),
                object: ObjectId((k * 7919) % 50),
                size: 500 + (k % 5) * 100,
                location: LocationId(0),
            })
            .collect();
        let log = build_access_log(&w, &Trace::new(reqs), 15, &SimConfig::default().scheduler());
        let cfg = StarCdnConfig::starcdn_no_relay(4, 20_000)
            .with_delayed_hits(DelayedHitConfig::with_latency(2, 40.0));
        let mut seq = SpaceCdn::new(cfg.clone());
        let m_seq = run_space(&mut seq, &log);
        assert!(m_seq.delayed_hits > 0, "trace must exercise coalescing");
        for workers in [1, 4] {
            let m_par = replay_parallel(cfg.clone(), FailureModel::none(), &log, workers);
            assert_eq!(m_seq.stats, m_par.stats, "{workers} workers");
            assert_eq!(m_seq.delayed_hits, m_par.delayed_hits);
            assert_eq!(m_seq.coalesced_requests, m_par.coalesced_requests);
            assert_eq!(m_seq.residual_epoch_hist, m_par.residual_epoch_hist);
            assert_eq!(m_seq.per_satellite, m_par.per_satellite);
            assert_eq!(m_seq.uplink_bytes, m_par.uplink_bytes);
            let mut a: Vec<u64> = m_seq.latencies_ms.iter().map(|l| l.to_bits()).collect();
            let mut b: Vec<u64> = m_par.latencies_ms.iter().map(|l| l.to_bits()).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "latency multiset identical at {workers} workers");
        }
    }

    #[test]
    #[should_panic]
    fn zero_workers_rejected() {
        replay_parallel(
            StarCdnConfig::naive_lru(10),
            FailureModel::none(),
            &AccessLog::default(),
            0,
        );
    }
}
