//! The parallel cache replayer.
//!
//! The paper's replayer spawns one process per satellite, every process
//! running the same cache code, and uses TCP to mimic ISL message
//! exchange. This reproduction shards satellites over scoped worker
//! threads in two phases. The pre-pass resolves every request to its
//! owner (`crate::resolve`, the function the engine resolves with) and
//! appends it to the stream of the shard that owns that slot; it splits
//! the log into scheduler-epoch-aligned chunks and resolves them in
//! parallel, one thread per chunk. Then each worker replays its stream
//! in log order through [`starcdn::kernel::serve_one`] — the body the
//! engine serves with — against a full-size [`Slots`] of its own. There
//! are no channels and no locks: the streams are plain vectors handed to
//! the workers by reference, and no worker touches another's slots.
//!
//! Determinism: a shard is a set of whole relay groups
//! ([`shard_table`]). An owner, its relay candidates and its probe
//! neighbours, as the base failure view resolves them, all sit on one
//! worker, which sees every op on those slots in log order. So every
//! cache a serve reads is in the state the sequential engine's serve
//! reads, and the replay is the engine's bit for bit at any worker
//! count, relay and probe included (only the latency samples come out
//! shard by shard instead of in log order). Without relay or probing
//! every slot is a group of its own, and slot `i` goes to worker
//! `i % num_workers`.
//!
//! Fault schedules keep that exactness: the pre-pass crosses each
//! scheduler-epoch boundary through the engine's own step
//! (`crate::resolve::EpochBoundary`), resolves every request against the
//! live failure view of its epoch, and turns the boundary's churn into
//! cache-wipe / mark-cold pseudo-ops on the owning satellite's shard
//! stream where the engine applies it to its fleet. A dead satellite
//! receives no routed requests while dead, so the pseudo-ops land at the
//! same stream position the sequential engine applies them —
//! per-satellite behaviour stays bit-for-bit identical. Fault events are
//! recorded where their counters are counted — remaps and detours on
//! resolve, cold misses on serve — so the event timeline is the
//! engine's too.
//! Relay candidates and probes resolve against the *base* failure set,
//! the view the groups are drawn on, while the engine resolves them
//! against the live view of each epoch: with relay under churn the
//! replay is the same at every worker count but can differ from the
//! engine's. A chunk starts from the failure view the entry before it
//! left, and chunks never share an epoch, so the chunked pre-pass is the
//! sequential one bit for bit. The overload lifecycle runs on the
//! pre-pass too: it depends only on routes, sizes and ledger state, never
//! on cache contents, so its decision sequence is the engine's. Every attempt
//! admits against its request's own epoch and the ledger keeps one usage
//! table per epoch, so each chunk admits its own epochs from empty
//! tables, as one pass would.
//!
//! Checkpoints (the private `replayer_checkpoint` module) cut the run
//! into segments at pre-pass barriers; a run without one is a single
//! segment.
//!
//! Proactive-prefetch configurations are refused (prefetch rounds are
//! global barriers, which would defeat the sharding); use the sequential
//! engine for the prefetch ablation.

use crate::access_log::AccessLog;
use crate::checkpoint::{CheckpointError, Checkpointer, KIND_REPLAY};
use crate::engine::{assert_conserved, RunSpec};
use crate::epoch_chunks::{chunk_starts, or_one_chunk, run_chunks};
use crate::overload::OverloadConfig;
use crate::replayer_checkpoint::{replay_fingerprint, ReplayState};
use crate::resolve::{record_outcome, resolve_request, EpochBoundary, Resolved};
use starcdn::config::StarCdnConfig;
use starcdn::kernel::{serve_one, RoutedRequest, ServeEnv, Slots};
use starcdn::metrics::SystemMetrics;
use starcdn::relay::shard_table;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::FaultSchedule;
use starcdn_io::wire::{Reader, WireError, Writer};
use starcdn_telemetry::{
    Event, Histo, MemoryRecorder, Recorder, SpanTimer, Stage, TelemetrySnapshot,
};
use std::ops::Range;

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

/// Replay `log` against the fleet described by `cfg`/`failures` on
/// `num_workers` threads, as `spec` describes; returns the aggregate
/// metrics. The schedule applies on top of the static `failures` base.
///
/// Pre-pass chunks and workers record into private [`MemoryRecorder`]s
/// that are merged into `spec.recorder` in chunk, then shard index
/// order, so the returned metrics — and the recorded snapshot — are
/// identical run-to-run regardless of thread interleaving. Fault events
/// are stamped with their request's epoch (churn with the epoch it
/// applies at), so the timeline is the engine's.
///
/// A checkpointed run joins all workers at every `every_n_epochs`
/// barrier — so every worker's part of the snapshot is taken at the
/// same point of the log — and writes the worker-side state there. A
/// resumed run re-runs the pre-pass in full
/// (it is deterministic and cheap next to the cache work) and restores
/// per-worker state in shard index order, so it finishes bit-for-bit
/// identical to the uninterrupted run at any worker count. A run
/// without a checkpoint cannot fail.
///
/// # Panics
/// Panics when `num_workers` is zero, or when `cfg` configures proactive
/// prefetch (`prefetch_top_k`), which only the engine runs.
pub fn run(
    cfg: &StarCdnConfig,
    base_failures: &FailureModel,
    log: &AccessLog,
    num_workers: usize,
    spec: &RunSpec<'_>,
) -> Result<SystemMetrics, CheckpointError> {
    assert!(num_workers > 0);
    assert!(
        cfg.prefetch_top_k.is_none(),
        "the replayer does not run prefetch rounds; replay a prefetch configuration with the engine"
    );
    let rec = spec.recorder;
    let enabled = rec.is_enabled();
    let env = ServeEnv::new(cfg);
    let shard_of = shard_table(&env, base_failures, num_workers);

    let mut checkpointer = spec.checkpoint.as_ref().map(|ck| {
        let epoch_secs = log.epoch_secs.max(1);
        let fingerprint =
            replay_fingerprint(cfg, base_failures, epoch_secs, spec, &shard_of, num_workers);
        Checkpointer::open(ck, KIND_REPLAY, fingerprint)
    });
    // A resume first finds a checkpoint to start from, so a hopeless one
    // fails before the pre-pass runs or records anything.
    let resume = |cp: &mut Checkpointer<'_>, before| {
        ReplayState::resume(cp, cfg, &shard_of, num_workers, before, rec)
    };
    let mut restored = match checkpointer.as_mut().filter(|cp| cp.resuming()) {
        Some(cp) => Some(resume(cp, u64::MAX)?),
        None => None,
    };

    // The pre-pass: partition by shard, preserving per-owner order.
    // Route resolution uses the live failure view of each entry's epoch;
    // wipe/cold pseudo-ops land in the owning satellite's stream at the
    // epoch boundary. Unreachable or unroutable requests and the
    // degraded-mode counters are accounted directly there.
    let barrier_every = checkpointer.as_ref().map(|cp| cp.every_n_epochs());
    let pre = prepare_shards(&env, base_failures, log, spec, &shard_of, num_workers, barrier_every);
    let cuts = &pre.cuts;

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
    while let (Some(cp), Some(r)) = (checkpointer.as_mut(), restored.take()) {
        // A valid checkpoint can still be wrong for this log (its
        // barrier is past the log's end): fall back to an older one.
        let Some(pos) = cuts.iter().position(|c| c.barrier_epoch == r.barrier_epoch) else {
            rec.event(Event::CheckpointRestoreFallback, r.barrier_epoch, 1);
            restored = Some(resume(cp, r.barrier_epoch)?);
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
            None => (0..num_workers).map(|w| pre.stream_len(w)).collect(),
        };
        {
            let (env, pre, starts, ends, worker_recs) = (&env, &pre, &starts, &ends, &worker_recs);
            std::thread::scope(|s| {
                for (w, (slots, m)) in state.workers().enumerate() {
                    s.spawn(move || {
                        let wrec = worker_recs.get(w);
                        let _shard_span =
                            wrec.map(|r| SpanTimer::start(r, Stage::ReplayShard, w as u64));
                        // Count on this thread's stack, not beside the
                        // other workers' metrics; write back at the end.
                        let mut local = std::mem::take(m);
                        for ops in pre.stream(w, starts[w]..ends[w]) {
                            run_shard_ops(ops, slots, env, base_failures, &mut local, wrec);
                        }
                        *m = local;
                    });
                }
            });
        }
        starts = ends;
        if let (Some(cp), Some(cut)) = (checkpointer.as_mut(), cuts.get(seg)) {
            // All workers joined: the snapshot is globally consistent.
            state.write(cp, cut.barrier_epoch, &shard_of, &worker_recs)?;
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

    let mut total = pre.direct;
    for m in &state.metrics {
        total.merge(m);
    }
    // The replayer measures the whole log, so a chunk or shard lost or
    // counted twice shows here.
    assert_conserved(&total, log.len(), spec.live_overload().is_some());
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
    pub(crate) barrier_epoch: u64,
    pub(crate) lens: Vec<usize>,
}

/// Everything the pre-pass produces: per-shard op streams, the
/// directly-accounted metrics (unreachable/unroutable requests,
/// availability and utilization timelines, overload outcomes), and —
/// when `barrier_every` is set — the segment cut table for the
/// checkpointed path.
pub(crate) struct PrePass {
    /// `pieces[c][w]` is chunk `c`'s part of shard `w`'s stream: the
    /// stream is chunk 0's piece, then chunk 1's, and so on. Readers walk
    /// the pieces in place; nothing concatenates them.
    pub(crate) pieces: Vec<Vec<Vec<ShardOp>>>,
    pub(crate) direct: SystemMetrics,
    /// [`ShardCut::lens`] are offsets into the whole streams.
    pub(crate) cuts: Vec<ShardCut>,
}

impl PrePass {
    /// Length of shard `w`'s whole stream.
    pub(crate) fn stream_len(&self, w: usize) -> usize {
        self.pieces.iter().map(|chunk| chunk[w].len()).sum()
    }

    /// Ops `range` of shard `w`'s whole stream, as the piece slices that
    /// hold them, in stream order.
    pub(crate) fn stream(&self, w: usize, range: Range<usize>) -> impl Iterator<Item = &[ShardOp]> {
        let mut base = 0;
        self.pieces.iter().filter_map(move |chunk| {
            let piece = &chunk[w];
            let lo = range.start.max(base) - base;
            let hi = range.end.min(base + piece.len()).saturating_sub(base);
            base += piece.len();
            (lo < hi).then(|| &piece[lo..hi])
        })
    }
}

/// The pre-pass, shared by [`run`] and the socket plane's
/// [`crate::serve::ServePlan`] so both resolve, admit, and shard every
/// request identically: [`resolve_request`] per entry under the live
/// failure view of its epoch, then a push onto the stream of shard
/// `shard_of[owner]` (a [`shard_table`] of `num_workers`).
/// `barrier_every` additionally records a [`ShardCut`] each time the log
/// crosses that many scheduler epochs; `None` records no cuts and
/// changes nothing else. Of `spec`, the schedule, the overload
/// configuration and the recorder are read.
///
/// The log resolves in the chunks `epoch_chunks::chunk_starts` picks,
/// one thread each, the first on the calling thread. Their results merge
/// in chunk order — metrics by [`SystemMetrics::merge`] (chunks never
/// share an epoch, so that is the one-pass metrics bit for bit,
/// availability and utilization timelines included), telemetry by
/// absorbing each chunk's recorder — into what one pass over the whole
/// log produces. A log whose time runs backwards is resolved again as
/// one chunk.
pub(crate) fn prepare_shards(
    env: &ServeEnv,
    base_failures: &FailureModel,
    log: &AccessLog,
    spec: &RunSpec<'_>,
    shard_of: &[usize],
    num_workers: usize,
    barrier_every: Option<u64>,
) -> PrePass {
    let epoch_secs = log.epoch_secs.max(1);
    let starts =
        chunk_starts(log.len(), num_workers, |i| log.entries[i].time.as_secs() / epoch_secs);
    or_one_chunk(&starts, |starts| {
        prepare_chunks(env, base_failures, log, spec, shard_of, num_workers, barrier_every, starts)
    })
}

/// One chunk of the pre-pass: its entry range and everything resolving
/// it produces, pre-sized on the calling thread (`epoch_chunks::run_chunks`).
struct Chunk {
    range: Range<usize>,
    pieces: Vec<Vec<ShardOp>>,
    direct: SystemMetrics,
    cuts: Vec<ShardCut>,
    rec: Option<MemoryRecorder>,
}

/// [`prepare_shards`] over the chunks that begin at `starts`; `None`
/// when there are several and the log's time runs backwards, which one
/// pass would resolve differently (it keeps such a log's availability
/// timeline in log order, a merge sorts it).
#[allow(clippy::too_many_arguments)]
fn prepare_chunks(
    env: &ServeEnv,
    base_failures: &FailureModel,
    log: &AccessLog,
    spec: &RunSpec<'_>,
    shard_of: &[usize],
    num_workers: usize,
    barrier_every: Option<u64>,
    starts: &[usize],
) -> Option<PrePass> {
    let rec = spec.recorder;
    let enabled = rec.is_enabled();
    let chunks = run_chunks(
        log.len(),
        starts,
        |range| {
            // Reserve each piece for its expected share up front: the
            // streams together hold nearly every entry, and pre-sizing
            // keeps the hot loop free of reallocation copies.
            let hint = range.len() / num_workers + 16;
            Chunk {
                range,
                pieces: (0..num_workers).map(|_| Vec::with_capacity(hint)).collect(),
                direct: SystemMetrics::default(),
                cuts: Vec::new(),
                rec: enabled.then(MemoryRecorder::new),
            }
        },
        |ch| resolve_chunk(env, base_failures, log, spec, shard_of, barrier_every, ch),
    )?;

    // The first chunk is the base, not merged into an empty one: a merge
    // sorts the availability timeline, which one chunk of a log whose
    // time runs backwards must keep in log order.
    let mut chunks = chunks.into_iter();
    let first = chunks.next().expect("bounds hold at least one chunk");
    let mut lens: Vec<usize> = first.pieces.iter().map(Vec::len).collect();
    let mut pre = PrePass { pieces: vec![first.pieces], direct: first.direct, cuts: first.cuts };
    let mut snapshot = first.rec.map(|r| r.snapshot()).unwrap_or_default();
    for ch in chunks {
        pre.direct.merge(&ch.direct);
        pre.cuts.extend(ch.cuts.into_iter().map(|mut cut| {
            cut.lens.iter_mut().zip(&lens).for_each(|(len, offset)| *len += offset);
            cut
        }));
        lens.iter_mut().zip(&ch.pieces).for_each(|(len, piece)| *len += piece.len());
        pre.pieces.push(ch.pieces);
        if let Some(r) = ch.rec {
            snapshot.merge(&r.snapshot());
        }
    }
    if enabled {
        rec.absorb(&snapshot);
        // How much work each shard was handed.
        for len in lens {
            rec.observe(Histo::QueueDepth, len as u64);
        }
    }
    Some(pre)
}

/// The pre-pass's one per-entry loop, over chunk `ch`'s entries. A chunk
/// after the first starts where the entry before it left one pass: the
/// boundary skipped silently to that entry's epoch, which also seeds the
/// epoch the barriers count from. Returns whether the chunk's epochs
/// never decrease, starting above that entry's epoch.
fn resolve_chunk(
    env: &ServeEnv,
    base_failures: &FailureModel,
    log: &AccessLog,
    spec: &RunSpec<'_>,
    shard_of: &[usize],
    barrier_every: Option<u64>,
    ch: &mut Chunk,
) -> bool {
    let rec: &dyn Recorder = match &ch.rec {
        Some(r) => r,
        None => spec.recorder,
    };
    let spp = env.grid.sats_per_plane;
    let epoch_secs = log.epoch_secs.max(1);
    // Overload mode: each chunk's ledger starts empty, as one pass's
    // does at the chunk's first epoch, so admission decisions are the
    // engine's.
    let mut boundary =
        EpochBoundary::new(env, base_failures, spec, epoch_secs, rec, Stage::ResolveOwner);
    let before = ch.range.start.checked_sub(1).map(|i| log.entries[i].time.as_secs() / epoch_secs);
    if let Some(epoch) = before {
        boundary.skip_to(epoch);
    }
    let mut floor = before.map_or(0, |epoch| epoch + 1);
    let mut in_order = true;
    let Chunk { range, pieces, direct, cuts, .. } = ch;
    for e in &log.entries[range.clone()] {
        let epoch = e.time.as_secs() / epoch_secs;
        in_order &= epoch >= floor;
        floor = epoch;
        if epoch != boundary.epoch {
            // Cut before this epoch's churn pseudo-ops are pushed: a
            // checkpoint at this barrier captures the state *before*
            // the boundary, as an engine checkpoint does.
            if barrier_every.is_some_and(|every| boundary.crosses(epoch, every)) {
                cuts.push(ShardCut {
                    barrier_epoch: epoch,
                    lens: pieces.iter().map(Vec::len).collect(),
                });
            }
            if let Some(churn) = boundary.enter(epoch, direct) {
                for &id in &churn.went_down {
                    let idx = id.index(spp);
                    pieces[shard_of[idx]].push(ShardOp::Wipe(idx));
                }
                for &id in &churn.came_up {
                    let idx = id.index(spp);
                    pieces[shard_of[idx]].push(ShardOp::MarkCold(idx));
                }
            }
        }
        // Workers only touch caches: whatever is decided without one is
        // accounted here, in the pre-pass.
        let (view, admission) = boundary.resolving(base_failures);
        if let Resolved::Serve(req) = resolve_request(env, view, admission, epoch, e, direct, rec) {
            pieces[shard_of[req.owner.index(spp)]].push(ShardOp::Request(req));
        }
    }
    boundary.finish(direct);
    in_order
}

/// Replay one contiguous slice of a shard's op stream against the
/// shard's own `slots`, accumulating into the worker's persistent `m`:
/// wipe, mark cold, or [`serve_one`]. Relay candidates resolve against
/// the static `base_failures`, not a live view — workers run ahead of
/// and behind the pre-pass's churn cursor.
pub(crate) fn run_shard_ops(
    ops: &[ShardOp],
    slots: &mut Slots,
    env: &ServeEnv,
    base_failures: &FailureModel,
    m: &mut SystemMetrics,
    wrec: Option<&MemoryRecorder>,
) {
    for op in ops {
        match op {
            ShardOp::Request(req) => {
                let out = serve_one(slots, env, base_failures, m, req);
                if let Some(r) = wrec {
                    record_outcome(r, &out, req);
                }
            }
            ShardOp::Wipe(idx) => slots.wipe(*idx),
            ShardOp::MarkCold(idx) => slots.mark_cold(*idx),
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

/// Encoded length of a request op: tag, object, size, owner (orbit,
/// slot), intra, inter, GSL one-way, penalty, replica tag, epoch.
const REQUEST_OP_LEN: usize = 1 + 8 + 8 + 2 + 2 + 2 + 2 + 8 + 8 + 1 + 8;
/// Encoded length of a wipe or mark-cold op: tag, slot index.
const SLOT_OP_LEN: usize = 1 + 8;

/// Bytes [`put_shard_op`] writes for `op`, so an encoder can size its
/// buffer once.
pub(crate) fn shard_op_len(op: &ShardOp) -> usize {
    match op {
        ShardOp::Request(_) => REQUEST_OP_LEN,
        ShardOp::Wipe(_) | ShardOp::MarkCold(_) => SLOT_OP_LEN,
    }
}

/// Append one shard op to `w` (tag byte + fields, little-endian; floats
/// travel as bit patterns so replay stays bit-exact). Written by hand,
/// not as a `codec` field list: the replica tag (0/1/2) is not an
/// `Option<bool>`, and decoding validates slots.
pub(crate) fn put_shard_op(w: &mut Writer<'_>, op: &ShardOp) {
    let start = w.position();
    match op {
        ShardOp::Request(e) => {
            w.u8(OP_REQUEST);
            w.u64(e.object.0);
            w.u64(e.size);
            w.u16(e.owner.orbit);
            w.u16(e.owner.slot);
            w.u16(e.intra);
            w.u16(e.inter);
            w.f64(e.gsl_oneway_ms);
            w.f64(e.penalty_ms);
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
    debug_assert_eq!(w.position() - start, shard_op_len(op), "shard_op_len disagrees");
}

/// Decode one shard op. Slot indices and owner ids are validated against
/// `total_slots` (with `spp` = sats per plane) so a corrupt or hostile
/// stream becomes a typed error instead of an out-of-bounds panic in
/// [`run_shard_ops`].
pub(crate) fn get_shard_op(
    r: &mut Reader<'_>,
    spp: u16,
    total_slots: usize,
) -> Result<ShardOp, WireError> {
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
                gsl_oneway_ms: r.f64()?,
                penalty_ms: r.f64()?,
                replica: match r.u8()? {
                    0 => None,
                    1 => Some(false),
                    2 => Some(true),
                    _ => return Err(WireError::Invalid("bad replica tag")),
                },
                epoch: r.u64()?,
            };
            if req.owner.index(spp) >= total_slots {
                return Err(WireError::Invalid("op owner out of range"));
            }
            Ok(ShardOp::Request(req))
        }
        OP_WIPE => {
            let idx = r.u64()? as usize;
            if idx >= total_slots {
                return Err(WireError::Invalid("wipe slot out of range"));
            }
            Ok(ShardOp::Wipe(idx))
        }
        OP_MARK_COLD => {
            let idx = r.u64()? as usize;
            if idx >= total_slots {
                return Err(WireError::Invalid("mark-cold slot out of range"));
            }
            Ok(ShardOp::MarkCold(idx))
        }
        _ => Err(WireError::Invalid("unknown shard op tag")),
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

    /// The `n` satellites that serve the most requests of `log`.
    fn busy_sats(log: &AccessLog, n: usize) -> Vec<starcdn_orbit::walker::SatelliteId> {
        let mut probe = SpaceCdn::new(StarCdnConfig::starcdn_no_relay(4, 100_000));
        run_space(&mut probe, log);
        let mut sats: Vec<_> =
            probe.metrics.per_satellite.iter().map(|(s, st)| (*s, st.requests)).collect();
        sats.sort_by_key(|(s, r)| (std::cmp::Reverse(*r), *s));
        sats.into_iter().take(n).map(|(s, _)| s).collect()
    }

    #[test]
    fn churn_matches_engine_exactly_without_relay() {
        let log = log();
        let w = World::starlink_nine_cities();
        // A handful of restarts among the satellites actually serving
        // traffic, plus a background of random failures.
        let busy = busy_sats(&log, 6);
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

    /// [`prepare_shards`] over the shard table of `workers`.
    fn shards(
        env: &ServeEnv,
        base: &FailureModel,
        log: &AccessLog,
        spec: &RunSpec<'_>,
        workers: usize,
        barrier: Option<u64>,
    ) -> PrePass {
        let table = shard_table(env, base, workers);
        prepare_shards(env, base, log, spec, &table, workers, barrier)
    }

    /// [`prepare_chunks`] over the shard table of `workers`.
    fn chunks(
        env: &ServeEnv,
        base: &FailureModel,
        log: &AccessLog,
        spec: &RunSpec<'_>,
        workers: usize,
        barrier: Option<u64>,
        starts: &[usize],
    ) -> Option<PrePass> {
        let table = shard_table(env, base, workers);
        prepare_chunks(env, base, log, spec, &table, workers, barrier, starts)
    }

    /// Everything [`prepare_shards`] returns, as one number: every shard
    /// stream's op bytes in stream order, the direct metrics, every cut.
    fn pre_pass_digest(p: &PrePass) -> u64 {
        let mut bytes = Vec::new();
        let mut w = Writer::new(&mut bytes);
        for shard in 0..p.pieces[0].len() {
            let len = p.stream_len(shard);
            w.u64(len as u64);
            for op in p.stream(shard, 0..len).flatten() {
                put_shard_op(&mut w, op);
            }
        }
        w.u64(crate::checkpoint::metrics_digest(&p.direct));
        for cut in &p.cuts {
            w.u64(cut.barrier_epoch);
            for &len in &cut.lens {
                w.u64(len as u64);
            }
        }
        starcdn_io::wire::fp_bytes(0xCBF2_9CE4_8422_2325, &bytes)
    }

    /// A recorded snapshot with every span's wall-clock durations zeroed
    /// (their keys and counts stay), as one number.
    fn snapshot_digest(snap: &TelemetrySnapshot) -> u64 {
        let mut snap = snap.clone();
        for cell in snap.spans.values_mut() {
            cell.total_ns = 0;
            cell.max_ns = 0;
        }
        starcdn_io::wire::fp_bytes(0xCBF2_9CE4_8422_2325, &crate::codec::encode(&snap))
    }

    /// Headroom ≈ 1.5 mean objects per satellite per epoch: tight enough
    /// that shedding, retries, fallbacks and drops all happen.
    fn tight_overload(log: &AccessLog) -> OverloadConfig {
        let mean = log.entries.iter().map(|e| e.size).sum::<u64>() / log.entries.len() as u64;
        OverloadConfig { headroom: mean as f64 * 1.5 / 37_500_000_000.0, retry_deadline_ms: 1e9 }
    }

    /// Satellite and link churn over the whole 500 s of [`log`].
    fn pin_churn() -> FaultSchedule {
        let grid = World::starlink_nine_cities().grid;
        FaultSchedule::churn(
            &grid,
            &starcdn_constellation::schedule::ChurnParams {
                sat_mtbf_secs: 3600.0,
                sat_mttr_secs: 120.0,
                link_mtbf_secs: Some(3600.0),
                link_mttr_secs: 120.0,
                horizon_secs: 500,
                seed: 91,
            },
        )
    }

    /// The pre-pass, pinned: its output at 1, 2, 3, 4 and 8 workers in
    /// six scenarios, and the recorded snapshot of the last one, as
    /// digests taken from the single sequential pass it was before it
    /// resolved in epoch-aligned chunks.
    #[test]
    fn pre_pass_output_is_pinned() {
        const WORKERS: [usize; 5] = [1, 2, 3, 4, 8];
        #[rustfmt::skip]
        const PINS: [(&str, [u64; 5]); 6] = [
            ("plain", [0xadfde8642b09b075, 0x8d9da68a40b6473a, 0x133e2bc8f9589d9e,
                       0xd5c59e60c3983c19, 0xb94c1ce3e391aa7e]),
            ("outages", [0x10dcd556d249f1da, 0x798768d26d16f82d, 0xba4b6b36b0c52ee3,
                         0x2dc1dc542952de76, 0xb61715ce62fb0b7c]),
            ("churn", [0x12e67ba0d795b898, 0x8e58b1ba22322232, 0x14bf2d0a550ae52c,
                       0xca15c0e11f1021c0, 0xb38f1bde4150fa38]),
            ("churn+barriers", [0x5ac6adaa756f6958, 0x4d4fe0c0c282d6fd, 0x44e31040a94f7b4a,
                                0xcd0c0356df081ebc, 0x7f6e84d9e3652911]),
            ("churn+overload", [0x5f1a2273dd2d6237, 0x24a24963a551842a, 0xc02b65fc64e44b4d,
                                0xb9f34595fedb4d02, 0x4f52c768cdd7b09c]),
            ("churn+recorder", [0x12e67ba0d795b898, 0x8e58b1ba22322232, 0x14bf2d0a550ae52c,
                                0xca15c0e11f1021c0, 0xb38f1bde4150fa38]),
        ];
        #[rustfmt::skip]
        const SNAPSHOT_PINS: [u64; 5] = [
            0xb23ec3ee1f579b6d, 0x5efd722c27210973, 0xa950bbc090a1f7ca,
            0xdbb7cca059b715fa, 0xe546769d3f1e3383,
        ];
        let log = log();
        let env = ServeEnv::new(&StarCdnConfig::starcdn_no_relay(4, 100_000));
        let outages = FailureModel::sample(&World::starlink_nine_cities().grid, 126, 3);
        let churn = pin_churn();
        let overload = tight_overload(&log);
        for (name, pins) in PINS {
            for (k, &workers) in WORKERS.iter().enumerate() {
                let rec = MemoryRecorder::new();
                let mut spec = RunSpec::default();
                let mut base = &FailureModel::none();
                let mut barrier = None;
                match name {
                    "plain" => {}
                    "outages" => base = &outages,
                    "churn" => spec.schedule = &churn,
                    "churn+barriers" => (spec.schedule, barrier) = (&churn, Some(7)),
                    "churn+overload" => (spec.schedule, spec.overload) = (&churn, overload),
                    _ => (spec.schedule, spec.recorder) = (&churn, &rec),
                }
                let pre = shards(&env, base, &log, &spec, workers, barrier);
                let got = pre_pass_digest(&pre);
                assert_eq!(got, pins[k], "{name} at {workers} workers: {got:#018x}");
                if spec.recorder.is_enabled() {
                    let got = snapshot_digest(&rec.snapshot());
                    assert_eq!(got, SNAPSHOT_PINS[k], "snapshot at {workers} workers: {got:#018x}");
                }
            }
        }
    }

    fn epoch_of(log: &AccessLog, i: usize) -> u64 {
        log.entries[i].time.as_secs() / log.epoch_secs
    }

    /// The first entry of every epoch but the first.
    fn every_epoch_start(log: &AccessLog) -> Vec<usize> {
        (1..log.entries.len()).filter(|&i| epoch_of(log, i - 1) < epoch_of(log, i)).collect()
    }

    /// Any epoch-aligned split resolves to the one pass, bit for bit:
    /// here every epoch is a chunk, under churn, barriers, a live
    /// recorder and overload admission, with a loose and the default
    /// retry deadline.
    #[test]
    fn every_epoch_a_chunk_is_the_one_pass() {
        let log = log();
        let env = ServeEnv::new(&StarCdnConfig::starcdn_no_relay(4, 100_000));
        let churn = pin_churn();
        let base = FailureModel::sample(&World::starlink_nine_cities().grid, 20, 9);
        let every_epoch = every_epoch_start(&log);
        assert!(every_epoch.len() > 30);
        let tight = tight_overload(&log);
        let default_deadline = OverloadConfig::with_headroom(tight.headroom);
        for overload in [OverloadConfig::disabled(), tight, default_deadline] {
            for workers in [1, 3, 8] {
                let (one_rec, split_rec) = (MemoryRecorder::new(), MemoryRecorder::new());
                let spec = |recorder| RunSpec {
                    schedule: &churn,
                    overload,
                    recorder,
                    ..RunSpec::default()
                };
                let [one, split] =
                    [(&one_rec, &[][..]), (&split_rec, &every_epoch[..])].map(|(rec, starts)| {
                        let spec = spec(rec);
                        chunks(&env, &base, &log, &spec, workers, Some(3), starts)
                            .expect("a log sorted by time")
                    });
                let tag = format!("{overload:?} at {workers} workers");
                assert_eq!(split.pieces.len(), every_epoch.len() + 1);
                assert_eq!(pre_pass_digest(&one), pre_pass_digest(&split), "{tag}");
                assert_eq!(one.direct.utilization, split.direct.utilization, "{tag}");
                assert_eq!(
                    snapshot_digest(&one_rec.snapshot()),
                    snapshot_digest(&split_rec.snapshot()),
                    "{tag}"
                );
                if overload.is_enabled() {
                    assert!(one.direct.shed_requests > 0, "{tag}: admission must shed");
                    assert!(one.direct.utilization.len() > 30, "{tag}");
                }
            }
        }
    }

    /// Engine ≡ replayer, exactly, when the epoch the second chunk starts
    /// at takes one busy satellite down and brings another back up.
    #[test]
    fn churn_on_a_chunk_boundary_matches_engine_exactly() {
        let log = log();
        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        let env = ServeEnv::new(&cfg);
        let busy = busy_sats(&log, 2);
        for workers in [2, 3, 8] {
            let first_cut = chunk_starts(log.len(), workers, |i| epoch_of(&log, i))[0];
            let at = epoch_of(&log, first_cut) * log.epoch_secs;
            let sched = FaultSchedule::from_events([
                TimedFault { at_secs: 30, event: FaultEvent::SatDown(busy[1]) },
                TimedFault { at_secs: at, event: FaultEvent::SatDown(busy[0]) },
                TimedFault { at_secs: at, event: FaultEvent::SatUp(busy[1]) },
                TimedFault { at_secs: at + 60, event: FaultEvent::SatUp(busy[0]) },
            ]);
            let spec = RunSpec { schedule: &sched, ..RunSpec::default() };
            let none = FailureModel::none();
            let chunked = shards(&env, &none, &log, &spec, workers, None);
            let one = chunks(&env, &none, &log, &spec, workers, None, &[]);
            assert_eq!(pre_pass_digest(&chunked), pre_pass_digest(&one.unwrap()));

            let m_seq = crate::engine::run(&mut SpaceCdn::new(cfg.clone()), &log, &spec).unwrap();
            let m_par = run(&cfg, &none, &log, workers, &spec).unwrap();
            assert!(m_seq.cold_restart_misses > 0, "the revived satellite must serve cold");
            assert_eq!(m_seq.stats, m_par.stats, "{workers} workers");
            assert_eq!(m_seq.per_satellite, m_par.per_satellite);
            assert_eq!(m_seq.cold_restart_misses, m_par.cold_restart_misses);
            assert_eq!(m_seq.remapped_requests, m_par.remapped_requests);
            assert_eq!(m_seq.availability, m_par.availability);
            let sorted = |m: &SystemMetrics| {
                let mut bits: Vec<u64> = m.latencies_ms.iter().map(|l| l.to_bits()).collect();
                bits.sort_unstable();
                bits
            };
            assert_eq!(sorted(&m_seq), sorted(&m_par), "{workers} workers");
        }
    }

    /// A log whose time runs backwards resolves as one chunk, so the
    /// split cannot change its result.
    #[test]
    fn a_log_running_backwards_resolves_as_one_chunk() {
        let mut log = log();
        let n = log.entries.len();
        log.entries.rotate_left(n / 2);
        let back = n - n / 2;
        assert!(epoch_of(&log, back - 1) > epoch_of(&log, back));
        let env = ServeEnv::new(&StarCdnConfig::starcdn_no_relay(4, 100_000));
        let churn = pin_churn();
        let spec = RunSpec { schedule: &churn, ..RunSpec::default() };
        let none = FailureModel::none();
        let prepare =
            |workers, starts: &[usize]| chunks(&env, &none, &log, &spec, workers, Some(5), starts);
        let first_epoch_start = (1..n).find(|&i| epoch_of(&log, i - 1) < epoch_of(&log, i));
        for workers in [2, 4] {
            // The jump at a chunk start, or inside a chunk.
            assert!(prepare(workers, &[back]).is_none());
            assert!(prepare(workers, &[first_epoch_start.unwrap()]).is_none());
            let one = pre_pass_digest(&prepare(workers, &[]).unwrap());
            let pre = shards(&env, &none, &log, &spec, workers, Some(5));
            assert_eq!(pre_pass_digest(&pre), one, "{workers} workers");
        }
    }

    #[test]
    #[should_panic(expected = "does not run prefetch rounds")]
    fn prefetch_configurations_are_refused() {
        let cfg = StarCdnConfig {
            prefetch_top_k: Some(8),
            ..StarCdnConfig::starcdn_no_relay(4, 100_000)
        };
        replay_parallel(cfg, FailureModel::none(), &log(), 2);
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
