//! Serving-plane support: pre-resolved shard op streams packaged for
//! transport, and the per-shard cache state a socket server owns.
//!
//! The paper's artifact runs one cache process per satellite and speaks
//! TCP between them; `starcdn-net` reproduces that shape with one
//! socket-served shard per worker. This module is the boundary between
//! the deterministic replayer core and that wire world:
//!
//! * [`ServePlan`] runs the replayer's pre-pass
//!   (`crate::replayer::prepare_shards`, epoch-aligned chunks resolved
//!   in parallel) once on the router side and encodes each shard's op
//!   stream straight from the chunks' pieces into CRC-friendly byte
//!   batches — the only copy of the ops it keeps. The
//!   directly-accounted metrics (unroutable, partitioned, overload
//!   decisions, availability timeline) stay on the router, exactly as
//!   `replay_parallel` keeps them on the caller.
//! * [`ShardState`] is what a shard server owns: every slot's cache,
//!   inflight queues, cold flags, and its accumulated
//!   [`SystemMetrics`]. [`ShardState::apply_batch`] decodes a batch and
//!   feeds it through `crate::replayer::run_shard_ops` — the very
//!   function the in-process replayer's workers run, over the plain
//!   slot store the engine's fleet uses — so a zero-fault socket run is
//!   bit-for-bit identical to `replay_parallel` by construction.
//!
//! Only no-relay, no-probe configurations are accepted: relay probes
//! read *neighbour* caches, which live on other shards once the plane is
//! distributed, and their in-process semantics (bounded skew) cannot be
//! reproduced over a wire without cross-shard reads. [`ServePlan::build`]
//! rejects such configs with a typed error instead of silently
//! diverging.
//!
//! Every decoder here is hostile-input safe: batch payloads, drain
//! payloads, and op records are read through the one bounded
//! [`starcdn_io::wire::Reader`] and fail with typed [`CheckpointError`]s —
//! never a panic, and never a reservation larger than the payload could
//! fill. A drain payload is `(SystemMetrics, Option<TelemetrySnapshot>)`
//! in the checkpoint codec's encoding.

use crate::access_log::AccessLog;
use crate::checkpoint::CheckpointError;
use crate::codec::{decode, Wire};
use crate::engine::RunSpec;
use crate::overload::OverloadConfig;
use crate::replayer::{
    get_shard_op, prepare_shards, put_shard_op, run_shard_ops, shard_op_len, ShardOp,
};
use starcdn::config::StarCdnConfig;
use starcdn::kernel::{bent_pipe, ServeEnv, Slots};
use starcdn::metrics::SystemMetrics;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::FaultSchedule;
use starcdn_io::wire::{fp, fp_bytes, Reader, Writer};
use starcdn_telemetry::{MemoryRecorder, Recorder, TelemetrySnapshot};

/// Why a configuration cannot be served over the socket plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePlanError {
    /// `num_shards` was zero.
    NoShards,
    /// Relayed fetch reads neighbour caches across shards; the socket
    /// plane gives each shard only its own slots.
    RelayUnsupported,
    /// Neighbour probing has the same cross-shard read problem.
    ProbeUnsupported,
    /// `batch_ops` was zero.
    EmptyBatch,
}

impl std::fmt::Display for ServePlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServePlanError::NoShards => write!(f, "serving plane needs at least one shard"),
            ServePlanError::RelayUnsupported => {
                write!(f, "relay configs are not servable over sockets (cross-shard reads)")
            }
            ServePlanError::ProbeUnsupported => {
                write!(f, "neighbour-probe configs are not servable over sockets")
            }
            ServePlanError::EmptyBatch => write!(f, "batch size must be at least one op"),
        }
    }
}

impl std::error::Error for ServePlanError {}

fn validate(
    cfg: &StarCdnConfig,
    num_shards: usize,
    batch_ops: usize,
) -> Result<(), ServePlanError> {
    if num_shards == 0 {
        return Err(ServePlanError::NoShards);
    }
    if batch_ops == 0 {
        return Err(ServePlanError::EmptyBatch);
    }
    if cfg.relay.enabled() {
        return Err(ServePlanError::RelayUnsupported);
    }
    if cfg.probe_neighbors_on_miss {
        return Err(ServePlanError::ProbeUnsupported);
    }
    Ok(())
}

/// Fold one encoded batch into the plan fingerprint a word at a time:
/// the FNV state and prime of [`fp_bytes`], but one multiply per eight
/// bytes (length first, byte tail last), with the state's high half
/// folded back down so a word's top bytes reach the low ones. The plan
/// fingerprint only ever meets itself across one handshake — it is
/// never persisted — so its value is free to differ from `fp_bytes`';
/// the checkpoint fingerprints are not, and stay on `fp` / `fp_bytes`.
fn fp_words(h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let step = |h: u64, v: u64| {
        let h = (h ^ v).wrapping_mul(PRIME);
        h ^ (h >> 32)
    };
    let mut h = step(h, bytes.len() as u64);
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = step(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    for &b in words.remainder() {
        h = step(h, b as u64);
    }
    h
}

/// One shard's frozen op stream: encoded byte batches, the only copy of
/// its ops the plan keeps.
struct ShardStream {
    batches: Vec<Vec<u8>>,
    /// Request ops across all batches (churn pseudo-ops excluded).
    requests: u64,
}

/// The router side of a socket-served replay: per-shard encoded op
/// batches, the pre-pass's directly-accounted metrics, and a fingerprint
/// every shard server must agree with before ops flow.
pub struct ServePlan {
    cfg: StarCdnConfig,
    env: ServeEnv,
    failures: FailureModel,
    shards: Vec<ShardStream>,
    direct: SystemMetrics,
    fingerprint: u64,
}

impl ServePlan {
    /// Run the replayer's pre-pass and freeze per-shard op batches of at
    /// most `batch_ops` ops each. Rejects configurations whose parallel
    /// replay is not bit-deterministic when distributed (relay, probe).
    /// `schedule`, `overload` and `rec` are [`RunSpec`]'s fields of those
    /// names (`None` = its default).
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        cfg: &StarCdnConfig,
        failures: &FailureModel,
        log: &AccessLog,
        schedule: Option<&FaultSchedule>,
        overload: Option<&OverloadConfig>,
        num_shards: usize,
        batch_ops: usize,
        rec: &dyn Recorder,
    ) -> Result<ServePlan, ServePlanError> {
        validate(cfg, num_shards, batch_ops)?;
        let env = ServeEnv::new(cfg);
        let mut spec = RunSpec { recorder: rec, ..RunSpec::default() };
        spec.schedule = schedule.unwrap_or(spec.schedule);
        spec.overload = overload.copied().unwrap_or(spec.overload);
        let mut pre = prepare_shards(&env, failures, log.into(), &spec, num_shards, None);
        let mut streams = Vec::with_capacity(num_shards);
        let mut h = 0x7365_7276_6531_3030u64; // "serve100"
        h = fp(h, num_shards as u64);
        h = fp(h, cfg.grid.total_slots() as u64);
        h = fp_bytes(h, cfg.policy.name().as_bytes());
        h = fp(h, cfg.cache_capacity_bytes);
        for shard in 0..num_shards {
            // Batches run across the pre-pass chunks' pieces: the stream
            // is one sequence of ops, however it was resolved.
            let len = pre.stream_len(shard);
            let mut stream = ShardStream { batches: Vec::new(), requests: 0 };
            let mut start = 0usize;
            while start < len {
                let end = (start + batch_ops).min(len);
                let op_bytes: usize =
                    pre.stream(shard, start..end).flatten().map(shard_op_len).sum();
                let mut bytes = Vec::with_capacity(4 + op_bytes);
                let mut w = Writer::new(&mut bytes);
                w.u32((end - start) as u32);
                for ops in pre.stream(shard, start..end) {
                    for op in ops {
                        stream.requests += matches!(op, ShardOp::Request(_)) as u64;
                        put_shard_op(&mut w, op);
                    }
                }
                h = fp_words(h, &bytes);
                stream.batches.push(bytes);
                start = end;
            }
            h = fp(h, stream.batches.len() as u64);
            streams.push(stream);
            // Encoded: free this shard's ops before the next one encodes.
            for chunk in &mut pre.pieces {
                chunk[shard] = Vec::new();
            }
        }
        Ok(ServePlan {
            cfg: cfg.clone(),
            env,
            failures: failures.clone(),
            shards: streams,
            direct: pre.direct,
            fingerprint: h,
        })
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// FNV fingerprint over the config identity and every encoded batch;
    /// carried in the protocol handshake so a shard server never applies
    /// ops from a plan it was not built for.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of encoded batches queued for `shard`.
    pub fn batch_count(&self, shard: usize) -> usize {
        self.shards[shard].batches.len()
    }

    /// The encoded payload of one batch (framing is the transport's job).
    pub fn batch_bytes(&self, shard: usize, batch: usize) -> &[u8] {
        &self.shards[shard].batches[batch]
    }

    /// Request ops queued for `shard` (excludes churn pseudo-ops).
    pub fn request_count(&self, shard: usize) -> u64 {
        self.shards[shard].requests
    }

    /// The pre-pass's directly-accounted metrics: merge shard results
    /// into a clone of this, in shard index order, to reproduce
    /// `replay_parallel` exactly.
    pub fn direct_metrics(&self) -> &SystemMetrics {
        &self.direct
    }

    /// Origin bent-pipe accounting for every request op in batches
    /// `from_batch..` of `shard`, decoded from the batches themselves —
    /// the circuit-breaker degradation path.
    /// Each request is served exactly like the engine's `Partitioned`
    /// outcome (uplink on the request's GSL, zero ISL hops), attributed
    /// to the resolved owner; churn pseudo-ops are skipped (a degraded
    /// shard's cache state is gone anyway).
    pub fn degraded_metrics(&self, shard: usize, from_batch: usize) -> SystemMetrics {
        let mut m = SystemMetrics::default();
        let (spp, total_slots) = (self.env.grid.sats_per_plane, self.cfg.grid.total_slots());
        for batch in self.shards[shard].batches.iter().skip(from_batch) {
            let mut r = Reader::new(batch);
            let count = r.u32().expect("the plan encoded this batch");
            for _ in 0..count {
                let op = get_shard_op(&mut r, spp, total_slots).expect("the plan encoded this op");
                if let ShardOp::Request(e) = op {
                    bent_pipe(&self.env, &mut m, e.owner, e.size, e.gsl_oneway_ms, e.penalty_ms);
                    m.partitioned_requests += 1;
                }
            }
        }
        m
    }

    /// A fresh shard server state matching this plan's configuration.
    pub fn shard_state(&self, record: bool) -> ShardState {
        ShardState::new(&self.cfg, &self.failures, record)
    }
}

/// Everything one shard server owns: per-slot caches, inflight queues,
/// cold flags, accumulated metrics, and an optional telemetry recorder.
/// A server is single-threaded and a plan carries no relay and no
/// probe, so nothing here is shared or locked.
///
/// The slot vectors are full-size (`total_slots`): a shard only ever
/// receives ops for slots it owns (`owner.index(spp) % num_shards`), so
/// the untouched slots cost empty caches and nothing else — exactly the
/// in-process replayer's memory layout, which keeps the parity argument
/// trivial.
pub struct ShardState {
    env: ServeEnv,
    failures: FailureModel,
    slots: Slots,
    cold: Vec<bool>,
    metrics: SystemMetrics,
    rec: Option<MemoryRecorder>,
    /// The batch being applied, decoded; kept for its capacity.
    ops: Vec<ShardOp>,
}

impl ShardState {
    pub fn new(cfg: &StarCdnConfig, failures: &FailureModel, record: bool) -> ShardState {
        ShardState {
            env: ServeEnv::new(cfg),
            failures: failures.clone(),
            slots: Slots::new(cfg),
            cold: vec![false; cfg.grid.total_slots()],
            metrics: SystemMetrics::default(),
            rec: record.then(MemoryRecorder::new),
            ops: Vec::new(),
        }
    }

    /// Decode one batch payload and replay it through
    /// `crate::replayer::run_shard_ops`. Returns the number of ops
    /// applied. Any malformed byte — bad tag, out-of-range slot,
    /// truncation, trailing garbage — is a typed error and leaves the
    /// state untouched (the batch is decoded in full before any op
    /// runs).
    pub fn apply_batch(&mut self, payload: &[u8]) -> Result<u32, CheckpointError> {
        let spp = self.env.grid.sats_per_plane;
        let mut r = Reader::new(payload);
        let count = r.u32()?;
        if count as usize > payload.len() {
            // Each op costs at least one tag byte: a count beyond the
            // payload size is hostile, fail before allocating.
            return Err(CheckpointError::Truncated);
        }
        self.ops.clear();
        self.ops.reserve(r.capacity_for::<ShardOp>(count as usize));
        for _ in 0..count {
            self.ops.push(get_shard_op(&mut r, spp, self.cold.len())?);
        }
        r.finish()?;
        run_shard_ops(
            &self.ops,
            &mut self.slots,
            &self.env,
            &self.failures,
            &mut self.metrics,
            &mut self.cold,
            self.rec.as_ref(),
        );
        Ok(count)
    }

    /// The drain payload: accumulated metrics, then the telemetry
    /// snapshot when recording (an `Option`). Bit-exact via the
    /// checkpoint codec.
    pub fn drain_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = Writer::new(&mut out);
        self.metrics.put(&mut w);
        self.rec.as_ref().map(MemoryRecorder::snapshot).put(&mut w);
        out
    }

    #[cfg(test)]
    pub(crate) fn metrics(&self) -> &SystemMetrics {
        &self.metrics
    }
}

/// Decode a shard's drain payload back into metrics (+ telemetry when
/// the shard recorded).
pub fn decode_drain(
    bytes: &[u8],
) -> Result<(SystemMetrics, Option<TelemetrySnapshot>), CheckpointError> {
    Ok(decode(bytes)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_log::build_access_log;
    use crate::checkpoint::metrics_digest;
    use crate::engine::SimConfig;
    use crate::replayer::replay_parallel;
    use crate::world::World;
    use spacegen::trace::{LocationId, Request, Trace};
    use starcdn_cache::object::ObjectId;
    use starcdn_orbit::time::SimTime;
    use starcdn_telemetry::Noop;

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

    fn plan(num_shards: usize) -> ServePlan {
        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        ServePlan::build(&cfg, &FailureModel::none(), &log(), None, None, num_shards, 64, &Noop)
            .unwrap()
    }

    /// Applying every batch through ShardStates and merging in shard
    /// order reproduces `replay_parallel` bit-for-bit — the parity
    /// argument the socket plane inherits.
    #[test]
    fn in_process_apply_matches_replayer() {
        let l = log();
        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        for shards in [1usize, 4, 8] {
            let golden = replay_parallel(cfg.clone(), FailureModel::none(), &l, shards);
            let p =
                ServePlan::build(&cfg, &FailureModel::none(), &l, None, None, shards, 64, &Noop)
                    .unwrap();
            let mut total = p.direct_metrics().clone();
            for k in 0..shards {
                let mut st = p.shard_state(false);
                for b in 0..p.batch_count(k) {
                    st.apply_batch(p.batch_bytes(k, b)).unwrap();
                }
                let (m, snap) = decode_drain(&st.drain_bytes()).unwrap();
                assert!(snap.is_none());
                total.merge(&m);
            }
            assert_eq!(
                metrics_digest(&golden),
                metrics_digest(&total),
                "serve parity at {shards} shards"
            );
        }
    }

    /// The shard servers charge serialization delay through the same
    /// `LatencyModel::transmission_ms` as the engine, so a plan built
    /// with `model_transmission_delay` lands on the engine's latencies.
    #[test]
    fn shard_states_honour_transmission_delay() {
        let l = log();
        let mut cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        cfg.model_transmission_delay = true;
        let mut fleet = starcdn::system::SpaceCdn::new(cfg.clone());
        let engine = crate::engine::run_space(&mut fleet, &l);
        let plain = replay_parallel(
            StarCdnConfig::starcdn_no_relay(4, 100_000),
            FailureModel::none(),
            &l,
            4,
        );
        let p =
            ServePlan::build(&cfg, &FailureModel::none(), &l, None, None, 4, 64, &Noop).unwrap();
        let mut total = p.direct_metrics().clone();
        for k in 0..4 {
            let mut st = p.shard_state(false);
            for b in 0..p.batch_count(k) {
                st.apply_batch(p.batch_bytes(k, b)).unwrap();
            }
            total.merge(st.metrics());
        }
        let sorted = |m: &SystemMetrics| {
            let mut bits: Vec<u64> = m.latencies_ms.iter().map(|x| x.to_bits()).collect();
            bits.sort_unstable();
            bits
        };
        assert_eq!(sorted(&engine), sorted(&total), "socket plane vs engine, flag on");
        assert_ne!(sorted(&plain), sorted(&total), "the flag must move the latencies");
    }

    #[test]
    fn relay_and_probe_configs_rejected() {
        let cfg = StarCdnConfig::starcdn(4, 100_000);
        let err = ServePlan::build(&cfg, &FailureModel::none(), &log(), None, None, 2, 64, &Noop)
            .err()
            .unwrap();
        assert_eq!(err, ServePlanError::RelayUnsupported);
        let mut cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        cfg.probe_neighbors_on_miss = true;
        let err = ServePlan::build(&cfg, &FailureModel::none(), &log(), None, None, 2, 64, &Noop)
            .err()
            .unwrap();
        assert_eq!(err, ServePlanError::ProbeUnsupported);
        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        assert_eq!(
            ServePlan::build(&cfg, &FailureModel::none(), &log(), None, None, 0, 64, &Noop)
                .err()
                .unwrap(),
            ServePlanError::NoShards
        );
    }

    /// Corrupt batch payloads are typed errors, never panics, and never
    /// perturb the state.
    #[test]
    fn hostile_batches_fail_typed() {
        let p = plan(2);
        let mut st = p.shard_state(false);
        let before = metrics_digest(st.metrics());
        assert!(st.apply_batch(&[]).is_err());
        // Hostile count prefix far beyond the payload.
        assert!(matches!(st.apply_batch(&u32::MAX.to_le_bytes()), Err(CheckpointError::Truncated)));
        let good = p.batch_bytes(0, 0).to_vec();
        // Truncations of a real batch.
        for cut in 0..good.len().min(64) {
            assert!(st.apply_batch(&good[..cut]).is_err(), "cut at {cut}");
        }
        // Trailing garbage after a full batch.
        let mut trailing = good.clone();
        trailing.push(0xAB);
        assert!(st.apply_batch(&trailing).is_err());
        // Unknown op tag.
        let one_op = |tag: u8, rest: &[u8]| [&1u32.to_le_bytes()[..], &[tag], rest].concat();
        assert!(matches!(
            st.apply_batch(&one_op(9, &[])),
            Err(CheckpointError::Malformed("unknown shard op tag"))
        ));
        // Out-of-range wipe slot.
        assert!(matches!(
            st.apply_batch(&one_op(1, &u64::MAX.to_le_bytes())),
            Err(CheckpointError::Malformed("wipe slot out of range"))
        ));
        assert_eq!(before, metrics_digest(st.metrics()), "failed batches leave state untouched");
    }

    /// Degrading a suffix of a shard's stream to the origin conserves
    /// the request count: direct + served shards + degraded tail covers
    /// every request in the log exactly once.
    #[test]
    fn degraded_tail_conserves_requests() {
        let l = log();
        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        let golden = replay_parallel(cfg.clone(), FailureModel::none(), &l, 4);
        let p =
            ServePlan::build(&cfg, &FailureModel::none(), &l, None, None, 4, 64, &Noop).unwrap();
        // Serve shards 0..3 fully; shard 3 degrades from its midpoint.
        let mut total = p.direct_metrics().clone();
        for k in 0..4 {
            let mut st = p.shard_state(false);
            let cutoff = if k == 3 { p.batch_count(k) / 2 } else { p.batch_count(k) };
            for b in 0..cutoff {
                st.apply_batch(p.batch_bytes(k, b)).unwrap();
            }
            total.merge(st.metrics());
            if cutoff < p.batch_count(k) {
                let deg = p.degraded_metrics(k, cutoff);
                assert!(deg.partitioned_requests > 0, "midpoint cut degrades something");
                total.merge(&deg);
            }
        }
        assert_eq!(golden.stats.requests, total.stats.requests, "no request lost or doubled");
    }

    /// The plan keeps its ops only as encoded batches: degrading from the
    /// first, a middle or the last batch, or past the end, books what the
    /// pre-pass's request ops from that batch on would, and the request
    /// count is theirs.
    #[test]
    fn degraded_metrics_decode_the_batches() {
        use starcdn_constellation::schedule::{FaultEvent, TimedFault};
        use starcdn_orbit::walker::SatelliteId;
        let l = log();
        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        let churn = FaultSchedule::from_events([
            TimedFault { at_secs: 100, event: FaultEvent::SatDown(SatelliteId::new(3, 7)) },
            TimedFault { at_secs: 300, event: FaultEvent::SatUp(SatelliteId::new(3, 7)) },
        ]);
        let (shards, batch_ops) = (3, 64);
        let none = FailureModel::none();
        let p = ServePlan::build(&cfg, &none, &l, Some(&churn), None, shards, batch_ops, &Noop)
            .unwrap();
        let spec = RunSpec { schedule: &churn, ..RunSpec::default() };
        let pre = prepare_shards(&ServeEnv::new(&cfg), &none, (&l).into(), &spec, shards, None);
        for shard in 0..shards {
            let ops: Vec<&ShardOp> =
                pre.stream(shard, 0..pre.stream_len(shard)).flatten().collect();
            let requests = ops.iter().filter(|op| matches!(op, ShardOp::Request(_))).count();
            assert_eq!(p.request_count(shard), requests as u64);
            let n = p.batch_count(shard);
            for from in [0, n / 2, n - 1, n, n + 3] {
                let mut want = SystemMetrics::default();
                for op in &ops[(from * batch_ops).min(ops.len())..] {
                    if let ShardOp::Request(e) = op {
                        bent_pipe(
                            &p.env,
                            &mut want,
                            e.owner,
                            e.size,
                            e.gsl_oneway_ms,
                            e.penalty_ms,
                        );
                        want.partitioned_requests += 1;
                    }
                }
                let got = p.degraded_metrics(shard, from);
                assert_eq!(
                    metrics_digest(&got),
                    metrics_digest(&want),
                    "shard {shard} from {from}"
                );
            }
        }
    }

    #[test]
    fn fingerprint_tracks_plan_identity() {
        let a = plan(2);
        let b = plan(2);
        assert_eq!(a.fingerprint(), b.fingerprint(), "same inputs, same fingerprint");
        let c = plan(4);
        assert_ne!(a.fingerprint(), c.fingerprint(), "shard count is part of the identity");
    }

    #[test]
    fn drain_roundtrip_with_telemetry() {
        let p = plan(1);
        let mut st = p.shard_state(true);
        for b in 0..p.batch_count(0) {
            st.apply_batch(p.batch_bytes(0, b)).unwrap();
        }
        let (m, snap) = decode_drain(&st.drain_bytes()).unwrap();
        assert_eq!(metrics_digest(&m), metrics_digest(st.metrics()));
        assert!(snap.is_some(), "recording shard ships telemetry");
        assert!(decode_drain(&[]).is_err());
        let mut bytes = st.drain_bytes();
        bytes.push(7);
        assert!(decode_drain(&bytes).is_err(), "trailing bytes rejected");
    }
}
