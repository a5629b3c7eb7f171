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
//! * [`ShardState`] is what a shard server owns: a full-size slot store
//!   (every slot's cache, inflight queue and cold flag) and its
//!   accumulated [`SystemMetrics`]. [`ShardState::apply_batch`] decodes a batch and
//!   feeds it through `crate::replayer::run_shard_ops` — the very
//!   function the in-process replayer's workers run, over the plain
//!   slot store the engine's fleet uses — so a zero-fault socket run is
//!   bit-for-bit identical to `replay_parallel` by construction.
//!
//! Relay and neighbour probes read caches other than the owner's; the
//! plan shards by whole relay groups ([`starcdn::relay::shard_table`],
//! the replayer's table), so every cache a shard's serves read is its
//! own and relay configurations serve exactly over the wire too.
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
use starcdn::kernel::{ServeEnv, Slots};
use starcdn::metrics::SystemMetrics;
use starcdn::relay::shard_table;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::FaultSchedule;
use starcdn_io::wire::{fp, fp_bytes, Reader, Writer};
use starcdn_telemetry::{MemoryRecorder, Recorder, TelemetrySnapshot};

/// Why a configuration cannot be served over the socket plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePlanError {
    /// `num_shards` was zero.
    NoShards,
    /// `batch_ops` was zero.
    EmptyBatch,
    /// The configuration runs proactive prefetch rounds, which only the
    /// sequential engine simulates.
    Prefetch,
}

impl std::fmt::Display for ServePlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServePlanError::NoShards => write!(f, "serving plane needs at least one shard"),
            ServePlanError::EmptyBatch => write!(f, "batch size must be at least one op"),
            ServePlanError::Prefetch => {
                write!(f, "prefetch rounds are not sharded; serve this configuration by the engine")
            }
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
    if cfg.prefetch_top_k.is_some() {
        return Err(ServePlanError::Prefetch);
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
    failures: FailureModel,
    shards: Vec<ShardStream>,
    direct: SystemMetrics,
    fingerprint: u64,
}

impl ServePlan {
    /// Run the replayer's pre-pass, sharded as the replayer shards, and
    /// freeze per-shard op batches of at most `batch_ops` ops each.
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
        let shard_of = shard_table(&env, failures, num_shards);
        let mut pre = prepare_shards(&env, failures, log, &spec, &shard_of, num_shards, None);
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

    /// A fresh shard server state matching this plan's configuration.
    pub fn shard_state(&self, record: bool) -> ShardState {
        ShardState::new(&self.cfg, &self.failures, record)
    }
}

/// Everything one shard server owns: a slot store (per-slot caches,
/// inflight queues and cold flags), accumulated metrics, and an optional
/// telemetry recorder.
/// A server is single-threaded and its serves read only its own slots,
/// so nothing here is shared or locked.
///
/// The slot store is full-size (`total_slots`): a shard only ever
/// receives ops for slots it owns (those the plan's shard table gives
/// it), so the untouched slots cost empty caches and nothing else —
/// exactly a replayer worker's memory layout, which keeps the parity
/// argument trivial.
pub struct ShardState {
    env: ServeEnv,
    failures: FailureModel,
    slots: Slots,
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
            self.ops.push(get_shard_op(&mut r, spp, self.slots.cold.len())?);
        }
        r.finish()?;
        run_shard_ops(
            &self.ops,
            &mut self.slots,
            &self.env,
            &self.failures,
            &mut self.metrics,
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

    /// A prefetch configuration is refused, not served without its
    /// prefetch rounds.
    #[test]
    fn prefetch_configurations_are_refused() {
        let cfg = StarCdnConfig {
            prefetch_top_k: Some(8),
            ..StarCdnConfig::starcdn_no_relay(4, 100_000)
        };
        let built = ServePlan::build(&cfg, &FailureModel::none(), &log(), None, None, 2, 64, &Noop);
        assert_eq!(built.err(), Some(ServePlanError::Prefetch));
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

    /// `m`'s digest with its latency samples sorted: the engine books
    /// them in log order, a plan shard after shard.
    fn sorted_digest(m: &SystemMetrics) -> u64 {
        let mut m = m.clone();
        m.latencies_ms.sort_by(f64::total_cmp);
        metrics_digest(&m)
    }

    /// Relay and probe plans serve the engine's metrics, through shard
    /// states applied one after another; only an empty shard set or an
    /// empty batch is no plan.
    #[test]
    fn relay_and_probe_plans_serve_the_engines_digest() {
        let l = log();
        let outages = FailureModel::sample(&World::starlink_nine_cities().grid, 126, 3);
        for buckets in [4, 9] {
            let mut cfg = StarCdnConfig::starcdn(buckets, 100_000);
            cfg.probe_neighbors_on_miss = true;
            for failures in [FailureModel::none(), outages.clone()] {
                let mut fleet =
                    starcdn::system::SpaceCdn::with_failures(cfg.clone(), failures.clone());
                let engine = crate::engine::run_space(&mut fleet, &l);
                assert!(engine.served_relay_west + engine.served_relay_east > 0);
                for shards in [1usize, 4, 8] {
                    let p = ServePlan::build(&cfg, &failures, &l, None, None, shards, 64, &Noop)
                        .unwrap();
                    let mut total = p.direct_metrics().clone();
                    for k in 0..shards {
                        let mut st = p.shard_state(false);
                        for b in 0..p.batch_count(k) {
                            st.apply_batch(p.batch_bytes(k, b)).unwrap();
                        }
                        total.merge(st.metrics());
                    }
                    let cell = format!("L={buckets} at {shards} shards");
                    assert_eq!(sorted_digest(&engine), sorted_digest(&total), "{cell}");
                }
            }
        }
        let cfg = StarCdnConfig::starcdn(4, 100_000);
        let build = |shards, batch| {
            ServePlan::build(&cfg, &FailureModel::none(), &l, None, None, shards, batch, &Noop)
                .err()
        };
        assert_eq!(build(0, 64), Some(ServePlanError::NoShards));
        assert_eq!(build(2, 0), Some(ServePlanError::EmptyBatch));
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
