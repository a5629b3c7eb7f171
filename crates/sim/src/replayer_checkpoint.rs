//! Checkpoint/resume for the parallel cache replayer.
//!
//! The replayer's pre-pass ([`crate::replayer::prepare_shards`]) is
//! deterministic and cheap relative to the cache work, so a resumed run
//! simply re-runs it in full to rebuild the shard streams, the
//! directly-accounted metrics, and the segment cut table. Its chunks
//! change neither: a cut is an offset into a shard's whole stream, the
//! one pass's offset bit for bit, wherever the chunk boundaries fall.
//! Only the worker-side state ([`ReplayState`]) is persisted: every
//! slot's cache contents and in-flight fetches, each worker's slot
//! store's cold flags, accumulated metrics, and telemetry recorder.
//! Live, each worker holds a full-size slot store; a checkpoint takes
//! slot `i` from, and restores it into, worker `shard_of[i]` — the one
//! [`starcdn::relay::shard_table`] gives it — so the body lists every
//! slot once, whatever the worker count.
//!
//! [`crate::replayer::run`] segments execution at the pre-pass's
//! [`crate::replayer::ShardCut`] barriers (one per `every_n_epochs`
//! scheduler epochs) and
//! calls [`ReplayCheckpointer::write`] at each, with the same
//! atomic-rename/CRC container as the engine's ([`crate::checkpoint`],
//! KIND_REPLAY). META and BODY are each one `codec` field list, and
//! TELEMETRY is one snapshot per worker. Workers keep their slots and
//! metrics across segments, and per-shard streams are replayed in order,
//! so a checkpointed run's output is bit-for-bit the uncheckpointed
//! one's.

use crate::access_log::AccessLog;
use crate::checkpoint::{
    config_fingerprint, decode_container, encode_container, list_checkpoint_files_io,
    sweep_stale_tmps_io, write_atomic, CheckpointError, Checkpointing, RawCheckpoint, KIND_REPLAY,
};
use crate::codec::{decode, encode, wire_struct};
use crate::engine::RunSpec;
use starcdn::config::StarCdnConfig;
use starcdn::kernel::Slots;
use starcdn::metrics::SystemMetrics;
use starcdn_cache::{CacheState, InflightQueue, InflightState};
use starcdn_constellation::failures::FailureModel;
use starcdn_io::wire::fp;
use starcdn_telemetry::{Event, MemoryRecorder, Recorder, TelemetrySnapshot};
use std::path::Path;

/// Fingerprint of everything a replayer checkpoint must agree with the
/// resuming run about: the shared [`config_fingerprint`], plus the
/// worker count, the worker of every slot (`shard_of`, the relay-group
/// shard table) and the static base failure set (it shapes routing and
/// the relay view).
fn replay_fingerprint(
    cfg: &StarCdnConfig,
    base_failures: &FailureModel,
    epoch_secs: u64,
    spec: &RunSpec<'_>,
    shard_of: &[usize],
    num_workers: usize,
) -> u64 {
    let mut h = fp(config_fingerprint(cfg, epoch_secs, spec), num_workers as u64);
    for &w in shard_of {
        h = fp(h, w as u64);
    }
    for s in base_failures.dead() {
        h = fp(h, ((s.orbit as u64) << 16) | s.slot as u64);
    }
    for (a, b) in base_failures.cut_links() {
        h = fp(
            h,
            ((a.orbit as u64) << 48)
                | ((a.slot as u64) << 32)
                | ((b.orbit as u64) << 16)
                | b.slot as u64,
        );
    }
    h
}

struct ReplayMeta {
    fingerprint: u64,
    barrier_epoch: u64,
    num_workers: u64,
    total_slots: u64,
}

wire_struct!(ReplayMeta { fingerprint, barrier_epoch, num_workers, total_slots });

struct ReplayBody {
    caches: Vec<CacheState>,
    /// Per-slot outstanding-fetch queues (DESIGN.md §14), snapshotted at
    /// the same barrier as the caches; empty when the model is off.
    inflight: Vec<InflightState>,
    /// Per worker: cold flags and accumulated metrics, shard index order.
    cold: Vec<Vec<bool>>,
    metrics: Vec<SystemMetrics>,
}

wire_struct!(ReplayBody { caches, inflight, cold, metrics });

/// Structural validation of a KIND_REPLAY container's sections, used by
/// [`crate::checkpoint::validate_checkpoint_bytes`].
pub(crate) fn validate_sections(raw: &RawCheckpoint<'_>) -> Result<(), CheckpointError> {
    decode::<ReplayMeta>(raw.meta)?;
    decode::<ReplayBody>(raw.body)?;
    decode::<Vec<TelemetrySnapshot>>(raw.telemetry)?;
    Ok(())
}

/// The worker-side state of a replay — what a checkpoint persists. Per
/// worker, shard index order.
pub(crate) struct ReplayState {
    /// A full-size slot store each, of which a worker touches only the
    /// slots its shard owns.
    slots: Vec<Slots>,
    pub(crate) metrics: Vec<SystemMetrics>,
}

impl ReplayState {
    /// Empty caches and queues, nothing cold, nothing counted.
    pub(crate) fn fresh(cfg: &StarCdnConfig, num_workers: usize) -> Self {
        ReplayState {
            slots: (0..num_workers).map(|_| Slots::new(cfg)).collect(),
            metrics: (0..num_workers).map(|_| SystemMetrics::default()).collect(),
        }
    }

    /// Each worker's slots and metrics, shard index order.
    pub(crate) fn workers(&mut self) -> impl Iterator<Item = (&mut Slots, &mut SystemMetrics)> {
        self.slots.iter_mut().zip(&mut self.metrics)
    }

    /// Rebuild live state from a decoded body, slot by slot in index
    /// order, each into the worker `shard_of` gives it; the other
    /// workers' copies of a slot stay empty.
    fn restore(
        cfg: &StarCdnConfig,
        body: ReplayBody,
        shard_of: &[usize],
    ) -> Result<Self, CheckpointError> {
        let mut state = ReplayState::fresh(cfg, body.cold.len());
        for (slot, cache) in body.caches.into_iter().enumerate() {
            state.slots[shard_of[slot]].caches[slot] = cache
                .build()
                .map_err(|e| CheckpointError::State(format!("cache slot {slot}: {e:?}")))?;
        }
        for (slot, qs) in body.inflight.iter().enumerate() {
            state.slots[shard_of[slot]].inflight[slot] = InflightQueue::from_state(qs)
                .map_err(|e| CheckpointError::State(format!("inflight slot {slot}: {e:?}")))?;
        }
        for (slots, cold) in state.slots.iter_mut().zip(body.cold) {
            slots.cold = cold;
        }
        state.metrics = body.metrics;
        Ok(state)
    }
}

/// What a checkpoint restores: the worker state at `barrier_epoch` and
/// each worker's telemetry (empty when the run recorded none).
pub(crate) struct Restored {
    pub(crate) barrier_epoch: u64,
    pub(crate) state: ReplayState,
    pub(crate) telemetry: Vec<TelemetrySnapshot>,
}

/// Writes the replayer's barrier checkpoints and, on resume, finds the
/// one to start from.
pub(crate) struct ReplayCheckpointer<'a> {
    ck: &'a Checkpointing<'a>,
    fingerprint: u64,
    shard_of: Vec<usize>,
    num_workers: usize,
}

impl<'a> ReplayCheckpointer<'a> {
    /// Open `ck.policy.dir` for a replay of `log` under `spec`, sharded
    /// over `num_workers` by `shard_of`, sweeping the droppings of
    /// writes that died mid-way.
    pub(crate) fn open(
        ck: &'a Checkpointing<'a>,
        cfg: &StarCdnConfig,
        base_failures: &FailureModel,
        log: &AccessLog,
        spec: &RunSpec<'_>,
        shard_of: &[usize],
        num_workers: usize,
    ) -> Self {
        sweep_stale_tmps_io(ck.io, &ck.policy.dir);
        let epoch_secs = log.epoch_secs.max(1);
        let fingerprint =
            replay_fingerprint(cfg, base_failures, epoch_secs, spec, shard_of, num_workers);
        ReplayCheckpointer { ck, fingerprint, shard_of: shard_of.to_vec(), num_workers }
    }

    /// Scheduler epochs between barriers.
    pub(crate) fn every_n_epochs(&self) -> u64 {
        self.ck.policy.every_n_epochs.max(1)
    }

    pub(crate) fn resuming(&self) -> bool {
        self.ck.resume
    }

    /// Restore the newest checkpoint written before epoch `before` that
    /// validates against this run — everything that can be checked
    /// without the pre-pass. Corrupt or mismatched files fall back to
    /// older ones with one [`Event::CheckpointRestoreFallback`] each.
    pub(crate) fn load_newest(
        &self,
        cfg: &StarCdnConfig,
        before: u64,
        rec: &dyn Recorder,
    ) -> Result<Restored, CheckpointError> {
        let files = list_checkpoint_files_io(self.ck.io, &self.ck.policy.dir);
        for (epoch, path) in files.iter().rev().filter(|(epoch, _)| *epoch < before) {
            match self.try_load(path, *epoch, cfg) {
                Ok(restored) => return Ok(restored),
                Err(_) => rec.event(Event::CheckpointRestoreFallback, *epoch, 1),
            }
        }
        Err(CheckpointError::NoValidCheckpoint)
    }

    fn try_load(
        &self,
        path: &Path,
        epoch: u64,
        cfg: &StarCdnConfig,
    ) -> Result<Restored, CheckpointError> {
        let bytes = self.ck.io.read(path)?;
        let raw = decode_container(&bytes)?;
        if raw.kind != KIND_REPLAY {
            return Err(CheckpointError::ConfigMismatch);
        }
        let meta: ReplayMeta = decode(raw.meta)?;
        // The file name's epoch is what `load_newest` orders by.
        if meta.barrier_epoch != epoch
            || meta.fingerprint != self.fingerprint
            || meta.num_workers != self.num_workers as u64
            || meta.total_slots != self.shard_of.len() as u64
        {
            return Err(CheckpointError::ConfigMismatch);
        }
        let body: ReplayBody = decode(raw.body)?;
        let total_slots = self.shard_of.len();
        if body.caches.len() != total_slots
            || body.inflight.len() != total_slots
            || body.cold.len() != self.num_workers
            || body.metrics.len() != self.num_workers
            || body.cold.iter().any(|c| c.len() != total_slots)
        {
            return Err(CheckpointError::Malformed("replay body shape mismatch"));
        }
        if body.caches.iter().any(|c| c.policy_name() != cfg.policy.name()) {
            return Err(CheckpointError::ConfigMismatch);
        }
        let telemetry: Vec<TelemetrySnapshot> = decode(raw.telemetry)?;
        if !telemetry.is_empty() && telemetry.len() != self.num_workers {
            return Err(CheckpointError::Malformed("worker telemetry count mismatch"));
        }
        Ok(Restored {
            barrier_epoch: meta.barrier_epoch,
            state: ReplayState::restore(cfg, body, &self.shard_of)?,
            telemetry,
        })
    }

    /// Write the checkpoint for the barrier at `barrier_epoch`. All
    /// workers have joined, so `state` is globally consistent.
    pub(crate) fn write(
        &self,
        barrier_epoch: u64,
        state: &ReplayState,
        worker_recs: &[MemoryRecorder],
    ) -> Result<(), CheckpointError> {
        let owner = |slot: usize| &state.slots[self.shard_of[slot]];
        let slots = 0..self.shard_of.len();
        let body = ReplayBody {
            caches: slots.clone().map(|i| owner(i).caches[i].to_state()).collect(),
            inflight: slots.map(|i| owner(i).inflight[i].to_state()).collect(),
            cold: state.slots.iter().map(|s| s.cold.clone()).collect(),
            metrics: state.metrics.clone(),
        };
        let meta = ReplayMeta {
            fingerprint: self.fingerprint,
            barrier_epoch,
            num_workers: self.num_workers as u64,
            total_slots: self.shard_of.len() as u64,
        };
        let snaps: Vec<TelemetrySnapshot> = worker_recs.iter().map(|r| r.snapshot()).collect();
        let bytes = encode_container(KIND_REPLAY, &encode(&meta), &encode(&body), &encode(&snaps));
        let policy = self.ck.policy;
        write_atomic(self.ck.io, &policy.dir, barrier_epoch, &bytes, policy.keep_last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_log::{build_access_log, AccessLog};
    use crate::checkpoint::{list_checkpoint_files, CheckpointPolicy};
    use crate::engine::SimConfig;
    use crate::overload::OverloadConfig;
    use crate::replayer::run;
    use crate::world::World;
    use spacegen::trace::{LocationId, Request, Trace};
    use starcdn_cache::object::ObjectId;
    use starcdn_constellation::schedule::{FaultEvent, FaultSchedule, TimedFault};
    use starcdn_io::RealIo;
    use starcdn_orbit::time::SimTime;
    use starcdn_orbit::walker::SatelliteId;
    use std::path::PathBuf;

    /// A no-base-failures replay of `log`, checkpointing per `policy`.
    #[allow(clippy::too_many_arguments)]
    fn checkpointed(
        cfg: StarCdnConfig,
        log: &AccessLog,
        sched: &FaultSchedule,
        workers: usize,
        overload: &OverloadConfig,
        policy: &CheckpointPolicy,
        rec: &dyn Recorder,
        resume: bool,
    ) -> Result<SystemMetrics, CheckpointError> {
        let spec = RunSpec {
            schedule: sched,
            overload: *overload,
            recorder: rec,
            checkpoint: Some(Checkpointing { policy, io: &RealIo, resume }),
        };
        run(&cfg, &FailureModel::none(), log, workers, &spec)
    }

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

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("starcdn-rckpt-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn policy(dir: &Path, every: u64) -> CheckpointPolicy {
        CheckpointPolicy { every_n_epochs: every, dir: dir.to_path_buf(), keep_last: 0 }
    }

    fn churn() -> FaultSchedule {
        FaultSchedule::from_events([
            TimedFault { at_secs: 120, event: FaultEvent::SatDown(SatelliteId::new(3, 7)) },
            TimedFault { at_secs: 240, event: FaultEvent::SatUp(SatelliteId::new(3, 7)) },
        ])
    }

    fn assert_equal(a: &SystemMetrics, b: &SystemMetrics) {
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.per_satellite, b.per_satellite);
        assert_eq!(
            a.latencies_ms.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.latencies_ms.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(a.cold_restart_misses, b.cold_restart_misses);
        assert_eq!(a.remapped_requests, b.remapped_requests);
        assert_eq!(a.availability, b.availability);
        assert_eq!(a.shed_requests, b.shed_requests);
        assert_eq!(a.dropped_requests, b.dropped_requests);
        assert_eq!(a.served_origin_fallback, b.served_origin_fallback);
        assert_eq!(a.delayed_hits, b.delayed_hits);
        assert_eq!(a.coalesced_requests, b.coalesced_requests);
        assert_eq!(a.residual_epoch_hist, b.residual_epoch_hist);
    }

    fn assert_tele_equal(a: &TelemetrySnapshot, b: &TelemetrySnapshot) {
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.histograms, b.histograms);
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn matches_plain_replayer_without_relay() {
        let log = log();
        let dir = tmpdir("parity");
        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        let rec_a = MemoryRecorder::new();
        let spec = RunSpec { schedule: &churn(), recorder: &rec_a, ..RunSpec::default() };
        let ma = run(&cfg, &FailureModel::none(), &log, 4, &spec).unwrap();
        let rec_b = MemoryRecorder::new();
        let mb = checkpointed(
            cfg,
            &log,
            &churn(),
            4,
            &OverloadConfig::disabled(),
            &policy(&dir, 4),
            &rec_b,
            false,
        )
        .unwrap();
        assert_equal(&ma, &mb);
        assert_tele_equal(&rec_a.snapshot(), &rec_b.snapshot());
        assert!(!list_checkpoint_files(&dir).is_empty());
    }

    /// Crash trick: replay a truncated prefix (its completed-segment
    /// checkpoints are what a killed process leaves behind), then resume
    /// on the full log and compare against the uninterrupted run.
    fn crash_resume(name: &str, sched: &FaultSchedule, overload: &OverloadConfig, workers: usize) {
        crash_resume_cfg(
            name,
            StarCdnConfig::starcdn_no_relay(4, 100_000),
            &log(),
            sched,
            overload,
            workers,
        );
    }

    fn crash_resume_cfg(
        name: &str,
        cfg: StarCdnConfig,
        log: &AccessLog,
        sched: &FaultSchedule,
        overload: &OverloadConfig,
        workers: usize,
    ) -> SystemMetrics {
        let dir_golden = tmpdir(&format!("{name}-golden-{workers}"));
        let rec_golden = MemoryRecorder::new();
        let m_golden = checkpointed(
            cfg.clone(),
            log,
            sched,
            workers,
            overload,
            &policy(&dir_golden, 4),
            &rec_golden,
            false,
        )
        .unwrap();

        let dir = tmpdir(&format!("{name}-crash-{workers}"));
        let cut = log.entries.len() * 3 / 4;
        let partial =
            AccessLog { entries: log.entries[..cut].to_vec(), epoch_secs: log.epoch_secs };
        checkpointed(
            cfg.clone(),
            &partial,
            sched,
            workers,
            overload,
            &policy(&dir, 4),
            &MemoryRecorder::new(),
            false,
        )
        .unwrap();
        assert!(!list_checkpoint_files(&dir).is_empty(), "crash past first barrier");

        let rec_resumed = MemoryRecorder::new();
        let m_resumed =
            checkpointed(cfg, log, sched, workers, overload, &policy(&dir, 4), &rec_resumed, true)
                .unwrap();
        assert_equal(&m_golden, &m_resumed);
        assert_tele_equal(&rec_golden.snapshot(), &rec_resumed.snapshot());
        m_golden
    }

    #[test]
    fn resume_is_bit_identical_at_1_4_8_workers() {
        for workers in [1usize, 4, 8] {
            crash_resume("plain", &churn(), &OverloadConfig::disabled(), workers);
        }
    }

    /// Relay groups span workers' slot stores only as the shard table
    /// says: a resume restores each slot into the worker that serves it.
    #[test]
    fn resume_with_relay_and_probe_is_bit_identical() {
        let mut cfg = StarCdnConfig::starcdn(4, 100_000);
        cfg.probe_neighbors_on_miss = true;
        for workers in [1usize, 4, 8] {
            let off = OverloadConfig::disabled();
            let golden = crash_resume_cfg("relay", cfg.clone(), &log(), &churn(), &off, workers);
            assert!(golden.served_relay_west > 0, "scenario must relay");
        }
    }

    /// One location: the first contact is stable within a scheduler
    /// epoch, so same-epoch repeats coalesce at one owner. The small
    /// capacity keeps evictions (and therefore in-flight fetches) going
    /// for the whole run, so the kill point has fetches outstanding.
    fn delayed_log() -> AccessLog {
        let w = World::starlink_nine_cities();
        let reqs: Vec<Request> = (0..3000u64)
            .map(|k| Request {
                time: SimTime::from_secs(k / 6),
                object: ObjectId((k * 7919) % 50),
                size: 500 + (k % 5) * 100,
                location: LocationId(0),
            })
            .collect();
        build_access_log(&w, &Trace::new(reqs), 15, &SimConfig::default().scheduler())
    }

    #[test]
    fn resume_delayed_fetches_in_flight_is_bit_identical() {
        let cfg = StarCdnConfig::starcdn_no_relay(4, 20_000)
            .with_delayed_hits(starcdn::config::DelayedHitConfig::with_latency(2, 40.0));
        let log = delayed_log();
        for workers in [1usize, 4] {
            let golden = crash_resume_cfg(
                "delayed",
                cfg.clone(),
                &log,
                &churn(),
                &OverloadConfig::disabled(),
                workers,
            );
            assert!(golden.delayed_hits > 0, "scenario must exercise coalescing");
        }
    }

    #[test]
    fn resume_overload_is_bit_identical() {
        crash_resume("overload", &churn(), &OverloadConfig::with_headroom(0.4), 4);
    }

    #[test]
    fn corrupt_replay_checkpoint_falls_back() {
        let log = log();
        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        let dir = tmpdir("fallback");
        let rec_golden = MemoryRecorder::new();
        let m_golden = checkpointed(
            cfg.clone(),
            &log,
            &churn(),
            4,
            &OverloadConfig::disabled(),
            &policy(&dir, 2),
            &rec_golden,
            false,
        )
        .unwrap();
        let files = list_checkpoint_files(&dir);
        assert!(files.len() >= 2);
        let (newest_epoch, newest) = files.last().unwrap();
        let mut bytes = std::fs::read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xA5;
        std::fs::write(newest, &bytes).unwrap();

        let rec = MemoryRecorder::new();
        let m_resumed = checkpointed(
            cfg,
            &log,
            &churn(),
            4,
            &OverloadConfig::disabled(),
            &policy(&dir, 2),
            &rec,
            true,
        )
        .unwrap();
        assert_equal(&m_golden, &m_resumed);
        assert_eq!(
            rec.snapshot().events.get(&(Event::CheckpointRestoreFallback, *newest_epoch)),
            Some(&1)
        );
    }

    #[test]
    fn checkpoint_past_the_logs_end_falls_back_to_an_older_one() {
        let log = log();
        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        let dir = tmpdir("past-end");
        let off = OverloadConfig::disabled();
        // The full log leaves a checkpoint at each of its barriers; the
        // later ones are no barrier of the half log resumed below.
        checkpointed(
            cfg.clone(),
            &log,
            &churn(),
            4,
            &off,
            &policy(&dir, 4),
            &starcdn_telemetry::Noop,
            false,
        )
        .unwrap();
        let half = AccessLog {
            entries: log.entries[..log.entries.len() / 2].to_vec(),
            epoch_secs: log.epoch_secs,
        };
        let spec = RunSpec { schedule: &churn(), ..RunSpec::default() };
        let golden = run(&cfg, &FailureModel::none(), &half, 4, &spec).unwrap();

        let rec = MemoryRecorder::new();
        let resumed =
            checkpointed(cfg, &half, &churn(), 4, &off, &policy(&dir, 4), &rec, true).unwrap();
        assert_equal(&golden, &resumed);
        let fallbacks = rec
            .snapshot()
            .events
            .keys()
            .filter(|(e, _)| *e == Event::CheckpointRestoreFallback)
            .count();
        assert!(fallbacks > 0, "the newest checkpoints lie past the half log's end");
    }

    #[test]
    fn worker_count_mismatch_is_rejected() {
        let log = log();
        let cfg = StarCdnConfig::starcdn_no_relay(4, 100_000);
        let dir = tmpdir("workers");
        checkpointed(
            cfg.clone(),
            &log,
            &churn(),
            4,
            &OverloadConfig::disabled(),
            &policy(&dir, 4),
            &starcdn_telemetry::Noop,
            false,
        )
        .unwrap();
        let err = checkpointed(
            cfg,
            &log,
            &churn(),
            8, // different sharding → different fingerprint
            &OverloadConfig::disabled(),
            &policy(&dir, 4),
            &starcdn_telemetry::Noop,
            true,
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::NoValidCheckpoint));
    }
}
