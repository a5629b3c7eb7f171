//! Crash-consistent checkpoint/resume for long simulation runs
//! (DESIGN.md §11).
//!
//! A checkpoint freezes the full engine state at a scheduler-epoch
//! boundary — every cache's policy-internal state, the fault-schedule
//! cursor, the capacity ledger, partially-accumulated metrics and
//! latency samples, and the telemetry snapshot — so a killed run can
//! resume and finish **bit-for-bit identical** to the uninterrupted one.
//!
//! Durability model:
//!
//! * checkpoints are written to a temp file in the target directory,
//!   fsync'd, then atomically renamed into place (and the directory
//!   fsync'd), so a crash mid-write never clobbers an older checkpoint;
//! * the container is a versioned header plus length-prefixed sections
//!   (META, BODY, TELEMETRY), each protected by a CRC-32, so any torn,
//!   truncated, or bit-flipped file is detected — never deserialized
//!   into garbage and never a panic;
//! * resume scans newest-first and falls back to the next older
//!   checkpoint when one fails validation, emitting an
//!   [`Event::CheckpointRestoreFallback`] per skipped file.
//!
//! This module is the container, its files and the one checkpointer
//! both drivers write and resume through (the engine's payloads are
//! here, the replayer's in `replayer_checkpoint`). What the sections hold
//! is written and read by the `codec` module's field lists over the one
//! little-endian [`starcdn_io::wire`] reader and writer (no serialization
//! framework on the simulation path): floats travel as IEEE-754 bit
//! patterns, so restored latency samples and utilization timelines
//! compare bit-equal.
//!
//! Snapshot semantics: a checkpoint taken when entering boundary epoch
//! `E` captures the state *before* any of `E`'s boundary actions
//! (churn application, availability sample, ledger advance, prefetch
//! round). Resume restores `current_epoch` to the
//! previous epoch and re-enters the loop at the same entry index, so the
//! boundary re-executes exactly as the uninterrupted run did.

use crate::codec::{decode, encode, wire_struct};
use crate::engine::RunSpec;
use crate::resolve::EpochBoundary;
use starcdn::config::StarCdnConfig;
use starcdn::kernel::Slots;
use starcdn::metrics::SystemMetrics;
use starcdn::system::SpaceCdn;
use starcdn_cache::{CacheState, InflightState};
use starcdn_constellation::capacity::{CapacityLedger, EpochUsageState, LedgerStateError};
use starcdn_constellation::failures::FailureModel;
use starcdn_io::wire::{crc32, fp, fp_bytes, Reader, WireError, Writer};
use starcdn_io::{Io, RealIo};
use starcdn_telemetry::{Event, Recorder, TelemetrySnapshot};
use std::path::{Path, PathBuf};

/// When and where the engine writes checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Write a checkpoint every `n` scheduler epochs (0 behaves as 1).
    pub every_n_epochs: u64,
    /// Directory holding the `ckpt-<epoch>.ckpt` files.
    pub dir: PathBuf,
    /// Keep only the newest `n` checkpoints (0 = keep everything).
    pub keep_last: usize,
}

/// The checkpoint field of a [`RunSpec`]: where and how often to write,
/// through which filesystem, and whether to start from the newest valid
/// checkpoint already in `policy.dir`.
#[derive(Clone, Copy)]
pub struct Checkpointing<'a> {
    pub policy: &'a CheckpointPolicy,
    /// The filesystem seam ([`RealIo`] outside the storage-fault
    /// torture harness).
    pub io: &'a dyn Io,
    /// Resume an interrupted run instead of starting one. Corrupt, torn
    /// or configuration-mismatched checkpoints are skipped newest-first
    /// (one [`Event::CheckpointRestoreFallback`] each, keyed by the
    /// skipped file's epoch); if nothing survives the run fails with
    /// [`CheckpointError::NoValidCheckpoint`] and the caller may start
    /// from scratch.
    pub resume: bool,
}

/// Why a checkpoint could not be written, read, or restored.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem failure while writing or reading, with the failing
    /// operation and path attached (see [`starcdn_io::IoError`]).
    Io(starcdn_io::IoError),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The container version is newer than this build understands.
    UnsupportedVersion(u32),
    /// The file ends before a declared length.
    Truncated,
    /// A CRC-32 over the header or a section does not match.
    CrcMismatch,
    /// The container or a payload is structurally invalid.
    Malformed(&'static str),
    /// The checkpoint was taken under a different configuration,
    /// schedule, overload setting, or run mode.
    ConfigMismatch,
    /// A decoded state failed semantic validation on restore.
    State(String),
    /// No checkpoint in the directory survived validation.
    NoValidCheckpoint,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v}")
            }
            CheckpointError::Truncated => write!(f, "checkpoint file is truncated"),
            CheckpointError::CrcMismatch => write!(f, "checkpoint CRC mismatch (corrupt file)"),
            CheckpointError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            CheckpointError::ConfigMismatch => {
                write!(f, "checkpoint belongs to a different run configuration")
            }
            CheckpointError::State(why) => write!(f, "checkpoint state failed validation: {why}"),
            CheckpointError::NoValidCheckpoint => write!(f, "no valid checkpoint found"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<starcdn_io::IoError> for CheckpointError {
    fn from(e: starcdn_io::IoError) -> Self {
        CheckpointError::Io(e)
    }
}

/// A payload that ends early is a truncated file; any other wire fault
/// is a malformed one.
impl From<WireError> for CheckpointError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Short => CheckpointError::Truncated,
            WireError::Trailing => CheckpointError::Malformed("trailing bytes after payload"),
            WireError::Invalid(why) => CheckpointError::Malformed(why),
        }
    }
}

impl From<LedgerStateError> for CheckpointError {
    fn from(_: LedgerStateError) -> Self {
        CheckpointError::Malformed("ledger balance keyed off the configured grid")
    }
}

// ---------------------------------------------------------------------------
// Container: header + CRC-protected length-prefixed sections.
// ---------------------------------------------------------------------------

const MAGIC: &[u8; 8] = b"STARCKP1";
const VERSION: u32 = 1;
/// Section tags, in their mandatory order.
const SEC_META: u32 = 1;
const SEC_BODY: u32 = 2;
const SEC_TELEMETRY: u32 = 3;

/// Checkpoint kinds (which driver wrote it).
pub(crate) const KIND_ENGINE: u32 = 1;
pub(crate) const KIND_REPLAY: u32 = 2;

/// A container's sections, borrowed from its bytes.
pub(crate) struct RawCheckpoint<'a> {
    pub(crate) kind: u32,
    pub(crate) meta: &'a [u8],
    pub(crate) body: &'a [u8],
    pub(crate) telemetry: &'a [u8],
}

/// `tag | len | payload | crc32(tag‖len‖payload)`, checksummed where it
/// lies.
fn write_section(out: &mut Vec<u8>, tag: u32, payload: &[u8]) {
    let start = out.len();
    let mut w = Writer::new(out);
    w.u32(tag);
    w.u64(payload.len() as u64);
    w.bytes(payload);
    let crc = crc32(&out[start..]);
    Writer::new(out).u32(crc);
}

/// Serialize a complete checkpoint container.
pub(crate) fn encode_container(kind: u32, meta: &[u8], body: &[u8], telemetry: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(24 + meta.len() + body.len() + telemetry.len() + 48);
    let mut w = Writer::new(&mut out);
    w.bytes(MAGIC);
    w.u32(VERSION);
    w.u32(kind);
    w.u32(3); // section count
    let header_crc = crc32(&out);
    Writer::new(&mut out).u32(header_crc);
    write_section(&mut out, SEC_META, meta);
    write_section(&mut out, SEC_BODY, body);
    write_section(&mut out, SEC_TELEMETRY, telemetry);
    out
}

/// Upper bound on a single section payload. The length prefix is also
/// bounded by the bytes actually present, so a hostile header can never
/// drive a large allocation — this cap exists so an absurd length in an
/// (attacker-sized) file fails typed before the copy, mirroring the
/// frame cap in `starcdn-net`.
pub(crate) const MAX_SECTION_LEN: u64 = 1 << 30;

fn read_section<'a>(r: &mut Reader<'a>, expect_tag: u32) -> Result<&'a [u8], CheckpointError> {
    let mut head = r.clone();
    let tag = head.u32()?;
    let len = head.u64()?;
    if len > MAX_SECTION_LEN {
        return Err(CheckpointError::Malformed("section length exceeds cap"));
    }
    let framed = r.take(12 + len as usize)?;
    if r.u32()? != crc32(framed) {
        return Err(CheckpointError::CrcMismatch);
    }
    if tag != expect_tag {
        return Err(CheckpointError::Malformed("sections out of order"));
    }
    Ok(&framed[12..])
}

/// Parse and integrity-check a checkpoint container. Never panics on
/// arbitrary input; every corruption maps to a typed error.
pub(crate) fn decode_container(bytes: &[u8]) -> Result<RawCheckpoint<'_>, CheckpointError> {
    if bytes.len() < 24 {
        return Err(CheckpointError::Truncated);
    }
    let mut r = Reader::new(bytes);
    if r.take(8)? != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let (version, kind, sections) = (r.u32()?, r.u32()?, r.u32()?);
    if r.u32()? != crc32(&bytes[..20]) {
        return Err(CheckpointError::CrcMismatch);
    }
    if version != VERSION {
        return Err(CheckpointError::UnsupportedVersion(version));
    }
    if sections != 3 {
        return Err(CheckpointError::Malformed("unexpected section count"));
    }
    let meta = read_section(&mut r, SEC_META)?;
    let body = read_section(&mut r, SEC_BODY)?;
    let telemetry = read_section(&mut r, SEC_TELEMETRY)?;
    r.finish()?;
    Ok(RawCheckpoint { kind, meta, body, telemetry })
}

// ---------------------------------------------------------------------------
// Crash-consistent file I/O.
// ---------------------------------------------------------------------------

/// `ckpt-<epoch, zero-padded>.ckpt` inside `dir`.
pub(crate) fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("ckpt-{epoch:010}.ckpt"))
}

/// Every well-named checkpoint file in `dir`, sorted by epoch ascending.
/// Missing or unreadable directories yield an empty list. Entries with
/// non-checkpoint names (including non-UTF-8 ones) are skipped; an
/// entry that *names* a checkpoint but is actually a directory or
/// garbage is caught later, when resume tries to read and decode it.
pub fn list_checkpoint_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    list_checkpoint_files_io(&RealIo, dir)
}

/// [`list_checkpoint_files`] over an explicit [`Io`].
pub(crate) fn list_checkpoint_files_io(io: &dyn Io, dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut out = Vec::new();
    let Ok(names) = io.list_dir(dir) else {
        return out;
    };
    for name in names {
        let Some(name) = name.to_str() else {
            continue;
        };
        let Some(digits) = name.strip_prefix("ckpt-").and_then(|rest| rest.strip_suffix(".ckpt"))
        else {
            continue;
        };
        // Exactly the names `checkpoint_path` writes: ten digits, more
        // for an epoch past 9 999 999 999, never a sign or extra zeros.
        let Some(epoch) = digits.parse::<u64>().ok().filter(|e| format!("{e:010}") == digits)
        else {
            continue;
        };
        out.push((epoch, dir.join(name)));
    }
    out.sort();
    out
}

/// Remove stale `ckpt-*.ckpt.tmp` files — the droppings of writes that
/// died between `create` and `rename` (a crash, ENOSPC, or a failed
/// fsync whose cleanup also failed). Called whenever a checkpoint
/// directory is opened for a run or a resume; best-effort (a tmp that
/// cannot be removed is left for the next sweep). Returns the number of
/// files removed.
pub fn sweep_stale_tmps(dir: &Path) -> usize {
    sweep_stale_tmps_io(&RealIo, dir)
}

/// [`sweep_stale_tmps`] over an explicit [`Io`].
pub(crate) fn sweep_stale_tmps_io(io: &dyn Io, dir: &Path) -> usize {
    let Ok(names) = io.list_dir(dir) else {
        return 0;
    };
    let mut removed = 0;
    for name in names {
        let Some(name) = name.to_str() else {
            continue;
        };
        if name.starts_with("ckpt-")
            && name.ends_with(".ckpt.tmp")
            && io.remove_file(&dir.join(name)).is_ok()
        {
            removed += 1;
        }
    }
    removed
}

/// Write `bytes` as the checkpoint for `epoch`: temp file in the same
/// directory, fsync, atomic rename, directory fsync, then prune old
/// checkpoints beyond `keep_last` (0 = keep everything).
///
/// On failure the temp file is removed rather than leaked — unless the
/// "process" died at an injected crash point, in the write or in that
/// cleanup: then the crash is the error returned, and the tmp is left
/// for [`sweep_stale_tmps`] on the next open.
pub(crate) fn write_atomic(
    io: &dyn Io,
    dir: &Path,
    epoch: u64,
    bytes: &[u8],
    keep_last: usize,
) -> Result<(), CheckpointError> {
    io.create_dir_all(dir)?;
    let tmp = dir.join(format!("ckpt-{epoch:010}.ckpt.tmp"));
    let written = (|| {
        let mut f = io.create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        io.rename(&tmp, &checkpoint_path(dir, epoch))
    })();
    if let Err(e) = written {
        let cleanup = if e.is_crash() { Ok(()) } else { io.remove_file(&tmp) };
        return Err(match cleanup {
            Err(died) if died.is_crash() => died,
            _ => e,
        }
        .into());
    }
    // Make the rename durable. Directory fsync is best-effort: not every
    // filesystem supports opening a directory for sync.
    let _ = io.sync_dir(dir);
    if keep_last > 0 {
        let files = list_checkpoint_files_io(io, dir);
        if files.len() > keep_last {
            for (_, path) in &files[..files.len() - keep_last] {
                let _ = io.remove_file(path);
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The checkpointer: one for both drivers.
// ---------------------------------------------------------------------------

/// The file side of checkpointing, one for both drivers: it sweeps the
/// directory on open, finds the newest file a resume can start from,
/// and writes each new one. What a driver adds is its META and BODY
/// field lists, its fingerprint and its restore.
pub(crate) struct Checkpointer<'a> {
    ck: Checkpointing<'a>,
    /// [`KIND_ENGINE`] or [`KIND_REPLAY`]: which driver's files these are.
    kind: u32,
    pub(crate) fingerprint: u64,
    /// The boundary last written or resumed from.
    last_written: Option<u64>,
}

impl<'a> Checkpointer<'a> {
    /// Open `ck.policy.dir` for a run whose checkpoints are of `kind`
    /// and carry `fingerprint`, sweeping the droppings of writes that
    /// died mid-way.
    pub(crate) fn open(ck: &Checkpointing<'a>, kind: u32, fingerprint: u64) -> Self {
        sweep_stale_tmps_io(ck.io, &ck.policy.dir);
        Checkpointer { ck: *ck, kind, fingerprint, last_written: None }
    }

    pub(crate) fn resuming(&self) -> bool {
        self.ck.resume
    }

    /// Scheduler epochs between checkpoints.
    pub(crate) fn every_n_epochs(&self) -> u64 {
        self.ck.policy.every_n_epochs.max(1)
    }

    /// Whether entering `epoch` from where `boundary` stands owes a
    /// checkpoint: at every `every_n_epochs` barrier it crosses, but not
    /// the boundary a resume just restored.
    pub(crate) fn due(&self, boundary: &EpochBoundary<'_>, epoch: u64) -> bool {
        boundary.crosses(epoch, self.every_n_epochs()) && self.last_written != Some(epoch)
    }

    /// Restore from the newest checkpoint written before epoch `before`
    /// that `load` accepts, newest first. A file is skipped, with one
    /// [`Event::CheckpointRestoreFallback`] into `rec` keyed by its
    /// epoch, when it cannot be read or fails its CRCs, when it is the
    /// other driver's or another run's, when its META epoch is not its
    /// name's, and when `load` refuses it — which must then leave the
    /// run as it was.
    pub(crate) fn resume<T>(
        &mut self,
        before: u64,
        rec: &dyn Recorder,
        mut load: impl FnMut(&RawCheckpoint<'_>) -> Result<T, CheckpointError>,
    ) -> Result<T, CheckpointError> {
        let files = list_checkpoint_files_io(self.ck.io, &self.ck.policy.dir);
        for (epoch, path) in files.iter().rev().filter(|(epoch, _)| *epoch < before) {
            match self.load_file(path, *epoch, &mut load) {
                Ok(restored) => {
                    self.last_written = Some(*epoch);
                    return Ok(restored);
                }
                Err(_) => rec.event(Event::CheckpointRestoreFallback, *epoch, 1),
            }
        }
        Err(CheckpointError::NoValidCheckpoint)
    }

    fn load_file<T>(
        &self,
        path: &Path,
        epoch: u64,
        load: &mut impl FnMut(&RawCheckpoint<'_>) -> Result<T, CheckpointError>,
    ) -> Result<T, CheckpointError> {
        let bytes = self.ck.io.read(path)?;
        let raw = decode_container(&bytes)?;
        // Both drivers' META field lists open with `fingerprint, epoch`,
        // the epoch the file is named after.
        let mut head = Reader::new(raw.meta);
        if raw.kind != self.kind || head.u64()? != self.fingerprint || head.u64()? != epoch {
            return Err(CheckpointError::ConfigMismatch);
        }
        load(&raw)
    }

    /// Write the checkpoint for `epoch` from its encoded sections: one
    /// container, renamed into place atomically, older files pruned to
    /// `keep_last`.
    pub(crate) fn write(
        &mut self,
        epoch: u64,
        meta: &[u8],
        body: &[u8],
        telemetry: &[u8],
    ) -> Result<(), CheckpointError> {
        let bytes = encode_container(self.kind, meta, body, telemetry);
        let policy = self.ck.policy;
        write_atomic(self.ck.io, &policy.dir, epoch, &bytes, policy.keep_last)?;
        self.last_written = Some(epoch);
        Ok(())
    }
}

/// A body's slot lists: slot `i`'s cache and outstanding fetches, taken
/// from the slot store `owner(i)` (slot order, whatever the worker count).
pub(crate) fn export_slots<'s>(
    total_slots: usize,
    owner: impl Fn(usize) -> &'s Slots,
) -> (Vec<CacheState>, Vec<InflightState>) {
    (0..total_slots).map(|i| owner(i).export(i)).unzip()
}

/// Restore a body's slot lists, slot `i` into `stores[owner(i)]`.
pub(crate) fn restore_slots(
    stores: &mut [Slots],
    owner: impl Fn(usize) -> usize,
    caches: &[CacheState],
    inflight: &[InflightState],
) -> Result<(), CheckpointError> {
    let total_slots = stores[0].caches.len();
    if caches.len() != total_slots || inflight.len() != total_slots {
        return Err(CheckpointError::Malformed("slot count does not match the grid"));
    }
    for (i, (cache, queue)) in caches.iter().zip(inflight).enumerate() {
        stores[owner(i)].restore(i, cache, queue).map_err(CheckpointError::State)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Engine checkpoint payloads.
// ---------------------------------------------------------------------------

/// A fingerprint of everything a checkpoint must agree with the resuming
/// run about: system configuration, epoch length, fault schedule and
/// overload settings. Resume rejects
/// checkpoints whose fingerprint differs (falling back to older files,
/// which will also mismatch). The one fingerprint both the engine and
/// the replayer build on.
pub(crate) fn config_fingerprint(cfg: &StarCdnConfig, epoch_secs: u64, spec: &RunSpec<'_>) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    h = fp_bytes(h, cfg.policy.name().as_bytes());
    h = fp(h, cfg.cache_capacity_bytes);
    h = fp(h, cfg.grid.total_slots() as u64);
    h = fp(h, cfg.num_buckets.map_or(0, |b| 1 + b as u64));
    h = fp(h, cfg.relay_span_planes() as u64);
    h = fp(h, cfg.remap_on_failure as u64);
    h = fp(h, cfg.probe_neighbors_on_miss as u64);
    h = fp(h, cfg.model_transmission_delay as u64);
    h = fp(h, cfg.prefetch_top_k.map_or(0, |k| 1 + k as u64));
    h = fp(h, epoch_secs);
    h = fp(h, spec.schedule.len() as u64);
    h = fp(h, spec.overload.headroom.to_bits());
    // Where a settable attempt count was hashed (always 3 in use) and a
    // retry backoff (always 0): keeping both values keeps checkpoints
    // written before they were retired resumable.
    h = fp(h, crate::overload::MAX_ATTEMPTS as u64);
    h = fp(h, 0);
    h = fp(h, spec.overload.retry_deadline_ms.to_bits());
    h = fp(h, cfg.delayed.fetch_epochs);
    h = fp(h, cfg.delayed.wait_ms_per_epoch.to_bits());
    h = fp(h, cfg.delayed.origin_tiers);
    // Likewise where a measurement cutoff was hashed (always none).
    h = fp(h, 0);
    h
}

pub(crate) struct EngineMeta {
    pub(crate) fingerprint: u64,
    /// Epoch boundary the checkpoint was taken at (names the file).
    pub(crate) boundary_epoch: u64,
    /// The epoch the driver was in before the boundary; resume restores
    /// `current_epoch` to this so the boundary re-executes.
    pub(crate) prev_epoch: u64,
    /// Index of the first unprocessed entry.
    pub(crate) entry_index: u64,
    pub(crate) use_cursor: bool,
    pub(crate) use_overload: bool,
}

wire_struct!(EngineMeta {
    fingerprint,
    boundary_epoch,
    prev_epoch,
    entry_index,
    use_cursor,
    use_overload
});

struct EngineBody {
    failures: FailureModel,
    caches: Vec<CacheState>,
    /// Per-slot outstanding-fetch queues (DESIGN.md §14); all empty
    /// when the delayed-hit model is disabled.
    inflight: Vec<InflightState>,
    cold: Vec<bool>,
    metrics: SystemMetrics,
    /// `(events applied, live failure view)` of the schedule cursor.
    cursor: Option<(u64, FailureModel)>,
    ledger: Option<Vec<EpochUsageState>>,
    /// Retired: the fault-event counter levels of an older engine.
    /// Written as zeros, ignored on read; kept so the layout stays.
    watermark: [u64; 3],
}

wire_struct!(EngineBody { failures, caches, inflight, cold, metrics, cursor, ledger, watermark });

/// Structurally validate checkpoint bytes without restoring anything:
/// container framing, CRCs, and full payload decode. Used by corruption
/// tests; any corrupt input returns an error, never a panic.
pub fn validate_checkpoint_bytes(bytes: &[u8]) -> Result<(), CheckpointError> {
    let raw = decode_container(bytes)?;
    match raw.kind {
        KIND_ENGINE => {
            decode::<EngineMeta>(raw.meta)?;
            decode::<EngineBody>(raw.body)?;
            decode::<Option<TelemetrySnapshot>>(raw.telemetry)?;
            Ok(())
        }
        KIND_REPLAY => {
            // Replayer payloads are validated by their own decoder.
            crate::replayer_checkpoint::validate_sections(&raw)
        }
        _ => Err(CheckpointError::Malformed("unknown checkpoint kind")),
    }
}

/// FNV-1a over the canonical checkpoint encoding of `m` — every
/// counter, histogram bucket, and latency *bit pattern* contributes, so
/// two metrics with equal digests are bit-for-bit identical for
/// everything checkpoints preserve. The storage-fault tests compare
/// runs through this.
pub fn metrics_digest(m: &SystemMetrics) -> u64 {
    fp_bytes(0xCBF2_9CE4_8422_2325, &encode(m))
}

/// The loop-local state of [`crate::engine::run`] that a checkpoint
/// freezes beside the fleet's own.
pub(crate) struct LoopState {
    /// The epoch the loop was in before the boundary; resume restores
    /// `current_epoch` to this so the boundary re-executes.
    pub(crate) prev_epoch: u64,
    /// Index of the first unprocessed entry.
    pub(crate) entry_index: usize,
    /// `(events applied, live failure view)` of the schedule cursor.
    pub(crate) cursor: Option<(u64, FailureModel)>,
    pub(crate) ledger: Option<Vec<EpochUsageState>>,
    pub(crate) telemetry: Option<TelemetrySnapshot>,
}

impl LoopState {
    /// Restore `cdn` and the overload `ledger` from the newest engine
    /// checkpoint that validates against this run of a `log_len`-entry
    /// log under `spec`, and return the loop state to continue from.
    pub(crate) fn resume(
        cp: &mut Checkpointer<'_>,
        cdn: &mut SpaceCdn,
        mut ledger: Option<&mut CapacityLedger>,
        log_len: usize,
        spec: &RunSpec<'_>,
    ) -> Result<Self, CheckpointError> {
        let use_cursor = spec.live_schedule().is_some();
        let use_overload = spec.live_overload().is_some();
        cp.resume(u64::MAX, spec.recorder, |raw| {
            let meta: EngineMeta = decode(raw.meta)?;
            if meta.use_cursor != use_cursor
                || meta.use_overload != use_overload
                || meta.entry_index as usize > log_len
            {
                return Err(CheckpointError::ConfigMismatch);
            }
            let body: EngineBody = decode(raw.body)?;
            if use_cursor != body.cursor.is_some() || use_overload != body.ledger.is_some() {
                return Err(CheckpointError::Malformed("mode does not match stored sections"));
            }
            let telemetry = decode(raw.telemetry)?;
            // Restore into fresh slots, and the ledger (which refuses a
            // set of balances whole) last: a file refused anywhere here
            // has changed nothing.
            let mut slots = Slots::new(cdn.config());
            if body.cold.len() != slots.cold.len() {
                return Err(CheckpointError::Malformed("slot count does not match the grid"));
            }
            restore_slots(std::slice::from_mut(&mut slots), |_| 0, &body.caches, &body.inflight)?;
            slots.cold = body.cold;
            if let (Some(l), Some(usage)) = (ledger.as_deref_mut(), &body.ledger) {
                l.import_state(usage)?;
            }
            cdn.slots = slots;
            cdn.set_failures(body.failures);
            cdn.metrics = body.metrics;
            Ok(LoopState {
                prev_epoch: meta.prev_epoch,
                entry_index: meta.entry_index as usize,
                cursor: body.cursor,
                ledger: body.ledger,
                telemetry,
            })
        })
    }

    /// Write the checkpoint for boundary `epoch`: the fleet as it stands
    /// plus this loop state, both from *before* any boundary action.
    pub(crate) fn write(
        self,
        cp: &mut Checkpointer<'_>,
        cdn: &SpaceCdn,
        epoch: u64,
    ) -> Result<(), CheckpointError> {
        let meta = EngineMeta {
            fingerprint: cp.fingerprint,
            boundary_epoch: epoch,
            prev_epoch: self.prev_epoch,
            entry_index: self.entry_index as u64,
            use_cursor: self.cursor.is_some(),
            use_overload: self.ledger.is_some(),
        };
        let (caches, inflight) = export_slots(cdn.slots.caches.len(), |_| &cdn.slots);
        let body = EngineBody {
            failures: cdn.failures().clone(),
            caches,
            inflight,
            cold: cdn.slots.cold.clone(),
            metrics: cdn.metrics.clone(),
            cursor: self.cursor,
            ledger: self.ledger,
            watermark: [0; 3],
        };
        cp.write(epoch, &encode(&meta), &encode(&body), &encode(&self.telemetry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_log::build_access_log;
    use crate::access_log::AccessLog;
    use crate::engine::{run, run_space, SimConfig};
    use crate::overload::OverloadConfig;
    use crate::serve::{decode_drain, ShardState};
    use crate::world::World;
    use proptest::prelude::*;
    use spacegen::trace::{LocationId, Request, Trace};
    use starcdn::config::{DelayedHitConfig, StarCdnConfig};
    use starcdn::metrics::AvailabilityPoint;
    use starcdn_cache::inflight::InflightEntryState;
    use starcdn_cache::object::ObjectId;
    use starcdn_constellation::capacity::UtilizationPoint;
    use starcdn_constellation::schedule::{FaultEvent, FaultSchedule, TimedFault};
    use starcdn_orbit::time::SimTime;
    use starcdn_orbit::walker::SatelliteId;
    use starcdn_telemetry::{Counter, Histo, MemoryRecorder, Noop, Recorder, Stage};
    use std::fs;

    /// The engine under `sched`/`overload`, recording into `rec`, with
    /// no checkpoint: the reference the checkpointed runs must match.
    fn run_recorded(
        cdn: &mut SpaceCdn,
        log: &AccessLog,
        sched: &FaultSchedule,
        overload: &OverloadConfig,
        rec: &dyn Recorder,
    ) -> SystemMetrics {
        let spec =
            RunSpec { schedule: sched, overload: *overload, recorder: rec, ..RunSpec::default() };
        run(cdn, log, &spec).unwrap()
    }

    fn checkpointed(
        cdn: &mut SpaceCdn,
        log: &AccessLog,
        sched: &FaultSchedule,
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
        run(cdn, log, &spec)
    }

    fn log() -> AccessLog {
        let w = World::starlink_nine_cities();
        let reqs: Vec<Request> = (0..2000u64)
            .map(|k| Request {
                time: SimTime::from_secs(k / 4),
                object: ObjectId(k % 50),
                size: 1000,
                location: LocationId((k % 9) as u16),
            })
            .collect();
        build_access_log(&w, &Trace::new(reqs), 15, &SimConfig::default().scheduler())
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("starcdn-ckpt-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn policy(dir: &Path, every: u64) -> CheckpointPolicy {
        CheckpointPolicy { every_n_epochs: every, dir: dir.to_path_buf(), keep_last: 0 }
    }

    fn churn() -> FaultSchedule {
        FaultSchedule::from_events([
            TimedFault { at_secs: 120, event: FaultEvent::SatDown(SatelliteId::new(3, 7)) },
            TimedFault { at_secs: 135, event: FaultEvent::SatDown(SatelliteId::new(10, 2)) },
            TimedFault { at_secs: 240, event: FaultEvent::SatUp(SatelliteId::new(3, 7)) },
            TimedFault { at_secs: 330, event: FaultEvent::SatUp(SatelliteId::new(10, 2)) },
        ])
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn util_bits(v: &[UtilizationPoint]) -> Vec<(u64, u64, u64, u64, u64, u64)> {
        v.iter()
            .map(|p| {
                (
                    p.epoch,
                    p.peak_gsl_util.to_bits(),
                    p.peak_isl_util.to_bits(),
                    p.gsl_bytes,
                    p.isl_bytes,
                    p.shed_requests,
                )
            })
            .collect()
    }

    /// Full bit-for-bit metric comparison.
    fn assert_metrics_identical(a: &SystemMetrics, b: &SystemMetrics) {
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.uplink_bytes, b.uplink_bytes);
        assert_eq!(a.served_local, b.served_local);
        assert_eq!(a.served_relay_west, b.served_relay_west);
        assert_eq!(a.served_relay_east, b.served_relay_east);
        assert_eq!(a.served_ground, b.served_ground);
        assert_eq!(a.relay_bytes, b.relay_bytes);
        assert_eq!(bits(&a.latencies_ms), bits(&b.latencies_ms), "latency bit patterns");
        assert_eq!(a.per_satellite, b.per_satellite);
        assert_eq!(a.neighbor_availability, b.neighbor_availability);
        assert_eq!(a.remapped_requests, b.remapped_requests);
        assert_eq!(a.cold_restart_misses, b.cold_restart_misses);
        assert_eq!(a.reroute_extra_hops, b.reroute_extra_hops);
        assert_eq!(a.availability, b.availability);
        assert_eq!(a.shed_requests, b.shed_requests);
        assert_eq!(a.retry_attempts, b.retry_attempts);
        assert_eq!(a.served_primary, b.served_primary);
        assert_eq!(a.served_replica, b.served_replica);
        assert_eq!(a.served_origin_fallback, b.served_origin_fallback);
        assert_eq!(a.dropped_requests, b.dropped_requests);
        assert_eq!(util_bits(&a.utilization), util_bits(&b.utilization), "utilization timeline");
        assert_eq!(a.partitioned_requests, b.partitioned_requests);
        assert_eq!(a.delayed_hits, b.delayed_hits);
        assert_eq!(a.coalesced_requests, b.coalesced_requests);
        assert_eq!(a.residual_epoch_hist, b.residual_epoch_hist);
    }

    /// Telemetry equality modulo span wall-clock time (span *counts*
    /// must still match).
    fn assert_telemetry_identical(a: &TelemetrySnapshot, b: &TelemetrySnapshot) {
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.histograms, b.histograms);
        assert_eq!(a.events, b.events);
        let span_counts =
            |s: &TelemetrySnapshot| s.spans.iter().map(|(&k, v)| (k, v.count)).collect::<Vec<_>>();
        assert_eq!(span_counts(a), span_counts(b));
    }

    #[test]
    fn failure_view_bytes_are_the_sorted_id_lists_whatever_the_kill_order() {
        // Sorted by (orbit, slot), hand-listed: slots past one word, a
        // run inside one plane, the far planes.
        let sorted: [(u16, u16); 9] =
            [(0, 0), (0, 17), (3, 1), (3, 7), (3, 64), (10, 2), (40, 3), (71, 0), (71, 17)];
        let sat = |(o, s): (u16, u16)| SatelliteId::new(o, s);
        let mut view = FailureModel::none();
        for i in [6, 3, 8, 0, 5, 2, 7, 1, 4] {
            view.kill(sat(sorted[i]));
        }
        // One that came and went, one cut given tail first.
        view.kill(sat((20, 5)));
        view.revive(sat((20, 5)));
        view.cut_link(sat((5, 6)), sat((5, 5)));
        view.cut_link(sat((2, 0)), sat((1, 0)));

        let mut expected = Vec::new();
        let mut w = Writer::new(&mut expected);
        w.u64(sorted.len() as u64);
        for (o, s) in sorted {
            w.u16(o);
            w.u16(s);
        }
        w.u64(2);
        for (o, s) in [(1, 0), (2, 0), (5, 5), (5, 6)] {
            w.u16(o);
            w.u16(s);
        }

        let bytes = encode(&view);
        assert_eq!(bytes, expected);
        assert_eq!(decode::<FailureModel>(&bytes).unwrap(), view);
    }

    fn sample_body() -> EngineBody {
        let mut metrics = SystemMetrics::default();
        metrics.record(SatelliteId::new(1, 2), starcdn::system::ServedFrom::LocalHit, 512, 11.25);
        metrics.record(SatelliteId::new(4, 9), starcdn::system::ServedFrom::Ground, 64, 70.5);
        metrics.availability.push(AvailabilityPoint { epoch: 3, alive_sats: 1295, cut_links: 1 });
        metrics.utilization.push(UtilizationPoint {
            epoch: 2,
            peak_gsl_util: 0.75,
            peak_isl_util: 0.5,
            gsl_bytes: 1000,
            isl_bytes: 400,
            shed_requests: 2,
        });
        metrics.partitioned_requests = 3;
        metrics.delayed_hits = 4;
        metrics.coalesced_requests = 2;
        metrics.residual_epoch_hist.insert(1, 3);
        metrics.residual_epoch_hist.insert(2, 1);
        let mut lru = starcdn_cache::policy::PolicyKind::Lru.build(10_000);
        lru.access(ObjectId(7), 100);
        lru.access(ObjectId(9), 200);
        // A latency-aware slot too, so the Mad section (inflation floor
        // plus per-entry priorities) is under the corruption proptests.
        let mut mad = starcdn_cache::policy::PolicyKind::Mad.build(10_000);
        mad.access(ObjectId(11), 300);
        mad.access(ObjectId(12), 400);
        mad.record_fetch_delay(ObjectId(11), 6);
        EngineBody {
            failures: FailureModel::from_outages(
                [SatelliteId::new(0, 1)],
                [(SatelliteId::new(2, 2), SatelliteId::new(2, 3))],
            ),
            caches: vec![lru.to_state(), mad.to_state()],
            inflight: vec![
                InflightState {
                    fetches: vec![InflightEntryState {
                        id: ObjectId(3),
                        completes_at: 9,
                        size: 700,
                        followers: 2,
                        delay_epochs: 4,
                    }],
                },
                InflightState { fetches: vec![] },
            ],
            cold: vec![false, true],
            metrics,
            cursor: Some((2, FailureModel::from_dead([SatelliteId::new(0, 1)]))),
            ledger: Some(vec![EpochUsageState {
                epoch: 1,
                gsl_used: vec![(3, 900)],
                isl_used: vec![((3, 4), 500)],
                shed: 1,
            }]),
            watermark: [5, 6, 7],
        }
    }

    fn sample_bytes() -> Vec<u8> {
        let meta = EngineMeta {
            fingerprint: 0xDEAD_BEEF,
            boundary_epoch: 8,
            prev_epoch: 7,
            entry_index: 1234,
            use_cursor: true,
            use_overload: true,
        };
        let rec = MemoryRecorder::new();
        rec.add(Counter::CacheHits, 3);
        rec.observe(Histo::LatencyUs, 1500);
        rec.span_ns(Stage::CacheAccess, 7, 900);
        rec.event(Event::Remap, 7, 2);
        encode_container(
            KIND_ENGINE,
            &encode(&meta),
            &encode(&sample_body()),
            &encode(&Some(rec.snapshot())),
        )
    }

    #[test]
    fn container_roundtrips_and_is_stable() {
        let bytes = sample_bytes();
        validate_checkpoint_bytes(&bytes).unwrap();
        let raw = decode_container(&bytes).unwrap();
        assert_eq!(raw.kind, KIND_ENGINE);
        let meta: EngineMeta = decode(raw.meta).unwrap();
        assert_eq!(meta.boundary_epoch, 8);
        assert_eq!(meta.entry_index, 1234);
        let body: EngineBody = decode(raw.body).unwrap();
        assert_eq!(body.watermark, [5, 6, 7]);
        assert_eq!(body.failures.dead_count(), 1);
        assert_eq!(body.failures.cut_link_count(), 1);
        // Re-encoding the decoded payloads reproduces the exact bytes.
        let again = encode_container(
            KIND_ENGINE,
            &encode(&meta),
            &encode(&body),
            &encode(&decode::<Option<TelemetrySnapshot>>(raw.telemetry).unwrap()),
        );
        assert_eq!(again, bytes, "codec is deterministic and lossless");
    }

    #[test]
    fn container_rejects_basic_corruption() {
        let bytes = sample_bytes();
        assert!(matches!(decode_container(&bytes[..10]), Err(CheckpointError::Truncated)));
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(matches!(decode_container(&bad_magic), Err(CheckpointError::BadMagic)));
        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        // Header CRC guards the version field itself.
        assert!(matches!(decode_container(&bad_version), Err(CheckpointError::CrcMismatch)));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(decode_container(&trailing), Err(CheckpointError::Malformed(_))));
    }

    #[test]
    fn hostile_section_length_rejected() {
        // A header whose META section claims an absurd length: the
        // length prefix must fail typed *before* any allocation, both
        // when it exceeds the cap and when it merely exceeds the bytes
        // present.
        let bytes = sample_bytes();
        let mut huge = bytes.clone();
        // Section layout after the 24-byte header: tag u32, then len u64.
        huge[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            decode_container(&huge),
            Err(CheckpointError::Malformed("section length exceeds cap"))
        ));
        let mut oversize = bytes.clone();
        oversize[28..36].copy_from_slice(&(MAX_SECTION_LEN - 1).to_le_bytes());
        assert!(matches!(decode_container(&oversize), Err(CheckpointError::Truncated)));
    }

    #[test]
    fn sections_out_of_order_rejected() {
        let bytes = sample_bytes();
        let raw = decode_container(&bytes).unwrap();
        // Rebuild with BODY and META swapped; every section CRC is valid
        // but the strict order check must fire.
        let mut out = encode_container(KIND_ENGINE, raw.meta, raw.body, raw.telemetry);
        out.truncate(24);
        write_section(&mut out, SEC_BODY, raw.body);
        write_section(&mut out, SEC_META, raw.meta);
        write_section(&mut out, SEC_TELEMETRY, raw.telemetry);
        assert!(matches!(decode_container(&out), Err(CheckpointError::Malformed(_))));
    }

    proptest! {
        /// Every single-byte flip anywhere in the file is detected (the
        /// CRCs cover every byte), and detection is an error — never a
        /// panic.
        #[test]
        fn prop_single_byte_flips_detected(pos in 0usize..4096, mask in 1u8..=255) {
            let bytes = sample_bytes();
            let mut bad = bytes.clone();
            let i = pos % bad.len();
            bad[i] ^= mask;
            prop_assert!(validate_checkpoint_bytes(&bad).is_err());
        }

        /// Every proper truncation errors out cleanly.
        #[test]
        fn prop_truncations_detected(cut in 0usize..4096) {
            let bytes = sample_bytes();
            let n = cut % bytes.len();
            prop_assert!(validate_checkpoint_bytes(&bytes[..n]).is_err());
        }

        /// Arbitrary garbage never panics the validator, the drain
        /// decoder or a shard server's batch decoder (fed once as it
        /// is and once behind an op count the bytes could hold).
        #[test]
        fn prop_garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = validate_checkpoint_bytes(&data);
            let _ = decode_drain(&data);
            let cfg = StarCdnConfig::starcdn_no_relay(4, 1_000_000);
            let mut shard = ShardState::new(&cfg, &FailureModel::none(), false);
            let _ = shard.apply_batch(&data);
            let counted = [&(data.len() as u32 / 9).to_le_bytes()[..], &data].concat();
            let _ = shard.apply_batch(&counted);
        }
    }

    #[test]
    fn parity_plain() {
        let log = log();
        let dir = tmpdir("parity-plain");
        let mut a = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let ma = run_space(&mut a, &log);
        let mut b = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let mb = checkpointed(
            &mut b,
            &log,
            &FaultSchedule::empty(),
            &OverloadConfig::disabled(),
            &policy(&dir, 5),
            &Noop,
            false,
        )
        .unwrap();
        assert_metrics_identical(&ma, &mb);
        assert!(!list_checkpoint_files(&dir).is_empty(), "checkpoints were written");
        for (_, path) in list_checkpoint_files(&dir) {
            validate_checkpoint_bytes(&fs::read(path).unwrap()).unwrap();
        }
    }

    #[test]
    fn parity_churn_with_telemetry() {
        let log = log();
        let dir = tmpdir("parity-churn");
        let sched = churn();
        let rec_a = MemoryRecorder::new();
        let mut a = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let ma = run_recorded(&mut a, &log, &sched, &OverloadConfig::disabled(), &rec_a);
        let rec_b = MemoryRecorder::new();
        let mut b = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let mb = checkpointed(
            &mut b,
            &log,
            &sched,
            &OverloadConfig::disabled(),
            &policy(&dir, 4),
            &rec_b,
            false,
        )
        .unwrap();
        assert_metrics_identical(&ma, &mb);
        assert_telemetry_identical(&rec_a.snapshot(), &rec_b.snapshot());
    }

    #[test]
    fn parity_overload_with_telemetry() {
        let log = log();
        let dir = tmpdir("parity-overload");
        let sched = churn();
        let overload = OverloadConfig::with_headroom(0.4);
        let rec_a = MemoryRecorder::new();
        let mut a = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let ma = run_recorded(&mut a, &log, &sched, &overload, &rec_a);
        let rec_b = MemoryRecorder::new();
        let mut b = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let mb =
            checkpointed(&mut b, &log, &sched, &overload, &policy(&dir, 4), &rec_b, false).unwrap();
        assert_metrics_identical(&ma, &mb);
        assert_telemetry_identical(&rec_a.snapshot(), &rec_b.snapshot());
    }

    /// The crash/resume scaffold: a "crashed" run replays only a prefix
    /// of the log (leaving exactly the checkpoints a killed process
    /// would), then a fresh process resumes on the full log and must
    /// match the uninterrupted run bit-for-bit.
    fn crash_resume_roundtrip(name: &str, sched: &FaultSchedule, overload: &OverloadConfig) {
        crash_resume_roundtrip_cfg(
            name,
            &StarCdnConfig::starcdn(4, 1_000_000),
            &log(),
            sched,
            overload,
        );
    }

    fn crash_resume_roundtrip_cfg(
        name: &str,
        config: &StarCdnConfig,
        log: &AccessLog,
        sched: &FaultSchedule,
        overload: &OverloadConfig,
    ) {
        let cfg = || config.clone();

        let dir_golden = tmpdir(&format!("{name}-golden"));
        let rec_golden = MemoryRecorder::new();
        let mut golden = SpaceCdn::new(cfg());
        let m_golden = checkpointed(
            &mut golden,
            log,
            sched,
            overload,
            &policy(&dir_golden, 3),
            &rec_golden,
            false,
        )
        .unwrap();

        let dir = tmpdir(&format!("{name}-crash"));
        let cut = log.entries.len() * 2 / 3;
        let partial =
            AccessLog { entries: log.entries[..cut].to_vec(), epoch_secs: log.epoch_secs };
        let mut crashed = SpaceCdn::new(cfg());
        checkpointed(
            &mut crashed,
            &partial,
            sched,
            overload,
            &policy(&dir, 3),
            &MemoryRecorder::new(),
            false,
        )
        .unwrap();
        assert!(!list_checkpoint_files(&dir).is_empty(), "crash point past first checkpoint");

        let rec_resumed = MemoryRecorder::new();
        let mut resumed = SpaceCdn::new(cfg());
        let m_resumed =
            checkpointed(&mut resumed, log, sched, overload, &policy(&dir, 3), &rec_resumed, true)
                .unwrap();

        assert_metrics_identical(&m_golden, &m_resumed);
        assert_telemetry_identical(&rec_golden.snapshot(), &rec_resumed.snapshot());
        assert_eq!(
            rec_resumed
                .snapshot()
                .events
                .keys()
                .filter(|(e, _)| *e == Event::CheckpointRestoreFallback)
                .count(),
            0,
            "clean resume must not fall back"
        );
    }

    #[test]
    fn resume_plain_is_bit_identical() {
        crash_resume_roundtrip(
            "resume-plain",
            &FaultSchedule::empty(),
            &OverloadConfig::disabled(),
        );
    }

    #[test]
    fn resume_churn_is_bit_identical() {
        crash_resume_roundtrip("resume-churn", &churn(), &OverloadConfig::disabled());
    }

    #[test]
    fn resume_churn_overload_is_bit_identical() {
        crash_resume_roundtrip("resume-combined", &churn(), &OverloadConfig::with_headroom(0.4));
    }

    /// A single-city log: the first-contact satellite is stable within a
    /// scheduler epoch, so repeat requests for an object land on the same
    /// owner and reliably coalesce onto its in-flight fetch.
    fn delayed_log() -> AccessLog {
        let w = World::starlink_nine_cities();
        let reqs: Vec<Request> = (0..2000u64)
            .map(|k| Request {
                time: SimTime::from_secs(k / 4),
                object: ObjectId(k % 50),
                size: 1000,
                location: LocationId(0),
            })
            .collect();
        build_access_log(&w, &Trace::new(reqs), 15, &SimConfig::default().scheduler())
    }

    /// Checkpointed run with the delayed-hit model on matches the plain
    /// engine, and a kill/resume with fetches still in flight at the
    /// boundary converges bit-for-bit (the queues travel in the body).
    #[test]
    fn parity_and_resume_with_delayed_hits() {
        let cfg = StarCdnConfig::starcdn(4, 1_000_000)
            .with_delayed_hits(DelayedHitConfig::with_latency(2, 40.0));
        let log = delayed_log();
        let dir = tmpdir("parity-delayed");
        let sched = churn();
        let rec_a = MemoryRecorder::new();
        let mut a = SpaceCdn::new(cfg.clone());
        let ma = run_recorded(&mut a, &log, &sched, &OverloadConfig::disabled(), &rec_a);
        assert!(ma.delayed_hits > 0, "scenario must exercise coalescing");
        let rec_b = MemoryRecorder::new();
        let mut b = SpaceCdn::new(cfg.clone());
        let mb = checkpointed(
            &mut b,
            &log,
            &sched,
            &OverloadConfig::disabled(),
            &policy(&dir, 4),
            &rec_b,
            false,
        )
        .unwrap();
        assert_metrics_identical(&ma, &mb);
        assert_telemetry_identical(&rec_a.snapshot(), &rec_b.snapshot());

        crash_resume_roundtrip_cfg(
            "resume-delayed",
            &cfg,
            &log,
            &sched,
            &OverloadConfig::disabled(),
        );
        crash_resume_roundtrip_cfg(
            "resume-delayed-overload",
            &cfg,
            &log,
            &sched,
            &OverloadConfig::with_headroom(0.4),
        );
    }

    /// Two ways the newest file can be unusable: a flipped byte, and a
    /// valid checkpoint under a newer name (its META epoch is not the
    /// name's). Either way resume skips it with one fallback event and
    /// converges on the golden run from the older file.
    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let log = log();
        let sched = churn();
        let overload = OverloadConfig::disabled();
        for (name, misnamed) in [("fallback", false), ("fallback-misnamed", true)] {
            let dir = tmpdir(name);
            let rec_golden = MemoryRecorder::new();
            let mut golden = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
            let m_golden = checkpointed(
                &mut golden,
                &log,
                &sched,
                &overload,
                &policy(&dir, 3),
                &rec_golden,
                false,
            )
            .unwrap();

            let files = list_checkpoint_files(&dir);
            assert!(files.len() >= 2, "need at least two checkpoints for fallback");
            let (newest_epoch, newest) = files.last().unwrap();
            let skipped_epoch = if misnamed {
                fs::copy(newest, checkpoint_path(&dir, newest_epoch + 1)).unwrap();
                newest_epoch + 1
            } else {
                let mut bytes = fs::read(newest).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x5A;
                fs::write(newest, &bytes).unwrap();
                *newest_epoch
            };

            let rec = MemoryRecorder::new();
            let mut resumed = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
            let m_resumed =
                checkpointed(&mut resumed, &log, &sched, &overload, &policy(&dir, 3), &rec, true)
                    .unwrap();
            // Resuming from ANY valid checkpoint of the same run
            // converges to the same final state.
            assert_metrics_identical(&m_golden, &m_resumed);
            let fallbacks: Vec<_> = rec
                .snapshot()
                .events
                .into_iter()
                .filter(|((e, _), _)| *e == Event::CheckpointRestoreFallback)
                .collect();
            assert_eq!(
                fallbacks,
                vec![((Event::CheckpointRestoreFallback, skipped_epoch), 1)],
                "{name}: skipping the newest file is telemetered, once"
            );
        }
    }

    #[test]
    fn forged_ledger_key_falls_back_or_fails_typed() {
        let log = log();
        let sched = churn();
        let overload = OverloadConfig::with_headroom(0.4);
        let cdn = || SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let dir = tmpdir("forged-ledger");
        let pol = policy(&dir, 3);
        let m_golden =
            checkpointed(&mut cdn(), &log, &sched, &overload, &pol, &Noop, false).unwrap();

        // The newest checkpoint, re-encoded (every CRC valid) with one
        // more ledger balance: a link to slot 5000 of a 1296-slot grid.
        let files = list_checkpoint_files(&dir);
        assert!(files.len() >= 2, "need at least two checkpoints for fallback");
        let (newest_epoch, newest) = files.last().unwrap();
        let bytes = fs::read(newest).unwrap();
        let raw = decode_container(&bytes).unwrap();
        let mut body: EngineBody = decode(raw.body).unwrap();
        let usage = body.ledger.as_mut().expect("overload runs checkpoint their ledger");
        usage[0].isl_used.push(((0, 5000), 1));
        let forged = encode_container(raw.kind, raw.meta, &encode(&body), raw.telemetry);
        assert!(decode_container(&forged).is_ok(), "the forgery passes every CRC");
        fs::write(newest, &forged).unwrap();

        // With an older barrier on disk the resume takes that one.
        let rec = MemoryRecorder::new();
        let m_resumed =
            checkpointed(&mut cdn(), &log, &sched, &overload, &pol, &rec, true).unwrap();
        assert_metrics_identical(&m_golden, &m_resumed);
        assert_eq!(
            rec.snapshot().events.get(&(Event::CheckpointRestoreFallback, *newest_epoch)),
            Some(&1),
            "skipping the forged file is telemetered"
        );

        // Alone, it is no checkpoint at all — not a panic, and not a run
        // that silently starts from an empty ledger.
        let alone = tmpdir("forged-ledger-alone");
        fs::write(checkpoint_path(&alone, *newest_epoch), &forged).unwrap();
        let err =
            checkpointed(&mut cdn(), &log, &sched, &overload, &policy(&alone, 3), &Noop, true)
                .unwrap_err();
        assert!(matches!(err, CheckpointError::NoValidCheckpoint), "{err}");
    }

    #[test]
    fn all_corrupt_is_no_valid_checkpoint_not_a_panic() {
        let dir = tmpdir("no-valid");
        fs::write(checkpoint_path(&dir, 5), b"definitely not a checkpoint").unwrap();
        let log = log();
        let rec = MemoryRecorder::new();
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        let err = checkpointed(
            &mut cdn,
            &log,
            &FaultSchedule::empty(),
            &OverloadConfig::disabled(),
            &policy(&dir, 3),
            &rec,
            true,
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::NoValidCheckpoint));
        assert_eq!(rec.snapshot().events.get(&(Event::CheckpointRestoreFallback, 5)), Some(&1));
    }

    #[test]
    fn config_mismatch_rejects_checkpoints() {
        let log = log();
        let dir = tmpdir("fingerprint");
        let mut a = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        checkpointed(
            &mut a,
            &log,
            &FaultSchedule::empty(),
            &OverloadConfig::disabled(),
            &policy(&dir, 3),
            &Noop,
            false,
        )
        .unwrap();
        // Different capacity → different fingerprint → no valid file.
        let mut b = SpaceCdn::new(StarCdnConfig::starcdn(4, 2_000_000));
        let err = checkpointed(
            &mut b,
            &log,
            &FaultSchedule::empty(),
            &OverloadConfig::disabled(),
            &policy(&dir, 3),
            &Noop,
            true,
        )
        .unwrap_err();
        assert!(matches!(err, CheckpointError::NoValidCheckpoint));
    }

    #[test]
    fn keep_last_prunes_old_checkpoints() {
        let log = log();
        let dir = tmpdir("prune");
        let pol = CheckpointPolicy { every_n_epochs: 1, dir: dir.clone(), keep_last: 2 };
        let mut cdn = SpaceCdn::new(StarCdnConfig::starcdn(4, 1_000_000));
        checkpointed(
            &mut cdn,
            &log,
            &FaultSchedule::empty(),
            &OverloadConfig::disabled(),
            &pol,
            &Noop,
            false,
        )
        .unwrap();
        let files = list_checkpoint_files(&dir);
        assert_eq!(files.len(), 2, "keep_last bounds the directory");
        // The survivors are the two newest boundaries.
        assert!(files[0].0 < files[1].0);
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = tmpdir("atomic");
        write_atomic(&RealIo, &dir, 42, &sample_bytes(), 0).unwrap();
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["ckpt-0000000042.ckpt".to_string()]);
    }
}
