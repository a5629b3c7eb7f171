//! Access logs: first-contact assignments per request.
//!
//! The analog of CosmicBeats' output in the paper's pipeline: the
//! orbital/scheduling stage resolves each trace request to the satellite
//! that receives it (and the GSL delay to it); the cache stage then
//! replays the log. Splitting the stages lets the same log drive the
//! deterministic engine, the parallel replayer, and every system variant
//! with identical inputs.
//!
//! The log has one layout, rows: an [`AccessLog`] is a `Vec` of
//! [`AccessLogEntry`]. One per-entry loop writes it: it takes every
//! epoch boundary through one [`EpochScheduler::begin`] (the schedule's
//! prologue, then the visibility window's advance), reads every entry's
//! assignment through [`EpochScheduler::assignment`] — which schedules a
//! location on the first request that reads it in the epoch, so an
//! (epoch, location) cell no request reads is never scheduled — and
//! stores every entry through the one entry constructor,
//! [`AccessLogEntry::resolved`]. [`build_access_log_parallel`] runs that
//! loop over epoch-aligned chunks of the trace on threads, cut as the
//! replayer's pre-pass cuts a log, and [`build_access_log`] runs it as
//! one chunk; both produce bit-for-bit the same log. Each chunk's output
//! is sized before it starts, so its steady-state epoch loop —
//! propagate, schedule into reusable scratch, push entries — performs
//! zero heap allocations; the chunks after the first are appended to
//! the first's. The 39-byte binary format has one encoder
//! ([`AccessLog::write_binary`]) and one decoder
//! ([`AccessLog::read_binary`]).

use crate::epoch_chunks::{chunk_starts, or_one_chunk, run_chunks};
use crate::scheduler::{epoch_of, Assignment, EpochScheduler, SchedulerConfig};
use crate::world::World;
use serde::{Deserialize, Serialize};
use spacegen::io::{read_fixed_record, IoError};
use spacegen::trace::{LocationId, Request, Trace};
use starcdn_cache::object::ObjectId;
use starcdn_constellation::schedule::ScheduleCursor;
use starcdn_io::wire::Reader;
use starcdn_orbit::time::SimTime;
use starcdn_orbit::walker::SatelliteId;
use starcdn_telemetry::{Counter, Event, Histo, Noop, Recorder, SpanTimer, Stage};
use std::ops::Range;

/// One request with its resolved first-contact satellite.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccessLogEntry {
    pub time: SimTime,
    pub object: ObjectId,
    pub size: u64,
    pub location: LocationId,
    /// `None` when no satellite was visible (request falls back to the
    /// bent pipe).
    pub first_contact: Option<SatelliteId>,
    /// One-way user↔satellite delay, ms (0 when unreachable).
    pub gsl_oneway_ms: f64,
}

/// A time-ordered access log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccessLog {
    pub entries: Vec<AccessLogEntry>,
    /// Epoch length used when scheduling, seconds.
    pub epoch_secs: u64,
}

impl AccessLog {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Persist as JSON (the paper's pipeline writes the orbital stage's
    /// per-satellite access logs to disk for the replayer to consume;
    /// this is the equivalent hand-off artifact).
    pub fn write_json(&self, w: impl std::io::Write) -> Result<(), serde_json::Error> {
        serde_json::to_writer(std::io::BufWriter::new(w), self)
    }

    /// Load a log written by [`AccessLog::write_json`].
    pub fn read_json(r: impl std::io::Read) -> Result<Self, serde_json::Error> {
        serde_json::from_reader(std::io::BufReader::new(r))
    }

    /// Persist in the compact binary format: an 8-byte magic header and
    /// the epoch length, then fixed 39-byte little-endian records
    /// (time, object, size, location, contact tag, orbit, slot, GSL
    /// delay bits), streamed through a buffer. A record with no contact
    /// stores tag, orbit and slot as zeros. For multi-gigabyte logs this
    /// is ~5× smaller and an order of magnitude faster than JSON;
    /// [`AccessLog::write_json`] stays for interop.
    pub fn write_binary(&self, w: impl std::io::Write) -> Result<(), IoError> {
        use std::io::Write;
        let mut w = std::io::BufWriter::new(w);
        w.write_all(BIN_MAGIC)?;
        w.write_all(&self.epoch_secs.to_le_bytes())?;
        let mut rec = [0u8; RECORD_LEN];
        for e in &self.entries {
            let (tag, orbit, slot) = match e.first_contact {
                Some(sat) => (1, sat.orbit, sat.slot),
                None => (0, 0, 0),
            };
            rec[0..8].copy_from_slice(&e.time.as_millis().to_le_bytes());
            rec[8..16].copy_from_slice(&e.object.0.to_le_bytes());
            rec[16..24].copy_from_slice(&e.size.to_le_bytes());
            rec[24..26].copy_from_slice(&e.location.0.to_le_bytes());
            rec[26] = tag;
            rec[27..29].copy_from_slice(&orbit.to_le_bytes());
            rec[29..31].copy_from_slice(&slot.to_le_bytes());
            rec[31..39].copy_from_slice(&e.gsl_oneway_ms.to_bits().to_le_bytes());
            w.write_all(&rec)?;
        }
        w.flush()?;
        Ok(())
    }

    /// Load a log written by [`AccessLog::write_binary`], record by
    /// record into the entries (no intermediate copy). A stream that
    /// ends inside the header is not a log ([`IoError::BadHeader`]); a
    /// partial trailing record is corruption
    /// ([`IoError::TruncatedRecord`]). A zero tag byte means "no
    /// contact", whatever the orbit/slot bytes hold. A record is read
    /// field by field through the one wire [`Reader`].
    pub fn read_binary(r: impl std::io::Read) -> Result<Self, IoError> {
        let mut r = std::io::BufReader::new(r);
        let mut header = [0u8; 16];
        spacegen::io::read_header(&mut r, &mut header)?;
        let mut h = Reader::new(&header);
        if h.take(8)? != BIN_MAGIC {
            return Err(IoError::BadHeader);
        }
        let epoch_secs = h.u64()?;
        let mut entries = Vec::new();
        let mut rec = [0u8; RECORD_LEN];
        while read_fixed_record(&mut r, &mut rec)? {
            // The reads stay fallible, so a codec edit that outgrows the
            // record reports corruption instead of panicking mid-read.
            let mut f = Reader::new(&rec);
            let time = SimTime::from_millis(f.u64()?);
            let object = ObjectId(f.u64()?);
            let size = f.u64()?;
            let location = LocationId(f.u16()?);
            let (tag, orbit, slot) = (f.u8()?, f.u16()?, f.u16()?);
            entries.push(AccessLogEntry {
                time,
                object,
                size,
                location,
                first_contact: (tag != 0).then_some(SatelliteId { orbit, slot }),
                gsl_oneway_ms: f.f64()?,
            });
        }
        Ok(AccessLog { entries, epoch_secs })
    }

    /// Write the binary format to `path` (created or truncated) through
    /// an explicit [`starcdn_io::Io`].
    pub fn write_binary_path_io(
        &self,
        path: &std::path::Path,
        io: &dyn starcdn_io::Io,
    ) -> Result<(), IoError> {
        let mut f = io.create(path)?;
        self.write_binary(starcdn_io::WriteAdapter(&mut *f))
    }

    /// Load a binary log from `path`.
    pub fn read_binary_path(path: impl AsRef<std::path::Path>) -> Result<Self, IoError> {
        Self::read_binary_path_io(path.as_ref(), &starcdn_io::RealIo)
    }

    /// [`AccessLog::read_binary_path`] over an explicit [`starcdn_io::Io`].
    pub fn read_binary_path_io(
        path: &std::path::Path,
        io: &dyn starcdn_io::Io,
    ) -> Result<Self, IoError> {
        let mut f = io.open(path)?;
        Self::read_binary(starcdn_io::ReadAdapter(&mut *f))
    }
}

impl AccessLogEntry {
    /// A request with its user's assignment for the epoch — the one entry
    /// constructor both builders store through. An unreachable request
    /// carries no contact and a zero GSL delay.
    #[inline]
    pub fn resolved(r: &Request, assignment: Option<Assignment>) -> Self {
        let (first_contact, gsl_oneway_ms) = match assignment {
            Some(a) => (Some(a.satellite), a.gsl_oneway_ms),
            None => (None, 0.0),
        };
        let Request { time, object, size, location } = *r;
        AccessLogEntry { time, object, size, location, first_contact, gsl_oneway_ms }
    }
}

const BIN_MAGIC: &[u8; 8] = b"STARLOG1";

/// Length of one binary record: time, object, size (u64 each), location
/// (u16), contact tag (u8), orbit and slot (u16 each), GSL delay bits
/// (u64).
const RECORD_LEN: usize = 39;

/// Resolve a trace against the world: advance the constellation in
/// `epoch_secs` steps, recompute the link schedule each epoch, and
/// assign every request to its user's current satellite.
///
/// Requests within an epoch are distributed over a location's virtual
/// users round-robin, mimicking the paper's "splits all requests within
/// the discrete time step to different satellites".
///
/// The world's [`FaultSchedule`](starcdn_constellation::schedule::FaultSchedule)
/// is honored: at each epoch boundary the live failure view advances, so
/// users on a satellite that just died are handed over to a surviving one
/// (with an empty schedule this is bit-for-bit the static behavior).
///
/// One sequential pass over the trace, one [`EpochScheduler::begin`] per
/// epoch with reusable scratch, each location scheduled on its first read
/// in the epoch: [`build_access_log_parallel`]'s loop run as one chunk.
pub fn build_access_log(
    world: &World,
    trace: &Trace,
    epoch_secs: u64,
    cfg: &SchedulerConfig,
) -> AccessLog {
    build_access_log_recorded(world, trace, epoch_secs, cfg, &Noop)
}

/// [`build_access_log`] with telemetry: the scheduler's per-epoch
/// `Propagate`/`Schedule`/`Visibility` spans and `GslDelayUs` — for the
/// cells a request read, the only ones scheduled — epoch-stamped churn
/// events from the fault cursor, and the per-epoch entry count as
/// [`Histo::QueueDepth`]. The produced log is identical with any
/// recorder.
pub fn build_access_log_recorded(
    world: &World,
    trace: &Trace,
    epoch_secs: u64,
    cfg: &SchedulerConfig,
    rec: &dyn Recorder,
) -> AccessLog {
    build_access_log_parallel_recorded(world, trace, epoch_secs, cfg, 1, rec)
}

/// [`build_access_log`] fanned out over `num_workers` OS threads.
///
/// The trace is cut at scheduler-epoch starts into at most `num_workers`
/// chunks of near-equal length, as the replayer's pre-pass cuts a log,
/// and each chunk runs the sequential builder's loop on a thread of its
/// own (the first on the calling thread) with an [`EpochScheduler`] of
/// its own: a satellite's position is a pure function of `t`. Each
/// chunk pushes onto a vector sized on the calling thread; the first
/// chunk's holds the whole log, and the others are appended to it.
/// Output is bit-for-bit the sequential builder's; a trace whose time
/// runs backwards is built again as one chunk.
pub fn build_access_log_parallel(
    world: &World,
    trace: &Trace,
    epoch_secs: u64,
    cfg: &SchedulerConfig,
    num_workers: usize,
) -> AccessLog {
    build_access_log_parallel_recorded(world, trace, epoch_secs, cfg, num_workers, &Noop)
}

/// [`build_access_log_parallel`] with telemetry: chunks record through
/// the shared recorder (no epoch spans two chunks, so concurrent
/// recording lands in disjoint timeline cells), the cut is timed as
/// [`Stage::PreScan`] and the append of the chunks' entries as
/// [`Stage::Merge`].
pub(crate) fn build_access_log_parallel_recorded(
    world: &World,
    trace: &Trace,
    epoch_secs: u64,
    cfg: &SchedulerConfig,
    num_workers: usize,
    rec: &dyn Recorder,
) -> AccessLog {
    assert!(epoch_secs > 0);
    assert!(cfg.users_per_location > 0, "users_per_location must be positive");
    let reqs = &trace.requests;
    let cut = SpanTimer::start(rec, Stage::PreScan, 0);
    let starts = chunk_starts(reqs.len(), num_workers, |i| epoch_of(reqs[i].time, epoch_secs));
    cut.stop();
    let entries = or_one_chunk(&starts, |starts| {
        let chunks = run_chunks(
            reqs.len(),
            starts,
            |range| {
                let capacity = if range.start == 0 { reqs.len() } else { range.len() };
                (range, Vec::with_capacity(capacity))
            },
            |(range, out)| build_chunk(world, reqs, range.clone(), epoch_secs, cfg, rec, out),
        )?;
        let _merge = SpanTimer::start(rec, Stage::Merge, 0);
        chunks.into_iter().map(|(_, out)| out).reduce(|mut entries, mut out| {
            entries.append(&mut out);
            entries
        })
    });
    AccessLog { entries, epoch_secs }
}

/// The one per-entry build loop: resolve `reqs[range]` onto `out`,
/// starting where the request before `range` left one pass — the fault
/// cursor advanced silently to its epoch (the chunk that crossed that
/// churn records it), the round-robin counters at the location counts
/// before `range`. Returns whether the chunk's epochs never decrease,
/// starting above that request's epoch.
fn build_chunk(
    world: &World,
    reqs: &[Request],
    range: Range<usize>,
    epoch_secs: u64,
    cfg: &SchedulerConfig,
    rec: &dyn Recorder,
    out: &mut Vec<AccessLogEntry>,
) -> bool {
    let enabled = rec.is_enabled();
    let users = cfg.users_per_location;
    let mut scheduler = EpochScheduler::new(world);
    // Wrapped round-robin cursors: each slot holds `raw_count % users`,
    // stepped without a per-entry modulo.
    let mut rr_counters = vec![0usize; world.num_locations()];
    for r in &reqs[..range.start] {
        rr_counters[r.location.0 as usize] += 1;
    }
    rr_counters.iter_mut().for_each(|count| *count %= users);
    let mut cursor = ScheduleCursor::new(&world.schedule, world.failures.clone());
    // `epoch_of(t) == e  ⇔  e·epoch_ms ≤ t_ms < (e+1)·epoch_ms` (u64
    // floor division composes), so steady-state entries replace the two
    // divisions inside `epoch_of` with one range check. The empty
    // initial range forces the first entry to compute its epoch; its end
    // is where an entry in order may start: above the epoch before.
    let epoch_ms = epoch_secs * 1000;
    let (mut epoch_start_ms, mut epoch_end_ms) = (u64::MAX, 0);
    if let Some(before) = range.start.checked_sub(1) {
        let epoch = epoch_of(reqs[before].time, epoch_secs);
        cursor.advance_to(epoch * epoch_secs);
        epoch_end_ms = (epoch + 1) * epoch_ms;
    }
    let (mut in_order, mut epoch_len) = (true, 0u64);

    for r in &reqs[range] {
        let t_ms = r.time.as_millis();
        if t_ms < epoch_start_ms || t_ms >= epoch_end_ms {
            in_order &= t_ms >= epoch_end_ms;
            let epoch = epoch_of(r.time, epoch_secs);
            if enabled && epoch_len > 0 {
                rec.observe(Histo::QueueDepth, epoch_len);
            }
            epoch_len = 0;
            epoch_start_ms = epoch * epoch_ms;
            epoch_end_ms = epoch_start_ms + epoch_ms;
            let delta = cursor.advance_to(epoch * epoch_secs);
            if enabled && !delta.is_empty() {
                record_fault_delta(rec, epoch, &delta);
            }
            scheduler.begin(world, epoch, epoch_secs, cfg, rec);
        }
        epoch_len += 1;
        let loc = r.location.0 as usize;
        let user = rr_counters[loc];
        rr_counters[loc] = if user + 1 == users { 0 } else { user + 1 };
        let assignment = scheduler.assignment(loc, user, cursor.view(), rec);
        out.push(AccessLogEntry::resolved(r, assignment));
    }
    if enabled && epoch_len > 0 {
        rec.observe(Histo::QueueDepth, epoch_len);
    }
    in_order
}

/// Record one epoch boundary's applied churn as epoch-stamped events.
/// Shared with the replayer's pre-pass.
pub(crate) fn record_fault_delta(
    rec: &dyn Recorder,
    epoch: u64,
    delta: &starcdn_constellation::schedule::FaultDelta,
) {
    rec.event(Event::SatDown, epoch, delta.went_down.len() as u64);
    rec.event(Event::SatUp, epoch, delta.came_up.len() as u64);
    rec.event(Event::LinkDown, epoch, delta.links_cut.len() as u64);
    rec.event(Event::LinkUp, epoch, delta.links_restored.len() as u64);
    let applied = delta.went_down.len()
        + delta.came_up.len()
        + delta.links_cut.len()
        + delta.links_restored.len();
    rec.add(Counter::FaultEventsApplied, applied as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Requests grouped per first-contact satellite (the shape of
    /// CosmicBeats' per-satellite output logs). Unreachable entries are
    /// returned separately. The map is a `BTreeMap` so downstream
    /// iteration order is deterministic.
    fn per_satellite(
        log: &AccessLog,
    ) -> (BTreeMap<SatelliteId, Vec<&AccessLogEntry>>, Vec<&AccessLogEntry>) {
        let mut by_sat: BTreeMap<SatelliteId, Vec<&AccessLogEntry>> = BTreeMap::new();
        let mut unreachable = Vec::new();
        for e in &log.entries {
            match e.first_contact {
                Some(sat) => by_sat.entry(sat).or_default().push(e),
                None => unreachable.push(e),
            }
        }
        (by_sat, unreachable)
    }

    fn tiny_trace() -> Trace {
        let mut reqs = Vec::new();
        for k in 0..200u64 {
            reqs.push(Request {
                time: SimTime::from_secs(k * 3),
                object: ObjectId(k % 17),
                size: 100,
                location: LocationId((k % 9) as u16),
            });
        }
        Trace::new(reqs)
    }

    #[test]
    fn log_covers_every_request() {
        let w = World::starlink_nine_cities();
        let trace = tiny_trace();
        let log = build_access_log(&w, &trace, 15, &SchedulerConfig::default());
        assert_eq!(log.len(), trace.len());
        assert_eq!(log.entries.iter().map(|e| e.size).sum::<u64>(), trace.total_bytes());
        assert_eq!(log.epoch_secs, 15);
        // All nine cities are covered by the full shell.
        for e in &log.entries {
            assert!(e.first_contact.is_some(), "unassigned request at {}", e.time);
            assert!(e.gsl_oneway_ms > 0.0);
        }
    }

    #[test]
    fn deterministic() {
        let w = World::starlink_nine_cities();
        let trace = tiny_trace();
        let a = build_access_log(&w, &trace, 15, &SchedulerConfig::default());
        let b = build_access_log(&w, &trace, 15, &SchedulerConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn same_location_requests_spread_within_epoch() {
        let w = World::starlink_nine_cities();
        // 40 rapid-fire requests from New York in one epoch.
        let reqs: Vec<Request> = (0..40)
            .map(|k| Request {
                time: SimTime::from_millis(k * 10),
                object: ObjectId(k),
                size: 10,
                location: LocationId(4),
            })
            .collect();
        let log = build_access_log(&w, &Trace::new(reqs), 15, &SchedulerConfig::default());
        let sats: std::collections::HashSet<_> =
            log.entries.iter().filter_map(|e| e.first_contact).collect();
        assert!(sats.len() >= 2, "round-robin over users must spread satellites");
    }

    #[test]
    fn assignments_shift_with_orbital_motion() {
        let w = World::starlink_nine_cities();
        // Same object from NYC every 2 minutes for 30 minutes.
        let reqs: Vec<Request> = (0..15)
            .map(|k| Request {
                time: SimTime::from_mins(k * 2),
                object: ObjectId(1),
                size: 10,
                location: LocationId(4),
            })
            .collect();
        let log = build_access_log(&w, &Trace::new(reqs), 15, &SchedulerConfig::default());
        let sats: Vec<_> = log.entries.iter().filter_map(|e| e.first_contact).collect();
        let distinct: std::collections::HashSet<_> = sats.iter().collect();
        assert!(distinct.len() >= 3, "30 min of motion must hand over: {sats:?}");
    }

    #[test]
    fn json_roundtrip() {
        let w = World::starlink_nine_cities();
        let log = build_access_log(&w, &tiny_trace(), 15, &SchedulerConfig::default());
        let mut buf = Vec::new();
        log.write_json(&mut buf).unwrap();
        let back = AccessLog::read_json(buf.as_slice()).unwrap();
        assert_eq!(back.epoch_secs, log.epoch_secs);
        assert_eq!(back.entries.len(), log.entries.len());
        for (i, (a, b)) in log.entries.iter().zip(&back.entries).enumerate() {
            assert_eq!(a.time, b.time, "entry {i}");
            assert_eq!(a.object, b.object, "entry {i}");
            assert_eq!(a.size, b.size, "entry {i}");
            assert_eq!(a.location, b.location, "entry {i}");
            assert_eq!(a.first_contact, b.first_contact, "entry {i}");
            assert!(
                (a.gsl_oneway_ms - b.gsl_oneway_ms).abs() < 1e-12,
                "entry {i}: {} vs {}",
                a.gsl_oneway_ms,
                b.gsl_oneway_ms
            );
        }
    }

    #[test]
    fn per_satellite_grouping_partitions_the_log() {
        let w = World::starlink_nine_cities();
        let log = build_access_log(&w, &tiny_trace(), 15, &SchedulerConfig::default());
        let (by_sat, unreachable) = per_satellite(&log);
        let total: usize = by_sat.values().map(|v| v.len()).sum::<usize>() + unreachable.len();
        assert_eq!(total, log.len());
        assert!(by_sat.len() > 5, "requests should spread over satellites");
        // Per-satellite entries stay time-ordered.
        for entries in by_sat.values() {
            for w in entries.windows(2) {
                assert!(w[0].time <= w[1].time);
            }
        }
    }

    #[test]
    fn empty_schedule_log_identical_to_static() {
        let w = World::starlink_nine_cities();
        let base = build_access_log(&w, &tiny_trace(), 15, &SchedulerConfig::default());
        let w2 = World::starlink_nine_cities()
            .with_fault_schedule(starcdn_constellation::schedule::FaultSchedule::empty());
        let churned = build_access_log(&w2, &tiny_trace(), 15, &SchedulerConfig::default());
        assert_eq!(base, churned);
    }

    #[test]
    fn dying_satellite_forces_handover_at_next_epoch() {
        use starcdn_constellation::schedule::{FaultEvent, FaultSchedule, TimedFault};
        let w = World::starlink_nine_cities();
        // NYC requests every second for two epochs.
        let reqs: Vec<Request> = (0..30)
            .map(|k| Request {
                time: SimTime::from_secs(k),
                object: ObjectId(k),
                size: 10,
                location: LocationId(4),
            })
            .collect();
        let trace = Trace::new(reqs);
        let base = build_access_log(&w, &trace, 15, &SchedulerConfig::default());
        // Kill everything epoch 0 assigned, effective at the epoch-1
        // boundary (t = 15 s).
        let seen: Vec<_> = base.entries[..15].iter().filter_map(|e| e.first_contact).collect();
        let sched = FaultSchedule::from_events(
            seen.iter().map(|&s| TimedFault { at_secs: 15, event: FaultEvent::SatDown(s) }),
        );
        let w2 = World::starlink_nine_cities().with_fault_schedule(sched);
        let churned = build_access_log(&w2, &trace, 15, &SchedulerConfig::default());
        // Epoch 0 is untouched; epoch 1 avoids every dead satellite.
        assert_eq!(&base.entries[..15], &churned.entries[..15]);
        for e in &churned.entries[15..] {
            let fc = e.first_contact.expect("nine-city coverage survives a local outage");
            assert!(!seen.contains(&fc), "user still on dead satellite {fc}");
        }
    }

    #[test]
    #[should_panic]
    fn zero_epoch_rejected() {
        let w = World::starlink_nine_cities();
        build_access_log(&w, &Trace::default(), 0, &SchedulerConfig::default());
    }

    /// A small log that exercises the unreachable (`first_contact: None`)
    /// encoding alongside normal entries.
    fn codec_fixture() -> AccessLog {
        let w = World::starlink_nine_cities();
        let mut log = build_access_log(&w, &tiny_trace(), 15, &SchedulerConfig::default());
        log.entries[3].first_contact = None;
        log.entries[3].gsl_oneway_ms = 0.0;
        log
    }

    #[test]
    fn binary_roundtrip_is_lossless() {
        let log = codec_fixture();
        let mut bin = Vec::new();
        log.write_binary(&mut bin).unwrap();
        assert_eq!(bin.len(), 16 + 39 * log.len());
        let from_bin = AccessLog::read_binary(bin.as_slice()).unwrap();
        assert_eq!(from_bin, log, "binary roundtrip must be lossless");
    }

    #[test]
    fn binary_and_json_codecs_agree() {
        let log = codec_fixture();
        let mut bin = Vec::new();
        log.write_binary(&mut bin).unwrap();
        let from_bin = AccessLog::read_binary(bin.as_slice()).unwrap();

        // The binary and JSON codecs agree entry for entry (f64 bits
        // included: JSON prints shortest-roundtrip floats).
        let mut json = Vec::new();
        log.write_json(&mut json).unwrap();
        let from_json = AccessLog::read_json(json.as_slice()).unwrap();
        assert_eq!(from_json.epoch_secs, from_bin.epoch_secs);
        assert_eq!(from_json.entries.len(), from_bin.entries.len());
        for (a, b) in from_json.entries.iter().zip(&from_bin.entries) {
            assert_eq!(a, b);
            assert_eq!(a.gsl_oneway_ms.to_bits(), b.gsl_oneway_ms.to_bits());
        }
    }

    #[test]
    fn binary_empty_log() {
        let log = AccessLog { entries: Vec::new(), epoch_secs: 30 };
        let mut buf = Vec::new();
        log.write_binary(&mut buf).unwrap();
        let back = AccessLog::read_binary(buf.as_slice()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn binary_detects_truncation_and_bad_header() {
        use spacegen::io::IoError;
        let w = World::starlink_nine_cities();
        let log = build_access_log(&w, &tiny_trace(), 15, &SchedulerConfig::default());
        let mut buf = Vec::new();
        log.write_binary(&mut buf).unwrap();
        buf.truncate(buf.len() - 7); // chop mid-record
        assert!(matches!(AccessLog::read_binary(buf.as_slice()), Err(IoError::TruncatedRecord)));
        assert!(matches!(
            AccessLog::read_binary(b"NOTALOG!\0\0\0\0\0\0\0\0".as_slice()),
            Err(IoError::BadHeader)
        ));
    }

    #[test]
    fn a_failing_stream_is_an_io_error_not_a_bad_header() {
        struct Eio;
        impl std::io::Read for Eio {
            fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("EIO"))
            }
        }
        let is_eio =
            |e: &IoError| matches!(e, IoError::Io(e) if e.kind() == std::io::ErrorKind::Other);
        assert!(is_eio(&AccessLog::read_binary(Eio).unwrap_err()));
    }

    fn churny_world() -> World {
        use starcdn_constellation::schedule::{ChurnParams, FaultSchedule};
        let base = World::starlink_nine_cities();
        let p = ChurnParams::sats_only(1800.0, 120.0, 600, 0xD00D);
        let schedule = FaultSchedule::churn(&base.grid, &p);
        assert!(!schedule.is_empty(), "churn parameters produced no events");
        base.with_fault_schedule(schedule)
    }

    #[test]
    fn parallel_builder_matches_sequential_bit_for_bit() {
        let cfg = SchedulerConfig::default();
        for w in [World::starlink_nine_cities(), churny_world()] {
            let trace = tiny_trace();
            let seq = build_access_log(&w, &trace, 15, &cfg);
            for n in [1usize, 2, 4, 7] {
                let par = build_access_log_parallel(&w, &trace, 15, &cfg, n);
                assert_eq!(seq, par, "{n} workers diverged from sequential");
            }
        }
    }

    /// Telemetry under lazy scheduling: a recorder changes no entry, and
    /// the scheduler's per-cell records cover the (epoch, location) cells
    /// a request read — `users_per_location` GSL delays each (every
    /// nine-city user is covered), one `Visibility` span each plus one per
    /// epoch for its prologue — whatever the worker count.
    #[test]
    fn recorded_builders_schedule_and_observe_requested_cells_only() {
        use starcdn_telemetry::MemoryRecorder;
        let w = World::starlink_nine_cities();
        let cfg = SchedulerConfig::default();
        // Cities 1, 4 and 7 only, a request every 7 s and a minute's
        // silence after every tenth: epochs read one cell, two, three or
        // none.
        let trace = Trace::new(
            (0..400u64)
                .map(|k| Request {
                    time: SimTime::from_secs(k * 7 + k / 10 * 60),
                    object: ObjectId(k % 23),
                    size: 100,
                    location: LocationId((1 + 3 * ((k + k / 5) % 3)) as u16),
                })
                .collect(),
        );
        let cells: std::collections::BTreeSet<(u64, u16)> =
            trace.requests.iter().map(|r| (epoch_of(r.time, 15), r.location.0)).collect();
        let epochs = cells.iter().map(|&(e, _)| e).collect::<std::collections::BTreeSet<_>>();
        assert!(cells.len() > epochs.len() && cells.len() < 3 * epochs.len());
        let noop = build_access_log(&w, &trace, 15, &cfg);
        for workers in [1usize, 2, 3] {
            let rec = MemoryRecorder::new();
            let log = build_access_log_parallel_recorded(&w, &trace, 15, &cfg, workers, &rec);
            assert_eq!(log, noop, "{workers} workers: a recorder changed the log");
            let snap = rec.snapshot();
            let gsl = snap.histogram(Histo::GslDelayUs).expect("observed per assignment");
            assert_eq!(gsl.count, (cells.len() * cfg.users_per_location) as u64, "{workers}");
            let visibility: u64 = snap
                .spans
                .iter()
                .filter(|((stage, _), _)| *stage == Stage::Visibility)
                .map(|(_, s)| s.count)
                .sum();
            assert_eq!(visibility, (epochs.len() + cells.len()) as u64, "{workers} workers");
        }
    }

    /// A trace whose time runs backwards — built through the public
    /// field, since `Trace::new` sorts — builds as one chunk, so the
    /// worker count cannot change its log. Its last quarter comes first,
    /// so the cuts fall after the jump back, where one pass's fault
    /// cursor stays at the latest epoch seen and a chunk's would start
    /// from the request before it, under churn an older failure view.
    #[test]
    fn a_trace_running_backwards_builds_as_one_chunk() {
        let cfg = SchedulerConfig::default();
        let w = churny_world();
        let mut requests = tiny_trace().requests;
        let last_quarter = requests.len() * 3 / 4;
        requests.rotate_left(last_quarter);
        let trace = Trace { requests };
        let seq = build_access_log(&w, &trace, 15, &cfg);
        for n in [2usize, 3, 8] {
            assert_eq!(build_access_log_parallel(&w, &trace, 15, &cfg, n), seq, "{n} workers");
        }
    }

    #[test]
    fn parallel_builder_handles_degenerate_traces() {
        let w = World::starlink_nine_cities();
        let cfg = SchedulerConfig::default();
        let empty = build_access_log_parallel(&w, &Trace::default(), 15, &cfg, 4);
        assert!(empty.is_empty());
        let one = Trace::new(vec![Request {
            time: SimTime::from_secs(7),
            object: ObjectId(1),
            size: 10,
            location: LocationId(4),
        }]);
        let seq = build_access_log(&w, &one, 15, &cfg);
        let par = build_access_log_parallel(&w, &one, 15, &cfg, 8);
        assert_eq!(seq, par);
    }

    #[test]
    fn per_satellite_iteration_is_sorted() {
        let w = World::starlink_nine_cities();
        let log = build_access_log(&w, &tiny_trace(), 15, &SchedulerConfig::default());
        let (by_sat, _) = per_satellite(&log);
        let ids: Vec<_> = by_sat.keys().copied().collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "BTreeMap keys iterate in SatelliteId order");
    }
}
