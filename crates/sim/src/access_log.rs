//! Access logs: first-contact assignments per request.
//!
//! The analog of CosmicBeats' output in the paper's pipeline: the
//! orbital/scheduling stage resolves each trace request to the satellite
//! that receives it (and the GSL delay to it); the cache stage then
//! replays the log. Splitting the stages lets the same log drive the
//! deterministic engine, the parallel replayer, and every system variant
//! with identical inputs.
//!
//! One builder and one codec serve both representations: the builders
//! live in [`columns`](crate::columns) and [`build_access_log`] is the
//! sequential one's rows; the 39-byte binary format has one encoder and
//! one decoder here (`write_log` / `read_log`), which
//! [`AccessLog`]'s and [`AccessLogColumns`](crate::columns::AccessLogColumns)'
//! `write_binary` / `read_binary` adapt entry by entry.

use crate::columns::build_access_log_columns;
use crate::scheduler::{epoch_of, Assignment, SchedulerConfig};
use crate::world::World;
use serde::{Deserialize, Serialize};
use spacegen::io::{read_fixed_record, IoError};
use spacegen::trace::{LocationId, Request, Trace};
use starcdn_cache::object::ObjectId;
use starcdn_constellation::failures::FailureModel;
use starcdn_constellation::schedule::ScheduleCursor;
use starcdn_io::wire::Reader;
use starcdn_orbit::time::SimTime;
use starcdn_orbit::walker::SatelliteId;
use starcdn_telemetry::{Counter, Event, Histo, Recorder};
use std::collections::BTreeMap;
use std::sync::Arc;

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

    /// Total requested bytes.
    pub fn total_bytes(&self) -> u64 {
        self.entries.iter().map(|e| e.size).sum()
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
    /// the epoch length, then fixed 39-byte little-endian records. For
    /// multi-gigabyte logs this is ~5× smaller and an order of magnitude
    /// faster than JSON; [`AccessLog::write_json`] stays for interop.
    pub fn write_binary(&self, w: impl std::io::Write) -> Result<(), IoError> {
        write_log(w, self.epoch_secs, self.entries.iter().copied())
    }

    /// Load a log written by [`AccessLog::write_binary`] (or by
    /// [`AccessLogColumns::write_binary`](crate::columns::AccessLogColumns::write_binary)).
    pub fn read_binary(r: impl std::io::Read) -> Result<Self, IoError> {
        let mut entries = Vec::new();
        let epoch_secs = read_log(r, |e| entries.push(e))?;
        Ok(AccessLog { entries, epoch_secs })
    }

    /// Write the binary format to `path` (created or truncated).
    pub fn write_binary_path(&self, path: impl AsRef<std::path::Path>) -> Result<(), IoError> {
        self.write_binary_path_io(path.as_ref(), &starcdn_io::RealIo)
    }

    /// [`AccessLog::write_binary_path`] over an explicit [`starcdn_io::Io`].
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

    /// Requests grouped per first-contact satellite (the shape of
    /// CosmicBeats' per-satellite output logs). Unreachable entries are
    /// returned separately. The map is a `BTreeMap` so downstream
    /// iteration order is deterministic.
    pub fn per_satellite(
        &self,
    ) -> (BTreeMap<SatelliteId, Vec<&AccessLogEntry>>, Vec<&AccessLogEntry>) {
        let mut by_sat: BTreeMap<SatelliteId, Vec<&AccessLogEntry>> = BTreeMap::new();
        let mut unreachable = Vec::new();
        for e in &self.entries {
            match e.first_contact {
                Some(sat) => by_sat.entry(sat).or_default().push(e),
                None => unreachable.push(e),
            }
        }
        (by_sat, unreachable)
    }
}

impl AccessLogEntry {
    /// A request with its user's assignment for the epoch — the one entry
    /// constructor both columnar builders store through. An unreachable
    /// request carries no contact and a zero GSL delay.
    #[inline]
    pub(crate) fn resolved(r: &Request, assignment: Option<Assignment>) -> Self {
        let (first_contact, gsl_oneway_ms) = match assignment {
            Some(a) => (Some(a.satellite), a.gsl_oneway_ms),
            None => (None, 0.0),
        };
        let Request { time, object, size, location } = *r;
        AccessLogEntry { time, object, size, location, first_contact, gsl_oneway_ms }
    }
}

/// A contact as the tag/orbit/slot lanes the columns and the binary
/// record store: an absent contact is all zeros.
#[inline]
pub(crate) fn contact_lanes(contact: Option<SatelliteId>) -> (u8, u16, u16) {
    match contact {
        Some(sat) => (1, sat.orbit, sat.slot),
        None => (0, 0, 0),
    }
}

const BIN_MAGIC: &[u8; 8] = b"STARLOG1";

/// Length of one binary record: time, object, size (u64 each), location
/// (u16), contact tag (u8), orbit and slot (u16 each), GSL delay bits
/// (u64).
const RECORD_LEN: usize = 39;

/// The binary log encoder both representations write through: the
/// header, then one record per entry, streamed through a buffer. A
/// record with no contact stores tag, orbit and slot as zeros.
pub(crate) fn write_log(
    w: impl std::io::Write,
    epoch_secs: u64,
    entries: impl Iterator<Item = AccessLogEntry>,
) -> Result<(), IoError> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(w);
    w.write_all(BIN_MAGIC)?;
    w.write_all(&epoch_secs.to_le_bytes())?;
    let mut rec = [0u8; RECORD_LEN];
    for e in entries {
        rec[0..8].copy_from_slice(&e.time.as_millis().to_le_bytes());
        rec[8..16].copy_from_slice(&e.object.0.to_le_bytes());
        rec[16..24].copy_from_slice(&e.size.to_le_bytes());
        rec[24..26].copy_from_slice(&e.location.0.to_le_bytes());
        let (tag, orbit, slot) = contact_lanes(e.first_contact);
        rec[26] = tag;
        rec[27..29].copy_from_slice(&orbit.to_le_bytes());
        rec[29..31].copy_from_slice(&slot.to_le_bytes());
        rec[31..39].copy_from_slice(&e.gsl_oneway_ms.to_bits().to_le_bytes());
        w.write_all(&rec)?;
    }
    w.flush()?;
    Ok(())
}

/// The binary log decoder both representations read through: checks the
/// header, hands every record to `push` as an entry (no intermediate
/// copy of the log), and returns the epoch length. A stream that ends
/// inside the header is not a log ([`IoError::BadHeader`]); a partial
/// trailing record is corruption ([`IoError::TruncatedRecord`]). A zero
/// tag byte means "no contact", whatever the orbit/slot bytes hold. A
/// record is read field by field through the one wire [`Reader`].
/// `#[inline(always)]`: inlined into each reader, `push`'s target stays
/// a local the decode loop can keep in registers (≈ 5 % of a row decode,
/// measured).
#[inline(always)]
pub(crate) fn read_log(
    r: impl std::io::Read,
    mut push: impl FnMut(AccessLogEntry),
) -> Result<u64, IoError> {
    let mut r = std::io::BufReader::new(r);
    let mut header = [0u8; 16];
    spacegen::io::read_header(&mut r, &mut header)?;
    let mut h = Reader::new(&header);
    if h.take(8)? != BIN_MAGIC {
        return Err(IoError::BadHeader);
    }
    let epoch_secs = h.u64()?;
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
        push(AccessLogEntry {
            time,
            object,
            size,
            location,
            first_contact: (tag != 0).then_some(SatelliteId { orbit, slot }),
            gsl_oneway_ms: f.f64()?,
        });
    }
    Ok(epoch_secs)
}

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
/// The rows of [`build_access_log_columns`]: one builder, two
/// representations.
pub fn build_access_log(
    world: &World,
    trace: &Trace,
    epoch_secs: u64,
    cfg: &SchedulerConfig,
) -> AccessLog {
    build_access_log_columns(world, trace, epoch_secs, cfg).to_log()
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

/// A maximal run of consecutive same-epoch trace entries, plus the
/// failure view the sequential pass would have used for it.
pub(crate) struct EpochRun {
    pub(crate) start: usize,
    pub(crate) end: usize,
    pub(crate) epoch: u64,
    pub(crate) view: Arc<FailureModel>,
}

/// What the parallel builder's workers need to schedule runs
/// independently: the runs, and the round-robin counters as they stood
/// when each run began — one flat runs × locations table, run `i`'s row
/// at `rr_start[i * L..(i + 1) * L]`.
pub(crate) struct EpochRuns {
    pub(crate) runs: Vec<EpochRun>,
    pub(crate) rr_start: Vec<usize>,
}

/// Sequential pre-scan of the parallel columnar builder: splits `reqs`
/// into maximal same-epoch runs, replays the fault cursor once (the
/// only inherently sequential state), and snapshots per-run
/// failure views and round-robin counters so workers can schedule runs
/// independently and still reproduce the sequential builder bit-for-bit.
pub(crate) fn prescan_epoch_runs(
    world: &World,
    reqs: &[Request],
    epoch_secs: u64,
    rec: &dyn Recorder,
) -> EpochRuns {
    let enabled = rec.is_enabled();
    let mut runs: Vec<EpochRun> = Vec::new();
    let mut rr_start = Vec::new();
    let mut cursor = ScheduleCursor::new(&world.schedule, world.failures.clone());
    let mut rr = vec![0usize; world.num_locations()];
    let mut shared_view: Option<Arc<FailureModel>> = None;
    let mut start = 0usize;
    let epoch_ms = epoch_secs * 1000;
    while start < reqs.len() {
        let epoch = epoch_of(reqs[start].time, epoch_secs);
        // `epoch_of(t) == epoch ⇔ epoch·epoch_ms ≤ t_ms < (epoch+1)·epoch_ms`
        // (u64 floor division composes) — one range check per entry
        // instead of the two divisions inside `epoch_of`.
        let run_start_ms = epoch * epoch_ms;
        let run_end_ms = run_start_ms + epoch_ms;
        let mut end = start + 1;
        while end < reqs.len() && {
            let t_ms = reqs[end].time.as_millis();
            t_ms >= run_start_ms && t_ms < run_end_ms
        } {
            end += 1;
        }
        let delta = cursor.advance_to(epoch * epoch_secs);
        if enabled {
            rec.observe(Histo::QueueDepth, (end - start) as u64);
            if !delta.is_empty() {
                record_fault_delta(rec, epoch, &delta);
            }
        }
        let view = match &shared_view {
            Some(v) if delta.is_empty() => v.clone(),
            _ => {
                let v = Arc::new(cursor.view().clone());
                shared_view = Some(v.clone());
                v
            }
        };
        runs.push(EpochRun { start, end, epoch, view });
        rr_start.extend_from_slice(&rr);
        for r in &reqs[start..end] {
            rr[r.location.0 as usize] += 1;
        }
        start = end;
    }
    EpochRuns { runs, rr_start }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spacegen::trace::Request;

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
        assert_eq!(log.total_bytes(), trace.total_bytes());
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
        let (by_sat, unreachable) = log.per_satellite();
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
    fn per_satellite_iteration_is_sorted() {
        let w = World::starlink_nine_cities();
        let log = build_access_log(&w, &tiny_trace(), 15, &SchedulerConfig::default());
        let (by_sat, _) = log.per_satellite();
        let ids: Vec<_> = by_sat.keys().copied().collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted, "BTreeMap keys iterate in SatelliteId order");
    }
}
