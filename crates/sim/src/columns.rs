//! Columnar (struct-of-arrays) access log, and the log builders.
//!
//! [`AccessLogColumns`] stores one contiguous buffer per
//! [`AccessLogEntry`] field instead of an array of structs. The layout
//! is lossless in both directions ([`AccessLogColumns::from_log`] /
//! [`AccessLogColumns::to_log`]), and both representations read and
//! write the 39-byte binary record format through the one codec in
//! [`access_log`](crate::access_log), so a file written by either is
//! read identically by the other.
//!
//! The builders live here: [`build_access_log_columns`] and
//! [`build_access_log_columns_parallel`] produce bit-for-bit the same
//! log (and [`build_access_log`](crate::access_log::build_access_log) is
//! the sequential one's rows). Both take every epoch boundary through one
//! [`EpochScheduler::begin`] (the schedule's prologue, then the
//! visibility window's advance), read every entry's assignment through
//! [`EpochScheduler::assignment`] — which schedules a location on the
//! first request that reads it in the epoch, so an (epoch, location) cell
//! no request reads is never scheduled — and store every entry through
//! the one entry constructor, `AccessLogEntry::resolved`. The parallel
//! builder pre-sizes the column buffers once and hands each worker
//! disjoint `&mut` chunks (split at epoch-run boundaries), so the
//! steady-state epoch loop — propagate, schedule into reusable scratch,
//! write columns in place — performs zero heap allocations and there is
//! no final stitch copy.

use crate::access_log::{
    contact_lanes, prescan_epoch_runs, read_log, record_fault_delta, write_log, AccessLog,
    AccessLogEntry, EpochRuns,
};
use crate::scheduler::{epoch_of, Assignment, EpochScheduler, SchedulerConfig};
use crate::world::World;
use spacegen::io::IoError;
use spacegen::trace::{LocationId, Request, Trace};
use starcdn_cache::object::ObjectId;
use starcdn_constellation::schedule::ScheduleCursor;
use starcdn_orbit::time::SimTime;
use starcdn_orbit::walker::SatelliteId;
use starcdn_telemetry::{Histo, Noop, Recorder, SpanTimer, Stage};

/// Struct-of-arrays access log: one contiguous, equally long buffer per
/// [`AccessLogEntry`] field. `first_contact: Option<SatelliteId>` is
/// decomposed into a presence tag plus orbit/slot columns (the same
/// decomposition the binary codec uses on disk); absent contacts store
/// zeros in the orbit/slot columns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessLogColumns {
    time_ms: Vec<u64>,
    object: Vec<u64>,
    size: Vec<u64>,
    location: Vec<u16>,
    fc_tag: Vec<u8>,
    fc_orbit: Vec<u16>,
    fc_slot: Vec<u16>,
    gsl_oneway_ms: Vec<f64>,
    epoch_secs: u64,
}

impl AccessLogColumns {
    /// An empty columnar log with the given epoch length.
    pub fn new(epoch_secs: u64) -> Self {
        AccessLogColumns { epoch_secs, ..Default::default() }
    }

    /// An empty columnar log with every column's capacity reserved.
    pub fn with_capacity(n: usize, epoch_secs: u64) -> Self {
        AccessLogColumns {
            time_ms: Vec::with_capacity(n),
            object: Vec::with_capacity(n),
            size: Vec::with_capacity(n),
            location: Vec::with_capacity(n),
            fc_tag: Vec::with_capacity(n),
            fc_orbit: Vec::with_capacity(n),
            fc_slot: Vec::with_capacity(n),
            gsl_oneway_ms: Vec::with_capacity(n),
            epoch_secs,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.time_ms.len()
    }

    /// True when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.time_ms.is_empty()
    }

    /// Epoch length used when scheduling, seconds.
    pub fn epoch_secs(&self) -> u64 {
        self.epoch_secs
    }

    /// Total requested bytes.
    pub fn total_bytes(&self) -> u64 {
        self.size.iter().sum()
    }

    /// The request-size column (bytes per entry).
    pub fn sizes(&self) -> &[u64] {
        &self.size
    }

    /// The request-time column, milliseconds since simulation start.
    pub fn times_ms(&self) -> &[u64] {
        &self.time_ms
    }

    /// Append one row-form entry. `#[inline(always)]`: the sequential
    /// builder appends every entry through here (`push_resolved`), and as
    /// a call it cost ≈ 5 % of the build (measured).
    #[inline(always)]
    pub fn push(&mut self, e: &AccessLogEntry) {
        let (tag, orbit, slot) = contact_lanes(e.first_contact);
        self.time_ms.push(e.time.as_millis());
        self.object.push(e.object.0);
        self.size.push(e.size);
        self.location.push(e.location.0);
        self.fc_tag.push(tag);
        self.fc_orbit.push(orbit);
        self.fc_slot.push(slot);
        self.gsl_oneway_ms.push(e.gsl_oneway_ms);
    }

    /// Append a request with its resolved assignment
    /// (`AccessLogEntry::resolved`).
    #[inline]
    pub fn push_resolved(&mut self, r: &Request, assignment: Option<Assignment>) {
        self.push(&AccessLogEntry::resolved(r, assignment));
    }

    /// Materialize entry `i` in row form. `#[inline]`: the engine loop
    /// calls this once per request, and as a call it returns the entry
    /// through memory (measured +10 % on the columnar plain run).
    ///
    /// # Panics
    /// Panics when `i >= self.len()`.
    #[inline]
    pub fn entry(&self, i: usize) -> AccessLogEntry {
        AccessLogEntry {
            time: SimTime::from_millis(self.time_ms[i]),
            object: ObjectId(self.object[i]),
            size: self.size[i],
            location: LocationId(self.location[i]),
            first_contact: (self.fc_tag[i] != 0)
                .then(|| SatelliteId { orbit: self.fc_orbit[i], slot: self.fc_slot[i] }),
            gsl_oneway_ms: self.gsl_oneway_ms[i],
        }
    }

    /// Iterate the log as materialized row entries. `#[inline]`: the
    /// binary writer streams the columns through it.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = AccessLogEntry> + '_ {
        (0..self.len()).map(move |i| self.entry(i))
    }

    /// Transpose a row log into columns (lossless).
    pub fn from_log(log: &AccessLog) -> Self {
        let mut cols = AccessLogColumns::with_capacity(log.len(), log.epoch_secs);
        for e in &log.entries {
            cols.push(e);
        }
        cols
    }

    /// Transpose back into a row log (lossless inverse of
    /// [`AccessLogColumns::from_log`] for logs produced by the builders
    /// or the codec, where absent contacts carry zero orbit/slot).
    pub fn to_log(&self) -> AccessLog {
        AccessLog { entries: self.iter().collect(), epoch_secs: self.epoch_secs }
    }

    /// Persist in the binary format — the same bytes
    /// [`AccessLog::write_binary`] writes for the equivalent row log.
    pub fn write_binary(&self, w: impl std::io::Write) -> Result<(), IoError> {
        write_log(w, self.epoch_secs, self.iter())
    }

    /// Load a binary log entry by entry into the columns — the same
    /// answer (or error) [`AccessLog::read_binary`] gives, transposed.
    pub fn read_binary(r: impl std::io::Read) -> Result<Self, IoError> {
        let mut cols = AccessLogColumns::default();
        cols.epoch_secs = read_log(r, |e| cols.push(&e))?;
        Ok(cols)
    }

    /// Write the binary format to `path` (created or truncated).
    pub fn write_binary_path(&self, path: impl AsRef<std::path::Path>) -> Result<(), IoError> {
        self.write_binary_path_io(path.as_ref(), &starcdn_io::RealIo)
    }

    /// [`AccessLogColumns::write_binary_path`] over an explicit
    /// [`starcdn_io::Io`].
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

    /// [`AccessLogColumns::read_binary_path`] over an explicit
    /// [`starcdn_io::Io`].
    pub fn read_binary_path_io(
        path: &std::path::Path,
        io: &dyn starcdn_io::Io,
    ) -> Result<Self, IoError> {
        let mut f = io.open(path)?;
        Self::read_binary(starcdn_io::ReadAdapter(&mut *f))
    }

    /// Grow every column to `n` entries, zero-filled — backing store for
    /// the parallel builder's pre-sized disjoint chunks.
    fn resize_zeroed(&mut self, n: usize) {
        self.time_ms.resize(n, 0);
        self.object.resize(n, 0);
        self.size.resize(n, 0);
        self.location.resize(n, 0);
        self.fc_tag.resize(n, 0);
        self.fc_orbit.resize(n, 0);
        self.fc_slot.resize(n, 0);
        self.gsl_oneway_ms.resize(n, 0.0);
    }
}

/// A borrowed access log in either representation — what
/// [`crate::engine::run`] and [`crate::replayer::run`] consume, so rows
/// and columns replay through the identical code path.
#[derive(Clone, Copy)]
pub enum LogView<'a> {
    Rows(&'a AccessLog),
    Columns(&'a AccessLogColumns),
}

impl<'a> From<&'a AccessLog> for LogView<'a> {
    fn from(log: &'a AccessLog) -> Self {
        LogView::Rows(log)
    }
}

impl<'a> From<&'a AccessLogColumns> for LogView<'a> {
    fn from(cols: &'a AccessLogColumns) -> Self {
        LogView::Columns(cols)
    }
}

impl<'a> LogView<'a> {
    /// Epoch length used when scheduling, seconds.
    pub fn epoch_secs(&self) -> u64 {
        match self {
            LogView::Rows(l) => l.epoch_secs,
            LogView::Columns(c) => c.epoch_secs(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match self {
            LogView::Rows(l) => l.len(),
            LogView::Columns(c) => c.len(),
        }
    }

    /// True when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entry `i` in row form.
    ///
    /// # Panics
    /// Panics when `i >= self.len()`.
    pub fn entry(&self, i: usize) -> AccessLogEntry {
        match self {
            LogView::Rows(l) => l.entries[i],
            LogView::Columns(c) => c.entry(i),
        }
    }

    /// Stream entries `range` in log order, the columnar side
    /// materializing them lane by lane as the consumer advances.
    pub(crate) fn entries(
        &self,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = AccessLogEntry> + 'a {
        let (rows, cols) = match *self {
            LogView::Rows(l) => (Some(l.entries[range].iter().copied()), None),
            LogView::Columns(c) => (None, Some(range.map(move |i| c.entry(i)))),
        };
        rows.into_iter().flatten().chain(cols.into_iter().flatten())
    }
}

/// Disjoint mutable views over one epoch run's slice of every column.
/// Runs partition the log, so handing each worker its runs' chunks lets
/// workers write results in place — no per-run result vectors and no
/// stitch copy afterwards.
pub(crate) struct ColumnChunk<'a> {
    time_ms: &'a mut [u64],
    object: &'a mut [u64],
    size: &'a mut [u64],
    location: &'a mut [u16],
    fc_tag: &'a mut [u8],
    fc_orbit: &'a mut [u16],
    fc_slot: &'a mut [u16],
    gsl_oneway_ms: &'a mut [f64],
}

impl ColumnChunk<'_> {
    /// Write slot `j` of this chunk — field for field what
    /// [`AccessLogColumns::push_resolved`] appends.
    #[inline]
    pub(crate) fn write_resolved(&mut self, j: usize, r: &Request, assignment: Option<Assignment>) {
        let e = AccessLogEntry::resolved(r, assignment);
        let (tag, orbit, slot) = contact_lanes(e.first_contact);
        self.time_ms[j] = e.time.as_millis();
        self.object[j] = e.object.0;
        self.size[j] = e.size;
        self.location[j] = e.location.0;
        self.fc_tag[j] = tag;
        self.fc_orbit[j] = orbit;
        self.fc_slot[j] = slot;
        self.gsl_oneway_ms[j] = e.gsl_oneway_ms;
    }
}

/// Split `cols` (already sized to the trace length) into one
/// [`ColumnChunk`] per `(start, end)` range. Ranges must be
/// consecutive, disjoint, and cover `[0, cols.len())` — which epoch
/// runs are by construction.
fn split_into_chunks<'a>(
    cols: &'a mut AccessLogColumns,
    ranges: impl Iterator<Item = (usize, usize)>,
) -> Vec<ColumnChunk<'a>> {
    let mut chunks = Vec::new();
    let mut time_ms = cols.time_ms.as_mut_slice();
    let mut object = cols.object.as_mut_slice();
    let mut size = cols.size.as_mut_slice();
    let mut location = cols.location.as_mut_slice();
    let mut fc_tag = cols.fc_tag.as_mut_slice();
    let mut fc_orbit = cols.fc_orbit.as_mut_slice();
    let mut fc_slot = cols.fc_slot.as_mut_slice();
    let mut gsl = cols.gsl_oneway_ms.as_mut_slice();
    for (start, end) in ranges {
        let len = end - start;
        let (t, rest) = time_ms.split_at_mut(len);
        time_ms = rest;
        let (o, rest) = object.split_at_mut(len);
        object = rest;
        let (s, rest) = size.split_at_mut(len);
        size = rest;
        let (l, rest) = location.split_at_mut(len);
        location = rest;
        let (ft, rest) = fc_tag.split_at_mut(len);
        fc_tag = rest;
        let (fo, rest) = fc_orbit.split_at_mut(len);
        fc_orbit = rest;
        let (fs, rest) = fc_slot.split_at_mut(len);
        fc_slot = rest;
        let (g, rest) = gsl.split_at_mut(len);
        gsl = rest;
        chunks.push(ColumnChunk {
            time_ms: t,
            object: o,
            size: s,
            location: l,
            fc_tag: ft,
            fc_orbit: fo,
            fc_slot: fs,
            gsl_oneway_ms: g,
        });
    }
    chunks
}

/// Resolve a trace against the world into a columnar log (see
/// [`build_access_log`](crate::access_log::build_access_log) for what
/// the log holds): one sequential pass over the trace, one
/// [`EpochScheduler::begin`] per epoch with reusable scratch, each
/// location scheduled on its first read in the epoch.
pub fn build_access_log_columns(
    world: &World,
    trace: &Trace,
    epoch_secs: u64,
    cfg: &SchedulerConfig,
) -> AccessLogColumns {
    build_access_log_columns_recorded(world, trace, epoch_secs, cfg, &Noop)
}

/// [`build_access_log_columns`] with telemetry: the scheduler's per-epoch
/// `Propagate`/`Schedule`/`Visibility` spans and `GslDelayUs` — for the
/// cells a request read, the only ones scheduled — epoch-stamped churn
/// events from the fault cursor, and the per-epoch entry count as
/// [`Histo::QueueDepth`]. The produced log is identical with any
/// recorder.
pub fn build_access_log_columns_recorded(
    world: &World,
    trace: &Trace,
    epoch_secs: u64,
    cfg: &SchedulerConfig,
    rec: &dyn Recorder,
) -> AccessLogColumns {
    assert!(epoch_secs > 0);
    let enabled = rec.is_enabled();
    let users = cfg.users_per_location;
    assert!(users > 0, "users_per_location must be positive");
    let mut scheduler = EpochScheduler::new(world);
    let mut cols = AccessLogColumns::with_capacity(trace.len(), epoch_secs);
    let mut epoch_len = 0u64;
    let mut have_schedule = false;
    // Wrapped round-robin cursors: each slot holds `raw_count % users`,
    // stepped without a per-entry modulo.
    let mut rr_counters = vec![0usize; world.num_locations()];
    let mut cursor = ScheduleCursor::new(&world.schedule, world.failures.clone());
    // `epoch_of(t) == e  ⇔  e·epoch_ms ≤ t_ms < (e+1)·epoch_ms` (u64
    // floor division composes), so steady-state entries replace the two
    // divisions inside `epoch_of` with one range check. The empty
    // initial range forces the first entry to compute its epoch.
    let epoch_ms = epoch_secs * 1000;
    let mut epoch_start_ms = u64::MAX;
    let mut epoch_end_ms = 0u64;

    for r in &trace.requests {
        let t_ms = r.time.as_millis();
        if t_ms < epoch_start_ms || t_ms >= epoch_end_ms {
            let epoch = epoch_of(r.time, epoch_secs);
            if enabled && have_schedule {
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
            have_schedule = true;
        }
        epoch_len += 1;
        debug_assert!(have_schedule);
        let loc = r.location.0 as usize;
        let user = rr_counters[loc];
        rr_counters[loc] = if user + 1 == users { 0 } else { user + 1 };
        cols.push_resolved(r, scheduler.assignment(loc, user, cursor.view(), rec));
    }
    if enabled && epoch_len > 0 {
        rec.observe(Histo::QueueDepth, epoch_len);
    }
    cols
}

/// [`build_access_log_columns`] fanned out over `num_workers` OS threads.
///
/// The trace is pre-scanned into epoch runs — maximal runs of
/// consecutive same-epoch entries, exactly the granularity at which the
/// sequential builder recomputes the link schedule. The pre-scan also
/// replays the [`ScheduleCursor`] once (the cursor is monotonic state,
/// so this is the one part that cannot be parallelized) and snapshots a
/// per-run failure view and the round-robin user counters' starting
/// values (one flat runs × locations table). With the sequential
/// dependencies captured, epoch runs are
/// embarrassingly parallel: each worker owns a private
/// [`EpochScheduler`] (a satellite's position is a pure function of
/// `t`, so worker-local snapshots produce identical bits, whichever
/// epochs a worker's visibility window happens to refresh at), takes a
/// contiguous block of runs, schedules each run's locations on their
/// first read through the same [`EpochScheduler::assignment`] as the
/// sequential builder, and writes the results directly into disjoint
/// pre-split column chunks. Once a
/// worker's scratch is warm, its steady-state epoch loop — propagate,
/// schedule into scratch, write the run's chunk — performs zero heap
/// allocations, and there is no stitch copy at the end. Output is
/// bit-for-bit the sequential builder's.
pub fn build_access_log_columns_parallel(
    world: &World,
    trace: &Trace,
    epoch_secs: u64,
    cfg: &SchedulerConfig,
    num_workers: usize,
) -> AccessLogColumns {
    build_access_log_columns_parallel_recorded(world, trace, epoch_secs, cfg, num_workers, &Noop)
}

/// [`build_access_log_columns_parallel`] with telemetry: the sequential
/// pre-scan is timed as [`Stage::PreScan`] (with per-run
/// [`Histo::QueueDepth`] observations and churn events), workers report
/// the scheduler's per-epoch spans through the shared recorder (epoch
/// keys are unique per run, so concurrent recording lands in disjoint
/// timeline cells), and [`Stage::Merge`] brackets the chunk split (no
/// stitch exists).
pub fn build_access_log_columns_parallel_recorded(
    world: &World,
    trace: &Trace,
    epoch_secs: u64,
    cfg: &SchedulerConfig,
    num_workers: usize,
    rec: &dyn Recorder,
) -> AccessLogColumns {
    assert!(epoch_secs > 0);
    if num_workers <= 1 || trace.len() < 2 {
        return build_access_log_columns_recorded(world, trace, epoch_secs, cfg, rec);
    }
    let reqs = &trace.requests;

    let prescan_span = SpanTimer::start(rec, Stage::PreScan, 0);
    let EpochRuns { runs, rr_start } = prescan_epoch_runs(world, reqs, epoch_secs, rec);
    prescan_span.stop();

    let mut cols = AccessLogColumns::new(epoch_secs);
    cols.resize_zeroed(reqs.len());

    // Split the columns into one disjoint chunk per run and deal the
    // (run, chunk) pairs to workers as contiguous blocks: consecutive
    // epochs share a visibility window, so a worker that walks
    // neighbouring runs rescans the fleet once per ~8 epochs, where a
    // round-robin deal at 8 workers would put every run a whole window
    // from the worker's previous one. Static assignment needs no claim
    // queue.
    let merge_span = SpanTimer::start(rec, Stage::Merge, 0);
    let chunks = split_into_chunks(&mut cols, runs.iter().map(|r| (r.start, r.end)));
    merge_span.stop();
    let workers = num_workers.min(runs.len()).max(1);
    let mut buckets: Vec<Vec<(usize, ColumnChunk)>> = (0..workers).map(|_| Vec::new()).collect();
    let sizes = balanced_block_sizes(runs.iter().map(|r| r.end - r.start), reqs.len(), workers);
    let mut chunks = chunks.into_iter().enumerate();
    for (bucket, size) in buckets.iter_mut().zip(sizes) {
        bucket.extend(chunks.by_ref().take(size));
    }

    let users = cfg.users_per_location;
    assert!(users > 0, "users_per_location must be positive");
    let locations = world.num_locations();
    std::thread::scope(|s| {
        for bucket in buckets.into_iter().filter(|b| !b.is_empty()) {
            s.spawn(|| {
                let mut scheduler = EpochScheduler::new(world);
                let mut rr = vec![0usize; locations];
                for (i, mut chunk) in bucket {
                    let run = &runs[i];
                    scheduler.begin(world, run.epoch, epoch_secs, cfg, rec);
                    // Fold the pre-scan's raw counts into wrapped
                    // cursors once per run; entries then step without
                    // the modulo (see the sequential builder).
                    let counts = &rr_start[i * locations..(i + 1) * locations];
                    for (w, &raw) in rr.iter_mut().zip(counts) {
                        *w = raw % users;
                    }
                    for (j, r) in reqs[run.start..run.end].iter().enumerate() {
                        let loc = r.location.0 as usize;
                        let user = rr[loc];
                        rr[loc] = if user + 1 == users { 0 } else { user + 1 };
                        chunk.write_resolved(j, r, scheduler.assignment(loc, user, &run.view, rec));
                    }
                }
            });
        }
    });
    cols
}

/// Cut consecutive runs into `blocks` consecutive blocks of near-equal
/// work; returns how many runs each block takes, in order. A run costs a
/// fixed part (propagate and schedule its epoch) and a part per entry;
/// with no constant to tune between the two, each run weighs its share
/// of the runs plus its share of the `entries`, so a block exceeds its
/// fair share of either cost by at most its fair share of the other. A
/// block is empty when a single run outweighs it whole.
fn balanced_block_sizes(
    run_lens: impl ExactSizeIterator<Item = usize>,
    entries: usize,
    blocks: usize,
) -> Vec<usize> {
    let (runs, entries) = (run_lens.len() as u128, entries as u128);
    // 1/runs + len/entries, scaled by runs·entries.
    let total = (2 * runs * entries).max(1);
    let mut sizes = vec![0usize; blocks];
    let mut before = 0u128;
    for len in run_lens {
        // The block a run starts in owns it: monotone in `before`, so
        // the blocks are contiguous.
        sizes[(before * blocks as u128 / total) as usize] += 1;
        before += entries + len as u128 * runs;
    }
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access_log::build_access_log;
    use proptest::prelude::*;

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

    fn churny_world() -> World {
        use starcdn_constellation::schedule::{ChurnParams, FaultSchedule};
        let base = World::starlink_nine_cities();
        let p = ChurnParams::sats_only(1800.0, 120.0, 600, 0xD00D);
        let schedule = FaultSchedule::churn(&base.grid, &p);
        assert!(!schedule.is_empty(), "churn parameters produced no events");
        base.with_fault_schedule(schedule)
    }

    /// A row log exercising the unreachable encoding alongside normal
    /// entries.
    fn codec_fixture() -> AccessLog {
        let w = World::starlink_nine_cities();
        let mut log = build_access_log(&w, &tiny_trace(), 15, &SchedulerConfig::default());
        log.entries[3].first_contact = None;
        log.entries[3].gsl_oneway_ms = 0.0;
        log
    }

    #[test]
    fn transpose_roundtrip_is_lossless() {
        let log = codec_fixture();
        let cols = AccessLogColumns::from_log(&log);
        assert_eq!(cols.len(), log.len());
        assert_eq!(cols.total_bytes(), log.total_bytes());
        assert_eq!(cols.epoch_secs(), log.epoch_secs);
        let back = cols.to_log();
        assert_eq!(back, log);
        for (i, e) in log.entries.iter().enumerate() {
            let c = cols.entry(i);
            assert_eq!(c, *e, "entry {i}");
            assert_eq!(c.gsl_oneway_ms.to_bits(), e.gsl_oneway_ms.to_bits(), "entry {i} gsl bits");
        }
    }

    #[test]
    fn transpose_roundtrip_empty() {
        let log = AccessLog { entries: Vec::new(), epoch_secs: 30 };
        let cols = AccessLogColumns::from_log(&log);
        assert!(cols.is_empty());
        assert_eq!(cols.to_log(), log);
    }

    #[test]
    fn binary_format_is_shared_with_row_log() {
        let log = codec_fixture();
        let cols = AccessLogColumns::from_log(&log);

        let mut row_bytes = Vec::new();
        log.write_binary(&mut row_bytes).unwrap();
        let mut col_bytes = Vec::new();
        cols.write_binary(&mut col_bytes).unwrap();
        assert_eq!(row_bytes, col_bytes, "both writers must emit identical bytes");

        // Cross-read both directions.
        let cols_from_row = AccessLogColumns::read_binary(row_bytes.as_slice()).unwrap();
        assert_eq!(cols_from_row, cols);
        let log_from_col = AccessLog::read_binary(col_bytes.as_slice()).unwrap();
        assert_eq!(log_from_col, log);
    }

    #[test]
    fn binary_empty_log() {
        let cols = AccessLogColumns::new(30);
        let mut buf = Vec::new();
        cols.write_binary(&mut buf).unwrap();
        assert_eq!(buf.len(), 16);
        let back = AccessLogColumns::read_binary(buf.as_slice()).unwrap();
        assert_eq!(back, cols);
    }

    #[test]
    fn binary_detects_truncation_and_bad_header() {
        let cols = AccessLogColumns::from_log(&codec_fixture());
        let mut buf = Vec::new();
        cols.write_binary(&mut buf).unwrap();
        buf.truncate(buf.len() - 7); // chop mid-record
        assert!(matches!(
            AccessLogColumns::read_binary(buf.as_slice()),
            Err(IoError::TruncatedRecord)
        ));
        assert!(matches!(
            AccessLogColumns::read_binary(b"NOTALOG!\0\0\0\0\0\0\0\0".as_slice()),
            Err(IoError::BadHeader)
        ));
        // A header shorter than 16 bytes is a bad header, not a panic.
        assert!(matches!(
            AccessLogColumns::read_binary(b"STARLOG1\x0f".as_slice()),
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
        assert!(is_eio(&AccessLogColumns::read_binary(Eio).unwrap_err()));
        assert!(is_eio(&AccessLog::read_binary(Eio).unwrap_err()));
    }

    #[test]
    fn parallel_columnar_builder_matches_sequential_bit_for_bit() {
        let cfg = SchedulerConfig::default();
        for w in [World::starlink_nine_cities(), churny_world()] {
            let trace = tiny_trace();
            let seq = build_access_log_columns(&w, &trace, 15, &cfg);
            for n in [1usize, 2, 4, 7] {
                let par = build_access_log_columns_parallel(&w, &trace, 15, &cfg, n);
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
        let noop = build_access_log_columns(&w, &trace, 15, &cfg);
        for workers in [1usize, 2, 3] {
            let rec = MemoryRecorder::new();
            let log =
                build_access_log_columns_parallel_recorded(&w, &trace, 15, &cfg, workers, &rec);
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

    #[test]
    fn blocks_are_contiguous_and_balance_runs_and_entries() {
        // Uniform runs: an even split.
        assert_eq!(balanced_block_sizes([10usize; 12].into_iter(), 120, 4), [3, 3, 3, 3]);
        // One heavy run among empty-ish ones: it takes a block's worth of
        // weight, the light runs share the rest.
        let mut lens = vec![1usize; 99];
        lens.insert(0, 901);
        let sizes = balanced_block_sizes(lens.iter().copied(), 1000, 2);
        assert_eq!(sizes.iter().sum::<usize>(), 100);
        assert!(sizes[0] < 20, "the heavy run's block took {} runs", sizes[0]);
        // More blocks than weight boundaries: some stay empty, none is lost.
        let sizes = balanced_block_sizes([5usize, 5].into_iter(), 10, 8);
        assert_eq!(sizes.iter().sum::<usize>(), 2);
        assert_eq!(sizes.len(), 8);
        // Each block's share of runs plus its share of entries is within
        // one run's weight of 2/blocks.
        let lens: Vec<usize> = (0..500).map(|i| i * 7919 % 40).collect();
        let entries: usize = lens.iter().sum();
        let sizes = balanced_block_sizes(lens.iter().copied(), entries, 3);
        let mut start = 0;
        for size in sizes {
            let block = &lens[start..start + size];
            let share =
                block.len() as f64 / 500.0 + block.iter().sum::<usize>() as f64 / entries as f64;
            assert!((share - 2.0 / 3.0).abs() < 0.01, "block share {share}");
            start += size;
        }
        assert_eq!(start, 500);
    }

    #[test]
    fn parallel_columnar_handles_degenerate_traces() {
        let w = World::starlink_nine_cities();
        let cfg = SchedulerConfig::default();
        let empty = build_access_log_columns_parallel(&w, &Trace::default(), 15, &cfg, 4);
        assert!(empty.is_empty());
        let one = Trace::new(vec![Request {
            time: SimTime::from_secs(7),
            object: ObjectId(1),
            size: 10,
            location: LocationId(4),
        }]);
        let seq = build_access_log_columns(&w, &one, 15, &cfg);
        let par = build_access_log_columns_parallel(&w, &one, 15, &cfg, 8);
        assert_eq!(seq, par);
    }

    proptest! {
        /// Row ↔ columnar transpose and the shared binary codec are
        /// lossless for arbitrary entries (including absent contacts
        /// and extreme field values).
        #[test]
        fn prop_transpose_and_binary_roundtrip(
            raw in proptest::collection::vec(
                (0u64..u64::MAX / 2, 0u64..1 << 40, 0u64..1 << 30, 0u16..512, 0u8..2, 0u16..72, 0u16..24, 0u64..1 << 52),
                0..64,
            ),
            epoch_secs in 1u64..3600,
        ) {
            let entries: Vec<AccessLogEntry> = raw
                .into_iter()
                .map(|(t, o, s, l, tag, orbit, slot, gsl_ms)| AccessLogEntry {
                    time: SimTime::from_millis(t),
                    object: ObjectId(o),
                    size: s,
                    location: LocationId(l),
                    first_contact: (tag != 0).then_some(SatelliteId { orbit, slot }),
                    // Row entries with no contact always carry 0.0 (what
                    // the builders store), keeping the transpose lossless.
                    gsl_oneway_ms: if tag != 0 { gsl_ms as f64 / 1024.0 } else { 0.0 },
                })
                .collect();
            let log = AccessLog { entries, epoch_secs };
            let cols = AccessLogColumns::from_log(&log);
            prop_assert_eq!(cols.to_log(), log.clone());

            let mut row_bytes = Vec::new();
            log.write_binary(&mut row_bytes).unwrap();
            let mut col_bytes = Vec::new();
            cols.write_binary(&mut col_bytes).unwrap();
            prop_assert_eq!(&row_bytes, &col_bytes);
            let back = AccessLogColumns::read_binary(col_bytes.as_slice()).unwrap();
            prop_assert_eq!(back, cols);
        }

        /// One decoder: for a valid log with one bit flipped, a truncated
        /// log, and garbage with and without the magic in front, the
        /// columnar reader returns exactly the row reader's answer
        /// transposed — equal values, or an error of the same variant.
        /// (A tag byte of 0 means "no contact" whatever the orbit/slot
        /// bytes hold; every third entry of the fixture has no contact,
        /// so flips land in such records' orbit/slot bytes.)
        #[test]
        fn prop_columnar_reader_is_the_row_reader(
            flip in 0usize..(16 + 39 * 200) * 8,
            cut in 0usize..(16 + 39 * 200),
            garbage in proptest::collection::vec(any::<u8>(), 0..120),
        ) {
            static VALID: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
            let valid = VALID.get_or_init(|| {
                let mut log = codec_fixture();
                for e in log.entries.iter_mut().step_by(3) {
                    e.first_contact = None;
                    e.gsl_oneway_ms = 0.0;
                }
                let mut bytes = Vec::new();
                log.write_binary(&mut bytes).unwrap();
                bytes
            });
            let mut flipped = valid.clone();
            flipped[flip / 8] ^= 1 << (flip % 8);
            let magic_garbage = [&valid[..16], &garbage[..]].concat();
            for (what, bytes) in [
                ("flip", &flipped[..]),
                ("cut", &valid[..cut]),
                ("garbage", &garbage[..]),
                ("magic + garbage", &magic_garbage[..]),
            ] {
                let cols = AccessLogColumns::read_binary(bytes);
                let rows = AccessLog::read_binary(bytes).map(|l| AccessLogColumns::from_log(&l));
                match (cols, rows) {
                    (Ok(c), Ok(r)) => prop_assert_eq!(c, r, "{} (flip {}, cut {})", what, flip, cut),
                    (Err(c), Err(r)) => prop_assert_eq!(
                        std::mem::discriminant(&c),
                        std::mem::discriminant(&r),
                        "{}: {:?} vs {:?}", what, c, r
                    ),
                    (c, r) => prop_assert!(false, "{}: {:?} vs {:?}", what, c, r),
                }
            }
        }

        /// Truncating a valid binary log anywhere either reproduces a
        /// record-boundary prefix or returns a clean error — never a
        /// panic, never silently dropped bytes.
        #[test]
        fn prop_truncation_never_panics(cut in 0usize..800) {
            let w = World::starlink_nine_cities();
            let log = build_access_log(&w, &tiny_trace(), 15, &SchedulerConfig::default());
            let mut buf = Vec::new();
            log.write_binary(&mut buf).unwrap();
            let cut = cut.min(buf.len());
            buf.truncate(cut);
            match AccessLogColumns::read_binary(buf.as_slice()) {
                Ok(cols) => {
                    prop_assert!(cut >= 16);
                    prop_assert_eq!((cut - 16) % 39, 0);
                    prop_assert_eq!(cols.len(), (cut - 16) / 39);
                }
                Err(IoError::BadHeader) => prop_assert!(cut < 16),
                Err(IoError::TruncatedRecord) => {
                    prop_assert!(cut >= 16);
                    prop_assert!((cut - 16) % 39 != 0);
                }
                Err(e) => prop_assert!(false, "unexpected error: {e:?}"),
            }
        }
    }
}
