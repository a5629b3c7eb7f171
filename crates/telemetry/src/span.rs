//! Scoped stage timers and their aggregate statistics.

use crate::metric::Stage;
use crate::recorder::Recorder;
use std::time::Instant;

/// Aggregate timing for one `(stage, epoch)` timeline cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Spans recorded into this cell.
    pub count: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

impl SpanStats {
    /// One observed span.
    pub(crate) fn one(ns: u64) -> Self {
        SpanStats { count: 1, total_ns: ns, max_ns: ns }
    }

    /// Fold another cell into this one.
    pub(crate) fn merge(&mut self, other: &SpanStats) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// A drop-guard that times a pipeline stage and reports it to a
/// [`Recorder`] keyed by `(stage, epoch)`.
///
/// When the recorder is disabled ([`Recorder::is_enabled`] is false) the
/// guard never reads the clock, so leaving these in hot code costs one
/// branch per scope, not one `Instant::now()` pair.
#[must_use = "a span timer measures the scope it lives in"]
pub struct SpanTimer<'a> {
    rec: &'a dyn Recorder,
    stage: Stage,
    epoch: u64,
    started: Option<Instant>,
}

impl<'a> SpanTimer<'a> {
    /// Start timing `stage` for `epoch` (or any other u64 key, e.g. the
    /// replayer keys `ReplayShard` spans by shard index).
    pub fn start(rec: &'a dyn Recorder, stage: Stage, epoch: u64) -> Self {
        let started = rec.is_enabled().then(Instant::now);
        SpanTimer { rec, stage, epoch, started }
    }

    /// Stop early (equivalent to dropping the guard).
    pub fn stop(self) {}
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.started {
            self.rec.span_ns(self.stage, self.epoch, t0.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{MemoryRecorder, Noop};

    #[test]
    fn noop_timer_never_records() {
        let t = SpanTimer::start(&Noop, Stage::Schedule, 3);
        assert!(t.started.is_none(), "disabled recorder must not read the clock");
        t.stop();
    }

    #[test]
    fn memory_timer_records_on_drop() {
        let rec = MemoryRecorder::new();
        {
            let _t = SpanTimer::start(&rec, Stage::Visibility, 7);
        }
        let snap = rec.snapshot();
        let cell = snap.spans.get(&(Stage::Visibility, 7)).expect("span recorded");
        assert_eq!(cell.count, 1);
        assert_eq!(cell.max_ns, cell.total_ns);
    }

    #[test]
    fn span_stats_merge() {
        let mut a = SpanStats::one(10);
        a.merge(&SpanStats::one(30));
        assert_eq!(a, SpanStats { count: 2, total_ns: 40, max_ns: 30 });
    }
}
