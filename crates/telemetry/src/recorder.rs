//! The [`Recorder`] trait and its two implementations.

use crate::hist::LogHistogram;
use crate::metric::{Counter, Event, Histo, Stage};
use crate::snapshot::TelemetrySnapshot;
use crate::span::SpanStats;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The instrumentation sink threaded through the pipeline.
///
/// Every method takes `&self` and defaults to a no-op, so instrumented
/// code paths pay nothing when handed a [`Noop`]. Hot loops should hoist
/// `is_enabled()` into a local and skip the per-item calls entirely.
///
/// `Send + Sync` is a supertrait: recorders cross the replayer's scoped
/// worker threads by reference.
pub trait Recorder: Send + Sync {
    /// Whether this recorder keeps anything. Callers may use this to
    /// skip instrumentation work (metric computation, clock reads).
    fn is_enabled(&self) -> bool {
        false
    }

    /// Add `n` to a counter.
    fn add(&self, _counter: Counter, _n: u64) {}

    /// Record one histogram sample.
    fn observe(&self, _histo: Histo, _value: u64) {}

    /// Record a completed stage span of `ns` nanoseconds at `epoch`.
    fn span_ns(&self, _stage: Stage, _epoch: u64, _ns: u64) {}

    /// Record `count` occurrences of an epoch-stamped fault event.
    fn event(&self, _event: Event, _epoch: u64, _count: u64) {}

    /// Fold an already-merged snapshot in (the replayer merges its
    /// per-worker shards deterministically, then absorbs once).
    fn absorb(&self, _snapshot: &TelemetrySnapshot) {}
}

/// The default recorder: keeps nothing, costs one predictable branch.
#[derive(Debug, Clone, Copy, Default)]
pub struct Noop;

impl Recorder for Noop {}

/// An in-memory recorder: lock-free atomics for counters and histogram
/// buckets; mutex-guarded `BTreeMap`s for the cold span/event timelines
/// (touched once per epoch, not per request).
#[derive(Debug, Default)]
pub struct MemoryRecorder {
    counters: [AtomicU64; Counter::ALL.len()],
    histograms: [LogHistogram; Histo::ALL.len()],
    spans: Mutex<BTreeMap<(Stage, u64), SpanStats>>,
    events: Mutex<BTreeMap<(Event, u64), u64>>,
}

impl MemoryRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Freeze everything into a deterministic plain-data snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let counters = Counter::ALL
            .iter()
            .filter_map(|&c| {
                let v = self.counters[c as usize].load(Ordering::Relaxed);
                (v > 0).then_some((c, v))
            })
            .collect();
        let histograms = Histo::ALL
            .iter()
            .filter_map(|&h| {
                let s = self.histograms[h as usize].snapshot();
                (!s.is_empty()).then_some((h, s))
            })
            .collect();
        TelemetrySnapshot {
            counters,
            histograms,
            spans: self.spans.lock().unwrap().clone(),
            events: self.events.lock().unwrap().clone(),
        }
    }
}

impl Recorder for MemoryRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn observe(&self, histo: Histo, value: u64) {
        self.histograms[histo as usize].record(value);
    }

    fn span_ns(&self, stage: Stage, epoch: u64, ns: u64) {
        let mut spans = self.spans.lock().unwrap();
        spans.entry((stage, epoch)).or_default().merge(&SpanStats::one(ns));
    }

    fn event(&self, event: Event, epoch: u64, count: u64) {
        if count == 0 {
            return;
        }
        let mut events = self.events.lock().unwrap();
        *events.entry((event, epoch)).or_insert(0) += count;
    }

    fn absorb(&self, snapshot: &TelemetrySnapshot) {
        for &(c, v) in &snapshot.counters {
            self.add(c, v);
        }
        for (h, s) in &snapshot.histograms {
            self.histograms[*h as usize].absorb(s);
        }
        for (&(stage, epoch), cell) in &snapshot.spans {
            let mut spans = self.spans.lock().unwrap();
            spans.entry((stage, epoch)).or_default().merge(cell);
        }
        for (&(event, epoch), &count) in &snapshot.events {
            self.event(event, epoch, count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_silent() {
        let rec = Noop;
        assert!(!rec.is_enabled());
        rec.add(Counter::CacheHits, 5);
        rec.observe(Histo::LatencyUs, 100);
        rec.span_ns(Stage::Schedule, 0, 1000);
        rec.event(Event::Remap, 3, 2);
    }

    #[test]
    fn memory_recorder_round_trips() {
        let rec = MemoryRecorder::new();
        assert!(rec.is_enabled());
        rec.add(Counter::CacheHits, 3);
        rec.add(Counter::CacheHits, 4);
        rec.observe(Histo::IslHops, 5);
        rec.span_ns(Stage::CacheAccess, 2, 500);
        rec.span_ns(Stage::CacheAccess, 2, 700);
        rec.event(Event::ColdMiss, 9, 11);
        rec.event(Event::ColdMiss, 9, 0);

        let snap = rec.snapshot();
        assert_eq!(snap.counter(Counter::CacheHits), 7);
        assert_eq!(snap.counter(Counter::CacheMisses), 0);
        assert_eq!(snap.histogram(Histo::IslHops).unwrap().count, 1);
        let cell = snap.spans[&(Stage::CacheAccess, 2)];
        assert_eq!(cell, SpanStats { count: 2, total_ns: 1200, max_ns: 700 });
        assert_eq!(snap.events[&(Event::ColdMiss, 9)], 11);
        assert_eq!(snap.events.len(), 1, "zero-count events are dropped");
    }

    #[test]
    fn absorb_equals_direct_recording() {
        let shard_a = MemoryRecorder::new();
        let shard_b = MemoryRecorder::new();
        let direct = MemoryRecorder::new();
        for v in [3u64, 9, 100, 4096] {
            shard_a.observe(Histo::ObjectBytes, v);
            direct.observe(Histo::ObjectBytes, v);
        }
        for v in [1u64, 9, 65535] {
            shard_b.observe(Histo::ObjectBytes, v);
            direct.observe(Histo::ObjectBytes, v);
        }
        shard_a.add(Counter::CacheMisses, 2);
        shard_b.add(Counter::CacheMisses, 5);
        direct.add(Counter::CacheMisses, 7);
        shard_a.span_ns(Stage::ReplayShard, 0, 50);
        shard_b.span_ns(Stage::ReplayShard, 1, 80);
        direct.span_ns(Stage::ReplayShard, 0, 50);
        direct.span_ns(Stage::ReplayShard, 1, 80);
        shard_a.event(Event::Reroute, 4, 1);
        shard_b.event(Event::Reroute, 4, 2);
        direct.event(Event::Reroute, 4, 3);

        // Deterministic merge: shard order, BTreeMap keys.
        let mut merged = shard_a.snapshot();
        merged.merge(&shard_b.snapshot());
        let sink = MemoryRecorder::new();
        sink.absorb(&merged);
        assert_eq!(sink.snapshot(), direct.snapshot());
    }
}
