//! Frozen, deterministic telemetry state.

use crate::hist::HistogramSnapshot;
use crate::metric::{Counter, Event, Histo, Stage};
use crate::span::SpanStats;
use std::collections::BTreeMap;

/// Plain-data telemetry state. Counters and histograms are sparse
/// (zero entries dropped) in enum order; spans and events are `BTreeMap`
/// timelines keyed `(kind, epoch)`, so equality and export order are
/// deterministic regardless of how many shards produced the data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Non-zero counters in [`Counter::ALL`] order.
    pub counters: Vec<(Counter, u64)>,
    /// Non-empty histograms in [`Histo::ALL`] order.
    pub histograms: Vec<(Histo, HistogramSnapshot)>,
    /// Per-epoch stage timeline.
    pub spans: BTreeMap<(Stage, u64), SpanStats>,
    /// Per-epoch fault-event timeline.
    pub events: BTreeMap<(Event, u64), u64>,
}

impl TelemetrySnapshot {
    /// Value of a counter (0 if absent).
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters.iter().find(|&&(k, _)| k == c).map_or(0, |&(_, v)| v)
    }

    /// A histogram's snapshot, if any samples were recorded.
    pub fn histogram(&self, h: Histo) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(k, _)| *k == h).map(|(_, s)| s)
    }

    /// Fold another snapshot into this one. Deterministic: counters and
    /// histograms stay in enum order, timelines merge by key, so
    /// `a.merge(b)` equals recording both inputs into one recorder.
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        let mut counters: BTreeMap<Counter, u64> = self.counters.iter().copied().collect();
        for &(c, v) in &other.counters {
            *counters.entry(c).or_insert(0) += v;
        }
        self.counters = counters.into_iter().collect();

        let mut histograms: BTreeMap<Histo, HistogramSnapshot> =
            self.histograms.drain(..).collect();
        for (h, s) in &other.histograms {
            histograms.entry(*h).or_default().merge(s);
        }
        self.histograms = histograms.into_iter().collect();

        for (&key, cell) in &other.spans {
            self.spans.entry(key).or_default().merge(cell);
        }
        for (&key, &count) in &other.events {
            *self.events.entry(key).or_insert(0) += count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{MemoryRecorder, Recorder};

    fn sample() -> TelemetrySnapshot {
        let rec = MemoryRecorder::new();
        rec.add(Counter::CacheHits, 7);
        rec.add(Counter::RemappedRequests, 2);
        rec.observe(Histo::LatencyUs, 1500);
        rec.observe(Histo::LatencyUs, 900);
        rec.span_ns(Stage::Schedule, 0, 1000);
        rec.span_ns(Stage::Schedule, 1, 3000);
        rec.event(Event::Remap, 1, 2);
        rec.snapshot()
    }

    #[test]
    fn merge_is_order_insensitive_for_commutative_state() {
        let a = sample();
        let rec = MemoryRecorder::new();
        rec.add(Counter::CacheMisses, 3);
        rec.observe(Histo::LatencyUs, 40);
        rec.span_ns(Stage::Schedule, 0, 500);
        let b = rec.snapshot();

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter(Counter::CacheHits), 7);
        assert_eq!(ab.counter(Counter::CacheMisses), 3);
        assert_eq!(ab.histogram(Histo::LatencyUs).unwrap().count, 3);
        assert_eq!(ab.spans[&(Stage::Schedule, 0)].count, 2);
    }
}
