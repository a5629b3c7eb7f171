//! Tracing from outside the program: spans around the benchmark's calls
//! into each layer, kept in memory and written out when the run ends,
//! plus the one recorder the benchmark hands *into* the program (exact
//! router send → cumulative ack round trips).
//!
//! The clock is read for every span whether or not spans are kept, so
//! the drivers take their iteration times from the same calls in traced
//! and untraced runs; "tracing on" adds only the bookkeeping.

use crate::abi::{Histo, Recorder};
use crate::json::Json;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// Which iteration of its driver the span belongs to.
    iteration: u64,
    start_us: f64,
    end_us: f64,
}

/// A span that has begun and not yet ended.
pub struct Open {
    slot: Option<usize>,
    start: Instant,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    iteration: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            iteration: 0,
        }
    }

    /// Spans begun from now on carry this iteration id.
    pub fn set_iteration(&mut self, iteration: u64) {
        self.iteration = iteration;
    }

    /// Begin a span whose parent is the innermost span still open.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let slot = self.enabled.then(|| {
            let at = (start - self.origin).as_secs_f64() * 1e6;
            self.spans.push(Span {
                name,
                parent: self.stack.last().copied(),
                iteration: self.iteration,
                start_us: at,
                end_us: at,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { slot, start }
    }

    /// End a span; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let elapsed = open.start.elapsed();
        if let Some(slot) = open.slot {
            self.spans[slot].end_us = self.spans[slot].start_us + elapsed.as_secs_f64() * 1e6;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(slot), "spans must nest");
        }
        elapsed.as_secs_f64()
    }

    /// Time `f` under a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.begin(name);
        let out = f();
        (out, self.end(open))
    }

    /// Every span with its self time: its duration minus the part its
    /// children cover. `probe.*` spans time a layer's public function
    /// on the workload's inputs outside the pipeline call that normally
    /// contains it, so they are labelled as estimates.
    pub fn to_json(&self) -> Json {
        let mut child_us = vec![0.0; self.spans.len()];
        // A parent always precedes its children, so one pass settles
        // whether a span sits under a probe.
        let mut estimate = vec![false; self.spans.len()];
        for (id, s) in self.spans.iter().enumerate() {
            estimate[id] = s.name.starts_with("probe.");
            if let Some(p) = s.parent {
                child_us[p] += s.end_us - s.start_us;
                estimate[id] |= estimate[p];
            }
        }
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("id", Json::Int(id as u64)),
                    ("name", Json::str(s.name)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Int(p as u64))),
                    ("iteration", Json::Int(s.iteration)),
                    ("start_us", Json::Num(s.start_us)),
                    ("end_us", Json::Num(s.end_us)),
                    ("self_us", Json::Num(s.end_us - s.start_us - child_us[id])),
                    ("estimate", Json::Bool(estimate[id])),
                ])
            })
            .collect();
        Json::Arr(spans)
    }
}

/// The benchmark-owned `Recorder` handed to `serve_replay`: keeps every
/// `Histo::NetAckRttUs` sample exactly (the program's own recorder
/// keeps log₂ buckets) and ignores everything else.
#[derive(Default)]
pub struct AckRttRecorder {
    samples_us: Mutex<Vec<u64>>,
}

impl AckRttRecorder {
    pub fn take(&self) -> Vec<f64> {
        let mut guard = self.samples_us.lock().expect("no panic while holding the sample lock");
        std::mem::take(&mut *guard).into_iter().map(|v| v as f64).collect()
    }
}

impl Recorder for AckRttRecorder {
    fn is_enabled(&self) -> bool {
        true
    }

    fn observe(&self, histo: Histo, value: u64) {
        if histo == Histo::NetAckRttUs {
            self.samples_us.lock().expect("no panic while holding the sample lock").push(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_iteration(3);
        let outer = t.begin("pipeline");
        let pause = std::time::Duration::from_millis(2);
        let ((), inner_secs) = t.time("engine", || std::thread::sleep(pause));
        let outer_secs = t.end(outer);
        assert!(outer_secs >= inner_secs && inner_secs >= 0.002);
        let text = t.to_json().encode();
        assert!(text.contains("\"name\": \"engine\", \"parent\": 0, \"iteration\": 3"), "{text}");
        assert!(text.contains("\"name\": \"pipeline\", \"parent\": null"), "{text}");
        let dur = |i: usize| t.spans[i].end_us - t.spans[i].start_us;
        assert!(text.contains(&format!("\"self_us\": {:?}", dur(0) - dur(1))), "{text}");
        assert!(text.contains(&format!("\"self_us\": {:?}", dur(1))), "{text}");
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.time("engine", || 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(t.to_json().encode(), "[]");
    }

    #[test]
    fn ack_recorder_keeps_exact_rtt_samples_only() {
        let r = AckRttRecorder::default();
        r.observe(Histo::NetAckRttUs, 17);
        r.observe(Histo::LatencyUs, 99);
        r.observe(Histo::NetAckRttUs, 1025);
        assert_eq!(r.take(), vec![17.0, 1025.0]);
        assert!(r.take().is_empty());
    }
}
