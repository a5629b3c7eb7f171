//! Observability for the StarCDN simulation pipeline.
//!
//! The evaluation in the paper (Tables 1–3, Figs 6–13) is entirely
//! metrics-driven, but end-of-run aggregates say nothing about *where*
//! time or misses go inside a run. This crate provides the missing
//! instrumentation layer:
//!
//! * cheap atomic [`Counter`]s and log₂-bucketed [`Histo`]grams
//!   (latency µs, ISL hops, object bytes, queue depths),
//! * scoped [`SpanTimer`]s for the pipeline stages ([`Stage`]) with a
//!   per-epoch timeline,
//! * epoch-stamped fault [`Event`]s (remap, reroute, cold miss, churn),
//! * a deterministic, mergeable [`TelemetrySnapshot`].
//!
//! Everything funnels through the [`Recorder`] trait. The default
//! implementation of every method is a no-op and [`Noop`] is a unit
//! struct, so a `&Noop` on the hot path costs one predictable branch on
//! [`Recorder::is_enabled`] (callers hoist it out of per-request loops).
//! [`MemoryRecorder`] is the real sink: lock-free atomics for counters
//! and histogram buckets, a mutex-guarded `BTreeMap` for the (cold)
//! span/event timelines.
//!
//! **Determinism rule.** Telemetry must never change simulation output.
//! Parallel consumers (the replayer's worker shards) each get their own
//! `MemoryRecorder`; shards are merged in worker-index order into a
//! single [`TelemetrySnapshot`] whose maps are `BTreeMap`s, so the
//! merged snapshot — like the simulation metrics themselves — is
//! bit-for-bit reproducible at any worker count.
//!
//! This crate deliberately has **zero dependencies**: nothing here can
//! drag a serialisation framework into the hot path.

mod hist;
mod metric;
mod recorder;
mod snapshot;
mod span;

pub use hist::HistogramSnapshot;
pub use metric::{Counter, Event, Histo, Stage};
pub use recorder::{MemoryRecorder, Noop, Recorder};
pub use snapshot::TelemetrySnapshot;
pub use span::{SpanStats, SpanTimer};
