//! Discrete-time LEO CDN simulation engine (§5.1).
//!
//! This crate replaces the paper's two-stage pipeline — Microsoft's
//! CosmicBeats simulator feeding a multi-process TCP cache replayer —
//! with:
//!
//! * [`world`] — the simulated world: constellation, grid, user
//!   locations, failures;
//! * [`scheduler`] — the client link scheduler: every 15 s epoch
//!   (Starlink's global scheduler reconfiguration interval) each
//!   location's virtual users are (re)assigned to one of the best
//!   visible satellites;
//! * [`access_log`] — per-request first-contact assignments, the
//!   analog of CosmicBeats' per-satellite access logs, one row per
//!   request; built by one per-entry loop, run over the whole trace or
//!   over epoch-aligned chunks on threads
//!   ([`access_log::build_access_log_parallel`]) with bit-for-bit
//!   identical output;
//! * [`engine`] — the deterministic single-threaded replay of an access
//!   log through a [`starcdn::system::SpaceCdn`] or a baseline;
//! * [`replayer`] — scoped worker threads over owner-sharded op
//!   streams, after the paper's process-per-satellite architecture
//!   (shared memory instead of TCP — DESIGN.md substitution #3). Both
//!   run one request lifecycle: the private `resolve` module decides
//!   everything that needs no cache (route, overload admission, direct
//!   accounting) and [`starcdn::kernel::serve_one`] serves the rest;
//! * [`experiment`] — one-call runners used by the per-figure
//!   experiment binaries.
//!
//! One description drives both: a [`RunSpec`] (fault schedule, overload
//! lifecycle, telemetry recorder, checkpoint/resume — each free at
//! its default) goes to [`engine::run`] or
//! [`replayer::run`] together with an [`AccessLog`]. Recording never
//! changes simulation output (the replayer merges per-worker recorders
//! in shard index order, so even its telemetry is deterministic). The
//! `run_space*` and `replay_parallel*` functions are those two calls
//! under the names the frozen `benchmark/` package links against, as
//! are [`AccessLogColumns`] and the `build_access_log_columns*`
//! builders (the log under the names of a struct-of-arrays layout it no
//! longer has, kept in the private `columns` module).

pub mod access_log;
pub mod checkpoint;
mod codec;
mod columns;
#[cfg(test)]
mod coverage;
pub mod engine;
mod epoch_chunks;
pub mod experiment;
pub mod overload;
pub mod replayer;
mod replayer_checkpoint;
mod resolve;
pub mod scheduler;
pub mod serve;
pub mod transfers;
pub mod world;

pub use access_log::{build_access_log, build_access_log_recorded, AccessLog, AccessLogEntry};
pub use checkpoint::{
    list_checkpoint_files, metrics_digest, sweep_stale_tmps, validate_checkpoint_bytes,
    CheckpointError, CheckpointPolicy, Checkpointing,
};
pub use columns::{build_access_log_columns, build_access_log_columns_parallel, AccessLogColumns};
pub use engine::{
    run_space, run_space_columns, run_space_columns_recorded, run_space_overloaded,
    run_space_overloaded_columns, run_space_overloaded_columns_recorded, RunSpec, SimConfig,
};
pub use overload::OverloadConfig;
pub use replayer::{replay_parallel, replay_parallel_overloaded};
pub use serve::{decode_drain, ServePlan, ShardState};
/// The one wire byte layer, for crates that reach `starcdn-io` through
/// this one (`starcdn-net`'s frame codec).
pub use starcdn_io::wire;
pub use wire::crc32;
pub use world::World;
