//! Shared infrastructure for the bench binaries: `reproduce`, which
//! regenerates every table, figure and ablation of the paper by name,
//! and the `checkpoint_overhead` and `serve_soak` harnesses.
//!
//! `reproduce` accepts:
//!
//! * `--scale smoke|default|full` — workload size (smoke finishes in
//!   seconds for CI; default reproduces shapes in ~a minute; full runs
//!   the longest traces);
//! * `--seed <u64>` — RNG seed (default 42).
//!
//! Cache sizes are labelled in the paper's "GB" units and mapped to
//! simulated bytes via a per-class scale factor chosen so the
//! cache : working-set ratio regime matches the paper's (10–100 GB
//! against a 24 TB video working set); see
//! [`workload::cache_bytes_for_gb`] and EXPERIMENTS.md.

pub mod args;
pub mod interrupt;
pub mod output;
pub mod table;
pub mod workload;

pub use args::{parse_args, Args, Flags, Scale};
