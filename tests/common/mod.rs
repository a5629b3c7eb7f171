//! Helpers shared by the checkpoint integration tests
//! (`crash_recovery.rs`, `io_torture.rs`).

use starcdn_constellation::schedule::FaultSchedule;
use starcdn_io::Io;
use starcdn_sim::{CheckpointPolicy, Checkpointing, OverloadConfig, RunSpec};
use starcdn_telemetry::Recorder;

/// The [`RunSpec`] of a checkpointed (or, with `resume`, resumed) run.
pub(crate) fn ckpt_spec<'a>(
    schedule: &'a FaultSchedule,
    overload: &OverloadConfig,
    policy: &'a CheckpointPolicy,
    rec: &'a dyn Recorder,
    io: &'a dyn Io,
    resume: bool,
) -> RunSpec<'a> {
    RunSpec {
        schedule,
        overload: *overload,
        recorder: rec,
        checkpoint: Some(Checkpointing { policy, io, resume }),
    }
}
