//! Graceful Ctrl-C / SIGTERM for long-running sweeps.
//!
//! The serving-plane chaos sweep runs hundreds of seeded schedules; an
//! interrupted run that throws away every completed schedule wastes the
//! evidence. Sweep loops poll [`interrupted`] between schedules and, on
//! a pending signal, stop cleanly and flush a partial `BENCH_*`
//! artifact marked `"interrupted": true` instead of dying mid-write.
//!
//! No `libc` dependency exists in this workspace, so the handler is
//! registered through the C `signal(2)` symbol directly. The handler
//! body is async-signal-safe: it stores one relaxed atomic flag and
//! returns. A second signal while the flag is already set falls back to
//! the default disposition (restored by the handler) so an impatient
//! operator can still kill a wedged run.

use std::os::raw::c_int;
use std::sync::atomic::{AtomicBool, Ordering};

const SIGINT: c_int = 2;
const SIGTERM: c_int = 15;
const SIG_DFL: usize = 0;

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

extern "C" {
    fn signal(signum: c_int, handler: usize) -> usize;
}

extern "C" fn on_signal(sig: c_int) {
    // Second signal → default disposition (terminate): never trap an
    // operator who really wants the process gone.
    INTERRUPTED.store(true, Ordering::Relaxed);
    unsafe {
        signal(sig, SIG_DFL);
    }
}

/// Install the SIGINT/SIGTERM handler. Idempotent; call once at the top
/// of `main` in any bin with a long sweep loop.
pub fn install() {
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

/// Has a SIGINT/SIGTERM arrived since [`install`]?
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::Relaxed)
}

/// Conventional exit status for an interrupted sweep (128 + SIGINT),
/// used after the partial artifact is flushed.
pub const EXIT_INTERRUPTED: i32 = 130;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_starts_clear_and_install_is_idempotent() {
        install();
        install();
        assert!(!interrupted());
    }
}
