//! SIGINT / SIGTERM as a flag the run loops poll, so an interrupted run
//! unwinds normally and the cluster's `Drop` guard kills and reaps every
//! `lhrs-netd` child instead of orphaning them.

use std::sync::atomic::{AtomicBool, Ordering};

static INTERRUPTED: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

extern "C" {
    // `sighandler_t signal(int signum, sighandler_t handler)` from the C
    // library every Rust program on Linux already links.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

extern "C" fn on_signal(_signum: i32) {
    // Storing to an atomic is async-signal-safe.
    INTERRUPTED.store(true, Ordering::SeqCst);
}

/// Route SIGINT and SIGTERM to the flag read by [`interrupted`].
pub fn install() {
    // SAFETY: `signal` is the libc function declared above with its C
    // signature; `on_signal` has the handler signature it expects, lives
    // for the whole program, and only performs an atomic store, which is
    // allowed inside a signal handler.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Whether the process has been asked to stop.
pub fn interrupted() -> bool {
    INTERRUPTED.load(Ordering::SeqCst)
}
