//! Minimal SIGTERM/SIGINT hook.
//!
//! No `libc` crate is available, so on Unix this declares the C `signal`
//! entry point directly and installs an async-signal-safe handler that
//! only flips an atomic flag. The accept loop polls the flag and turns it
//! into a graceful drain — `kill <pid>` behaves exactly like
//! `POST /shutdown`. On non-Unix targets this module is a no-op.

use std::sync::atomic::{AtomicBool, Ordering};

static TERMINATION: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
mod imp {
    use super::{AtomicBool, Ordering};

    /// Flag the handler flips; separate from the public one so tests can
    /// exercise the public API without raising real signals.
    pub(super) static INSTALLED: AtomicBool = AtomicBool::new(false);

    type Handler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: Handler) -> usize;
    }

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_terminate(_signum: i32) {
        // Only async-signal-safe work here: one atomic store.
        super::TERMINATION.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        if INSTALLED.swap(true, Ordering::SeqCst) {
            return;
        }
        // SAFETY: `signal` is the C standard library's handler
        // registration; `on_terminate` is a valid `extern "C" fn(i32)`
        // that performs only async-signal-safe operations.
        unsafe {
            signal(SIGTERM, on_terminate);
            signal(SIGINT, on_terminate);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub(super) fn install() {}
}

/// Install the SIGTERM/SIGINT handler (idempotent).
pub(crate) fn install() {
    imp::install();
}

/// True once a termination signal has been received.
pub(crate) fn termination_requested() -> bool {
    TERMINATION.load(Ordering::SeqCst)
}
