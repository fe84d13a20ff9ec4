//! The runtime's wall-clock implementation of [`Clock`].
//!
//! This file is the **only** place in the workspace allowed to touch
//! `std::time::Instant`: everything else in the runtime computes deadlines
//! in `Nanos` through an injected `Arc<dyn Clock>`, so tests can substitute
//! [`ManualClock`], and the crate's
//! `clippy.toml` pins nondeterministic time to the sites below, each under
//! an `expect` that fails once its cause is gone.
//! Beside it, `request_exact_timers` makes a node thread's waits for
//! those deadlines end when they say.

pub use abd_core::clock::{Clock, ManualClock, TickClock};

use abd_core::types::Nanos;
#[expect(
    clippy::disallowed_types,
    reason = "MonotonicClock is the one bridge from OS time to the Clock abstraction; \
              all other runtime code takes a Clock and stays testable with ManualClock"
)]
use std::time::Instant;

/// Real monotone time, anchored at the moment the clock was created.
#[derive(Clone, Debug)]
#[expect(
    clippy::disallowed_types,
    reason = "its epoch is the OS time it bridges from"
)]
pub struct MonotonicClock {
    epoch: Instant,
}

impl MonotonicClock {
    /// A wall clock whose epoch is "now".
    pub(crate) fn new() -> Self {
        #[expect(
            clippy::disallowed_methods,
            clippy::disallowed_types,
            reason = "the single Instant::now() read that anchors the runtime's timebase"
        )]
        let epoch = Instant::now();
        MonotonicClock { epoch }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now(&self) -> Nanos {
        self.epoch.elapsed().as_nanos() as Nanos
    }
}

/// Asks the kernel to end the calling thread's timed waits on time: Linux
/// lets a wait overshoot by the thread's timer slack, 50 µs by default, so
/// a 50 µs wait would last ≈ 100 µs. This sets the slack to 1 ns (writing
/// `0` would restore the default instead). `/proc/thread-self` has no
/// `timerslack_ns` of its own, so the file is reached by the thread's id.
///
/// Best-effort: does nothing off Linux or where `/proc` refuses the write.
pub(crate) fn request_exact_timers() {
    if let Some(path) = timerslack_path() {
        let _ = std::fs::write(path, "1");
    }
}

/// `/proc/<tid>/timerslack_ns` of the calling thread, if `/proc` names it.
pub(crate) fn timerslack_path() -> Option<String> {
    let link = std::fs::read_link("/proc/thread-self").ok()?;
    let tid = link.file_name()?.to_str()?;
    Some(format!("/proc/{tid}/timerslack_ns"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_moves_forward() {
        let c = MonotonicClock::new();
        let a = c.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        let b = c.now();
        assert!(b > a, "clock did not advance: {a} -> {b}");
    }
}
