//! Injected time sources.
//!
//! The protocol state machines themselves never read a clock — they see
//! time only as [`TimerCmd`](crate::context::TimerCmd) deadlines handed to
//! whatever drives them. The *drivers*, however, need a notion of "now":
//! the simulator has its virtual clock, and the thread runtime used to call
//! `Instant::now()` wherever it pleased, which made its timing untestable
//! and scattered wall-clock reads across the codebase (now refused by the
//! `disallowed-methods` and `disallowed-types` of each driver crate's
//! `clippy.toml`).
//!
//! This module is the choke point: drivers take a [`Clock`] and every
//! deadline computation goes through it. The deterministic implementations
//! live here; the one wall-clock implementation
//! (`abd_runtime::clock::MonotonicClock`) lives in the runtime crate and is
//! the single `Instant` site in the workspace, each of its lines under an
//! `#[expect]`.

use crate::types::Nanos;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotone source of nanosecond timestamps, relative to its own epoch.
///
/// Implementations must be monotone (`now()` never decreases) and cheap —
/// drivers consult the clock on every loop iteration.
pub trait Clock: Send + Sync + std::fmt::Debug {
    /// Nanoseconds elapsed since the clock's epoch.
    fn now(&self) -> Nanos;
}

/// A clock that only moves when told to — for tests that want to step
/// time-dependent code deterministically.
///
/// Shared freely across threads; [`advance`](ManualClock::advance) is
/// atomic.
#[derive(Debug, Default)]
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Moves the clock forward by `delta` nanoseconds.
    pub fn advance(&self, delta: Nanos) {
        self.now.fetch_add(delta, Ordering::SeqCst);
    }

    /// Jumps the clock to `at` nanoseconds.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time — a [`Clock`] must
    /// stay monotone.
    #[cfg(test)]
    fn set(&self, at: Nanos) {
        let prev = self.now.swap(at, Ordering::SeqCst);
        assert!(
            prev <= at,
            "ManualClock::set({at}) would move time backwards from {prev}"
        );
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Nanos {
        self.now.load(Ordering::SeqCst)
    }
}

/// A strictly increasing tick counter usable as a timebase for concurrent
/// histories.
///
/// Every `now()` call returns a fresh, strictly larger value, so if
/// operation A completes before operation B begins in real time, A's end
/// tick is smaller than B's start tick — exactly the precedence structure
/// linearizability checking needs, without reading a wall clock.
#[derive(Debug, Default)]
pub struct TickClock {
    next: AtomicU64,
}

impl TickClock {
    /// A tick clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Clock for TickClock {
    fn now(&self) -> Nanos {
        self.next.fetch_add(1, Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_advances_and_sets() {
        let c = ManualClock::new();
        assert_eq!(c.now(), 0);
        c.advance(5);
        c.advance(10);
        assert_eq!(c.now(), 15);
        c.set(40);
        assert_eq!(c.now(), 40);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn manual_clock_rejects_time_travel() {
        let c = ManualClock::new();
        c.set(10);
        c.set(5);
    }

    #[test]
    fn tick_clock_is_strictly_monotone_across_threads() {
        use std::sync::Arc;
        let c = Arc::new(TickClock::new());
        let mut joins = Vec::new();
        for _ in 0..4 {
            let c = Arc::clone(&c);
            joins.push(std::thread::spawn(move || {
                (0..1000).map(|_| c.now()).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<Nanos> = Vec::new();
        for j in joins {
            let ticks = j.join().expect("tick thread panicked");
            assert!(ticks.windows(2).all(|w| w[0] < w[1]));
            all.extend(ticks);
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "ticks must be globally unique");
    }
}
