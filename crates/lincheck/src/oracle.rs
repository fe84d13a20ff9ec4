//! Failure oracles: pluggable pass/fail predicates over histories.
//!
//! The nemesis test fleet decides "did this run fail?" in four ways, one
//! oracle each: single-writer atomicity ([`AtomicSwmrOracle`], linear-time
//! checker), general linearizability ([`LinearizableOracle`], Wing–Gong
//! search), sequential consistency ([`SequentialConsistencyOracle`]) and
//! single-writer regularity ([`RegularOracle`]). The campaign **shrinker**
//! (`abd-simnet::shrink`) needs that decision as a value it can re-apply to
//! every shrunk candidate, so this module reifies it: a [`HistoryOracle`]
//! inspects a replayed history and returns `None` (property holds) or
//! `Some(reason)` (property violated, with a human-readable explanation).

use crate::history::History;
use crate::regularity::{check_regular_swmr, find_new_old_inversions, is_atomic_swmr};
use crate::sc::{check_sequential_with_limit, ScCheckResult, DEFAULT_SC_STATE_LIMIT};
use crate::wg::{check_linearizable_with_limit, CheckResult};
use std::hash::Hash;

/// A pass/fail predicate over a register history.
///
/// Implementations must be **deterministic**: the shrinker replays a
/// candidate schedule, asks the oracle once, and caches the verdict — a
/// flaky oracle would make shrinking diverge.
pub trait HistoryOracle<V> {
    /// Short stable name, recorded in repro artifacts.
    fn name(&self) -> &'static str;

    /// `Some(reason)` if `h` violates the property this oracle checks.
    fn violation(&self, h: &History<V>) -> Option<String>;
}

/// Single-writer atomicity via the linear-time unique-value checker
/// ([`is_atomic_swmr`]). The violation message names the first new/old
/// inversion found, when there is one.
#[derive(Clone, Copy, Default, Debug)]
pub struct AtomicSwmrOracle;

impl<V: Eq + Hash + std::fmt::Debug> HistoryOracle<V> for AtomicSwmrOracle {
    fn name(&self) -> &'static str {
        "atomic-swmr"
    }

    fn violation(&self, h: &History<V>) -> Option<String> {
        if is_atomic_swmr(h) {
            return None;
        }
        let detail = find_new_old_inversions(h)
            .into_iter()
            .next()
            .map(|a| format!(": {a:?}"))
            .unwrap_or_default();
        Some(format!("history is not atomic (SWMR checker){detail}"))
    }
}

/// General linearizability via the memoized Wing–Gong search, with a state
/// budget so adversarial histories cannot hang the shrinker. A search that
/// exhausts its budget counts as a **pass** (no violation proven) — the
/// shrinker must never keep a candidate on an unproven verdict.
#[derive(Clone, Copy, Debug)]
pub struct LinearizableOracle {
    /// Maximum number of memoized search states to explore.
    pub state_limit: usize,
}

impl Default for LinearizableOracle {
    fn default() -> Self {
        LinearizableOracle {
            state_limit: 1_000_000,
        }
    }
}

impl<V: Eq + Hash + Clone + std::fmt::Debug> HistoryOracle<V> for LinearizableOracle {
    fn name(&self) -> &'static str {
        "linearizable"
    }

    fn violation(&self, h: &History<V>) -> Option<String> {
        match check_linearizable_with_limit(h, self.state_limit) {
            CheckResult::Linearizable => None,
            CheckResult::NotLinearizable => {
                Some("history is not linearizable (Wing-Gong search)".to_string())
            }
            CheckResult::Unknown => None,
        }
    }
}

/// Sequential consistency via the exact memoized search in [`crate::sc`],
/// with the same budget discipline as [`LinearizableOracle`]: an exhausted
/// search counts as a pass (no violation proven).
///
/// Sits strictly between [`AtomicSwmrOracle`] and [`RegularOracle`] in the
/// consistency hierarchy: every atomic history is sequential, and a
/// sequential violation that regularity cannot see is exactly a *same
/// client* observing values against its own program order.
#[derive(Clone, Copy, Debug)]
pub struct SequentialConsistencyOracle {
    /// Maximum number of memoized search states to explore.
    pub state_limit: usize,
}

impl Default for SequentialConsistencyOracle {
    fn default() -> Self {
        SequentialConsistencyOracle {
            state_limit: DEFAULT_SC_STATE_LIMIT,
        }
    }
}

impl<V: Eq + Hash + Clone + std::fmt::Debug> HistoryOracle<V> for SequentialConsistencyOracle {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn violation(&self, h: &History<V>) -> Option<String> {
        match check_sequential_with_limit(h, self.state_limit) {
            ScCheckResult::Sequential => None,
            ScCheckResult::NotSequential => Some(
                "history is not sequentially consistent (no total order respects program order)"
                    .to_string(),
            ),
            ScCheckResult::Unknown => None,
        }
    }
}

/// Regularity for single-writer unique-value histories, via the linear-time
/// detectors in [`crate::regularity`]: a violation is a phantom value, a
/// read of an overwritten (stale) value, or a read of a not-yet-started
/// write. New/old inversions are deliberately *not* flagged — they are what
/// separates regular from atomic.
#[derive(Clone, Copy, Default, Debug)]
pub struct RegularOracle;

impl<V: Eq + Hash + std::fmt::Debug> HistoryOracle<V> for RegularOracle {
    fn name(&self) -> &'static str {
        "regular-swmr"
    }

    fn violation(&self, h: &History<V>) -> Option<String> {
        check_regular_swmr(h)
            .into_iter()
            .next()
            .map(|a| format!("history is not regular (SWMR checker): {a:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RegAction;

    fn stale_history() -> History<u32> {
        let mut h = History::new(0u32);
        h.push(0, RegAction::Write(1), 0, 10);
        h.push(1, RegAction::Read(1), 20, 30);
        h.push(2, RegAction::Read(0), 40, 50); // stale after a newer read
        h
    }

    #[test]
    fn atomic_oracle_passes_clean_history() {
        let mut h = History::new(0u32);
        h.push(0, RegAction::Write(1), 0, 10);
        h.push(1, RegAction::Read(1), 20, 30);
        assert_eq!(AtomicSwmrOracle.violation(&h), None);
        assert_eq!(HistoryOracle::<u32>::name(&AtomicSwmrOracle), "atomic-swmr");
    }

    #[test]
    fn atomic_oracle_flags_stale_read_with_reason() {
        let v = AtomicSwmrOracle.violation(&stale_history());
        assert!(v.is_some());
        assert!(v.unwrap().contains("not atomic"));
    }

    #[test]
    fn linearizable_oracle_agrees_on_both_verdicts() {
        let o = LinearizableOracle::default();
        assert!(o.violation(&stale_history()).is_some());
        let mut h = History::new(0u32);
        h.push(0, RegAction::Write(1), 0, 10);
        h.push(1, RegAction::Read(1), 20, 30);
        assert_eq!(o.violation(&h), None);
    }

    /// Cross-client new/old inversion under a concurrent write: not
    /// atomic, but both sequentially consistent and regular.
    fn cross_client_inversion_history() -> History<u32> {
        let mut h = History::new(0u32);
        h.push(0, RegAction::Write(1), 0, 100);
        h.push(1, RegAction::Read(1), 10, 20);
        h.push(2, RegAction::Read(0), 30, 40);
        h
    }

    /// The same inversion observed by a *single* client: still regular
    /// (both reads race the write) but no longer sequentially consistent —
    /// the client's own view moved backwards.
    fn same_client_inversion_history() -> History<u32> {
        let mut h = History::new(0u32);
        h.push(0, RegAction::Write(1), 0, 100);
        h.push(1, RegAction::Read(1), 10, 20);
        h.push(1, RegAction::Read(0), 30, 40);
        h
    }

    #[test]
    fn tier_discrimination_matrix() {
        let sc_oracle = SequentialConsistencyOracle::default();
        // Cross-client inversion: atomic ✗, sequential ✓, regular ✓.
        let inv = cross_client_inversion_history();
        assert!(AtomicSwmrOracle.violation(&inv).is_some());
        assert_eq!(sc_oracle.violation(&inv), None);
        assert_eq!(RegularOracle.violation(&inv), None);
        // Same-client inversion: atomic ✗, sequential ✗, regular ✓.
        let same = same_client_inversion_history();
        assert!(AtomicSwmrOracle.violation(&same).is_some());
        assert!(sc_oracle.violation(&same).is_some());
        assert_eq!(RegularOracle.violation(&same), None);
        // Phantom (never-written) value: every tier rejects.
        let mut ph = History::new(0u32);
        ph.push(0, RegAction::Write(1), 0, 10);
        ph.push(1, RegAction::Read(42), 20, 30);
        assert!(AtomicSwmrOracle.violation(&ph).is_some());
        assert!(sc_oracle.violation(&ph).is_some());
        assert!(RegularOracle.violation(&ph).is_some());
    }

    #[test]
    fn tier_oracle_names_are_stable() {
        assert_eq!(
            HistoryOracle::<u32>::name(&SequentialConsistencyOracle::default()),
            "sequential"
        );
        assert_eq!(HistoryOracle::<u32>::name(&RegularOracle), "regular-swmr");
    }

    #[test]
    fn regular_oracle_reason_names_the_anomaly() {
        let mut h = History::new(0u32);
        h.push(0, RegAction::Write(1), 0, 10);
        h.push(1, RegAction::Read(7), 20, 30);
        let v = RegularOracle.violation(&h).unwrap();
        assert!(v.contains("not regular"), "{v}");
    }

    #[test]
    fn sc_oracle_exhausted_budget_is_not_a_violation() {
        let mut h = History::new(0u32);
        for c in 0..6 {
            h.push(c, RegAction::Write(c as u32 + 1), 0, 100);
        }
        let o = SequentialConsistencyOracle { state_limit: 1 };
        assert_eq!(o.violation(&h), None);
    }

    #[test]
    fn exhausted_search_budget_is_not_a_violation() {
        // A wide contended history with a 1-state budget: the search gives
        // up immediately, which must read as "no violation proven".
        let mut h = History::new(0u32);
        for c in 0..6 {
            h.push(c, RegAction::Write(c as u32 + 1), 0, 100);
        }
        let o = LinearizableOracle { state_limit: 1 };
        assert_eq!(o.violation(&h), None);
    }
}
