//! Output checks shared by the workloads: every key of a store is an
//! independent atomic register, so a run is correct when each key's history
//! is linearizable.

use crate::stats::Report;
use abd_lincheck::history::{History, RegAction};
use abd_lincheck::wg::{check_linearizable_with_limit, CheckResult};
use std::collections::BTreeMap;

/// Operations of one key checked per run. Wing–Gong is super-linear in the
/// history length (see `lincheck.wg.us_per_op_*`), so the check takes a
/// prefix; 64 operations at the workloads' concurrency decide in
/// microseconds.
pub const PREFIX: usize = 64;
/// Search states the checker may visit per key before answering `Unknown`.
const STATE_LIMIT: usize = 2_000_000;

/// One completed operation on one key. Times are on any one clock (wall or
/// virtual), `value` is what was written or what was read.
#[derive(Clone, Copy, Debug)]
pub struct KeyedOp {
    pub key: u64,
    pub client: usize,
    pub is_put: bool,
    pub value: u64,
    pub start: u64,
    pub end: u64,
}

/// The first [`PREFIX`] operations of one key by start time, as a history
/// that is linearizable whenever the full one is. Cutting at the start `T`
/// of the first excluded operation drops only operations that began at or
/// after `T`; a kept read that ended after `T` could have seen a dropped
/// write, so such reads are dropped too (removing a read never breaks
/// linearizability; every kept read then ended before any dropped write
/// began).
pub fn prefix_history(ops: &mut [KeyedOp], initial: u64) -> History<u64> {
    ops.sort_by_key(|o| (o.start, o.end));
    let cut = ops.get(PREFIX).map(|o| o.start);
    let mut h = History::new(initial);
    for o in ops.iter().take(PREFIX) {
        if !o.is_put && cut.is_some_and(|t| o.end > t) {
            continue;
        }
        let action = if o.is_put {
            RegAction::Write(o.value)
        } else {
            RegAction::Read(o.value)
        };
        h.push(o.client, action, o.start, o.end);
    }
    h
}

/// What the per-key checks of a run added up to.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub keys: usize,
    pub ops: usize,
    /// Keys whose search hit the state limit before deciding.
    pub unknown: usize,
    pub violations: usize,
}

impl Tally {
    pub fn note(&self, what: &str, out: &mut Report) {
        out.note(format!(
            "{what}: linearizability checked on {} key histories, {} ops; {} unknown (state limit), {} violations",
            self.keys, self.ops, self.unknown, self.violations
        ));
    }
}

/// Checks every key's prefix history and adds the outcome to `tally`.
/// `NotLinearizable` is a problem; `Unknown` is only counted.
pub fn check_per_key(
    what: &str,
    ops: &[KeyedOp],
    initial: fn(u64) -> u64,
    tally: &mut Tally,
    out: &mut Report,
) {
    let mut by_key: BTreeMap<u64, Vec<KeyedOp>> = BTreeMap::new();
    for o in ops {
        by_key.entry(o.key).or_default().push(*o);
    }
    for (key, mut key_ops) in by_key {
        let h = prefix_history(&mut key_ops, initial(key));
        tally.keys += 1;
        tally.ops += h.len();
        match check_linearizable_with_limit(&h, STATE_LIMIT) {
            CheckResult::Linearizable => {}
            CheckResult::Unknown => tally.unknown += 1,
            CheckResult::NotLinearizable => {
                tally.violations += 1;
                if tally.violations <= 3 {
                    out.problem(format!("{what}: key {key} is not linearizable: {h:?}"));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(client: usize, is_put: bool, value: u64, start: u64, end: u64) -> KeyedOp {
        KeyedOp {
            key: 0,
            client,
            is_put,
            value,
            start,
            end,
        }
    }

    #[test]
    fn stale_read_is_convicted_and_clean_history_acquitted() {
        let clean = [op(0, true, 5, 0, 10), op(1, false, 5, 20, 30)];
        let mut out = Report::default();
        let mut tally = Tally::default();
        check_per_key("t", &clean, |_| 0, &mut tally, &mut out);
        assert!(out.correct());
        let stale = [
            op(0, true, 5, 0, 10),
            op(1, false, 5, 20, 30),
            op(1, false, 0, 40, 50),
        ];
        check_per_key("t", &stale, |_| 0, &mut tally, &mut out);
        assert!(!out.correct());
        assert_eq!((tally.keys, tally.violations), (2, 1));
    }

    #[test]
    fn prefix_cut_drops_reads_that_may_have_seen_a_dropped_write() {
        // 64 sequential reads of the initial value, then a 65th op — a
        // write that starts while read #64 is still running — whose value
        // that read returns. The full history is linearizable; a naive
        // 64-op prefix would show a read of a value nobody wrote.
        let mut ops: Vec<KeyedOp> = (0..63)
            .map(|i| op(0, false, 0, i * 10, i * 10 + 5))
            .collect();
        ops.push(op(0, false, 77, 630, 700));
        ops.push(op(1, true, 77, 640, 650));
        let h = prefix_history(&mut ops, 0);
        assert_eq!(h.len(), 63, "the straddling read must be dropped");
        assert_eq!(
            check_linearizable_with_limit(&h, STATE_LIMIT),
            CheckResult::Linearizable
        );
    }
}
