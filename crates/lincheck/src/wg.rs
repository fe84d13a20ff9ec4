//! A Wing–Gong style linearizability checker for register histories.
//!
//! The checker searches for a *linearization*: a total order of the
//! operations that (a) respects real time — if `a` responded before `b` was
//! invoked, `a` comes first — and (b) is legal for a sequential read/write
//! register — every read returns the most recently written value. Pending
//! writes (from crashed clients) are optional: they may take effect at any
//! point after their invocation, or never.
//!
//! The search memoizes on `(set of linearized operations, current value)`,
//! the standard Wing–Gong optimization: two interleavings that linearized
//! the same set and left the register in the same state are
//! interchangeable. It walks that state space through the *concurrency
//! window*. With the completed operations sorted by invocation, let the
//! *horizon* of a state be the earliest response among those not yet
//! linearized. Whatever was invoked after the horizon must wait for the
//! operation that responds there; whatever was invoked by it has already
//! outlived every operation that could precede it — those responded before
//! the horizon, so they are linearized. The only operations that can come
//! next are therefore the unlinearized ones invoked by the horizon: as many
//! as there are clients plus pending writes, however long the history.
//!
//! Three consequences, all exact:
//!
//! * **Time** is states × window. No predecessor table is built; the one
//!   precedence the horizon does not settle — two operations of one client
//!   whose intervals touch exactly there — is checked inside the window.
//! * **Branching** is over writes only. A read that can go next and returns
//!   the current value goes next (moving it to the front of any
//!   linearization of the rest keeps it one), and a pending write is tried
//!   only where a read that can go next is waiting for its value (a pending
//!   write nobody reads right away can be dropped from any linearization).
//!   A history without concurrent writes is decided in one state per
//!   operation.
//! * **Memory** per state is relative to the window: the linearized set is
//!   a cursor (everything invoked before it) plus the bits of the window
//!   beyond it, so a state key is a few words at any history length.
//!
//! A configurable state cap turns the histories that remain hard — many
//! concurrent writes — into an explicit [`CheckResult::Unknown`] instead
//! of an unbounded search.

// The hasher lives in `abd-core`; this crate depends on nothing, so it
// compiles the same file rather than grow a dependency edge.
#[path = "../../core/src/fasthash.rs"]
mod fasthash;

use crate::history::{History, RegAction};
use fasthash::FastBuild;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;

/// Verdict of a linearizability check.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CheckResult {
    /// A linearization exists (the history is atomic).
    Linearizable,
    /// No linearization exists (the history is **not** atomic).
    NotLinearizable,
    /// The state cap was hit before the search concluded.
    Unknown,
}

/// Default cap on distinct memoized states explored.
pub const DEFAULT_STATE_LIMIT: usize = 2_000_000;

struct Op {
    /// Position in the history, completed operations before pending
    /// writes: the tie-break of [`precedes`].
    idx: usize,
    client: usize,
    start: u64,
    end: Option<u64>, // None for pending writes
    kind: Kind,
}

/// Real-time (plus program-order) precedence: `j` must be linearized before
/// `i`. Distinct clients are ordered only when `j` responded strictly before
/// `i` was invoked; operations of the *same* (sequential) client are also
/// ordered when their intervals merely touch (`j.end == i.start`), with the
/// original history index breaking ties between degenerate equal intervals.
fn precedes(j: &Op, i: &Op) -> bool {
    let Some(jend) = j.end else { return false };
    if jend < i.start {
        return true;
    }
    j.client == i.client
        && jend <= i.start
        && (j.start < i.start || (j.start == i.start && j.idx < i.idx))
}

#[derive(Clone, Copy)]
enum Kind {
    Write(u32),
    Read(u32),
}

/// Bit `k` of a bit vector that leaves its trailing zero words out.
fn has_bit(words: &[u64], k: usize) -> bool {
    words
        .get(k / 64)
        .is_some_and(|word| word & (1 << (k % 64)) != 0)
}

fn set_bit(words: &mut Vec<u64>, k: usize) {
    if words.len() <= k / 64 {
        words.resize(k / 64 + 1, 0);
    }
    words[k / 64] |= 1 << (k % 64);
}

/// The completed operations linearized so far, by position in invocation
/// order: everything before word `base`, plus the set bits of `lo` (word
/// `base`) and `hi` (the words after it). Canonical — `lo` is never full
/// and `hi` never ends in a zero word — so equal sets compare and hash
/// equal, and the words kept are the window's, not the history's.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
struct Linearized {
    base: u32,
    lo: u64,
    hi: Vec<u64>,
}

impl Linearized {
    /// The first position not in the set.
    fn cursor(&self) -> usize {
        self.base as usize * 64 + self.lo.trailing_ones() as usize
    }

    fn contains(&self, i: usize) -> bool {
        match i.checked_sub(self.base as usize * 64) {
            None => true,
            Some(r) if r < 64 => self.lo & (1 << r) != 0,
            Some(r) => has_bit(&self.hi, r - 64),
        }
    }

    /// Adds `i`, which must be at or after the cursor.
    fn insert(&mut self, i: usize) {
        match i - self.base as usize * 64 {
            r if r < 64 => self.lo |= 1 << r,
            r => set_bit(&mut self.hi, r - 64),
        }
        while self.lo == u64::MAX {
            self.base += 1;
            self.lo = if self.hi.is_empty() {
                0
            } else {
                self.hi.remove(0)
            };
        }
    }
}

/// A memoized search state.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
struct State {
    done: Linearized,
    /// Pending writes that took effect, one bit each in invocation order.
    used: Vec<u64>,
    value: u32,
}

impl State {
    fn after(&self, i: usize, value: u32) -> State {
        let mut next = self.clone();
        next.done.insert(i);
        next.value = value;
        next
    }

    fn after_pending(&self, k: usize, value: u32) -> State {
        let mut next = self.clone();
        set_bit(&mut next.used, k);
        next.value = value;
        next
    }
}

/// Checks linearizability with the default state cap.
pub fn check_linearizable<V: Eq + Hash + Clone>(h: &History<V>) -> CheckResult {
    check_linearizable_with_limit(h, DEFAULT_STATE_LIMIT)
}

/// Checks linearizability, giving up with [`CheckResult::Unknown`] after
/// exploring `state_limit` distinct states.
pub fn check_linearizable_with_limit<V: Eq + Hash + Clone>(
    h: &History<V>,
    state_limit: usize,
) -> CheckResult {
    check_linearizable_counting_states(h, state_limit).0
}

/// [`check_linearizable_with_limit`], also returning how many distinct
/// states the search memoized — the quantity `state_limit` caps — so a
/// caller can report how far from its cap a verdict was.
pub fn check_linearizable_counting_states<V: Eq + Hash + Clone>(
    h: &History<V>,
    state_limit: usize,
) -> (CheckResult, usize) {
    let (ops, pending) = sorted_ops(h);

    let mut visited: HashSet<State, FastBuild> = HashSet::default();
    let mut stack = vec![State::default()];
    visited.insert(State::default());
    let mut next = Vec::new();

    while let Some(state) = stack.pop() {
        // Success: every *completed* op linearized (pending may dangle).
        if state.done.cursor() == ops.len() {
            return (CheckResult::Linearizable, visited.len());
        }
        if visited.len() >= state_limit {
            return (CheckResult::Unknown, visited.len());
        }
        successors(&ops, &pending, &state, &mut next);
        // Depth-first, most promising successor (first in `next`) on top.
        for s in next.drain(..).rev() {
            if visited.insert(s.clone()) {
                stack.push(s);
            }
        }
    }
    (CheckResult::NotLinearizable, visited.len())
}

/// The history's completed operations and its pending writes, each sorted
/// by invocation, with values interned as dense indices (0 is the initial
/// value).
fn sorted_ops<V: Eq + Hash>(h: &History<V>) -> (Vec<Op>, Vec<Op>) {
    let mut dense: HashMap<&V, u32, FastBuild> = HashMap::default();
    dense.insert(h.initial(), 0);
    let mut intern = |v| {
        let fresh = dense.len() as u32;
        *dense.entry(v).or_insert(fresh)
    };

    let mut ops: Vec<Op> = Vec::with_capacity(h.len());
    for (idx, c) in h.ops().iter().enumerate() {
        let kind = match &c.action {
            RegAction::Write(v) => Kind::Write(intern(v)),
            RegAction::Read(v) => Kind::Read(intern(v)),
        };
        ops.push(Op {
            idx,
            client: c.client,
            start: c.start,
            end: Some(c.end),
            kind,
        });
    }
    let mut pending: Vec<Op> = Vec::with_capacity(h.pending_writes().len());
    for (k, (client, v, start)) in h.pending_writes().iter().enumerate() {
        pending.push(Op {
            idx: h.len() + k,
            client: *client,
            start: *start,
            end: None,
            kind: Kind::Write(intern(v)),
        });
    }
    ops.sort_by_key(|op| (op.start, op.idx));
    pending.sort_by_key(|op| (op.start, op.idx));
    (ops, pending)
}

/// Writes into `out` every state one linearized operation away from `s`
/// that the search has to consider, most promising first. `s` must have a
/// completed operation left.
fn successors(ops: &[Op], pending: &[Op], s: &State, out: &mut Vec<State>) {
    // Scan from the cursor while operations were invoked by the horizon,
    // the earliest response among the undone ones seen so far; sorted by
    // invocation, nothing beyond the scan can lower it.
    let first = s.done.cursor();
    let mut horizon = u64::MAX;
    let mut end = first;
    while end < ops.len() && ops[end].start <= horizon {
        if let (false, Some(response)) = (s.done.contains(end), ops[end].end) {
            horizon = horizon.min(response);
        }
        end += 1;
    }
    let undone = || (first..end).filter(|&i| !s.done.contains(i));
    // An operation invoked by the horizon has every predecessor done: they
    // responded before it. The exception is a predecessor by program order
    // alone, which responds exactly at the horizon, at `op`'s invocation.
    let can_go = |op: &Op| {
        op.start <= horizon && !(op.start == horizon && undone().any(|j| precedes(&ops[j], op)))
    };
    let candidates = || undone().filter(|&i| can_go(&ops[i]));
    let read_of =
        |value: u32| candidates().find(|&i| matches!(ops[i].kind, Kind::Read(v) if v == value));

    // A read of the current value commutes to the front of any
    // linearization of what is left: take it, consider nothing else.
    if let Some(i) = read_of(s.value) {
        out.push(s.after(i, s.value));
        return;
    }
    for i in candidates() {
        if let Kind::Write(v) = ops[i].kind {
            out.push(s.after(i, v));
        }
    }
    // A pending write that no read observes before the next write can be
    // deleted from a linearization, so it is worth taking only where a read
    // that can go next returns its value and the register does not hold it.
    for (k, p) in pending.iter().enumerate() {
        if p.start > horizon {
            break;
        }
        let Kind::Write(v) = p.kind else { continue };
        if v != s.value && !has_bit(&s.used, k) && can_go(p) && read_of(v).is_some() {
            out.push(s.after_pending(k, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::History;
    use crate::history::RegAction::{Read, Write};

    fn lin<V: Eq + Hash + Clone>(h: &History<V>) -> bool {
        match check_linearizable(h) {
            CheckResult::Linearizable => true,
            CheckResult::NotLinearizable => false,
            CheckResult::Unknown => panic!("state limit hit in test"),
        }
    }

    #[test]
    fn empty_history_is_linearizable() {
        let h: History<u32> = History::new(0);
        assert!(lin(&h));
    }

    #[test]
    fn sequential_write_then_read() {
        let mut h = History::new(0);
        h.push(0, Write(1), 0, 10);
        h.push(1, Read(1), 20, 30);
        assert!(lin(&h));
    }

    #[test]
    fn read_of_initial_value() {
        let mut h = History::new(7);
        h.push(0, Read(7), 0, 10);
        assert!(lin(&h));
    }

    #[test]
    fn read_of_never_written_value_fails() {
        let mut h = History::new(0);
        h.push(0, Write(1), 0, 10);
        h.push(1, Read(9), 20, 30);
        assert!(!lin(&h));
    }

    #[test]
    fn stale_read_after_completed_write_fails() {
        let mut h = History::new(0);
        h.push(0, Write(1), 0, 10);
        h.push(1, Read(0), 20, 30); // write finished at 10; read must see 1
        assert!(!lin(&h));
    }

    #[test]
    fn concurrent_read_may_see_either_value() {
        for ret in [0u32, 1] {
            let mut h = History::new(0);
            h.push(0, Write(1), 0, 100);
            h.push(1, Read(ret), 50, 60); // overlaps the write
            assert!(
                lin(&h),
                "read returning {ret} concurrent with write is fine"
            );
        }
    }

    #[test]
    fn new_old_inversion_fails() {
        // The anomaly the write-back prevents: r1 finishes before r2 starts,
        // r1 sees the new value, r2 the old one.
        let mut h = History::new(0);
        h.push(0, Write(1), 0, 100); // write concurrent with both reads
        h.push(1, Read(1), 10, 20);
        h.push(2, Read(0), 30, 40);
        assert!(!lin(&h));
        // Swapped returns are fine (old then new).
        let mut h2 = History::new(0);
        h2.push(0, Write(1), 0, 100);
        h2.push(1, Read(0), 10, 20);
        h2.push(2, Read(1), 30, 40);
        assert!(lin(&h2));
    }

    #[test]
    fn pending_write_may_take_effect() {
        let mut h = History::new(0);
        h.push_pending_write(0, 5, 0);
        h.push(1, Read(5), 10, 20);
        assert!(lin(&h), "pending write observed by a read");
    }

    #[test]
    fn pending_write_may_never_take_effect() {
        let mut h = History::new(0);
        h.push_pending_write(0, 5, 0);
        h.push(1, Read(0), 10, 20);
        assert!(lin(&h), "pending write ignored");
    }

    #[test]
    fn pending_write_cannot_take_effect_before_invocation() {
        let mut h = History::new(0);
        h.push(1, Read(5), 0, 10); // reads 5 before the pending write started
        h.push_pending_write(0, 5, 50);
        assert!(!lin(&h));
    }

    #[test]
    fn multi_writer_interleaving() {
        // Two concurrent writes, then reads that must agree on a single
        // winner order: 2 then 1 is observable only if w1 is ordered last.
        let mut h = History::new(0);
        h.push(0, Write(1), 0, 50);
        h.push(1, Write(2), 0, 50);
        h.push(2, Read(2), 60, 70);
        h.push(2, Read(2), 80, 90);
        assert!(lin(&h));
        // But flip-flopping reads after both writes completed are invalid.
        let mut h2 = History::new(0);
        h2.push(0, Write(1), 0, 50);
        h2.push(1, Write(2), 0, 50);
        h2.push(2, Read(2), 60, 70);
        h2.push(2, Read(1), 80, 90);
        h2.push(2, Read(2), 100, 110);
        assert!(!lin(&h2));
    }

    #[test]
    fn long_sequential_history_is_fast() {
        let mut h = History::new(0u64);
        let mut t = 0;
        for v in 1..=300u64 {
            h.push(0, Write(v), t, t + 5);
            h.push(1, Read(v), t + 10, t + 15);
            t += 20;
        }
        assert!(lin(&h));
    }

    #[test]
    fn limit_yields_unknown() {
        // Many fully concurrent writes: state space explodes; a tiny limit
        // must surface Unknown rather than hang or guess.
        let mut h = History::new(0u32);
        for i in 0..20 {
            h.push(i, Write(i as u32 + 1), 0, 1000);
        }
        h.push(30, Read(999), 2000, 2001); // unsatisfiable
        assert_eq!(check_linearizable_with_limit(&h, 100), CheckResult::Unknown);
    }

    #[test]
    fn read_own_write_across_clients_respects_real_time() {
        let mut h = History::new(0);
        h.push(0, Write(1), 0, 10);
        h.push(0, Write(2), 20, 30);
        h.push(1, Read(1), 40, 50); // 2 was completed at 30: stale
        assert!(!lin(&h));
    }

    /// The definition, executed: tries every order of the operations that
    /// respects [`precedes`], every pending write in or out, with no window
    /// and no memo.
    fn brute_force(h: &History<u32>) -> bool {
        fn go(ops: &[Op], done: &mut [bool], value: u32) -> bool {
            if ops.iter().zip(&*done).all(|(op, d)| *d || op.end.is_none()) {
                return true;
            }
            for i in 0..ops.len() {
                let blocked = |j: usize| !done[j] && precedes(&ops[j], &ops[i]);
                if done[i] || (0..ops.len()).any(blocked) {
                    continue;
                }
                let next = match ops[i].kind {
                    Kind::Write(v) => v,
                    Kind::Read(v) if v == value => v,
                    Kind::Read(_) => continue,
                };
                done[i] = true;
                let found = go(ops, done, next);
                done[i] = false;
                if found {
                    return true;
                }
            }
            false
        }
        let (mut ops, pending) = sorted_ops(h);
        ops.extend(pending);
        go(&ops, &mut vec![false; ops.len()], 0)
    }

    /// A history of at most 7 operations by at most 3 clients on a clock of
    /// 7 ticks, so intervals touch and coincide all the time; values come
    /// from running a register over random linearization points (0, 1 or 2,
    /// so writes duplicate each other and the initial value), then most
    /// histories get one read overwritten. Clients are not kept sequential:
    /// the checker's contract is `precedes`, whatever the intervals.
    fn random_history(rng: &mut rand::rngs::SmallRng) -> History<u32> {
        use rand::Rng;
        struct Draft {
            client: usize,
            start: u64,
            end: Option<u64>,
            write: bool,
            point: Option<u64>, // None: a pending write that never took effect
            value: u32,
        }
        let mut ops: Vec<Draft> = (0..rng.gen_range(1..=7))
            .map(|_| {
                let start = rng.gen_range(0..=6u64);
                let write = rng.gen_bool(0.45);
                let end = (!(write && rng.gen_bool(0.3)))
                    .then(|| start + [0, 0, 1, 2, 3][rng.gen_range(0..5usize)]);
                let point = match end {
                    Some(end) => Some(rng.gen_range(start..=end)),
                    None => rng.gen_bool(0.6).then(|| rng.gen_range(start..=8)),
                };
                Draft {
                    client: rng.gen_range(0..3),
                    start,
                    end,
                    write,
                    point,
                    value: rng.gen_range(0..=2),
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..ops.len()).filter(|&i| ops[i].point.is_some()).collect();
        order.sort_by_key(|&i| (ops[i].point, rng.gen::<u32>()));
        let mut register = 0;
        for i in order {
            if ops[i].write {
                register = ops[i].value;
            } else {
                ops[i].value = register;
            }
        }
        let reads: Vec<usize> = (0..ops.len()).filter(|&i| !ops[i].write).collect();
        if !reads.is_empty() && rng.gen_bool(0.8) {
            ops[reads[rng.gen_range(0..reads.len())]].value = rng.gen_range(0..=2);
        }
        let mut h = History::new(0);
        for op in ops {
            match (op.end, op.write) {
                (Some(end), true) => h.push(op.client, Write(op.value), op.start, end),
                (Some(end), false) => h.push(op.client, Read(op.value), op.start, end),
                (None, _) => h.push_pending_write(op.client, op.value, op.start),
            }
        }
        h
    }

    #[test]
    fn agrees_with_brute_force_on_small_histories() {
        use rand::SeedableRng;
        const CASES: usize = 6_000;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x16);
        let (mut yes, mut no, mut touching, mut pending) = (0, 0, 0, 0);
        for case in 0..CASES {
            let h = random_history(&mut rng);
            let truth = if brute_force(&h) {
                yes += 1;
                CheckResult::Linearizable
            } else {
                no += 1;
                CheckResult::NotLinearizable
            };
            assert_eq!(check_linearizable(&h), truth, "case {case}: {h}");
            // A capped search may give up, but never guesses.
            for limit in 1..4 {
                let capped = check_linearizable_with_limit(&h, limit);
                assert!(
                    capped == CheckResult::Unknown || capped == truth,
                    "case {case}, limit {limit}: {capped:?} on {h}"
                );
            }
            touching += usize::from(h.iter().any(|a| {
                h.iter()
                    .any(|b| a.client == b.client && a.end == b.start && a != b)
            }));
            pending += usize::from(!h.pending_writes().is_empty());
        }
        for (what, count) in [
            ("linearizable", yes),
            ("not linearizable", no),
            ("same-client touching or equal intervals", touching),
            ("pending writes", pending),
        ] {
            assert!(count * 5 >= CASES, "only {count} of {CASES} cases {what}");
        }
    }
}
