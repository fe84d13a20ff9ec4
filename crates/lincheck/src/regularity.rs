//! Fast detectors for the weaker register semantics in Lamport's hierarchy:
//! **safe** and **regular** registers, plus the *new/old inversion* anomaly
//! separating regular from atomic.
//!
//! These checkers are specialized to **single-writer histories with unique
//! write values** (every write writes a distinct value — how all the
//! experiment workloads are generated) and run in `O(ops²)` worst case,
//! cheap enough to scan tens of thousands of adversarial schedules where
//! the full Wing–Gong search would be overkill (experiment **T5**).
//!
//! Definitions used (single writer, so writes are totally ordered by their
//! non-overlapping intervals):
//!
//! * a read is **safe-legal** when, if it overlaps no write, it returns the
//!   latest write completed before it started (reads overlapping writes may
//!   return anything that was ever written — we still flag values that were
//!   never written at all);
//! * a read is **regular-legal** when it returns either a write it overlaps
//!   or the latest write preceding it — equivalently, a value that is not
//!   yet overwritten when the read starts and whose write has begun before
//!   the read ends;
//! * a **new/old inversion** is a pair of non-overlapping reads where the
//!   earlier read returns a newer write than the later one — permitted by
//!   regularity, forbidden by atomicity; it is exactly the anomaly the
//!   paper's write-back eliminates.
//!
//! **Pending writes** ([`History::pending_writes`] — e.g. a writer crashed
//! mid-flight under a nemesis campaign) are indexed as open-ended write
//! intervals: their value may legally be observed by any read that starts
//! after they do, and never counts as overwriting anything. Anomaly
//! indices `>= h.ops().len()` refer to pending writes, in order.

use crate::history::{CompletedOp, History, RegAction};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// An anomaly found by the fast checkers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Anomaly {
    /// A read returned a value that no write (and not the initial value)
    /// ever produced. Index into `History::ops`.
    PhantomValue {
        /// Index of the offending read in the history.
        read: usize,
    },
    /// A read returned a value that was already overwritten before the read
    /// started (violates regularity, hence also atomicity).
    StaleRead {
        /// Index of the offending read.
        read: usize,
        /// Index of the write whose value was returned (`None` = initial value).
        returned_write: Option<usize>,
        /// Index of a newer write that completed before the read started.
        overwritten_by: usize,
    },
    /// A read returned a value whose write had not started when the read
    /// ended (violates even safeness).
    FutureRead {
        /// Index of the offending read.
        read: usize,
        /// Index of the write whose value was returned.
        returned_write: usize,
    },
    /// Two non-overlapping reads observed writes in the wrong order
    /// (regular but not atomic).
    NewOldInversion {
        /// The earlier read (saw the newer write).
        first_read: usize,
        /// The later read (saw the older write).
        second_read: usize,
    },
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anomaly::PhantomValue { read } => {
                write!(f, "read #{read} returned a never-written value")
            }
            Anomaly::StaleRead {
                read,
                overwritten_by,
                ..
            } => {
                write!(f, "read #{read} returned a value overwritten by write #{overwritten_by} before it started")
            }
            Anomaly::FutureRead {
                read,
                returned_write,
            } => {
                write!(f, "read #{read} returned the value of write #{returned_write} which had not yet started")
            }
            Anomaly::NewOldInversion {
                first_read,
                second_read,
            } => {
                write!(f, "new/old inversion: read #{first_read} saw a newer write than later read #{second_read}")
            }
        }
    }
}

/// Pre-indexed single-writer history.
/// One interval in the indexed history: a completed operation, or a
/// pending write (a write whose client crashed mid-flight) widened to an
/// open-ended interval — the write may or may not have taken effect, and
/// either outcome must be judged legal.
struct Interval<'a, V> {
    client: usize,
    value: &'a V,
    is_read: bool,
    start: u64,
    /// `u64::MAX` for pending writes: they never completed, so nothing is
    /// ever ordered after them.
    end: u64,
}

struct Indexed<'a, V> {
    /// Completed operations first (same indices as `History::ops`), then
    /// one open-ended entry per pending write.
    ops: Vec<Interval<'a, V>>,
    /// Indices of writes, sorted by start time (the writer is sequential,
    /// so start order is version order — including crash-aborted writes).
    writes: Vec<usize>,
    /// Map value → position in `writes` (version number, 1-based; 0 is the
    /// initial value).
    version_of: HashMap<&'a V, usize>,
}

/// Real-time (plus program-order) precedence between operations, matching
/// the convention of the Wing–Gong checker: distinct clients are ordered
/// only by strict interval separation; same-client operations are also
/// ordered when their intervals merely touch.
fn precedes<V>(a: &Interval<'_, V>, b: &Interval<'_, V>) -> bool {
    a.end < b.start || (a.client == b.client && a.end <= b.start && a.start < b.start)
}

fn index_history<V: Eq + Hash>(h: &History<V>) -> Indexed<'_, V> {
    let mut ops: Vec<Interval<'_, V>> = h
        .ops()
        .iter()
        .map(|op: &CompletedOp<V>| {
            let (value, is_read) = match &op.action {
                RegAction::Read(v) => (v, true),
                RegAction::Write(v) => (v, false),
            };
            Interval {
                client: op.client,
                value,
                is_read,
                start: op.start,
                end: op.end,
            }
        })
        .collect();
    for (client, value, start) in h.pending_writes() {
        ops.push(Interval {
            client: *client,
            value,
            is_read: false,
            start: *start,
            end: u64::MAX,
        });
    }
    let mut writes: Vec<usize> = (0..ops.len()).filter(|&i| !ops[i].is_read).collect();
    writes.sort_by_key(|&i| ops[i].start);
    let mut version_of = HashMap::new();
    version_of.insert(h.initial(), 0);
    for (rank, &w) in writes.iter().enumerate() {
        version_of.insert(ops[w].value, rank + 1);
    }
    Indexed {
        ops,
        writes,
        version_of,
    }
}

/// Scans a single-writer unique-value history for **regularity** violations
/// (which subsume safeness violations). Returns every anomaly found, in
/// read order; an empty vector means the history is regular.
pub fn check_regular_swmr<V: Eq + Hash>(h: &History<V>) -> Vec<Anomaly> {
    let ix = index_history(h);
    let mut anomalies = Vec::new();
    for (i, op) in ix.ops.iter().enumerate() {
        if !op.is_read {
            continue;
        }
        let Some(&version) = ix.version_of.get(op.value) else {
            anomalies.push(Anomaly::PhantomValue { read: i });
            continue;
        };
        let returned_write = version.checked_sub(1).map(|r| ix.writes[r]);
        // Future read: the write of the returned value started after the
        // read ended.
        if let Some(w) = returned_write {
            if ix.ops[w].start > op.end {
                anomalies.push(Anomaly::FutureRead {
                    read: i,
                    returned_write: w,
                });
                continue;
            }
        }
        // Stale read: some strictly newer write completed before the read
        // started.
        let overwritten = ix.writes[version..] // writes with rank > version-1, i.e. newer
            .iter()
            .find(|&&w| precedes(&ix.ops[w], op));
        if let Some(&w) = overwritten {
            anomalies.push(Anomaly::StaleRead {
                read: i,
                returned_write,
                overwritten_by: w,
            });
        }
    }
    anomalies
}

/// Scans for **new/old inversions** between non-overlapping reads: the
/// earlier read observes a strictly newer version than the later read.
/// Phantom reads are skipped (report them via [`check_regular_swmr`]).
pub fn find_new_old_inversions<V: Eq + Hash>(h: &History<V>) -> Vec<Anomaly> {
    let ix = index_history(h);
    let reads: Vec<(usize, usize)> = ix
        .ops
        .iter()
        .enumerate()
        .filter(|(_, op)| op.is_read)
        .filter_map(|(i, op)| ix.version_of.get(op.value).map(|&ver| (i, ver)))
        .collect();
    let mut anomalies = Vec::new();
    for (a, (i, ver_i)) in reads.iter().enumerate() {
        for (j, ver_j) in reads[a + 1..].iter().chain(reads[..a].iter()) {
            if precedes(&ix.ops[*i], &ix.ops[*j]) && ver_i > ver_j {
                anomalies.push(Anomaly::NewOldInversion {
                    first_read: *i,
                    second_read: *j,
                });
            }
        }
    }
    anomalies
}

/// Convenience: `true` when the history is regular **and** free of new/old
/// inversions. For single-writer unique-value histories this coincides with
/// atomicity (Lamport), so it cross-validates the Wing–Gong checker.
pub fn is_atomic_swmr<V: Eq + Hash>(h: &History<V>) -> bool {
    check_regular_swmr(h).is_empty() && find_new_old_inversions(h).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::RegAction::{Read, Write};

    fn h() -> History<u32> {
        History::new(0)
    }

    #[test]
    fn clean_sequential_history_has_no_anomalies() {
        let mut hist = h();
        hist.push(0, Write(1), 0, 10);
        hist.push(1, Read(1), 20, 30);
        hist.push(0, Write(2), 40, 50);
        hist.push(1, Read(2), 60, 70);
        assert!(check_regular_swmr(&hist).is_empty());
        assert!(find_new_old_inversions(&hist).is_empty());
        assert!(is_atomic_swmr(&hist));
    }

    #[test]
    fn pending_write_may_be_observed_but_not_foreseen() {
        let mut hist = h();
        hist.push(0, Write(1), 0, 10);
        hist.push_pending_write(0, 2, 20); // writer crashed mid-write
        hist.push(1, Read(2), 30, 40); // in-flight value observed — legal
        hist.push(2, Read(2), 50, 60);
        assert!(is_atomic_swmr(&hist));
        // A read that ended before the pending write began cannot see it.
        hist.push(3, Read(2), 5, 12);
        assert!(
            matches!(check_regular_swmr(&hist)[0], Anomaly::FutureRead { .. }),
            "{:?}",
            check_regular_swmr(&hist)
        );
        // And observing it then reverting to the old value is the classic
        // new/old inversion, pending or not.
        let mut hist2 = h();
        hist2.push(0, Write(1), 0, 10);
        hist2.push_pending_write(0, 2, 20);
        hist2.push(1, Read(2), 30, 40);
        hist2.push(2, Read(1), 50, 60);
        assert!(check_regular_swmr(&hist2).is_empty());
        assert!(!find_new_old_inversions(&hist2).is_empty());
        assert!(!is_atomic_swmr(&hist2));
    }

    #[test]
    fn phantom_value_detected() {
        let mut hist = h();
        hist.push(0, Write(1), 0, 10);
        hist.push(1, Read(99), 20, 30);
        let a = check_regular_swmr(&hist);
        assert_eq!(a, vec![Anomaly::PhantomValue { read: 1 }]);
    }

    #[test]
    fn stale_read_detected() {
        let mut hist = h();
        hist.push(0, Write(1), 0, 10);
        hist.push(0, Write(2), 20, 30);
        hist.push(1, Read(1), 40, 50); // 2 completed at 30 — stale
        let a = check_regular_swmr(&hist);
        assert!(
            matches!(
                a[0],
                Anomaly::StaleRead {
                    read: 2,
                    overwritten_by: 1,
                    ..
                }
            ),
            "{a:?}"
        );
        assert!(!is_atomic_swmr(&hist));
    }

    #[test]
    fn stale_read_of_initial_value_detected() {
        let mut hist = h();
        hist.push(0, Write(1), 0, 10);
        hist.push(1, Read(0), 20, 30);
        let a = check_regular_swmr(&hist);
        assert!(
            matches!(
                a[0],
                Anomaly::StaleRead {
                    read: 1,
                    returned_write: None,
                    overwritten_by: 0
                }
            ),
            "{a:?}"
        );
    }

    #[test]
    fn concurrent_read_may_return_either() {
        let mut hist = h();
        hist.push(0, Write(1), 0, 100);
        hist.push(1, Read(0), 40, 50);
        hist.push(2, Read(1), 40, 50);
        assert!(check_regular_swmr(&hist).is_empty());
    }

    #[test]
    fn future_read_detected() {
        let mut hist = h();
        hist.push(1, Read(1), 0, 10); // write of 1 starts later
        hist.push(0, Write(1), 20, 30);
        let a = check_regular_swmr(&hist);
        assert_eq!(
            a,
            vec![Anomaly::FutureRead {
                read: 0,
                returned_write: 1
            }]
        );
    }

    #[test]
    fn new_old_inversion_detected() {
        let mut hist = h();
        hist.push(0, Write(1), 0, 100);
        hist.push(1, Read(1), 10, 20); // new
        hist.push(2, Read(0), 30, 40); // old, after the first read — inversion
        let inv = find_new_old_inversions(&hist);
        assert_eq!(
            inv,
            vec![Anomaly::NewOldInversion {
                first_read: 1,
                second_read: 2
            }]
        );
        // Regular (each read individually legal) but not atomic.
        assert!(check_regular_swmr(&hist).is_empty());
        assert!(!is_atomic_swmr(&hist));
    }

    #[test]
    fn overlapping_reads_cannot_invert() {
        let mut hist = h();
        hist.push(0, Write(1), 0, 100);
        hist.push(1, Read(1), 10, 50);
        hist.push(2, Read(0), 30, 70); // overlaps the first read
        assert!(find_new_old_inversions(&hist).is_empty());
    }

    #[test]
    fn display_messages_are_informative() {
        let msgs = [
            Anomaly::PhantomValue { read: 3 }.to_string(),
            Anomaly::StaleRead {
                read: 1,
                returned_write: None,
                overwritten_by: 0,
            }
            .to_string(),
            Anomaly::FutureRead {
                read: 2,
                returned_write: 5,
            }
            .to_string(),
            Anomaly::NewOldInversion {
                first_read: 1,
                second_read: 2,
            }
            .to_string(),
        ];
        assert!(msgs[0].contains("never-written"));
        assert!(msgs[1].contains("overwritten"));
        assert!(msgs[2].contains("not yet started"));
        assert!(msgs[3].contains("inversion"));
    }

    #[test]
    fn agrees_with_wing_gong_on_small_histories() {
        use crate::wg::{check_linearizable, CheckResult};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(12345);
        // [atomic, not atomic] verdicts, without and with a pending write.
        let mut verdicts = [[0; 2]; 2];
        for _ in 0..300 {
            // Random single-writer history: writer writes 1..=w sequentially,
            // the last one left pending (its writer crashed) in a third of
            // the cases; readers read random versions at random intervals.
            let mut hist: History<u32> = History::new(0);
            let writes = rng.gen_range(1..4u32);
            let last_pending = rng.gen_range(0..3) == 0;
            let mut t = 0u64;
            for v in 1..=writes {
                let s = t + rng.gen_range(0..5);
                let e = s + rng.gen_range(1..20);
                if v == writes && last_pending {
                    hist.push_pending_write(0, v, s);
                } else {
                    hist.push(0, Write(v), s, e);
                }
                t = e + rng.gen_range(0..5);
            }
            for client in 1..=2usize {
                let mut rt = rng.gen_range(0..10u64);
                for _ in 0..2 {
                    let s = rt;
                    let e = s + rng.gen_range(1..15);
                    let v = rng.gen_range(0..=writes);
                    hist.push(client, Read(v), s, e);
                    rt = e + rng.gen_range(1..10);
                }
            }
            let fast = is_atomic_swmr(&hist);
            let slow = match check_linearizable(&hist) {
                CheckResult::Linearizable => true,
                CheckResult::NotLinearizable => false,
                CheckResult::Unknown => panic!("a budget ran out on:\n{hist:?}"),
            };
            assert_eq!(fast, slow, "disagreement on:\n{hist:?}");
            verdicts[usize::from(last_pending)][usize::from(!fast)] += 1;
        }
        assert!(
            verdicts.iter().flatten().all(|&count| count > 0),
            "[atomic, not] without / with a pending write: {verdicts:?}"
        );
    }
}
