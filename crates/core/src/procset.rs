//! A compact set of [`ProcessId`]s.
//!
//! Quorum membership tests are the hottest path of the emulation: every
//! incoming acknowledgement asks "does the set of responders form a quorum
//! yet?". [`ProcSet`] is one 64-bit word, so insertions and membership tests
//! are O(1), a quorum cardinality check is one `popcount`, and the set every
//! phase of every operation starts never touches the heap. That bounds a
//! cluster at 64 processes — every cluster this repository runs has n ≤ 51 —
//! and [`ProcSet::new`] panics above it.

use crate::types::ProcessId;
use std::fmt;

/// The most ids a set can hold: the bits of its one word.
const MAX_CAPACITY: usize = u64::BITS as usize;

/// A set of processor ids drawn from `0..capacity`.
///
/// # Examples
///
/// ```
/// use abd_core::procset::ProcSet;
/// use abd_core::types::ProcessId;
///
/// let mut s = ProcSet::new(5);
/// s.insert(ProcessId(0));
/// s.insert(ProcessId(3));
/// assert_eq!(s.len(), 2);
/// assert!(s.contains(ProcessId(3)));
/// assert!(!s.contains(ProcessId(1)));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![ProcessId(0), ProcessId(3)]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ProcSet {
    /// Bit `i` is set when id `i` is a member.
    bits: u64,
    capacity: usize,
}

impl ProcSet {
    /// Creates an empty set able to hold ids `0..capacity`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity > 64`: a set is one word.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity <= MAX_CAPACITY,
            "a ProcSet holds at most {MAX_CAPACITY} ids (one word), not {capacity}"
        );
        ProcSet { bits: 0, capacity }
    }

    /// Creates a set containing every id in `0..capacity`.
    #[cfg(test)]
    pub(crate) fn full(capacity: usize) -> Self {
        let mut s = ProcSet::new(capacity);
        for i in 0..capacity {
            s.insert(ProcessId(i));
        }
        s
    }

    /// Creates a set from an iterator of ids.
    ///
    /// # Panics
    ///
    /// Panics if any id is `>= capacity`.
    pub fn from_iter_with_capacity<I: IntoIterator<Item = ProcessId>>(
        capacity: usize,
        iter: I,
    ) -> Self {
        let mut s = ProcSet::new(capacity);
        for p in iter {
            s.insert(p);
        }
        s
    }

    /// Adds `p` to the set. Returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `p.index() >= capacity`.
    pub fn insert(&mut self, p: ProcessId) -> bool {
        assert!(
            p.index() < self.capacity,
            "{p} out of range for capacity {}",
            self.capacity
        );
        let bit = 1 << p.index();
        let newly = self.bits & bit == 0;
        self.bits |= bit;
        newly
    }

    /// Removes `p` from the set. Returns `true` if it was present.
    #[cfg(test)]
    fn remove(&mut self, p: ProcessId) -> bool {
        if p.index() >= self.capacity {
            return false;
        }
        let bit = 1 << p.index();
        let present = self.bits & bit != 0;
        self.bits &= !bit;
        present
    }

    /// Tests membership of `p`.
    pub fn contains(&self, p: ProcessId) -> bool {
        p.index() < self.capacity && self.bits & (1 << p.index()) != 0
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.bits.count_ones() as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// Removes all ids.
    #[cfg(test)]
    fn clear(&mut self) {
        self.bits = 0;
    }

    /// Whether the two sets share at least one id.
    pub(crate) fn intersects(&self, other: &ProcSet) -> bool {
        self.bits & other.bits != 0
    }

    /// Iterates over the ids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, next: 0 }
    }

    /// The ids of `0..capacity` *not* in the set, ascending.
    pub(crate) fn complement(&self) -> Vec<ProcessId> {
        (0..self.capacity)
            .map(ProcessId)
            .filter(|&p| !self.contains(p))
            .collect()
    }
}

impl fmt::Debug for ProcSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the members of a [`ProcSet`], produced by [`ProcSet::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a ProcSet,
    next: usize,
}

impl Iterator for Iter<'_> {
    type Item = ProcessId;

    fn next(&mut self) -> Option<ProcessId> {
        while self.next < self.set.capacity {
            let p = ProcessId(self.next);
            self.next += 1;
            if self.set.contains(p) {
                return Some(p);
            }
        }
        None
    }
}

impl<'a> IntoIterator for &'a ProcSet {
    type Item = ProcessId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl Extend<ProcessId> for ProcSet {
    fn extend<T: IntoIterator<Item = ProcessId>>(&mut self, iter: T) {
        for p in iter {
            self.insert(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn insert_contains_remove() {
        let mut s = ProcSet::new(64);
        assert!(s.is_empty());
        assert!(s.insert(ProcessId(0)));
        assert!(s.insert(ProcessId(63)));
        assert!(!s.insert(ProcessId(63)), "double insert reports false");
        assert_eq!(s.len(), 2);
        assert!(s.contains(ProcessId(63)));
        assert!(s.remove(ProcessId(63)));
        assert!(!s.remove(ProcessId(63)));
        assert!(!s.contains(ProcessId(63)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        ProcSet::new(4).insert(ProcessId(4));
    }

    #[test]
    #[should_panic(expected = "at most 64 ids")]
    fn capacity_above_one_word_panics() {
        let _ = ProcSet::new(65);
    }

    #[test]
    fn full_and_complement() {
        let s = ProcSet::full(5);
        assert_eq!(s.len(), 5);
        assert!(s.complement().is_empty());
        let mut t = ProcSet::new(5);
        t.insert(ProcessId(1));
        assert_eq!(
            t.complement(),
            vec![ProcessId(0), ProcessId(2), ProcessId(3), ProcessId(4)]
        );
    }

    #[test]
    fn intersects() {
        let a = ProcSet::from_iter_with_capacity(10, [ProcessId(1), ProcessId(2), ProcessId(3)]);
        let b = ProcSet::from_iter_with_capacity(10, [ProcessId(2), ProcessId(3)]);
        let c = ProcSet::from_iter_with_capacity(10, [ProcessId(7)]);
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(
            !a.intersects(&ProcSet::new(10)),
            "nothing meets the empty set"
        );
    }

    #[test]
    fn iter_ascending() {
        let s = ProcSet::from_iter_with_capacity(64, [ProcessId(63), ProcessId(0), ProcessId(32)]);
        let v: Vec<_> = s.iter().map(ProcessId::index).collect();
        assert_eq!(v, vec![0, 32, 63]);
    }

    #[test]
    fn debug_formats_as_set() {
        let s = ProcSet::from_iter_with_capacity(4, [ProcessId(1)]);
        assert_eq!(format!("{s:?}"), "{ProcessId(1)}");
        assert_eq!(format!("{:?}", ProcSet::new(3)), "{}");
    }

    #[test]
    fn clear_empties() {
        let mut s = ProcSet::full(9);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }

    /// Capacities up to the one word's 64.
    const CAPACITIES: [usize; 4] = [1, 5, 63, 64];

    #[test]
    fn one_word_and_a_capacity() {
        use std::mem::size_of;
        assert_eq!(size_of::<ProcSet>(), size_of::<u64>() + size_of::<usize>());
    }

    #[test]
    fn insertion_order_is_invisible() {
        use std::hash::{Hash, Hasher};
        let hash = |s: &ProcSet| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        for cap in CAPACITIES {
            // Every third id, ascending in one set and descending in the
            // other, with a detour through an id that does not stay.
            let ids: Vec<ProcessId> = (0..cap).step_by(3).map(ProcessId).collect();
            let up = ProcSet::from_iter_with_capacity(cap, ids.iter().copied());
            let mut down = ProcSet::new(cap);
            down.insert(ProcessId(cap - 1));
            down.extend(ids.iter().rev().copied());
            if (cap - 1) % 3 != 0 {
                down.remove(ProcessId(cap - 1));
            }
            assert_eq!(up, down, "capacity {cap}");
            assert_eq!(hash(&up), hash(&down), "capacity {cap}");
            assert_eq!(up.complement(), down.complement(), "capacity {cap}");
            assert_eq!(up.len() + up.complement().len(), cap);
            assert_eq!(format!("{up:?}"), format!("{down:?}"));

            let mut more = down.clone();
            if let Some(&absent) = up.complement().first() {
                more.insert(absent);
                assert_ne!(up, more, "capacity {cap}");
            }
            // Same members, different capacity: different sets.
            if cap < MAX_CAPACITY {
                let wider = ProcSet::from_iter_with_capacity(cap + 1, ids.iter().copied());
                assert_ne!(up, wider, "capacity {cap} vs {}", cap + 1);
                assert!(wider.iter().eq(up.iter()), "capacity {cap}: same members");
            }
        }
    }

    /// Any run of inserts and removes, at every capacity, answers as a
    /// `BTreeSet` does. 256 cases, case `c` drawn from
    /// `SmallRng::seed_from_u64(c)`.
    #[test]
    fn matches_btreeset_semantics() {
        for case in 0..256 {
            let mut rng = SmallRng::seed_from_u64(case);
            let len = rng.gen_range(0..200);
            let ops: Vec<(usize, bool)> = (0..len)
                .map(|_| (rng.gen_range(0..130), rng.gen()))
                .collect();
            for cap in CAPACITIES {
                let inputs = format!("case {case}, capacity {cap}: ops {ops:?}");
                let mut s = ProcSet::new(cap);
                let mut model = std::collections::BTreeSet::new();
                for &(i, ins) in &ops {
                    let p = ProcessId(i % cap);
                    if ins {
                        assert_eq!(s.insert(p), model.insert(p), "{inputs}");
                    } else {
                        assert_eq!(s.remove(p), model.remove(&p), "{inputs}");
                    }
                    assert_eq!(s.len(), model.len(), "{inputs}");
                    assert_eq!(s.contains(p), model.contains(&p), "{inputs}");
                    assert_eq!(s.is_empty(), model.is_empty(), "{inputs}");
                }
                let got: Vec<_> = s.iter().collect();
                let want: Vec<_> = model.iter().copied().collect();
                assert_eq!(got, want, "{inputs}");
                assert!(!s.contains(ProcessId(cap)), "{inputs}");
            }
        }
    }
}
