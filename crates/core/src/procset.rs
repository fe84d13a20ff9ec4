//! A compact set of [`ProcessId`]s.
//!
//! Quorum membership tests are the hottest path of the emulation: every
//! incoming acknowledgement asks "does the set of responders form a quorum
//! yet?". [`ProcSet`] is a fixed-capacity bit set sized at construction for
//! the cluster's `n`, so insertions and membership tests are O(1) and quorum
//! cardinality checks are a handful of `popcount`s. Every phase of every
//! operation starts one, so a set of at most 64 ids — every cluster this
//! repository runs — keeps its single word inline and never touches the heap.

use crate::types::ProcessId;
use std::fmt;

const WORD_BITS: usize = 64;

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
    words: Words,
    capacity: usize,
}

/// The bits of a [`ProcSet`], word `i` holding ids `64 i ..= 64 i + 63`.
/// The variant is a function of the capacity alone, so two sets of equal
/// capacity compare and hash word for word, as they did over one `Vec`.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Words {
    /// `capacity <= 64`: the one word, in place.
    Inline([u64; 1]),
    /// `capacity > 64`: `capacity.div_ceil(64)` words.
    Heap(Vec<u64>),
}

impl ProcSet {
    /// Creates an empty set able to hold ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        let words = if capacity <= WORD_BITS {
            Words::Inline([0])
        } else {
            Words::Heap(vec![0; capacity.div_ceil(WORD_BITS)])
        };
        ProcSet { words, capacity }
    }

    fn words(&self) -> &[u64] {
        match &self.words {
            Words::Inline(w) => w,
            Words::Heap(v) => v,
        }
    }

    fn words_mut(&mut self) -> &mut [u64] {
        match &mut self.words {
            Words::Inline(w) => w,
            Words::Heap(v) => v,
        }
    }

    /// Creates a set containing every id in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
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

    /// The number of ids this set can hold (`n` of the cluster).
    pub fn capacity(&self) -> usize {
        self.capacity
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
        let (w, b) = (p.index() / WORD_BITS, p.index() % WORD_BITS);
        let word = &mut self.words_mut()[w];
        let newly = *word & (1 << b) == 0;
        *word |= 1 << b;
        newly
    }

    /// Removes `p` from the set. Returns `true` if it was present.
    pub fn remove(&mut self, p: ProcessId) -> bool {
        if p.index() >= self.capacity {
            return false;
        }
        let (w, b) = (p.index() / WORD_BITS, p.index() % WORD_BITS);
        let word = &mut self.words_mut()[w];
        let present = *word & (1 << b) != 0;
        *word &= !(1 << b);
        present
    }

    /// Tests membership of `p`.
    pub fn contains(&self, p: ProcessId) -> bool {
        if p.index() >= self.capacity {
            return false;
        }
        let (w, b) = (p.index() / WORD_BITS, p.index() % WORD_BITS);
        self.words()[w] & (1 << b) != 0
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.words().iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|&w| w == 0)
    }

    /// Removes all ids.
    pub fn clear(&mut self) {
        self.words_mut().iter_mut().for_each(|w| *w = 0);
    }

    /// Whether every element of `other` is in `self`.
    pub fn is_superset(&self, other: &ProcSet) -> bool {
        other.words().iter().enumerate().all(|(i, &w)| {
            let mine = self.words().get(i).copied().unwrap_or(0);
            w & !mine == 0
        })
    }

    /// Whether the two sets share at least one id.
    pub fn intersects(&self, other: &ProcSet) -> bool {
        self.words()
            .iter()
            .zip(other.words())
            .any(|(&a, &b)| a & b != 0)
    }

    /// Iterates over the ids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { set: self, next: 0 }
    }

    /// The ids of `0..capacity` *not* in the set, ascending.
    pub fn complement(&self) -> Vec<ProcessId> {
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
    use proptest::prelude::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = ProcSet::new(70);
        assert!(s.is_empty());
        assert!(s.insert(ProcessId(0)));
        assert!(s.insert(ProcessId(69)));
        assert!(!s.insert(ProcessId(69)), "double insert reports false");
        assert_eq!(s.len(), 2);
        assert!(s.contains(ProcessId(69)));
        assert!(s.remove(ProcessId(69)));
        assert!(!s.remove(ProcessId(69)));
        assert!(!s.contains(ProcessId(69)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_out_of_range_panics() {
        ProcSet::new(4).insert(ProcessId(4));
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
    fn superset_and_intersects() {
        let a = ProcSet::from_iter_with_capacity(10, [ProcessId(1), ProcessId(2), ProcessId(3)]);
        let b = ProcSet::from_iter_with_capacity(10, [ProcessId(2), ProcessId(3)]);
        let c = ProcSet::from_iter_with_capacity(10, [ProcessId(7)]);
        assert!(a.is_superset(&b));
        assert!(!b.is_superset(&a));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(a.is_superset(&ProcSet::new(10)), "superset of empty");
    }

    #[test]
    fn iter_ascending() {
        let s =
            ProcSet::from_iter_with_capacity(130, [ProcessId(128), ProcessId(0), ProcessId(64)]);
        let v: Vec<_> = s.iter().map(ProcessId::index).collect();
        assert_eq!(v, vec![0, 64, 128]);
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

    /// Capacities on both sides of the inline/heap boundary at 64.
    const CAPACITIES: [usize; 6] = [1, 5, 63, 64, 65, 130];

    #[test]
    fn no_larger_than_a_vec_and_a_capacity() {
        use std::mem::size_of;
        assert!(size_of::<ProcSet>() <= size_of::<Vec<u64>>() + size_of::<usize>());
    }

    #[test]
    fn insertion_order_is_invisible_on_both_sides_of_the_inline_boundary() {
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
            assert!(up.is_superset(&down) && down.is_superset(&up));
            assert_eq!(format!("{up:?}"), format!("{down:?}"));

            let mut more = down.clone();
            if let Some(&absent) = up.complement().first() {
                more.insert(absent);
                assert_ne!(up, more, "capacity {cap}");
                assert!(more.is_superset(&up) && !up.is_superset(&more));
            }
            // Same members, different capacity: different sets, as before.
            let wider = ProcSet::from_iter_with_capacity(cap + 1, ids.iter().copied());
            assert_ne!(up, wider, "capacity {cap} vs {}", cap + 1);
            assert!(wider.is_superset(&up) && up.is_superset(&wider));
        }
    }

    proptest! {
        #[test]
        fn matches_btreeset_semantics(ops in proptest::collection::vec((0usize..130, any::<bool>()), 0..200)) {
            for cap in CAPACITIES {
                let mut s = ProcSet::new(cap);
                let mut model = std::collections::BTreeSet::new();
                for &(i, ins) in &ops {
                    let p = ProcessId(i % cap);
                    if ins {
                        prop_assert_eq!(s.insert(p), model.insert(p));
                    } else {
                        prop_assert_eq!(s.remove(p), model.remove(&p));
                    }
                    prop_assert_eq!(s.len(), model.len());
                    prop_assert_eq!(s.contains(p), model.contains(&p));
                    prop_assert_eq!(s.is_empty(), model.is_empty());
                }
                let got: Vec<_> = s.iter().collect();
                let want: Vec<_> = model.iter().copied().collect();
                prop_assert_eq!(got, want);
                prop_assert!(!s.contains(ProcessId(cap)), "capacity {}", cap);
            }
        }
    }
}
