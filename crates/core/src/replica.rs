//! The replica role shared by every protocol variant.
//!
//! In the paper's emulation each of the `n` processors keeps a local copy of
//! the register together with the label of the write that produced it. The
//! replica's only rule is the *monotone adoption* rule: an incoming
//! `(label, value)` pair replaces the stored pair exactly when its label is
//! strictly larger. Acknowledgements are sent regardless (the sender only
//! needs to know the replica is now at least as up-to-date as the update).

/// Local register copy: the highest-labelled `(label, value)` pair adopted
/// so far.
///
/// # Examples
///
/// ```
/// use abd_core::replica::Replica;
/// let mut r = Replica::new(0u64, "initial");
/// assert!(r.adopt(3, "newer"));
/// assert!(!r.adopt(2, "stale"), "lower labels are ignored");
/// assert_eq!(r.label(), 3);
/// assert_eq!(*r.value(), "newer");
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Replica<L, V> {
    label: L,
    value: V,
    adoptions: u64,
}

impl<L: Ord + Clone, V: Clone> Replica<L, V> {
    /// Creates a replica holding the register's initial value under the
    /// smallest label.
    pub fn new(initial_label: L, initial_value: V) -> Self {
        Replica {
            label: initial_label,
            value: initial_value,
            adoptions: 0,
        }
    }

    /// Adopts `(label, value)` if `label` is strictly larger than the stored
    /// label. Returns whether the state changed.
    ///
    /// Equal labels are ignored: under a single writer an equal label always
    /// carries an identical value, and under multiple writers labels are
    /// unique by construction (`(seq, writer)` pairs).
    pub fn adopt(&mut self, label: L, value: V) -> bool {
        if label > self.label {
            self.label = label;
            self.value = value;
            self.adoptions += 1;
            true
        } else {
            false
        }
    }

    /// The stored label.
    pub fn label(&self) -> L {
        self.label.clone()
    }

    /// The stored value.
    pub fn value(&self) -> &V {
        &self.value
    }

    /// The stored `(label, value)` pair, cloned — what a `QueryReply`
    /// carries.
    pub fn snapshot(&self) -> (L, V) {
        (self.label.clone(), self.value.clone())
    }

    /// How many times the replica adopted a newer pair (metrics only).
    pub fn adoptions(&self) -> u64 {
        self.adoptions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ProcessId, Tag};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn adopts_only_strictly_newer() {
        let mut r = Replica::new(0u64, 'a');
        assert!(!r.adopt(0, 'x'), "equal label ignored");
        assert!(r.adopt(1, 'b'));
        assert!(r.adopt(5, 'c'));
        assert!(!r.adopt(3, 'd'));
        assert_eq!(r.snapshot(), (5, 'c'));
        assert_eq!(r.adoptions(), 2);
    }

    #[test]
    fn works_with_multi_writer_tags() {
        let mut r = Replica::new(Tag::initial(), 0u32);
        assert!(r.adopt(Tag::new(1, ProcessId(2)), 10));
        // Same seq, higher writer id: strictly larger tag.
        assert!(r.adopt(Tag::new(1, ProcessId(3)), 11));
        assert!(!r.adopt(Tag::new(1, ProcessId(1)), 12));
        assert_eq!(*r.value(), 11);
    }

    /// The stored label is always the max of the initial label and all
    /// adopted labels, and the value always matches the max's payload. 256
    /// cases, case `c` drawn from `SmallRng::seed_from_u64(c)`.
    #[test]
    fn replica_stores_running_maximum() {
        for case in 0..256 {
            let mut rng = SmallRng::seed_from_u64(case);
            let len = rng.gen_range(1..100);
            let updates: Vec<(u64, u16)> = (0..len)
                .map(|_| (rng.gen_range(0..50), rng.gen()))
                .collect();
            let mut r = Replica::new(0u64, 0u16);
            let mut max = (0u64, 0u16);
            for &(l, v) in &updates {
                r.adopt(l, v);
                if l > max.0 {
                    max = (l, v);
                }
            }
            assert_eq!(r.snapshot(), max, "case {case}: updates {updates:?}");
        }
    }
}
