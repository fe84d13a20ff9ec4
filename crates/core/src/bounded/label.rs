//! Bounded labels via serial-number arithmetic.
//!
//! A [`SerialLabel`] is a point on a cycle of `modulus` values. Two labels
//! are compared through a *window*: `a` is newer than `b` when the forward
//! distance from `b` to `a` along the cycle is positive and at most
//! `window`. As long as all labels that are ever compared were issued within
//! `window` successor steps of each other, the windowed comparison agrees
//! with the (unbounded) issue order — the same argument that makes TCP
//! sequence numbers sound.
//!
//! The [`LabelSpace`] owns the parameters and is the only way to create or
//! compare labels, so mismatched moduli are caught at construction time.

use std::fmt;

/// Parameters of a bounded label cycle.
///
/// # Examples
///
/// ```
/// use abd_core::bounded::label::LabelSpace;
///
/// let space = LabelSpace::new(64);
/// let origin = space.origin();
/// let l1 = space.successor(origin);
/// let l2 = space.successor(l1);
/// assert!(space.newer(l1, origin));
/// assert!(space.newer(l2, l1));
/// assert!(!space.newer(origin, l2));
/// // Labels occupy log2(64) = 6 bits regardless of how many writes happen.
/// assert_eq!(space.label_bits(), 6);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LabelSpace {
    modulus: u32,
    window: u32,
}

impl LabelSpace {
    /// Creates a label cycle of `modulus` values with a comparison window of
    /// `modulus / 2 - 1` (the largest sound window).
    ///
    /// # Panics
    ///
    /// Panics if `modulus < 8`.
    pub fn new(modulus: u32) -> Self {
        assert!(modulus >= 8, "modulus must be at least 8, got {modulus}");
        // abd-lint: allow(raw-quorum-arith): this halving sizes the label
        // comparison window on the recycling cycle, not a quorum.
        let window = modulus / 2 - 1;
        LabelSpace { modulus, window }
    }

    /// Number of distinct labels.
    pub fn modulus(&self) -> u32 {
        self.modulus
    }

    /// Maximum issue-distance between two labels that can still be compared
    /// correctly.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Bits needed to encode one label: `ceil(log2(modulus))`. This is the
    /// quantity experiment **T6** reports against the unbounded protocol's
    /// growing counters.
    pub fn label_bits(&self) -> u32 {
        u32::BITS - (self.modulus - 1).leading_zeros()
    }

    /// The label of the register's initial value.
    pub fn origin(&self) -> SerialLabel {
        SerialLabel { raw: 0 }
    }

    /// The label following `l` on the cycle.
    pub fn successor(&self, l: SerialLabel) -> SerialLabel {
        SerialLabel {
            raw: (l.raw + 1) % self.modulus,
        }
    }

    /// Forward distance from `from` to `to` along the cycle, in `0..modulus`.
    pub fn forward_distance(&self, from: SerialLabel, to: SerialLabel) -> u32 {
        (to.raw + self.modulus - from.raw) % self.modulus
    }

    /// Whether `a` is strictly newer than `b`, assuming both were issued
    /// within [`window`](Self::window) steps of each other.
    pub fn newer(&self, a: SerialLabel, b: SerialLabel) -> bool {
        let d = self.forward_distance(b, a);
        d != 0 && d <= self.window
    }

    /// Whether `a` and `b` are close enough for [`newer`](Self::newer) to be
    /// meaningful: their distance (in either direction) is within the
    /// window. Outside this range the comparison would be ambiguous and the
    /// protocol reports a window violation instead of guessing.
    pub fn comparable(&self, a: SerialLabel, b: SerialLabel) -> bool {
        let d = self.forward_distance(b, a);
        d == 0 || d <= self.window || d >= self.modulus - self.window
    }
}

/// A bounded label: one of `modulus` points on the cycle of a
/// [`LabelSpace`]. Create and compare through the space — raw ordering of
/// the underlying integer is intentionally not exposed as `Ord`, and the
/// `PartialOrd` below knows equality only.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SerialLabel {
    raw: u32,
}

impl SerialLabel {
    /// The raw cycle position (for diagnostics and tests).
    pub fn raw(&self) -> u32 {
        self.raw
    }
}

/// Without its [`LabelSpace`] a serial label orders only against itself:
/// the cycle has no order, the window lends it one. Two different labels
/// are *incomparable* here, which is all the engine — which compares labels
/// itself only between the replies of a multi-writer write's query and of a
/// relay read, and the bounded variant has neither — may learn without the
/// space.
impl PartialOrd for SerialLabel {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        (self == other).then_some(std::cmp::Ordering::Equal)
    }
}

impl fmt::Debug for SerialLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℓ{}", self.raw)
    }
}

impl fmt::Display for SerialLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ℓ{}", self.raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn successor_wraps_around() {
        let s = LabelSpace::new(8);
        let mut l = s.origin();
        for _ in 0..8 {
            l = s.successor(l);
        }
        assert_eq!(l, s.origin(), "8 successors on a cycle of 8 return home");
    }

    #[test]
    fn newer_respects_issue_order_within_window() {
        let s = LabelSpace::new(16); // window 7
        let labels: Vec<SerialLabel> = {
            let mut v = vec![s.origin()];
            for _ in 0..40 {
                let next = s.successor(*v.last().unwrap());
                v.push(next);
            }
            v
        };
        for i in 0..labels.len() {
            for j in 0..labels.len() {
                if i.abs_diff(j) <= 7 {
                    assert_eq!(
                        s.newer(labels[i], labels[j]),
                        i > j,
                        "issue positions {i} vs {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn comparable_detects_window_escape() {
        let s = LabelSpace::new(16); // window 7
        let a = s.origin();
        let mut b = a;
        for step in 1..16 {
            b = s.successor(b);
            let within = step <= 7 || step >= 16 - 7;
            assert_eq!(s.comparable(b, a), within, "distance {step}");
        }
        assert!(s.comparable(a, a));
    }

    #[test]
    fn label_bits_is_log2() {
        assert_eq!(LabelSpace::new(8).label_bits(), 3);
        assert_eq!(LabelSpace::new(64).label_bits(), 6);
        assert_eq!(LabelSpace::new(100).label_bits(), 7);
        assert_eq!(LabelSpace::new(128).label_bits(), 7);
    }

    #[test]
    #[should_panic(expected = "modulus must be at least 8")]
    fn tiny_modulus_rejected() {
        LabelSpace::new(4);
    }

    #[test]
    fn display_and_debug() {
        let s = LabelSpace::new(8);
        let l = s.successor(s.origin());
        assert_eq!(format!("{l}"), "ℓ1");
        assert_eq!(format!("{l:?}"), "ℓ1");
        assert_eq!(l.raw(), 1);
    }

    proptest! {
        /// Walking k successor steps from the origin and comparing through
        /// the window agrees with the unbounded step indices whenever the
        /// two indices are within one window of each other.
        #[test]
        fn windowed_order_matches_unbounded_order(
            modulus in 8u32..200,
            base in 0u32..1_000,
            deltas in proptest::collection::vec(0u32..64, 2..10)
        ) {
            let s = LabelSpace::new(modulus);
            let walk = |steps: u32| {
                let mut l = s.origin();
                for _ in 0..steps {
                    l = s.successor(l);
                }
                l
            };
            // Issue indices within one window of the smallest.
            let idxs: Vec<u32> = deltas.iter().map(|&d| base + d % s.window()).collect();
            let labels: Vec<SerialLabel> = idxs.iter().map(|&i| walk(i)).collect();
            for (&ia, la) in idxs.iter().zip(&labels) {
                for (&ib, lb) in idxs.iter().zip(&labels) {
                    prop_assert!(s.comparable(*la, *lb),
                        "indices {} and {} within a window must be comparable", ia, ib);
                    prop_assert_eq!(s.newer(*la, *lb), ia > ib,
                        "indices {} vs {} (modulus {}, window {})",
                        ia, ib, s.modulus(), s.window());
                }
            }
        }
    }
}
