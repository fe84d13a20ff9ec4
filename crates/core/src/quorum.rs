//! Quorum systems.
//!
//! The paper's emulation waits for *majorities*: any two majorities of the
//! `n` processors intersect, so a reader's query quorum always contains a
//! processor that saw the latest completed write. The property actually used
//! by the proof is only that **every read quorum intersects every write
//! quorum** (and, for the multi-writer protocol, that write quorums pairwise
//! intersect). Phrasing the construction over an abstract [`QuorumSystem`]
//! was the key step of the follow-up literature (Malkhi–Reiter Byzantine
//! quorums, RAMBO, Dynamo-style `R + W > N` stores), and this module makes
//! that generalization explicit:
//!
//! * [`Majority`] — the paper's original choice, `⌊n/2⌋ + 1` processors;
//! * [`Threshold`] — Dynamo-style `R`/`W` counts with `R + W > N`;
//! * [`Weighted`] — Gifford-style weighted voting;
//! * [`Grid`] — `O(√n)`-sized quorums on a rows × columns grid.
//!
//! Experiment **F4** sweeps these families (see `EXPERIMENTS.md`).

use crate::procset::ProcSet;
use crate::types::ProcessId;
use std::fmt;

/// The majority quorum cardinality for `n` processors: `⌊n/2⌋ + 1`.
///
/// This function is the **one place** in the workspace where the paper's
/// majority arithmetic lives — every protocol and configuration that needs
/// a crash-tolerant quorum size must call it (or go through [`Majority`])
/// rather than re-deriving `n / 2 + 1` locally, so `ci.sh`'s quorum
/// arithmetic grep can keep ad-hoc (and historically off-by-one) variants
/// out of the codebase.
///
/// # Panics
///
/// Panics if `n == 0`: there is no quorum system over zero processors.
///
/// # Examples
///
/// ```
/// use abd_core::quorum::majority_threshold;
/// assert_eq!(majority_threshold(1), 1);
/// assert_eq!(majority_threshold(4), 3);
/// assert_eq!(majority_threshold(5), 3);
/// ```
pub fn majority_threshold(n: usize) -> usize {
    assert!(n > 0, "no quorum system over zero processors");
    n / 2 + 1
}

/// The masking quorum cardinality for `n` processors of which up to `b` may
/// be Byzantine: `⌈(n + 2b + 1) / 2⌉`.
///
/// Any two such quorums intersect in at least `2b + 1` processors, so their
/// intersection still holds a majority of correct ones — the bound behind
/// the Byzantine-tolerant reader (Malkhi–Reiter masking quorums). With
/// `b = 0` this degenerates to [`majority_threshold`].
///
/// # Panics
///
/// Panics if `n == 0` or the threshold would exceed `n` (which happens when
/// `n < 2b + 1` — no such quorum exists). Note protocols typically require
/// the stronger `n ≥ 4b + 1` for liveness; that is their assertion to make.
///
/// # Examples
///
/// ```
/// use abd_core::quorum::masking_threshold;
/// assert_eq!(masking_threshold(5, 0), 3);
/// assert_eq!(masking_threshold(5, 1), 4);
/// assert_eq!(masking_threshold(9, 2), 7);
/// ```
pub fn masking_threshold(n: usize, b: usize) -> usize {
    assert!(n > 0, "no quorum system over zero processors");
    let q = (n + 2 * b + 1).div_ceil(2);
    assert!(q <= n, "masking quorums need n >= 2b+1 (n={n}, b={b})");
    q
}

/// Whether a read may *elide its write-back phase* (the "fast path") given
/// the responders of its query phase.
///
/// The write-back exists to push the max tag a read observed to a write
/// quorum before returning, so every later read quorum intersects a
/// processor holding it. Both conditions below make that push redundant:
///
/// * `unanimous` — every responder (including the issuer's own replica)
///   reported the *same* maximum tag, so no responder needs catching up;
/// * `q.is_write_quorum(responders)` — the responder set itself already
///   constitutes a write quorum, so the tag is at a write quorum *now* and
///   every subsequent read quorum is guaranteed to intersect it.
///
/// Under [`Majority`] quorums the second condition is implied by quorum
/// collection (read quorums *are* write quorums), but for asymmetric
/// systems such as [`Threshold`] with `R < W` a unanimous read quorum may
/// still be smaller than a write quorum — eliding there would let a later
/// read quorum miss the tag entirely. This function is the **one place**
/// where the elision condition lives, and the engine's read completion is
/// its one caller.
///
/// # Examples
///
/// ```
/// use abd_core::procset::ProcSet;
/// use abd_core::quorum::{fast_read_allowed, Majority, Threshold};
/// use abd_core::types::ProcessId;
///
/// let majority = Majority::new(5);
/// let mut q = ProcSet::new(5);
/// for i in 0..3 {
///     q.insert(ProcessId(i));
/// }
/// // A unanimous majority may skip the write-back...
/// assert!(fast_read_allowed(&majority, &q, true));
/// // ...a disagreeing one may not.
/// assert!(!fast_read_allowed(&majority, &q, false));
///
/// // R = 2, W = 4: a unanimous read quorum is not a write quorum, so the
/// // tag may still be missing from some future read quorum — no elision.
/// let skewed = Threshold::new(5, 2, 4);
/// let mut r = ProcSet::new(5);
/// r.insert(ProcessId(0));
/// r.insert(ProcessId(1));
/// assert!(!fast_read_allowed(&skewed, &r, true));
/// ```
pub fn fast_read_allowed(q: &dyn QuorumSystem, responders: &ProcSet, unanimous: bool) -> bool {
    unanimous && q.is_write_quorum(responders)
}

/// A quorum system over processors `0..n`.
///
/// Implementations answer, for an arbitrary set of responders, whether the
/// set contains a read quorum or a write quorum. Both predicates must be
/// *monotone* (supersets of quorums are quorums) — protocols rely on this by
/// testing the accumulated responder set after every acknowledgement.
///
/// # Correctness contract
///
/// For the emulation to be atomic:
///
/// * every read quorum must intersect every write quorum, and
/// * for multi-writer registers, every two write quorums must intersect.
///
/// [`validate`](QuorumSystem::validate) checks these analytically;
/// `check_by_enumeration` verifies them exhaustively for small `n` and is
/// used by this module's tests.
pub trait QuorumSystem: fmt::Debug + Send + Sync {
    /// Total number of processors.
    fn n(&self) -> usize;

    /// Whether `s` contains a read quorum.
    fn is_read_quorum(&self, s: &ProcSet) -> bool;

    /// Whether `s` contains a write quorum.
    fn is_write_quorum(&self, s: &ProcSet) -> bool;

    /// Analytic check of the intersection properties.
    ///
    /// # Errors
    ///
    /// Returns [`QuorumError`] if read/write quorums may fail to intersect,
    /// or (when `multi_writer`) if two write quorums may fail to intersect.
    fn validate(&self, multi_writer: bool) -> Result<(), QuorumError>;

    /// Short human-readable description used in benchmark tables.
    fn describe(&self) -> String;
}

/// Error returned by [`QuorumSystem::validate`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum QuorumError {
    /// A read quorum and a write quorum can be disjoint.
    ReadWriteDisjoint(String),
    /// Two write quorums can be disjoint (fatal for multi-writer registers).
    WriteWriteDisjoint(String),
    /// The system's parameters are internally inconsistent.
    Malformed(String),
}

impl fmt::Display for QuorumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuorumError::ReadWriteDisjoint(s) => {
                write!(f, "read and write quorums may be disjoint: {s}")
            }
            QuorumError::WriteWriteDisjoint(s) => {
                write!(f, "two write quorums may be disjoint: {s}")
            }
            QuorumError::Malformed(s) => write!(f, "malformed quorum system: {s}"),
        }
    }
}

impl std::error::Error for QuorumError {}

/// The majority quorum system of the paper: any `⌊n/2⌋ + 1` processors form
/// both a read and a write quorum.
///
/// Tolerates `f = ⌈n/2⌉ − 1` crash failures, which the paper proves optimal.
///
/// # Examples
///
/// ```
/// use abd_core::quorum::{Majority, QuorumSystem};
/// use abd_core::procset::ProcSet;
/// use abd_core::types::ProcessId;
///
/// let q = Majority::new(5);
/// let two = ProcSet::from_iter_with_capacity(5, [ProcessId(0), ProcessId(1)]);
/// let three = ProcSet::from_iter_with_capacity(5, [ProcessId(0), ProcessId(1), ProcessId(4)]);
/// assert!(!q.is_read_quorum(&two));
/// assert!(q.is_read_quorum(&three));
/// assert!(q.validate(true).is_ok());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Majority {
    n: usize,
}

impl Majority {
    /// Creates the majority system for `n` processors.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "cluster size must be positive");
        Majority { n }
    }

    /// The quorum cardinality, `⌊n/2⌋ + 1`.
    pub fn quorum_size(&self) -> usize {
        majority_threshold(self.n)
    }
}

impl QuorumSystem for Majority {
    fn n(&self) -> usize {
        self.n
    }

    fn is_read_quorum(&self, s: &ProcSet) -> bool {
        s.len() >= self.quorum_size()
    }

    fn is_write_quorum(&self, s: &ProcSet) -> bool {
        s.len() >= self.quorum_size()
    }

    fn validate(&self, _multi_writer: bool) -> Result<(), QuorumError> {
        Ok(()) // 2 * (⌊n/2⌋ + 1) > n for every n ≥ 1.
    }

    fn describe(&self) -> String {
        format!("majority(n={}, q={})", self.n, self.quorum_size())
    }
}

/// Dynamo-style threshold quorums: `r` responders form a read quorum, `w`
/// acknowledgements form a write quorum.
///
/// Atomic only when `r + w > n` (and `2w > n` for multiple writers). The
/// constructor does **not** reject non-intersecting configurations — the
/// deliberately broken `R=1` baselines of experiment **T5** are built from
/// them — but [`validate`](QuorumSystem::validate) reports them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Threshold {
    n: usize,
    r: usize,
    w: usize,
}

impl Threshold {
    /// Creates an `r`-out-of-`n` read / `w`-out-of-`n` write system.
    ///
    /// # Panics
    ///
    /// Panics if `r` or `w` is `0` or exceeds `n`.
    pub fn new(n: usize, r: usize, w: usize) -> Self {
        assert!(
            n > 0 && (1..=n).contains(&r) && (1..=n).contains(&w),
            "need 1 <= r,w <= n"
        );
        Threshold { n, r, w }
    }
}

impl QuorumSystem for Threshold {
    fn n(&self) -> usize {
        self.n
    }

    fn is_read_quorum(&self, s: &ProcSet) -> bool {
        s.len() >= self.r
    }

    fn is_write_quorum(&self, s: &ProcSet) -> bool {
        s.len() >= self.w
    }

    fn validate(&self, multi_writer: bool) -> Result<(), QuorumError> {
        if self.r + self.w <= self.n {
            return Err(QuorumError::ReadWriteDisjoint(format!(
                "r + w = {} <= n = {}",
                self.r + self.w,
                self.n
            )));
        }
        if multi_writer && 2 * self.w <= self.n {
            return Err(QuorumError::WriteWriteDisjoint(format!(
                "2w = {} <= n = {}",
                2 * self.w,
                self.n
            )));
        }
        Ok(())
    }

    fn describe(&self) -> String {
        format!("threshold(n={}, r={}, w={})", self.n, self.r, self.w)
    }
}

/// Gifford-style weighted voting: each processor carries a vote weight; a
/// set is a read (write) quorum when its total weight reaches the read
/// (write) threshold.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Weighted {
    weights: Vec<u64>,
    read_threshold: u64,
    write_threshold: u64,
}

impl Weighted {
    /// Creates a weighted-voting system.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or either threshold is `0` or exceeds the
    /// total weight.
    pub fn new(weights: Vec<u64>, read_threshold: u64, write_threshold: u64) -> Self {
        assert!(!weights.is_empty(), "need at least one processor");
        let total: u64 = weights.iter().sum();
        assert!(
            (1..=total).contains(&read_threshold) && (1..=total).contains(&write_threshold),
            "thresholds must be in 1..=total weight ({total})"
        );
        Weighted {
            weights,
            read_threshold,
            write_threshold,
        }
    }

    fn weight_of(&self, s: &ProcSet) -> u64 {
        s.iter().map(|p| self.weights[p.index()]).sum()
    }

    /// Total vote weight in the system.
    fn total_weight(&self) -> u64 {
        self.weights.iter().sum()
    }
}

impl QuorumSystem for Weighted {
    fn n(&self) -> usize {
        self.weights.len()
    }

    fn is_read_quorum(&self, s: &ProcSet) -> bool {
        self.weight_of(s) >= self.read_threshold
    }

    fn is_write_quorum(&self, s: &ProcSet) -> bool {
        self.weight_of(s) >= self.write_threshold
    }

    fn validate(&self, multi_writer: bool) -> Result<(), QuorumError> {
        let total = self.total_weight();
        if self.read_threshold + self.write_threshold <= total {
            return Err(QuorumError::ReadWriteDisjoint(format!(
                "read + write thresholds = {} <= total weight = {total}",
                self.read_threshold + self.write_threshold
            )));
        }
        if multi_writer && 2 * self.write_threshold <= total {
            return Err(QuorumError::WriteWriteDisjoint(format!(
                "2 * write threshold = {} <= total weight = {total}",
                2 * self.write_threshold
            )));
        }
        Ok(())
    }

    fn describe(&self) -> String {
        format!(
            "weighted(n={}, total={}, r={}, w={})",
            self.weights.len(),
            self.total_weight(),
            self.read_threshold,
            self.write_threshold
        )
    }
}

/// Grid quorums on a `rows × cols` arrangement of the processors
/// (processor `p` sits at row `p / cols`, column `p % cols`).
///
/// * a **read quorum** covers every column (one element per column suffices —
///   size `cols` at minimum);
/// * a **write quorum** covers every column *and* fully contains some column
///   (minimum size `cols + rows − 1`).
///
/// With `rows ≈ cols ≈ √n` both quorums have `O(√n)` size, trading the
/// majority system's best-possible resilience for smaller quorums — the
/// trade-off experiment **F4** measures.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Grid {
    rows: usize,
    cols: usize,
}

impl Grid {
    /// Creates a `rows × cols` grid (so `n = rows * cols`).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is `0`.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid dimensions must be positive");
        Grid { rows, cols }
    }

    fn covers_every_column(&self, s: &ProcSet) -> bool {
        (0..self.cols).all(|c| (0..self.rows).any(|r| s.contains(ProcessId(r * self.cols + c))))
    }

    fn contains_full_column(&self, s: &ProcSet) -> bool {
        (0..self.cols).any(|c| (0..self.rows).all(|r| s.contains(ProcessId(r * self.cols + c))))
    }
}

impl QuorumSystem for Grid {
    fn n(&self) -> usize {
        self.rows * self.cols
    }

    fn is_read_quorum(&self, s: &ProcSet) -> bool {
        self.covers_every_column(s)
    }

    fn is_write_quorum(&self, s: &ProcSet) -> bool {
        self.covers_every_column(s) && self.contains_full_column(s)
    }

    fn validate(&self, _multi_writer: bool) -> Result<(), QuorumError> {
        // A write quorum fully contains some column c; a read quorum covers
        // every column, hence holds an element of c: they intersect. Two
        // write quorums W1 (full column c1) and W2 (covers every column,
        // including c1) intersect likewise.
        Ok(())
    }

    fn describe(&self) -> String {
        format!("grid({}x{})", self.rows, self.cols)
    }
}

/// Exhaustively verifies the intersection properties of `q` by enumerating
/// every pair of subsets of `0..n`. Exponential — intended for tests with
/// `n ≤ 12` or so.
///
/// Returns the same errors as [`QuorumSystem::validate`] when a
/// counterexample pair is found.
///
/// # Errors
///
/// [`QuorumError::ReadWriteDisjoint`] / [`QuorumError::WriteWriteDisjoint`]
/// with the offending pair rendered into the message.
pub fn check_by_enumeration(q: &dyn QuorumSystem, multi_writer: bool) -> Result<(), QuorumError> {
    let n = q.n();
    assert!(n <= 20, "enumeration check is exponential; use small n");
    let sets: Vec<ProcSet> = (0u32..(1 << n))
        .map(|mask| {
            ProcSet::from_iter_with_capacity(
                n,
                (0..n).filter(|i| mask & (1 << i) != 0).map(ProcessId),
            )
        })
        .collect();
    let reads: Vec<&ProcSet> = sets.iter().filter(|s| q.is_read_quorum(s)).collect();
    let writes: Vec<&ProcSet> = sets.iter().filter(|s| q.is_write_quorum(s)).collect();
    for r in &reads {
        for w in &writes {
            if !(r.intersects(w) || r.is_empty() && w.is_empty()) {
                return Err(QuorumError::ReadWriteDisjoint(format!("{r:?} vs {w:?}")));
            }
        }
    }
    if multi_writer {
        for w1 in &writes {
            for w2 in &writes {
                if !(w1.intersects(w2) || w1.is_empty() && w2.is_empty()) {
                    return Err(QuorumError::WriteWriteDisjoint(format!("{w1:?} vs {w2:?}")));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(n: usize, ids: &[usize]) -> ProcSet {
        ProcSet::from_iter_with_capacity(n, ids.iter().copied().map(ProcessId))
    }

    #[test]
    fn majority_sizes() {
        for (n, q) in [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (7, 4)] {
            assert_eq!(Majority::new(n).quorum_size(), q, "n={n}");
        }
    }

    #[test]
    fn majority_enumeration_holds() {
        for n in 1..=7 {
            check_by_enumeration(&Majority::new(n), true).unwrap();
        }
    }

    #[test]
    fn fast_read_boundary_exactly_write_quorum_sized_sets() {
        // R = 2, W = 4 over n = 5: elision flips exactly at the write
        // threshold. A unanimous set of 3 (a read quorum and then some) is
        // still one short of a write quorum; a unanimous set of exactly 4
        // is the smallest that may skip the write-back.
        let skewed = Threshold::new(5, 2, 4);
        assert!(!fast_read_allowed(&skewed, &set(5, &[0, 1, 2]), true));
        assert!(!fast_read_allowed(&skewed, &set(5, &[0, 1, 2]), false));
        assert!(fast_read_allowed(&skewed, &set(5, &[0, 1, 2, 3]), true));
        assert!(!fast_read_allowed(&skewed, &set(5, &[0, 1, 2, 3]), false));

        // Majority quorums: the read quorum *is* a write quorum, so the
        // boundary sits at ⌊n/2⌋+1 exactly.
        let m = Majority::new(5);
        assert!(!fast_read_allowed(&m, &set(5, &[0, 1]), true));
        assert!(fast_read_allowed(&m, &set(5, &[0, 1, 2]), true));
    }

    #[test]
    fn fast_read_boundary_even_n_majority_vs_write_quorum_split() {
        // n = 6: exactly half the cluster is NOT a majority — a unanimous
        // 3-of-6 set must never elide (its complement is another 3-set the
        // tag may have missed entirely).
        let m = Majority::new(6);
        assert_eq!(m.quorum_size(), 4);
        assert!(!fast_read_allowed(&m, &set(6, &[0, 1, 2]), true));
        assert!(fast_read_allowed(&m, &set(6, &[0, 1, 2, 3]), true));

        // Even n with split thresholds: R = 3 read quorums collect at the
        // half-cluster mark, but the write threshold W = 4 still gates the
        // fast path — a unanimous read quorum alone is not enough.
        let split = Threshold::new(6, 3, 4);
        assert!(split.validate(false).is_ok());
        let read_quorum = set(6, &[0, 1, 2]);
        assert!(split.is_read_quorum(&read_quorum));
        assert!(!fast_read_allowed(&split, &read_quorum, true));
        assert!(fast_read_allowed(&split, &set(6, &[0, 1, 2, 3]), true));
    }

    #[test]
    fn threshold_validates_intersection() {
        assert!(Threshold::new(5, 3, 3).validate(true).is_ok());
        assert!(Threshold::new(5, 2, 4).validate(false).is_ok());
        assert!(matches!(
            Threshold::new(5, 2, 3).validate(false),
            Err(QuorumError::ReadWriteDisjoint(_))
        ));
        assert!(matches!(
            Threshold::new(5, 4, 2).validate(true),
            Err(QuorumError::WriteWriteDisjoint(_))
        ));
    }

    #[test]
    fn threshold_enumeration_agrees_with_validate() {
        for n in 1..=6 {
            for r in 1..=n {
                for w in 1..=n {
                    let t = Threshold::new(n, r, w);
                    for mw in [false, true] {
                        let analytic = t.validate(mw).is_ok();
                        let exhaustive = check_by_enumeration(&t, mw).is_ok();
                        assert_eq!(analytic, exhaustive, "n={n} r={r} w={w} mw={mw}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1 <= r,w <= n")]
    fn threshold_rejects_zero_r() {
        Threshold::new(3, 0, 2);
    }

    #[test]
    fn weighted_counts_weight_not_cardinality() {
        // One heavy node (weight 3) + four light ones (weight 1 each).
        let q = Weighted::new(vec![3, 1, 1, 1, 1], 4, 4);
        assert!(q.validate(true).is_ok());
        // Heavy node + one light = weight 4: a quorum of only 2 processors.
        assert!(q.is_read_quorum(&set(5, &[0, 1])));
        // Three light nodes = weight 3: not a quorum despite cardinality 3.
        assert!(!q.is_read_quorum(&set(5, &[1, 2, 3])));
        check_by_enumeration(&q, true).unwrap();
    }

    #[test]
    fn weighted_detects_disjoint() {
        let q = Weighted::new(vec![1; 4], 2, 2);
        assert!(matches!(
            q.validate(false),
            Err(QuorumError::ReadWriteDisjoint(_))
        ));
        assert!(check_by_enumeration(&q, false).is_err());
    }

    #[test]
    fn grid_membership() {
        // 2x3 grid: rows {0,1,2} and {3,4,5}; columns {0,3}, {1,4}, {2,5}.
        let g = Grid::new(2, 3);
        assert_eq!(g.n(), 6);
        // One element per column: read quorum but not write.
        let transversal = set(6, &[0, 4, 2]);
        assert!(g.is_read_quorum(&transversal));
        assert!(!g.is_write_quorum(&transversal));
        // Column {1,4} + covering elements for the other columns.
        let w = set(6, &[1, 4, 0, 2]);
        assert!(g.is_write_quorum(&w));
        // Full column alone does not cover other columns: not even a read quorum.
        let col = set(6, &[1, 4]);
        assert!(!g.is_read_quorum(&col));
        assert!(!g.is_write_quorum(&col));
    }

    #[test]
    fn grid_enumeration_holds() {
        for (r, c) in [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)] {
            check_by_enumeration(&Grid::new(r, c), true).unwrap();
        }
    }

    #[test]
    fn describe_is_informative() {
        assert_eq!(Majority::new(5).describe(), "majority(n=5, q=3)");
        assert_eq!(
            Threshold::new(5, 1, 5).describe(),
            "threshold(n=5, r=1, w=5)"
        );
        assert_eq!(Grid::new(3, 3).describe(), "grid(3x3)");
        assert!(Weighted::new(vec![1, 2], 2, 2)
            .describe()
            .starts_with("weighted"));
    }

    #[test]
    fn quorum_predicates_are_monotone() {
        // Adding members never destroys quorum-ness (spot check on grid,
        // the least obviously monotone implementation).
        let g = Grid::new(2, 3);
        let mut s = set(6, &[0, 4, 2]);
        assert!(g.is_read_quorum(&s));
        for extra in [1, 3, 5] {
            s.insert(ProcessId(extra));
            assert!(g.is_read_quorum(&s));
        }
        assert!(g.is_write_quorum(&ProcSet::full(6)));
    }
}
