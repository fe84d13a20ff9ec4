//! Deterministic Merkle digests over a replica's `(key → tag)` map.
//!
//! ABD crash recovery and anti-entropy both need to answer one question
//! cheaply: *where do two replicas disagree?* A replica's store is a map
//! from keys to [`Tag`]s (the values ride along but the tags decide
//! freshness — adoption is monotone in the tag, see the `abd-kv` module
//! docs). This module maintains a compact digest tree over that map:
//!
//! * keys hash (via [`key_hash`], a self-contained FNV-1a so the digest is
//!   identical across runs, platforms and `std` versions) into one of `B`
//!   **buckets** (`B` a power of two);
//! * a bucket's digest is the **XOR** of its entries' digests, where an
//!   entry digest mixes the key hash with the tag — XOR makes every
//!   mutation an O(1) incremental delta instead of a bucket rescan;
//! * buckets are the leaves of a complete binary tree stored as a heap
//!   array (node `0` is the root, node `i`'s children are `2i + 1` and
//!   `2i + 2`); an internal node's digest is the XOR of its children, so a
//!   leaf delta propagates to the root in `log₂ B` XORs.
//!
//! Two replicas with equal subtree digests hold (up to 64-bit hash
//! collisions) the same `(key, tag)` set under that subtree, so a sync can
//! prune the subtree entirely; a mismatch narrows the divergence by half
//! per level. That is what makes recovery traffic proportional to *drift*
//! rather than store size (see DESIGN.md §15 for the safety argument and
//! the collision caveat).
//!
//! The tree has exactly **one** mutating operation,
//! [`MerkleTree::apply_delta`]. Callers outside this module must route
//! every call through their single `digest_update` helper so the digest
//! can never silently diverge from the store it summarizes.

use crate::types::Tag;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A self-contained FNV-1a [`std::hash::Hasher`].
///
/// `std`'s `DefaultHasher` is explicitly unstable across releases, and the
/// sync protocol compares digests *between* replicas, so key hashing must
/// be pinned down to the byte. Multi-byte writes are folded little-endian
/// (and `usize` as `u64`) so the digest is also architecture-independent.
#[derive(Clone, Debug)]
pub struct FnvHasher(u64);

impl FnvHasher {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher::new()
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write(&[n]);
    }

    fn write_u16(&mut self, n: u16) {
        self.write(&n.to_le_bytes());
    }

    fn write_u32(&mut self, n: u32) {
        self.write(&n.to_le_bytes());
    }

    fn write_u64(&mut self, n: u64) {
        self.write(&n.to_le_bytes());
    }

    fn write_u128(&mut self, n: u128) {
        self.write(&n.to_le_bytes());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_i8(&mut self, n: i8) {
        self.write_u8(n as u8);
    }

    fn write_i16(&mut self, n: i16) {
        self.write_u16(n as u16);
    }

    fn write_i32(&mut self, n: i32) {
        self.write_u32(n as u32);
    }

    fn write_i64(&mut self, n: i64) {
        self.write_u64(n as u64);
    }

    fn write_i128(&mut self, n: i128) {
        self.write_u128(n as u128);
    }

    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }
}

/// Deterministic 64-bit hash of a key, identical across runs and
/// platforms. This is the only key-hashing entry point the sync protocol
/// uses; replicas must agree on it bit for bit.
pub fn key_hash<K: std::hash::Hash + ?Sized>(key: &K) -> u64 {
    use std::hash::Hasher as _;
    let mut h = FnvHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Digest of one `(key, tag)` entry: FNV-1a over the key hash and both
/// tag components. The XOR-accumulated bucket digest needs every entry's
/// digest to be (pseudo)independent of the others', which re-hashing the
/// concatenation provides.
fn entry_digest(kh: u64, tag: Tag) -> u64 {
    use std::hash::Hasher as _;
    let mut h = FnvHasher::new();
    h.write_u64(kh);
    h.write_u64(tag.seq);
    h.write_u64(tag.writer.index() as u64);
    h.finish()
}

/// Incremental Merkle digest tree over a `(key → tag)` map.
///
/// # Examples
///
/// ```
/// use abd_core::merkle::{key_hash, MerkleTree};
/// use abd_core::types::{ProcessId, Tag};
///
/// let mut a = MerkleTree::new(8);
/// let mut b = MerkleTree::new(8);
/// assert_eq!(a.root(), b.root());
///
/// let t = Tag::new(1, ProcessId(0));
/// a.apply_delta(key_hash(&"k"), None, Some(t));
/// assert_ne!(a.root(), b.root());
///
/// // Replaying the same mutation converges the digests again.
/// b.apply_delta(key_hash(&"k"), None, Some(t));
/// assert_eq!(a.root(), b.root());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MerkleTree {
    /// Number of leaf buckets; a power of two.
    leaf_count: usize,
    /// Heap-array digests: `2 * leaf_count - 1` nodes, root at index 0,
    /// leaves at `leaf_count - 1 ..`.
    nodes: Vec<u64>,
}

impl MerkleTree {
    /// An empty tree over `leaf_count` buckets (must be a power of two).
    /// Every digest starts at 0, the XOR identity, so two empty trees are
    /// equal and a tree rebuilt entry by entry matches one maintained
    /// incrementally.
    pub fn new(leaf_count: usize) -> Self {
        assert!(
            leaf_count.is_power_of_two(),
            "bucket count must be a power of two"
        );
        MerkleTree {
            leaf_count,
            nodes: vec![0; 2 * leaf_count - 1],
        }
    }

    /// Number of leaf buckets.
    pub fn leaf_count(&self) -> usize {
        self.leaf_count
    }

    /// Total number of tree nodes (`2 * leaf_count - 1`).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The root digest: equal roots mean (modulo 64-bit collisions) equal
    /// `(key, tag)` maps.
    pub fn root(&self) -> u64 {
        self.nodes[0]
    }

    /// Digest of tree node `id`, or `None` if `id` is out of range —
    /// sync peers treat malformed node ids as a no-op, never a panic.
    pub fn digest(&self, id: u32) -> Option<u64> {
        self.nodes.get(id as usize).copied()
    }

    /// Whether node `id` is a leaf (a bucket).
    pub fn is_leaf(&self, id: u32) -> bool {
        (id as usize) >= self.leaf_count - 1
    }

    /// The two children of internal node `id`, or `None` for leaves and
    /// out-of-range ids.
    pub fn children(&self, id: u32) -> Option<(u32, u32)> {
        let i = id as usize;
        if i >= self.nodes.len() || self.is_leaf(id) {
            return None;
        }
        Some((2 * id + 1, 2 * id + 2))
    }

    /// The bucket index a key hash falls into.
    pub fn bucket_of(&self, kh: u64) -> usize {
        (kh & (self.leaf_count as u64 - 1)) as usize
    }

    /// The tree node id of bucket `bucket`.
    pub fn leaf_id(&self, bucket: usize) -> u32 {
        debug_assert!(bucket < self.leaf_count);
        (self.leaf_count - 1 + bucket) as u32
    }

    /// The bucket index of leaf node `id`, or `None` for internal or
    /// out-of-range ids.
    pub fn bucket_of_leaf(&self, id: u32) -> Option<usize> {
        let i = id as usize;
        (i >= self.leaf_count - 1 && i < self.nodes.len()).then(|| i - (self.leaf_count - 1))
    }

    /// The **single mutating operation**: the entry for the key hashing to
    /// `kh` changed from tag `old` (`None` = absent) to `new` (`None` =
    /// removed). XORs the entry-digest delta into the key's bucket and
    /// every ancestor up to the root — O(log₂ buckets), no rescans.
    ///
    /// Callers outside `merkle.rs` must wrap this in their one
    /// `digest_update` helper: the tree is an index over the store, and an
    /// unpaired mutation silently corrupts every digest above the bucket.
    pub fn apply_delta(&mut self, kh: u64, old: Option<Tag>, new: Option<Tag>) {
        let mut delta = 0u64;
        if let Some(t) = old {
            delta ^= entry_digest(kh, t);
        }
        if let Some(t) = new {
            delta ^= entry_digest(kh, t);
        }
        let mut i = self.leaf_id(self.bucket_of(kh)) as usize;
        loop {
            self.nodes[i] ^= delta;
            if i == 0 {
                break;
            }
            i = (i - 1) >> 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ProcessId;

    fn tag(seq: u64, w: usize) -> Tag {
        Tag::new(seq, ProcessId(w))
    }

    /// Rebuild a tree from scratch over `entries`.
    fn build(leaves: usize, entries: &[(&str, Tag)]) -> MerkleTree {
        let mut t = MerkleTree::new(leaves);
        for (k, tg) in entries {
            t.apply_delta(key_hash(k), None, Some(*tg));
        }
        t
    }

    #[test]
    fn empty_trees_agree_and_root_is_zero() {
        let a = MerkleTree::new(16);
        let b = MerkleTree::new(16);
        assert_eq!(a.root(), 0);
        assert_eq!(a, b);
        assert_eq!(a.node_count(), 31);
    }

    #[test]
    fn key_hash_is_deterministic_and_spreads() {
        assert_eq!(key_hash(&42u32), key_hash(&42u32));
        assert_ne!(key_hash(&42u32), key_hash(&43u32));
        // A realistic keyspace spreads over all buckets of a small tree.
        let t = MerkleTree::new(8);
        let hit: std::collections::BTreeSet<usize> =
            (0..64u32).map(|k| t.bucket_of(key_hash(&k))).collect();
        assert_eq!(hit.len(), 8, "64 keys must touch all 8 buckets");
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let e = [("a", tag(1, 0)), ("b", tag(2, 1)), ("c", tag(7, 2))];
        let mut rev = e;
        rev.reverse();
        assert_eq!(build(8, &e), build(8, &rev));
    }

    #[test]
    fn tag_bump_equals_rebuild() {
        let mut inc = build(8, &[("a", tag(1, 0)), ("b", tag(1, 1))]);
        inc.apply_delta(key_hash("a"), Some(tag(1, 0)), Some(tag(5, 2)));
        let scratch = build(8, &[("a", tag(5, 2)), ("b", tag(1, 1))]);
        assert_eq!(inc, scratch);
    }

    #[test]
    fn removal_restores_the_prior_digest() {
        let before = build(8, &[("a", tag(1, 0))]);
        let mut t = build(8, &[("a", tag(1, 0))]);
        t.apply_delta(key_hash("b"), None, Some(tag(3, 1)));
        assert_ne!(t, before);
        t.apply_delta(key_hash("b"), Some(tag(3, 1)), None);
        assert_eq!(t, before);
    }

    #[test]
    fn divergence_is_visible_on_the_leaf_path_only() {
        let a = build(64, &[("x", tag(1, 0)), ("y", tag(1, 0))]);
        let b = build(64, &[("x", tag(2, 1)), ("y", tag(1, 0))]);
        // Roots differ; walking mismatching children reaches exactly the
        // leaf holding "x", with every other subtree pruned by equality.
        assert_ne!(a.root(), b.root());
        let mut frontier = vec![0u32];
        let mut mismatched_leaves = Vec::new();
        while let Some(id) = frontier.pop() {
            if a.digest(id) == b.digest(id) {
                continue;
            }
            match a.children(id) {
                Some((l, r)) => frontier.extend([l, r]),
                None => mismatched_leaves.push(id),
            }
        }
        let xb = a.bucket_of(key_hash("x"));
        let yb = a.bucket_of(key_hash("y"));
        assert_ne!(xb, yb, "test keys must land in distinct buckets");
        assert_eq!(mismatched_leaves, vec![a.leaf_id(xb)]);
    }

    #[test]
    fn topology_accessors_agree() {
        let t = MerkleTree::new(4); // nodes 0..=6, leaves 3..=6
        assert!(!t.is_leaf(0));
        assert_eq!(t.children(0), Some((1, 2)));
        assert_eq!(t.children(1), Some((3, 4)));
        assert!(t.is_leaf(3) && t.is_leaf(6));
        assert_eq!(t.children(3), None);
        assert_eq!(t.children(99), None);
        assert_eq!(t.digest(99), None);
        assert_eq!(t.bucket_of_leaf(3), Some(0));
        assert_eq!(t.bucket_of_leaf(6), Some(3));
        assert_eq!(t.bucket_of_leaf(2), None);
        assert_eq!(t.bucket_of_leaf(7), None);
        for b in 0..4 {
            assert_eq!(t.bucket_of_leaf(t.leaf_id(b)), Some(b));
        }
    }

    #[test]
    fn single_bucket_tree_degenerates_to_a_set_digest() {
        let mut t = MerkleTree::new(1);
        assert_eq!(t.node_count(), 1);
        assert!(t.is_leaf(0));
        t.apply_delta(key_hash("a"), None, Some(tag(1, 0)));
        assert_ne!(t.root(), 0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_bucket_count_is_rejected() {
        let _ = MerkleTree::new(6);
    }
}
