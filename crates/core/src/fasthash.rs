//! A fixed multiply-xor hasher for maps keyed by small integers.
//!
//! `std`'s default SipHash defends against adversarial keys; the maps on the
//! hot paths here are keyed by uids, process ids and interned indices this
//! process minted itself, so they pay for a defence nobody needs. One
//! widening multiply per word, its two halves xored together, is enough,
//! and because it is unseeded a map's iteration order is a function of its
//! insertion history alone.
//!
//! The checker crate (`abd-lincheck`, which depends on nothing) compiles
//! this same file through a `#[path]` module, so it names only `std`.

use std::hash::{BuildHasherDefault, Hasher};

/// `BuildHasher` for a `std` map or set hashed with [`FastHasher`].
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// One folded multiply per word written; see the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher(u64);

/// 2^64 / φ, odd: consecutive keys land far apart.
const K: u64 = 0x9E37_79B9_7F4A_7C15;

impl FastHasher {
    /// Xoring the product's high half into its low half gives every output
    /// bit a share of every input bit, whichever end of the word the keys
    /// differ at: the table indexes by the low bits and tags by the high.
    #[inline]
    fn mix(&mut self, word: u64) {
        let wide = u128::from(self.0 ^ word) * u128::from(K);
        self.0 = wide as u64 ^ (wide >> 64) as u64;
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes([
                c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
            ]));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            // The length keeps "ab" and "ab\0" apart.
            self.mix(u64::from_le_bytes(last) ^ ((rest.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.mix(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn h<T: Hash>(t: T) -> u64 {
        FastBuild::default().hash_one(t)
    }

    #[test]
    fn unseeded_and_spread_over_low_and_high_bits() {
        assert_eq!(h(7u64), h(7u64));
        // Keys that differ only in their high bits must still differ in
        // the bits a 1024-bucket table indexes by, and small keys in the
        // seven bits it tags by.
        let low: std::collections::BTreeSet<u64> = (0..512u64).map(|i| h(i << 40) & 1023).collect();
        assert!(low.len() > 256, "{} distinct low-bit patterns", low.len());
        let top: std::collections::BTreeSet<u64> = (0..512u64).map(|i| h(i) >> 57).collect();
        assert_eq!(top.len(), 128);
    }

    #[test]
    fn byte_strings_and_tuples_hash_by_content() {
        assert_ne!(h("ab"), h("ab\0"));
        assert_ne!(h((1usize, 2u64)), h((2usize, 1u64)));
        assert_ne!(h([1u64, 0][..].to_vec()), h([1u64][..].to_vec()));
        assert_eq!(h(String::from("key-17")), h("key-17"));
    }
}
