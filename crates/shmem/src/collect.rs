//! The *collect* primitive: read all registers once, in index order.
//!
//! A collect is **not** an atomic snapshot — the reads happen at different
//! times — but for *monotone* per-register data it is already linearizable
//! (each component only grows, so the collected vector lies between the
//! true states at the collect's start and end). The counter and
//! max-register in this crate exploit exactly that; the snapshot object
//! exists for when monotonicity is not available.

use crate::array::RegisterArray;

/// Reads every register once, in index order.
pub(crate) fn collect<V: Clone, R: RegisterArray<V>>(regs: &mut R) -> Vec<V> {
    (0..regs.len()).map(|i| regs.read(i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::LocalAtomicArray;

    #[test]
    fn collect_reads_in_index_order() {
        let mut a = LocalAtomicArray::new(3, 0u32);
        a.write(0, 10);
        a.write(2, 30);
        assert_eq!(collect(&mut a), vec![10, 0, 30]);
    }

    #[test]
    fn collect_of_empty_array() {
        let mut a: LocalAtomicArray<u8> = LocalAtomicArray::new(0, 0);
        assert!(collect(&mut a).is_empty());
    }
}
