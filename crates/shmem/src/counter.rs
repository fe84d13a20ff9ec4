//! A wait-free increment-only shared counter.
//!
//! Classic single-writer decomposition: process `i` keeps its personal
//! count in register `i`; `increment` is one read and one write of the
//! process's own register, and `value` collects and sums.
//!
//! Because every register is **monotone non-decreasing**, the sum of a
//! collect is sandwiched between the counter's true value at the collect's
//! start and at its end — so `value()` is linearizable without any snapshot
//! machinery, one of the pleasant special cases the shared-memory
//! literature leans on.

use crate::array::RegisterArray;
use crate::collect::collect;

/// Process `me`'s handle on a shared counter over `n` registers.
///
/// # Examples
///
/// ```
/// use abd_shmem::array::LocalAtomicArray;
/// use abd_shmem::counter::Counter;
///
/// let regs = LocalAtomicArray::new(2, 0u64);
/// let mut c0 = Counter::new(0, regs.clone());
/// let mut c1 = Counter::new(1, regs.clone());
/// c0.increment();
/// c1.increment();
/// c1.increment();
/// assert_eq!(c0.value(), 3);
/// ```
#[derive(Clone, Debug)]
pub struct Counter<R> {
    me: usize,
    regs: R,
}

impl<R: RegisterArray<u64>> Counter<R> {
    /// Creates process `me`'s handle.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range.
    pub fn new(me: usize, regs: R) -> Self {
        assert!(me < regs.len(), "process id {me} out of range");
        Counter { me, regs }
    }

    /// Adds 1 to the counter. Wait-free: one read + one write of the
    /// process's own register.
    pub fn increment(&mut self) {
        self.add(1);
    }

    /// Adds `k` to the counter.
    pub fn add(&mut self, k: u64) {
        let cur = self.regs.read(self.me);
        self.regs.write(self.me, cur + k);
    }

    /// The counter's value: sum of one collect. Linearizable because every
    /// component is monotone.
    pub fn value(&mut self) -> u64 {
        collect(&mut self.regs).into_iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::LocalAtomicArray;

    #[test]
    fn increments_from_all_processes_sum() {
        let regs = LocalAtomicArray::new(3, 0u64);
        let mut handles: Vec<Counter<_>> = (0..3).map(|i| Counter::new(i, regs.clone())).collect();
        for (i, h) in handles.iter_mut().enumerate() {
            for _ in 0..=i {
                h.increment();
            }
        }
        assert_eq!(handles[0].value(), 1 + 2 + 3);
    }

    #[test]
    fn add_bulk() {
        let regs = LocalAtomicArray::new(2, 0u64);
        let mut c = Counter::new(0, regs);
        c.add(10);
        c.add(5);
        assert_eq!(c.value(), 15);
    }

    #[test]
    fn concurrent_increments_are_never_lost() {
        let n = 8;
        let per = 1_000u64;
        let regs = LocalAtomicArray::new(n, 0u64);
        let mut joins = Vec::new();
        for p in 0..n {
            let regs = regs.clone();
            joins.push(std::thread::spawn(move || {
                let mut c = Counter::new(p, regs);
                for _ in 0..per {
                    c.increment();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut c = Counter::new(0, regs);
        assert_eq!(c.value(), n as u64 * per);
    }

    #[test]
    fn value_is_monotone_under_concurrency() {
        let n = 4;
        let regs = LocalAtomicArray::new(n, 0u64);
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut joins = Vec::new();
        for p in 0..n {
            let regs = regs.clone();
            let stop = std::sync::Arc::clone(&stop);
            joins.push(std::thread::spawn(move || {
                let mut c = Counter::new(p, regs);
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    c.increment();
                }
            }));
        }
        let mut reader = Counter::new(0, regs.clone());
        let mut last = 0;
        for _ in 0..5_000 {
            let v = reader.value();
            assert!(v >= last, "counter regressed: {last} -> {v}");
            last = v;
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for j in joins {
            j.join().unwrap();
        }
    }
}
