//! Wait-free atomic snapshots (Afek, Attiya, Dolev, Gafni, Merritt, Shavit,
//! JACM 1993 — the unbounded-sequence-number version).
//!
//! An *atomic snapshot object* has `n` segments; process `i` may `update`
//! segment `i`, and any process may `scan` all segments atomically. It is
//! the workhorse abstraction of wait-free computing — and precisely the
//! kind of algorithm the ABD paper's conclusion promises can run, verbatim,
//! on a message-passing system. Experiment **F5** runs this implementation
//! over both local registers and the ABD emulation and compares costs.
//!
//! The algorithm, over an array of atomic registers (one per process):
//!
//! * each register holds `(value, seq, embedded_snapshot)`;
//! * **scan**: collect all registers repeatedly; if two successive collects
//!   show no sequence-number change, the second collect is a consistent
//!   snapshot ("clean double collect"). Otherwise, any process observed to
//!   move **twice** has executed a complete `update` inside our scan — its
//!   embedded snapshot was taken inside our interval, so we can *borrow*
//!   it. One of the two cases occurs within `n + 1` collects: wait-free.
//! * **update**: scan first, then write `(value, seq + 1, scan_result)` to
//!   your own register.

use crate::array::RegisterArray;

/// Contents of one snapshot segment register.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Segment<V> {
    /// The application value of this segment.
    pub value: V,
    /// Update count of the owning process (0 = never updated).
    pub seq: u64,
    /// Snapshot embedded by the owner's last update; scanners may borrow
    /// it.
    pub embedded: Vec<V>,
}

impl<V: Clone> Segment<V> {
    /// The segment every register starts with.
    pub fn initial(n: usize, initial: V) -> Self {
        Segment {
            value: initial.clone(),
            seq: 0,
            embedded: vec![initial; n],
        }
    }
}

/// A handle on the snapshot object for one process.
///
/// # Examples
///
/// ```
/// use abd_shmem::array::LocalAtomicArray;
/// use abd_shmem::snapshot::{Segment, SnapshotObject};
///
/// let regs = LocalAtomicArray::new(3, Segment::initial(3, 0u64));
/// let mut p0 = SnapshotObject::new(0, regs.clone());
/// let mut p2 = SnapshotObject::new(2, regs.clone());
/// p0.update(10);
/// p2.update(30);
/// assert_eq!(p0.scan(), vec![10, 0, 30]);
/// ```
#[derive(Clone, Debug)]
pub struct SnapshotObject<V, R> {
    me: usize,
    regs: R,
    _marker: std::marker::PhantomData<V>,
}

impl<V, R> SnapshotObject<V, R>
where
    V: Clone + PartialEq + std::fmt::Debug,
    R: RegisterArray<Segment<V>>,
{
    /// Creates process `me`'s handle over the register array (one segment
    /// register per process).
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range.
    pub fn new(me: usize, regs: R) -> Self {
        assert!(
            me < regs.len(),
            "process id {me} out of range for {} segments",
            regs.len()
        );
        SnapshotObject {
            me,
            regs,
            _marker: std::marker::PhantomData,
        }
    }

    fn collect(&mut self) -> Vec<Segment<V>> {
        (0..self.regs.len()).map(|i| self.regs.read(i)).collect()
    }

    /// Atomically reads all segments.
    pub fn scan(&mut self) -> Vec<V> {
        let n = self.regs.len();
        let mut moved = vec![0u32; n];
        let mut prev = self.collect();
        loop {
            let cur = self.collect();
            if prev.iter().zip(&cur).all(|(a, b)| a.seq == b.seq) {
                // Clean double collect.
                return cur.into_iter().map(|s| s.value).collect();
            }
            for i in 0..n {
                if prev[i].seq != cur[i].seq {
                    moved[i] += 1;
                    if moved[i] >= 2 {
                        // Process i completed a full update inside our scan;
                        // its embedded snapshot is linearizable in our
                        // interval.
                        return cur[i].embedded.clone();
                    }
                }
            }
            prev = cur;
        }
    }

    /// Atomically replaces this process's segment value with `v`.
    pub fn update(&mut self, v: V) {
        let embedded = self.scan();
        let seq = self.regs.read(self.me).seq + 1;
        self.regs.write(
            self.me,
            Segment {
                value: v,
                seq,
                embedded,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::LocalAtomicArray;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn fresh(n: usize) -> LocalAtomicArray<Segment<u64>> {
        LocalAtomicArray::new(n, Segment::initial(n, 0))
    }

    #[test]
    fn scan_of_fresh_object_is_all_initial() {
        let mut s = SnapshotObject::new(0, fresh(4));
        assert_eq!(s.scan(), vec![0, 0, 0, 0]);
    }

    #[test]
    fn updates_are_visible_to_scans() {
        let regs = fresh(3);
        let mut p0 = SnapshotObject::new(0, regs.clone());
        let mut p1 = SnapshotObject::new(1, regs.clone());
        p0.update(5);
        p1.update(6);
        p0.update(7);
        assert_eq!(p1.scan(), vec![7, 6, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_process_id_rejected() {
        let _ = SnapshotObject::new(3, fresh(3));
    }

    #[test]
    fn concurrent_scans_are_monotone_snapshots() {
        // Updaters bump their segments with increasing values; scanners
        // continuously scan. Every scan must be (a) componentwise monotone
        // over time per scanner and (b) internally consistent: segment i
        // values only grow, so scan_t <= scan_{t+1} componentwise.
        let n = 4;
        let regs = fresh(n);
        let stop = Arc::new(AtomicBool::new(false));
        let mut joins = Vec::new();
        for p in 0..n {
            let regs = regs.clone();
            let stop = Arc::clone(&stop);
            joins.push(std::thread::spawn(move || {
                let mut obj = SnapshotObject::new(p, regs);
                let mut v = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    v += 1;
                    obj.update(v);
                }
            }));
        }
        let mut scanner = SnapshotObject::new(0, regs.clone());
        let mut last = vec![0u64; n];
        for _ in 0..2000 {
            let snap = scanner.scan();
            for i in 0..n {
                assert!(
                    snap[i] >= last[i],
                    "snapshot regressed at segment {i}: {last:?} -> {snap:?}"
                );
            }
            last = snap;
        }
        stop.store(true, Ordering::Relaxed);
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn borrowed_snapshots_are_consistent_pairs() {
        // Two updaters write coupled values (a, a) — any consistent
        // snapshot must see equal first/second segments or differ by at
        // most the in-flight update.
        let regs = fresh(2);
        let stop = Arc::new(AtomicBool::new(false));
        let s0 = Arc::clone(&stop);
        let r0 = regs.clone();
        let updater = std::thread::spawn(move || {
            let mut a = SnapshotObject::new(0, r0.clone());
            let mut b = SnapshotObject::new(1, r0);
            let mut v = 0u64;
            while !s0.load(Ordering::Relaxed) {
                v += 1;
                a.update(v);
                b.update(v);
            }
        });
        let mut scanner = SnapshotObject::new(0, regs.clone());
        for _ in 0..2000 {
            let snap = scanner.scan();
            // Segment 0 is updated before segment 1 with the same value, so
            // a consistent snapshot always satisfies s1 <= s0 <= s1 + 1.
            assert!(
                snap[1] <= snap[0] && snap[0] <= snap[1] + 1,
                "inconsistent snapshot {snap:?}"
            );
        }
        stop.store(true, Ordering::Relaxed);
        updater.join().unwrap();
    }
}
