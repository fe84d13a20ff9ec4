//! One-shot wait-free **renaming** (Attiya, Bar-Noy, Dolev, Peleg,
//! Reischuk, JACM 1990).
//!
//! Renaming is the problem that *led to* ABD: the authors were looking for
//! message-passing renaming algorithms when they built the shared-memory
//! emulation (see the Dijkstra Prize account). Here the circle closes —
//! the snapshot-based renaming algorithm, written for shared memory, runs
//! over the emulation like every other algorithm in this crate.
//!
//! Processes start with large, distinct original names and must choose
//! distinct *new* names from a small space. The classic snapshot-based
//! algorithm:
//!
//! 1. propose a name (initially `1`), publish `(original_id, proposal)` in
//!    your snapshot segment;
//! 2. atomically scan everyone's proposals;
//! 3. if someone else proposes the same name, compute your **rank** `r`
//!    among the original ids seen, and re-propose the `r`-th smallest name
//!    not proposed by anyone else; goto 1;
//! 4. if nobody clashes, decide your proposal.
//!
//! With `k` participating processes the decided names fall in
//! `1 ..= 2k − 1` — the tight bound for this algorithm family.

use crate::array::RegisterArray;
use crate::snapshot::{Segment, SnapshotObject};

/// Contents of one renaming segment: `None` until the process starts
/// participating.
pub type RenamingSlot = Option<(u64, usize)>;

/// Process `me`'s handle on a one-shot renaming object over `n` slots.
///
/// # Examples
///
/// ```
/// use abd_shmem::array::LocalAtomicArray;
/// use abd_shmem::renaming::Renaming;
/// use abd_shmem::snapshot::Segment;
///
/// let regs = LocalAtomicArray::new(3, Segment::initial(3, None));
/// let mut a = Renaming::new(0, 1001, regs.clone());
/// let mut b = Renaming::new(1, 1002, regs.clone());
/// let na = a.acquire();
/// let nb = b.acquire();
/// assert_ne!(na, nb);
/// assert!(na >= 1 && na <= 5, "names fall in 1..=2k-1");
/// ```
#[derive(Clone, Debug)]
pub struct Renaming<R> {
    snapshot: SnapshotObject<RenamingSlot, R>,
    me: usize,
    original: u64,
    decided: Option<usize>,
}

impl<R: RegisterArray<Segment<RenamingSlot>>> Renaming<R> {
    /// Creates process `me`'s handle; `original` is its distinct original
    /// name (any `u64`).
    pub fn new(me: usize, original: u64, regs: R) -> Self {
        Renaming {
            snapshot: SnapshotObject::new(me, regs),
            me,
            original,
            decided: None,
        }
    }

    /// Acquires a new name. Idempotent: calling again returns the same
    /// name.
    ///
    /// # Panics
    ///
    /// Panics if another participant published the same original name
    /// (original names must be distinct).
    pub fn acquire(&mut self) -> usize {
        if let Some(n) = self.decided {
            return n;
        }
        let mut proposal = 1usize;
        loop {
            self.snapshot.update(Some((self.original, proposal)));
            let snap = self.snapshot.scan();
            let others: Vec<(u64, usize)> = snap
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != self.me)
                .filter_map(|(_, slot)| *slot)
                .collect();
            assert!(
                others.iter().all(|(oid, _)| *oid != self.original),
                "duplicate original name {}",
                self.original
            );
            if others.iter().any(|(_, p)| *p == proposal) {
                // Clash: take the rank-th free name.
                let mut ids: Vec<u64> = others.iter().map(|(oid, _)| *oid).collect();
                ids.push(self.original);
                ids.sort_unstable();
                let rank = ids
                    .iter()
                    .position(|&x| x == self.original)
                    .expect("own id")
                    + 1;
                let taken: Vec<usize> = others.iter().map(|(_, p)| *p).collect();
                proposal = (1..)
                    .filter(|name| !taken.contains(name))
                    .nth(rank - 1)
                    .expect("infinitely many free names");
            } else {
                self.decided = Some(proposal);
                return proposal;
            }
        }
    }

    /// The decided name, if [`acquire`](Self::acquire) has completed.
    #[cfg(test)]
    fn name(&self) -> Option<usize> {
        self.decided
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::LocalAtomicArray;

    fn fresh(n: usize) -> LocalAtomicArray<Segment<RenamingSlot>> {
        LocalAtomicArray::new(n, Segment::initial(n, None))
    }

    #[test]
    fn solo_process_gets_name_one() {
        let mut r = Renaming::new(0, 42, fresh(4));
        assert_eq!(r.acquire(), 1);
        assert_eq!(r.name(), Some(1));
        assert_eq!(r.acquire(), 1, "idempotent");
    }

    #[test]
    fn sequential_processes_get_distinct_small_names() {
        let regs = fresh(4);
        let mut names = Vec::new();
        for p in 0..4 {
            let mut r = Renaming::new(p, 1000 + p as u64, regs.clone());
            names.push(r.acquire());
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 4, "names must be distinct: {names:?}");
        assert!(
            names.iter().all(|&n| (1..=7).contains(&n)),
            "2k-1 bound: {names:?}"
        );
    }

    #[test]
    fn concurrent_processes_get_distinct_names() {
        for trial in 0..20 {
            let n = 6;
            let regs = fresh(n);
            let mut joins = Vec::new();
            for p in 0..n {
                let regs = regs.clone();
                // Shuffle original-name order across trials.
                let original = 10_000 + ((p as u64 + trial) % n as u64) * 17 + p as u64 * 1000;
                joins.push(std::thread::spawn(move || {
                    let mut r = Renaming::new(p, original, regs);
                    r.acquire()
                }));
            }
            let names: Vec<usize> = joins.into_iter().map(|j| j.join().unwrap()).collect();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(
                sorted.len(),
                n,
                "trial {trial}: duplicate names in {names:?}"
            );
            assert!(
                names.iter().all(|&nm| (1..=2 * n - 1).contains(&nm)),
                "trial {trial}: name out of 2k-1 space: {names:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "duplicate original name")]
    fn duplicate_original_names_detected() {
        let regs = fresh(2);
        let mut a = Renaming::new(0, 7, regs.clone());
        let mut b = Renaming::new(1, 7, regs.clone());
        a.acquire();
        b.acquire();
    }

    #[test]
    fn late_joiner_slots_in() {
        let regs = fresh(3);
        let mut a = Renaming::new(0, 100, regs.clone());
        let mut b = Renaming::new(1, 200, regs.clone());
        let na = a.acquire();
        let nb = b.acquire();
        let mut c = Renaming::new(2, 300, regs.clone());
        let nc = c.acquire();
        assert_ne!(nc, na);
        assert_ne!(nc, nb);
    }
}
