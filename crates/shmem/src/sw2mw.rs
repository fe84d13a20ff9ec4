//! A multi-writer register built from single-writer registers
//! (Vitányi–Awerbuch style, with unbounded `(seq, pid)` tags).
//!
//! This is the *shared-memory* analogue of the tagging trick the
//! message-passing multi-writer emulation uses, included both as another
//! portability witness for the ABD thesis and because its tags make the
//! relationship between the two constructions plain:
//!
//! * **write(v)**: collect all registers, pick `(max_seq + 1, my_pid)`,
//!   write `(tag, v)` to your own register;
//! * **read()**: collect all registers, return the value with the largest
//!   tag.
//!
//! Each process's own register carries strictly increasing tags, so the
//! maximum over a collect is monotone and reads never invert.

use crate::array::RegisterArray;
use crate::collect::collect;

/// A `(seq, pid)` tag ordering multi-writer writes, mirroring
/// `abd_core::types::Tag`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct MwTag {
    /// Sequence component.
    pub seq: u64,
    /// Writer id, breaking ties.
    pub pid: usize,
}

/// One single-writer cell of the construction.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MwCell<V> {
    /// Tag of the stored value.
    pub tag: MwTag,
    /// The stored value.
    pub value: V,
}

impl<V: Clone> MwCell<V> {
    /// The initial cell (tag `(0, 0)`).
    pub fn initial(v: V) -> Self {
        MwCell {
            tag: MwTag::default(),
            value: v,
        }
    }
}

/// Process `me`'s handle on the emulated multi-writer register.
///
/// # Examples
///
/// ```
/// use abd_shmem::array::LocalAtomicArray;
/// use abd_shmem::sw2mw::{MwCell, MwRegister};
///
/// let regs = LocalAtomicArray::new(3, MwCell::initial(0u64));
/// let mut p0 = MwRegister::new(0, regs.clone());
/// let mut p2 = MwRegister::new(2, regs.clone());
/// p0.write(5);
/// p2.write(9);
/// assert_eq!(p0.read(), 9);
/// ```
#[derive(Clone, Debug)]
pub struct MwRegister<V, R> {
    me: usize,
    regs: R,
    _marker: std::marker::PhantomData<V>,
}

impl<V, R> MwRegister<V, R>
where
    V: Clone + std::fmt::Debug,
    R: RegisterArray<MwCell<V>>,
{
    /// Creates process `me`'s handle.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range.
    pub fn new(me: usize, regs: R) -> Self {
        assert!(me < regs.len(), "process id {me} out of range");
        MwRegister {
            me,
            regs,
            _marker: std::marker::PhantomData,
        }
    }

    /// Writes `v` to the multi-writer register.
    pub fn write(&mut self, v: V) {
        let max_tag = collect(&mut self.regs)
            .into_iter()
            .map(|c| c.tag)
            .max()
            .unwrap_or_default();
        let tag = MwTag {
            seq: max_tag.seq + 1,
            pid: self.me,
        };
        self.regs.write(self.me, MwCell { tag, value: v });
    }

    /// Reads the multi-writer register.
    pub fn read(&mut self) -> V {
        collect(&mut self.regs)
            .into_iter()
            .max_by_key(|c| c.tag)
            .expect("register array must be non-empty")
            .value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::LocalAtomicArray;

    #[test]
    fn tags_order_lexicographically() {
        assert!(MwTag { seq: 1, pid: 0 } < MwTag { seq: 1, pid: 1 });
        assert!(MwTag { seq: 1, pid: 9 } < MwTag { seq: 2, pid: 0 });
    }

    #[test]
    fn last_write_wins() {
        let regs = LocalAtomicArray::new(2, MwCell::initial(0u32));
        let mut a = MwRegister::new(0, regs.clone());
        let mut b = MwRegister::new(1, regs.clone());
        a.write(1);
        b.write(2);
        a.write(3);
        assert_eq!(b.read(), 3);
    }

    #[test]
    fn initial_value_readable() {
        let regs = LocalAtomicArray::new(3, MwCell::initial(String::from("init")));
        let mut r = MwRegister::new(1, regs);
        assert_eq!(r.read(), "init");
    }

    #[test]
    fn concurrent_writers_histories_are_linearizable() {
        use abd_core::clock::{Clock, TickClock};
        use abd_lincheck::history::{History, RegAction};
        let n = 4;
        let regs = LocalAtomicArray::new(n, MwCell::initial(0u64));
        // A shared tick counter gives every event a globally unique,
        // real-time-ordered timestamp without reading a wall clock.
        let clock = std::sync::Arc::new(TickClock::new());
        type Rec = Vec<(usize, RegAction<u64>, u64, u64)>;
        let rec: std::sync::Arc<parking_lot::Mutex<Rec>> = Default::default();
        let mut joins = Vec::new();
        for p in 0..n {
            let regs = regs.clone();
            let rec = std::sync::Arc::clone(&rec);
            let clock = std::sync::Arc::clone(&clock);
            joins.push(std::thread::spawn(move || {
                let mut reg = MwRegister::new(p, regs);
                for k in 0..50u64 {
                    let v = ((p as u64 + 1) << 32) | k;
                    let s = clock.now();
                    reg.write(v);
                    let e = clock.now();
                    rec.lock().push((p, RegAction::Write(v), s, e));
                    let s = clock.now();
                    let got = reg.read();
                    let e = clock.now();
                    rec.lock().push((p, RegAction::Read(got), s, e));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let mut h = History::new(0u64);
        for (c, a, s, e) in rec.lock().drain(..) {
            h.push(c, a, s, e);
        }
        assert!(h.validate_sequential_clients().is_ok());
        assert_eq!(
            abd_lincheck::check_linearizable(&h),
            abd_lincheck::CheckResult::Linearizable
        );
    }
}
