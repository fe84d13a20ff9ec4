//! # abd-shmem — shared-memory algorithms, portable onto message passing
//!
//! The ABD paper's headline implication: *"algorithms designed in the more
//! abstract shared-memory model can be directly implemented in
//! message-passing systems."* This crate holds the shared-memory side of
//! that bargain — classic wait-free algorithms written against an abstract
//! array of atomic registers ([`array::RegisterArray`]):
//!
//! * [`snapshot`] — the Afek et al. wait-free atomic snapshot;
//! * [`collect`] — the collect primitive and its monotone-data uses;
//! * [`counter`] — a linearizable increment-only counter;
//! * [`maxreg`] — a linearizable max-register;
//! * [`sw2mw`] — a multi-writer register from single-writer registers,
//!   the shared-memory mirror of the multi-writer emulation's tags;
//! * [`renaming`] — one-shot wait-free renaming over snapshots, the very
//!   problem that led the authors to the emulation.
//!
//! Every algorithm runs identically over:
//!
//! * [`array::LocalAtomicArray`] — process-local registers (unit tests,
//!   baselines), and
//! * the ABD-emulated registers exposed by `abd-runtime`'s
//!   `KvRegisterArray` — at which point these algorithms are running on an
//!   asynchronous, crash-prone message-passing system, which is the paper's
//!   entire point (experiment **F5** measures the cost of that portability).
//!
//! ```
//! use abd_shmem::array::LocalAtomicArray;
//! use abd_shmem::counter::Counter;
//!
//! let regs = LocalAtomicArray::new(4, 0u64);
//! let mut c = Counter::new(0, regs);
//! c.increment();
//! c.add(4);
//! assert_eq!(c.value(), 5);
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod array;
pub mod collect;
pub mod counter;
pub mod maxreg;
pub mod renaming;
pub mod snapshot;
pub mod sw2mw;

pub use array::{LocalAtomicArray, RegisterArray};
pub use counter::Counter;
pub use maxreg::MaxRegister;
pub use renaming::Renaming;
pub use snapshot::{Segment, SnapshotObject};
pub use sw2mw::{MwCell, MwRegister, MwTag};
