//! # abd-lincheck — consistency checkers for register histories
//!
//! The ABD paper's claims are *correctness* claims: the emulated register is
//! **atomic** (linearizable), while cheaper constructions are merely
//! *regular* or *safe*. This crate turns those claims into measurements:
//!
//! * [`history`] — recording operation intervals from any execution
//!   (simulated or real);
//! * [`wg`] — a memoized Wing–Gong search deciding linearizability for
//!   arbitrary register histories (multi-writer, pending operations);
//! * [`sc`] — an exact memoized search deciding *sequential consistency*
//!   (program order only, no cross-client real-time constraint), the tier
//!   SC-ABD reads promise;
//! * [`regularity`] — linear-time detectors for single-writer unique-value
//!   histories: regularity/safeness violations and the *new/old inversion*
//!   anomaly that separates regular from atomic registers.
//!
//! The crate holds checkers only. Which one judges a campaign is
//! `abd-simnet`'s `OracleSpec`, the one place a replay's verdict is chosen.
//!
//! ## Example
//!
//! ```
//! use abd_lincheck::history::{History, RegAction};
//! use abd_lincheck::wg::{check_linearizable, CheckResult};
//!
//! let mut h = History::new(0u32);
//! h.push(0, RegAction::Write(1), 0, 10);
//! h.push(1, RegAction::Read(1), 20, 30);
//! assert_eq!(check_linearizable(&h), CheckResult::Linearizable);
//!
//! // A stale read after a completed write is not atomic:
//! h.push(2, RegAction::Read(0), 40, 50);
//! assert_eq!(check_linearizable(&h), CheckResult::NotLinearizable);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod history;
pub mod regularity;
pub mod sc;
pub mod wg;

pub use history::{CompletedOp, History, RegAction};
pub use regularity::{check_regular_swmr, find_new_old_inversions, is_atomic_swmr, Anomaly};
pub use sc::{check_sequential, check_sequential_with_limit, ScCheckResult};
pub use wg::{
    check_linearizable, check_linearizable_counting_states, check_linearizable_with_limit,
    CheckResult,
};
