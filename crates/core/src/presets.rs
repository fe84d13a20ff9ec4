//! Named protocol configurations used throughout the experiments.
//!
//! Each preset pins down one point in the design space the benchmark
//! harness sweeps:
//!
//! | preset | quorums | read write-back | semantics |
//! |--------|---------|-----------------|-----------|
//! | [`atomic_swmr`] / [`atomic_mwmr`] | majority | yes | atomic (the paper) |
//! | [`fast_swmr`] / [`fast_mwmr`] | majority | elided when unanimous | atomic, 1-round reads uncontended |
//! | [`relay_swmr`] / [`relay_mwmr`] | majority | replaced by server relay | atomic, 1.5-round reads *even contended* |
//! | [`regular_swmr`] / [`regular_mwmr`] | majority | no | regular (baseline) |
//! | [`read_one_swmr`] | `R=1, W=majority` | no | *not even regular* |

use crate::mwmr::MwmrConfig;
use crate::quorum::{Majority, Threshold};
use crate::swmr::SwmrConfig;
use crate::types::{ProcessId, ReadMode};
use std::sync::Arc;

/// The paper's single-writer protocol: majority quorums, reads write back.
pub fn atomic_swmr(n: usize, me: ProcessId, writer: ProcessId) -> SwmrConfig {
    SwmrConfig::new(n, me, writer)
}

/// The paper's single-writer protocol with the one-round read fast path:
/// a read whose query quorum unanimously reports the max label (and forms
/// a write quorum) skips the write-back — still atomic, see
/// [`fast_read_allowed`](crate::quorum::fast_read_allowed).
pub fn fast_swmr(n: usize, me: ProcessId, writer: ProcessId) -> SwmrConfig {
    SwmrConfig::new(n, me, writer).with_read_mode(ReadMode::FastUnanimous)
}

/// The single-writer protocol with relay reads: servers forward tags among
/// themselves and reply to the reader directly, so *every* read — even
/// under write contention — completes in 1.5 message delays (at `n² − 1`
/// messages per read). Still atomic; see the `register` module docs.
pub fn relay_swmr(n: usize, me: ProcessId, writer: ProcessId) -> SwmrConfig {
    SwmrConfig::new(n, me, writer).with_read_mode(ReadMode::Relay)
}

/// Single-writer baseline that skips the read write-back: only *regular* —
/// two overlapping reads may observe a new value then an old one.
pub fn regular_swmr(n: usize, me: ProcessId, writer: ProcessId) -> SwmrConfig {
    SwmrConfig::new(n, me, writer).with_read_write_back(false)
}

/// Deliberately broken baseline: reads return the local replica (`R = 1`),
/// writes still reach a majority. Fast, and not even regular — a completed
/// write may be invisible to a subsequent read.
pub fn read_one_swmr(n: usize, me: ProcessId, writer: ProcessId) -> SwmrConfig {
    SwmrConfig::new(n, me, writer)
        .with_quorum(Arc::new(Threshold::new(
            n,
            1,
            Majority::new(n).quorum_size(),
        )))
        .with_read_write_back(false)
}

/// The multi-writer protocol with majority quorums: atomic.
pub fn atomic_mwmr(n: usize, me: ProcessId) -> MwmrConfig {
    MwmrConfig::new(n, me)
}

/// The multi-writer protocol with the one-round read fast path (writes
/// keep both phases — their query round orders concurrent writers).
pub fn fast_mwmr(n: usize, me: ProcessId) -> MwmrConfig {
    MwmrConfig::new(n, me).with_read_mode(ReadMode::FastUnanimous)
}

/// The multi-writer protocol with relay reads (see [`relay_swmr`]).
pub fn relay_mwmr(n: usize, me: ProcessId) -> MwmrConfig {
    MwmrConfig::new(n, me).with_read_mode(ReadMode::Relay)
}

/// Multi-writer baseline without the read write-back: regular reads.
pub fn regular_mwmr(n: usize, me: ProcessId) -> MwmrConfig {
    MwmrConfig::new(n, me).with_read_write_back(false)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_presets_validate() {
        assert!(atomic_swmr(5, ProcessId(1), ProcessId(0))
            .quorum
            .validate(false)
            .is_ok());
        assert!(atomic_mwmr(5, ProcessId(1)).quorum.validate(true).is_ok());
    }

    #[test]
    fn read_one_is_knowingly_broken() {
        let cfg = read_one_swmr(5, ProcessId(0), ProcessId(0));
        assert!(cfg.quorum.validate(false).is_err());
        assert!(!cfg.read_write_back);
    }

    #[test]
    fn fast_presets_only_flip_the_read_mode() {
        let a = atomic_swmr(5, ProcessId(0), ProcessId(0));
        let f = fast_swmr(5, ProcessId(0), ProcessId(0));
        assert_eq!(a.read_mode, ReadMode::TwoRound);
        assert_eq!(f.read_mode, ReadMode::FastUnanimous);
        assert!(f.read_write_back, "fast path still needs the atomic base");
        assert_eq!(
            fast_mwmr(5, ProcessId(1)).read_mode,
            ReadMode::FastUnanimous
        );
    }

    #[test]
    fn relay_presets_select_relay_reads() {
        let s = relay_swmr(5, ProcessId(0), ProcessId(0));
        assert_eq!(s.read_mode, ReadMode::Relay);
        assert!(s.read_write_back, "relay mode keeps the atomic base");
        assert_eq!(relay_mwmr(5, ProcessId(2)).read_mode, ReadMode::Relay);
    }

    #[test]
    fn regular_presets_differ_only_in_write_back() {
        let a = atomic_swmr(3, ProcessId(0), ProcessId(0));
        let r = regular_swmr(3, ProcessId(0), ProcessId(0));
        assert!(a.read_write_back);
        assert!(!r.read_write_back);
        assert_eq!(a.quorum.n(), r.quorum.n());
    }
}
