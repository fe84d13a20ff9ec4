//! Integration: the paper's correctness theorem under a randomized
//! adversary — every seeded schedule of the ABD protocols yields a
//! linearizable history, while the baselines demonstrably leak anomalies
//! somewhere in the same sweep.

use abd_core::quorum::{Majority, Threshold};
use abd_core::types::{ProcessId, ReadMode};
use abd_core::{MwmrConfig, SwmrConfig};
use abd_repro::lincheck::{
    check_linearizable, check_regular_swmr, find_new_old_inversions, CheckResult,
};
use abd_repro::simnet::workload::{run_workload, WorkloadConfig, WriterMode};
use abd_repro::simnet::{LatencyModel, Sim, SimConfig};
use std::sync::Arc;

const SEEDS: u64 = 120;

fn adversarial(seed: u64) -> SimConfig {
    SimConfig::new(seed)
        .with_latency(LatencyModel::Uniform {
            lo: 100,
            hi: 50_000,
        })
        .with_duplication(0.1)
}

/// Bimodal delays: writes straggle across many fast reads — the schedule
/// shape that exposes the baselines' anomalies (same idea as experiment
/// T5, dialed up so anomalies appear reliably within the test's seed
/// budget).
fn straggly(seed: u64) -> SimConfig {
    SimConfig::new(seed)
        .with_latency(LatencyModel::Bimodal {
            fast: 300,
            slow: 150_000,
            slow_prob: 0.4,
        })
        .with_duplication(0.05)
}

#[test]
fn atomic_swmr_is_linearizable_on_every_seed() {
    for seed in 0..SEEDS {
        let nodes = (0..5)
            .map(|i| {
                abd_core::swmr::SwmrNode::new(SwmrConfig::new(5, ProcessId(i), ProcessId(0)), 0u64)
            })
            .collect();
        let mut sim = Sim::new(adversarial(seed), nodes);
        let wl = WorkloadConfig::new(seed, 10, WriterMode::Single(ProcessId(0)));
        let h = run_workload(&mut sim, &wl, 0, 10_000_000_000, true)
            .unwrap_or_else(|| panic!("seed {seed}: workload did not complete"));
        assert_eq!(
            check_linearizable(&h),
            CheckResult::Linearizable,
            "seed {seed} produced a non-linearizable history:\n{h}"
        );
        assert!(check_regular_swmr(&h).is_empty(), "seed {seed}");
        assert!(find_new_old_inversions(&h).is_empty(), "seed {seed}");
    }
}

#[test]
fn atomic_mwmr_is_linearizable_on_every_seed() {
    for seed in 0..SEEDS {
        let nodes = (0..5)
            .map(|i| abd_core::mwmr::MwmrNode::new(MwmrConfig::new(5, ProcessId(i)), 0u64))
            .collect();
        let mut sim = Sim::new(adversarial(seed), nodes);
        let wl = WorkloadConfig::new(seed ^ 0x5555, 8, WriterMode::All).with_write_ratio(0.4);
        let h = run_workload(&mut sim, &wl, 0, 10_000_000_000, true)
            .unwrap_or_else(|| panic!("seed {seed}: workload did not complete"));
        assert_eq!(
            check_linearizable(&h),
            CheckResult::Linearizable,
            "seed {seed} produced a non-linearizable history:\n{h}"
        );
    }
}

/// The relay read mode under a contended writer: 40 adversarial seeds of
/// single-writer traffic with a high write ratio, so most reads overlap a
/// write in flight. Every history must linearize with zero new/old
/// inversions — the relay minimum stands in for the two-round write-back.
#[test]
fn relay_swmr_is_linearizable_under_a_contended_writer() {
    for seed in 0..40u64 {
        let nodes = (0..5)
            .map(|i| {
                abd_core::swmr::SwmrNode::new(
                    SwmrConfig::new(5, ProcessId(i), ProcessId(0)).with_read_mode(ReadMode::Relay),
                    0u64,
                )
            })
            .collect();
        let mut sim = Sim::new(adversarial(seed), nodes);
        let wl = WorkloadConfig::new(seed ^ 0x7e1a, 12, WriterMode::Single(ProcessId(0)))
            .with_write_ratio(0.5);
        let h = run_workload(&mut sim, &wl, 0, 10_000_000_000, true)
            .unwrap_or_else(|| panic!("seed {seed}: relay workload did not complete"));
        assert_eq!(
            check_linearizable(&h),
            CheckResult::Linearizable,
            "seed {seed} produced a non-linearizable relay history:\n{h}"
        );
        assert!(check_regular_swmr(&h).is_empty(), "seed {seed}");
        assert!(find_new_old_inversions(&h).is_empty(), "seed {seed}");
    }
}

/// Same sweep for multi-writer relay reads: concurrent writers make tag
/// disagreement the common case, exactly where `FastUnanimous` loses its
/// precondition and relay must still linearize.
#[test]
fn relay_mwmr_is_linearizable_under_contending_writers() {
    for seed in 0..40u64 {
        let nodes = (0..5)
            .map(|i| {
                abd_core::mwmr::MwmrNode::new(
                    MwmrConfig::new(5, ProcessId(i)).with_read_mode(ReadMode::Relay),
                    0u64,
                )
            })
            .collect();
        let mut sim = Sim::new(adversarial(seed), nodes);
        let wl = WorkloadConfig::new(seed ^ 0x2e1a, 8, WriterMode::All).with_write_ratio(0.5);
        let h = run_workload(&mut sim, &wl, 0, 10_000_000_000, true)
            .unwrap_or_else(|| panic!("seed {seed}: relay workload did not complete"));
        assert_eq!(
            check_linearizable(&h),
            CheckResult::Linearizable,
            "seed {seed} produced a non-linearizable relay history:\n{h}"
        );
    }
}

#[test]
fn regular_baseline_exhibits_inversions_somewhere_in_the_sweep() {
    let mut total_inversions = 0u64;
    let mut total_stale = 0u64;
    for seed in 0..SEEDS {
        let nodes = (0..5)
            .map(|i| {
                abd_core::swmr::SwmrNode::new(
                    SwmrConfig::new(5, ProcessId(i), ProcessId(0))
                        .with_read_mode(ReadMode::NoWriteBack),
                    0u64,
                )
            })
            .collect();
        let mut sim = Sim::new(straggly(seed), nodes);
        let wl = WorkloadConfig::new(seed ^ 0xabd, 14, WriterMode::Single(ProcessId(0)))
            .with_write_ratio(0.5);
        let Some(h) = run_workload(&mut sim, &wl, 1_000, 60_000_000_000, true) else {
            continue;
        };
        // The regular protocol must still be *regular* — only inversions
        // (the regular-vs-atomic gap) may appear.
        total_stale += check_regular_swmr(&h).len() as u64;
        total_inversions += find_new_old_inversions(&h).len() as u64;
    }
    assert_eq!(
        total_stale, 0,
        "the no-write-back baseline must still be regular"
    );
    assert!(
        total_inversions > 0,
        "across {SEEDS} adversarial schedules the regular baseline should exhibit \
         at least one new/old inversion — otherwise the write-back would be pointless"
    );
}

#[test]
fn read_one_baseline_violates_regularity_somewhere_in_the_sweep() {
    // Reads answer from one replica (R = 1); writes still reach a majority.
    let read_one = Arc::new(Threshold::new(5, 1, Majority::new(5).quorum_size()));
    let mut stale = 0u64;
    for seed in 0..SEEDS {
        let nodes = (0..5)
            .map(|i| {
                abd_core::swmr::SwmrNode::new(
                    SwmrConfig::new(5, ProcessId(i), ProcessId(0))
                        .with_quorum(read_one.clone())
                        .with_read_mode(ReadMode::NoWriteBack),
                    0u64,
                )
            })
            .collect();
        let mut sim = Sim::new(straggly(seed), nodes);
        let wl = WorkloadConfig::new(seed ^ 0xabd, 14, WriterMode::Single(ProcessId(0)))
            .with_write_ratio(0.5);
        let Some(h) = run_workload(&mut sim, &wl, 1_000, 60_000_000_000, true) else {
            continue;
        };
        stale += check_regular_swmr(&h).len() as u64;
    }
    assert!(
        stale > 0,
        "read-one/write-majority should produce stale reads across {SEEDS} schedules"
    );
}
