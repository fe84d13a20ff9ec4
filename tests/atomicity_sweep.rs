//! Integration: the paper's correctness theorem under a randomized
//! adversary — every seeded schedule of the ABD protocols yields a
//! linearizable history, while the baselines demonstrably leak anomalies
//! somewhere in the same sweep.
//!
//! Each run is a [`Repro`] judged by its oracle, so a failing seed leaves an
//! artifact under `target/repro/` that `abd_repro` replays and shrinks. The
//! read-one baseline keeps its own loop: a `Repro` names no quorum system.

use abd_core::quorum::{Majority, Threshold};
use abd_core::types::{ProcessId, ReadMode};
use abd_core::SwmrConfig;
use abd_repro::lincheck::{check_regular_swmr, find_new_old_inversions, History};
use abd_repro::simnet::workload::{run_workload, WorkloadConfig, WriterMode};
use abd_repro::simnet::{LatencyModel, OracleSpec, ProtocolSpec, Repro, Sim, SimConfig};
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

/// `wl` on five nodes of `protocol` over `adversarial(seed)` links, clients
/// 1 ns apart as `run_workload` starts them, judged atomic: the history.
fn atomic_on(name: &str, protocol: &ProtocolSpec, seed: u64, wl: WorkloadConfig) -> History<u64> {
    let scripts = wl.generate(5);
    let run = Repro::staggered(
        name,
        protocol.clone(),
        adversarial(seed),
        scripts,
        1,
        10_000_000_000,
    );
    let out = run.check_or_emit().unwrap_or_else(|e| panic!("{e}"));
    out.histories[0].clone()
}

#[test]
fn atomic_swmr_is_linearizable_on_every_seed() {
    let swmr = ProtocolSpec::Swmr {
        read_mode: ReadMode::TwoRound,
    };
    for seed in 0..SEEDS {
        let wl = WorkloadConfig::new(seed, 10, WriterMode::Single(ProcessId(0)));
        let h = atomic_on("sweep-swmr", &swmr, seed, wl);
        assert!(check_regular_swmr(&h).is_empty(), "seed {seed}");
        assert!(find_new_old_inversions(&h).is_empty(), "seed {seed}");
    }
}

#[test]
fn atomic_mwmr_is_linearizable_on_every_seed() {
    let mwmr = ProtocolSpec::Mwmr {
        read_mode: ReadMode::TwoRound,
    };
    for seed in 0..SEEDS {
        let wl = WorkloadConfig::new(seed ^ 0x5555, 8, WriterMode::All).with_write_ratio(0.4);
        atomic_on("sweep-mwmr", &mwmr, seed, wl);
    }
}

/// The relay read mode under a contended writer: 40 adversarial seeds of
/// single-writer traffic with a high write ratio, so most reads overlap a
/// write in flight. Every history must linearize with zero new/old
/// inversions — the relay minimum stands in for the two-round write-back.
#[test]
fn relay_swmr_is_linearizable_under_a_contended_writer() {
    let relay = ProtocolSpec::Swmr {
        read_mode: ReadMode::Relay,
    };
    for seed in 0..40u64 {
        let wl = WorkloadConfig::new(seed ^ 0x7e1a, 12, WriterMode::Single(ProcessId(0)))
            .with_write_ratio(0.5);
        let h = atomic_on("sweep-swmr-relay", &relay, seed, wl);
        assert!(check_regular_swmr(&h).is_empty(), "seed {seed}");
        assert!(find_new_old_inversions(&h).is_empty(), "seed {seed}");
    }
}

/// Same sweep for multi-writer relay reads: concurrent writers make tag
/// disagreement the common case, exactly where `FastUnanimous` loses its
/// precondition and relay must still linearize.
#[test]
fn relay_mwmr_is_linearizable_under_contending_writers() {
    let relay = ProtocolSpec::Mwmr {
        read_mode: ReadMode::Relay,
    };
    for seed in 0..40u64 {
        let wl = WorkloadConfig::new(seed ^ 0x2e1a, 8, WriterMode::All).with_write_ratio(0.5);
        atomic_on("sweep-mwmr-relay", &relay, seed, wl);
    }
}

#[test]
fn regular_baseline_exhibits_inversions_somewhere_in_the_sweep() {
    // The regular protocol must still be *regular* — its oracle — and only
    // inversions (the regular-vs-atomic gap) may appear. Clients start
    // 1 µs apart and think 1 µs, as `run_workload` runs them.
    let no_write_back = ProtocolSpec::Swmr {
        read_mode: ReadMode::NoWriteBack,
    };
    let mut total_inversions = 0u64;
    for seed in 0..SEEDS {
        let wl = WorkloadConfig::new(seed ^ 0xabd, 14, WriterMode::Single(ProcessId(0)))
            .with_write_ratio(0.5);
        let (spec, scripts) = (no_write_back.clone(), wl.generate(5));
        let run = Repro::staggered(
            "sweep-no-write-back",
            spec,
            straggly(seed),
            scripts,
            1_000,
            60_000_000_000,
        );
        let oracle = OracleSpec::RegularSwmr;
        let out = Repro {
            think: 1_000,
            oracle,
            ..run
        }
        .check_or_emit()
        .unwrap_or_else(|e| panic!("{e}"));
        total_inversions += find_new_old_inversions(&out.histories[0]).len() as u64;
    }
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
