//! Determinism gate: same-seed double-runs must replay byte-identical
//! event schedules.
//!
//! Every configuration below builds the same simulation twice, drives the
//! same workload through both copies, and asserts that the always-on
//! event-trace digests ([`Sim::trace_digest`]) agree. Any hidden source of
//! nondeterminism — iteration over an unordered map, a wall-clock read, an
//! uninitialised seed — shows up here as a digest mismatch long before it
//! corrupts an experiment.

use abd_core::mwmr::{MwmrConfig, MwmrNode};
use abd_core::swmr::{SwmrConfig, SwmrNode};
use abd_core::types::ProcessId;
use abd_simnet::config::{LatencyModel, SimConfig};
use abd_simnet::sim::Sim;
use abd_simnet::workload::{run_workload, WorkloadConfig, WriterMode};

fn swmr_nodes(n: usize) -> Vec<SwmrNode<u64>> {
    (0..n)
        .map(|i| SwmrNode::new(SwmrConfig::new(n, ProcessId(i), ProcessId(0)), 0))
        .collect()
}

fn mwmr_nodes(n: usize) -> Vec<MwmrNode<u64>> {
    (0..n)
        .map(|i| MwmrNode::new(MwmrConfig::new(n, ProcessId(i)), 0))
        .collect()
}

/// Runs the single-writer workload once and returns the final digest
/// together with the number of completed operations.
fn run_swmr(cfg: SimConfig, wl_seed: u64) -> (u64, usize) {
    let mut sim = Sim::new(cfg, swmr_nodes(5));
    let wl = WorkloadConfig::new(wl_seed, 15, WriterMode::Single(ProcessId(0)));
    // Lossy configurations may time out without completing; the digest
    // comparison is meaningful either way.
    let _ = run_workload(&mut sim, &wl, 50, 500_000_000, false);
    (sim.trace_digest(), sim.completed().len())
}

fn run_mwmr(cfg: SimConfig, wl_seed: u64) -> (u64, usize) {
    let mut sim = Sim::new(cfg, mwmr_nodes(4));
    let wl = WorkloadConfig::new(wl_seed, 12, WriterMode::All);
    let _ = run_workload(&mut sim, &wl, 50, 500_000_000, false);
    (sim.trace_digest(), sim.completed().len())
}

#[test]
fn swmr_same_seed_same_digest_across_configs() {
    let configs = [
        SimConfig::new(11),
        SimConfig::new(12).with_latency(LatencyModel::Constant(2_000)),
        SimConfig::new(13).with_latency(LatencyModel::Bimodal {
            fast: 1_000,
            slow: 40_000,
            slow_prob: 0.2,
        }),
        SimConfig::new(14).with_loss(0.05).with_duplication(0.05),
    ];
    for cfg in configs {
        let (d1, c1) = run_swmr(cfg.clone(), 7);
        let (d2, c2) = run_swmr(cfg.clone(), 7);
        assert_eq!(c1, c2, "completion counts diverged for {cfg:?}");
        assert_eq!(d1, d2, "event-trace digests diverged for {cfg:?}");
    }
}

#[test]
fn mwmr_same_seed_same_digest_across_configs() {
    let configs = [
        SimConfig::new(21),
        SimConfig::new(22).with_loss(0.1),
        SimConfig::new(23).with_duplication(0.1),
    ];
    for cfg in configs {
        let (d1, c1) = run_mwmr(cfg.clone(), 3);
        let (d2, c2) = run_mwmr(cfg.clone(), 3);
        assert_eq!(c1, c2, "completion counts diverged for {cfg:?}");
        assert_eq!(d1, d2, "event-trace digests diverged for {cfg:?}");
    }
}

#[test]
fn different_seeds_give_different_digests() {
    // Not a hard guarantee (digests could collide), but with distinct seeds
    // and random latencies a collision here means the digest is not actually
    // folding in the schedule.
    let (d1, _) = run_swmr(SimConfig::new(100), 7);
    let (d2, _) = run_swmr(SimConfig::new(101), 7);
    assert_ne!(d1, d2, "distinct seeds produced identical digests");
}

#[test]
fn digest_survives_crashes_and_partitions() {
    let build = || {
        let mut sim = Sim::new(SimConfig::new(31), swmr_nodes(5));
        sim.crash_at(40_000, ProcessId(4));
        sim.partition_at(80_000, vec![0, 0, 0, 1, 1]);
        sim.heal_at(200_000);
        sim
    };
    let run = || {
        let mut sim = build();
        let wl = WorkloadConfig::new(5, 10, WriterMode::Single(ProcessId(0)));
        let _ = run_workload(&mut sim, &wl, 50, 500_000_000, false);
        sim.trace_digest()
    };
    assert_eq!(run(), run());
}
