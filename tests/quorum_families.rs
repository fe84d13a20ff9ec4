//! Integration: the emulation parameterized by non-majority quorum systems
//! — grid and weighted quorums keep atomicity (their intersections hold),
//! and the deliberately non-intersecting configuration demonstrably loses
//! it.

use abd_core::mwmr::{MwmrConfig, MwmrNode};
use abd_core::quorum::{Grid, QuorumSystem, Threshold, Weighted};
use abd_core::types::ProcessId;
use abd_repro::lincheck::{check_linearizable, CheckResult};
use abd_repro::simnet::workload::{run_workload, WorkloadConfig, WriterMode};
use abd_repro::simnet::{LatencyModel, Sim, SimConfig};
use std::sync::Arc;

fn mwmr_with_quorum(n: usize, q: Arc<dyn QuorumSystem>, seed: u64) -> Sim<MwmrNode<u64>> {
    let nodes = (0..n)
        .map(|i| {
            MwmrNode::new(
                MwmrConfig::new(n, ProcessId(i)).with_quorum(Arc::clone(&q)),
                0u64,
            )
        })
        .collect();
    Sim::new(
        SimConfig::new(seed).with_latency(LatencyModel::Uniform {
            lo: 100,
            hi: 30_000,
        }),
        nodes,
    )
}

fn check_atomic_sweep(n: usize, q: Arc<dyn QuorumSystem>, seeds: u64, label: &str) {
    assert!(
        q.validate(true).is_ok(),
        "{label}: quorum system must be valid for MW"
    );
    for seed in 0..seeds {
        let mut sim = mwmr_with_quorum(n, Arc::clone(&q), seed);
        let wl = WorkloadConfig::new(seed ^ 0x9e37, 8, WriterMode::All).with_write_ratio(0.4);
        let h = run_workload(&mut sim, &wl, 500, 60_000_000_000, true)
            .unwrap_or_else(|| panic!("{label} seed {seed}: workload did not complete"));
        assert_eq!(
            check_linearizable(&h),
            CheckResult::Linearizable,
            "{label} seed {seed}:\n{h}"
        );
    }
}

#[test]
fn grid_quorums_preserve_atomicity() {
    check_atomic_sweep(9, Arc::new(Grid::new(3, 3)), 40, "grid 3x3");
    check_atomic_sweep(6, Arc::new(Grid::new(2, 3)), 40, "grid 2x3");
}

#[test]
fn weighted_quorums_preserve_atomicity() {
    // One heavy node (3 votes) among four light ones.
    let q = Arc::new(Weighted::new(vec![3, 1, 1, 1, 1], 4, 4));
    check_atomic_sweep(5, q, 40, "weighted 3+1*4");
}

#[test]
fn asymmetric_thresholds_preserve_atomicity() {
    // Read-cheap configuration: r=3, w=5 of n=7 (r+w>n, 2w>n).
    check_atomic_sweep(7, Arc::new(Threshold::new(7, 3, 5)), 40, "threshold r3/w5");
    // Write-cheap configuration: r=5, w=4 of n=7.
    check_atomic_sweep(7, Arc::new(Threshold::new(7, 5, 4)), 40, "threshold r5/w4");
}

#[test]
fn non_intersecting_thresholds_break_atomicity_somewhere() {
    // r=2, w=3 of n=7: r+w = 5 <= 7 — reads can miss completed writes
    // entirely. Across a straggler-heavy sweep at least one schedule must
    // come out non-linearizable, demonstrating the intersection property
    // is load-bearing, not decorative.
    let q: Arc<dyn QuorumSystem> = Arc::new(Threshold::new(7, 2, 3));
    assert!(
        q.validate(true).is_err(),
        "this configuration is knowingly broken"
    );
    let mut violations = 0u64;
    for seed in 0..60u64 {
        let nodes = (0..7)
            .map(|i| {
                MwmrNode::new(
                    MwmrConfig::new(7, ProcessId(i)).with_quorum(Arc::clone(&q)),
                    0u64,
                )
            })
            .collect();
        let mut sim: Sim<MwmrNode<u64>> = Sim::new(
            SimConfig::new(seed).with_latency(LatencyModel::Bimodal {
                fast: 300,
                slow: 100_000,
                slow_prob: 0.4,
            }),
            nodes,
        );
        let wl = WorkloadConfig::new(seed ^ 0x51de, 10, WriterMode::All).with_write_ratio(0.5);
        let Some(h) = run_workload(&mut sim, &wl, 1_000, 60_000_000_000, true) else {
            continue;
        };
        if check_linearizable(&h) == CheckResult::NotLinearizable {
            violations += 1;
        }
    }
    assert!(
        violations > 0,
        "a non-intersecting quorum configuration should violate atomicity somewhere in 60 seeds"
    );
}

#[test]
fn grid_resilience_depends_on_which_nodes_crash() {
    // 3x3 grid: write quorums need a full column. Crashing one node per
    // column (a full row) kills every column; crashing a full column
    // leaves the other two columns intact.
    let q: Arc<dyn QuorumSystem> = Arc::new(Grid::new(3, 3));

    // Crash two of column 0 (nodes 3 and 6): column 0 is still *covered*
    // by node 0 (reads fine) and columns 1 and 2 are fully alive (writes
    // fine).
    let mut sim = mwmr_with_quorum(9, Arc::clone(&q), 5);
    for i in [3usize, 6] {
        sim.crash_at(0, ProcessId(i));
    }
    sim.invoke_at(10, ProcessId(1), abd_core::msg::RegisterOp::Write(1));
    assert!(
        sim.run_until_ops_complete(60_000_000_000),
        "two crashes within one column leave the grid usable"
    );

    // Crash row 2 = nodes {6, 7, 8}: no full column survives; writes stall.
    let mut sim = mwmr_with_quorum(9, Arc::clone(&q), 6);
    for i in [6usize, 7, 8] {
        sim.crash_at(0, ProcessId(i));
    }
    sim.invoke_at(10, ProcessId(1), abd_core::msg::RegisterOp::Write(1));
    assert!(
        !sim.run_until_ops_complete(5_000_000_000),
        "a crashed row must block grid writes (no full column remains)"
    );
}
