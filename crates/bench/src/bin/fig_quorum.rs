//! **F4 — quorum-system generalization** (the abstraction step the
//! follow-up literature made explicit; the paper's majority is one point
//! in the space).
//!
//! For several quorum families the figure reports, on the multi-writer
//! protocol: messages per operation, mean latency, and the crash
//! resilience actually observed (largest `f` with all operations
//! completing, crashing nodes from the top).
//!
//! * majority — the paper's choice: best resilience;
//! * `r/w` thresholds — Dynamo-style read/write asymmetry;
//! * grid — `O(√n)` quorum *cardinality*; every node is still contacted by
//!   the broadcast, but only the grid quorum must answer, so latency
//!   follows the quorum's order statistic, and resilience drops (a full
//!   column must survive).
//!
//! The binary asserts that the majority row's observed max `f` is the
//! paper's bound `⌈n/2⌉ − 1`.

use abd_bench::{us, write_artifact, Stats, Table};
use abd_core::msg::RegisterOp;
use abd_core::mwmr::{MwmrConfig, MwmrNode};
use abd_core::quorum::{Grid, Majority, QuorumSystem, Threshold};
use abd_core::types::ProcessId;
use abd_simnet::{LatencyModel, Sim, SimConfig};
use std::sync::Arc;

fn build(n: usize, q: Arc<dyn QuorumSystem>, seed: u64) -> Sim<MwmrNode<u64>> {
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
            lo: 2_000,
            hi: 20_000,
        }),
        nodes,
    )
}

/// Mean latency + msgs/op over a 50/50 workload.
fn measure(n: usize, q: Arc<dyn QuorumSystem>) -> (f64, Stats) {
    let mut sim = build(n, q, 21);
    let ops = 200u64;
    let mut lats = Vec::new();
    for k in 0..ops {
        let before = sim.completed().len();
        let node = ProcessId(k as usize % n);
        if k % 2 == 0 {
            sim.invoke(node, RegisterOp::Write(k + 1));
        } else {
            sim.invoke(node, RegisterOp::Read);
        }
        assert!(sim.run_until_quiet(u64::MAX / 2));
        lats.push(sim.completed()[before].latency());
    }
    (
        sim.metrics().sent as f64 / ops as f64,
        Stats::from_samples(lats).unwrap(),
    )
}

/// Largest f such that crashing nodes n-f..n still lets a write+read pair
/// complete.
fn observed_resilience(n: usize, q: &Arc<dyn QuorumSystem>) -> usize {
    let mut best = 0;
    for f in 0..n {
        let mut sim = build(n, Arc::clone(q), 31);
        for i in n - f..n {
            sim.crash_at(0, ProcessId(i));
        }
        sim.invoke_at(10, ProcessId(0), RegisterOp::Write(1));
        if !sim.run_until_ops_complete(5_000_000_000) {
            break;
        }
        sim.invoke(ProcessId(0), RegisterOp::Read);
        if !sim.run_until_ops_complete(10_000_000_000) {
            break;
        }
        best = f;
    }
    best
}

fn main() {
    let mut t = Table::new(
        "F4 — quorum families on the MWMR emulation (n = 16 where applicable)",
        &[
            "quorum system",
            "valid (MW)",
            "msgs/op",
            "mean µs",
            "p99 µs",
            "observed max f",
            "paper bound f",
        ],
    );
    let n: usize = 16;
    let paper_bound = n.div_ceil(2) - 1;
    let families: Vec<Arc<dyn QuorumSystem>> = vec![
        Arc::new(Majority::new(n)),
        Arc::new(Threshold::new(n, 5, 12)),
        Arc::new(Threshold::new(n, 12, 9)),
        Arc::new(Grid::new(4, 4)),
    ];
    for q in families {
        let valid = q.validate(true).is_ok();
        let (msgs, s) = measure(n, Arc::clone(&q));
        let f = observed_resilience(n, &q);
        if q.describe().starts_with("majority") {
            assert_eq!(
                f, paper_bound,
                "F4: the majority row's observed max f must be the paper bound ceil(n/2) - 1"
            );
        }
        t.row(vec![
            q.describe(),
            if valid { "yes" } else { "NO" }.to_string(),
            format!("{msgs:.1}"),
            us(s.mean),
            us(s.p99),
            f.to_string(),
            paper_bound.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nShape checks: the majority row attains the paper's optimal resilience\n(f = ceil(n/2)-1 = 7 for n = 16); threshold systems trade read latency against\nwrite latency and resilience; the grid needs a surviving full column, so its\nobserved resilience is lower — smaller quorums are not free."
    );
    write_artifact(env!("CARGO_BIN_NAME"), &[&t]);
}
