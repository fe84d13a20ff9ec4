//! **T6 — bounded vs unbounded timestamps** (the second half of the JACM
//! paper: labels need not grow with the execution).
//!
//! Runs the unbounded and the bounded single-writer protocols through the
//! same long write/read workloads and reports the label metadata each one
//! carries on the wire:
//!
//! * unbounded: the sequence number grows linearly with the number of
//!   writes — after `k` writes it needs `⌈log2(k)⌉` bits *and keeps
//!   growing*;
//! * bounded: a constant `log2(modulus)` bits forever, with zero window
//!   violations (the simulator's delays respect the bounded-staleness
//!   assumption; see `abd_core::bounded` for the substitution notes).

use abd_bench::{write_artifact, Table};
use abd_core::bounded::{BoundedSwmrConfig, BoundedSwmrNode, LabelSpace};
use abd_core::msg::RegisterOp;
use abd_core::swmr::SwmrNode;
use abd_core::types::ProcessId;
use abd_simnet::{LatencyModel, Sim, SimConfig};

fn main() {
    let n = 5;
    let mut t = Table::new(
        "T6 — label metadata after k writes (n = 5)",
        &[
            "writes k",
            "unbounded: max seq",
            "unbounded: bits",
            "bounded: modulus",
            "bounded: bits",
            "window violations",
            "final read",
        ],
    );

    for k in [100u64, 1_000, 10_000, 100_000] {
        // Unbounded protocol.
        let nodes: Vec<SwmrNode<u64>> = (0..n)
            .map(|i| {
                SwmrNode::new(
                    abd_core::presets::atomic_swmr(n, ProcessId(i), ProcessId(0)),
                    0,
                )
            })
            .collect();
        let mut sim = Sim::new(
            SimConfig::new(k).with_latency(LatencyModel::Constant(500)),
            nodes,
        );
        for v in 1..=k {
            sim.invoke(ProcessId(0), RegisterOp::Write(v));
            assert!(sim.run_until_quiet(u64::MAX / 2));
        }
        let max_seq = sim.node(0).replica_state().0;
        let unbounded_bits = 64 - max_seq.leading_zeros();

        // Bounded protocol, same workload.
        let space = LabelSpace::new(64);
        let bnodes: Vec<BoundedSwmrNode<u64>> = (0..n)
            .map(|i| {
                BoundedSwmrNode::new(
                    BoundedSwmrConfig::new(n, ProcessId(i), ProcessId(0)).with_space(space),
                    0,
                )
            })
            .collect();
        let mut bsim = Sim::new(
            SimConfig::new(k ^ 0xb0b).with_latency(LatencyModel::Constant(500)),
            bnodes,
        );
        for v in 1..=k {
            bsim.invoke(ProcessId(0), RegisterOp::Write(v));
            assert!(bsim.run_until_quiet(u64::MAX / 2));
        }
        bsim.invoke(ProcessId(2), RegisterOp::Read);
        assert!(bsim.run_until_quiet(u64::MAX / 2));
        let last = bsim.completed().last().unwrap();
        let read_ok = matches!(
            last.resp,
            abd_core::msg::RegisterResp::ReadOk(v) if v == k
        );
        assert!(
            read_ok,
            "bounded read must return the last write after {k} writes"
        );
        let violations: u64 = (0..n).map(|i| bsim.node(i).window_violations()).sum();
        assert_eq!(
            violations, 0,
            "no comparison may escape the window under synchrony"
        );

        t.row(vec![
            k.to_string(),
            max_seq.to_string(),
            unbounded_bits.to_string(),
            space.modulus().to_string(),
            space.label_bits().to_string(),
            violations.to_string(),
            "correct".to_string(),
        ]);
    }
    t.print();
    println!(
        "\nThe unbounded column grows with the execution; the bounded column is constant\n(6 bits for a 64-label cycle) no matter how many writes run — the property the\npaper's bounded construction establishes."
    );
    write_artifact(env!("CARGO_BIN_NAME"), &[&t]);
}
