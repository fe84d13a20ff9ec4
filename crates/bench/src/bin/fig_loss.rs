//! **F3 — liveness over fair-lossy links.**
//!
//! The paper's channels may lose messages as long as repeated sends
//! eventually get through; the emulation stays live because each phase
//! retransmits to non-responders until a quorum answers. The figure sweeps
//! the per-message loss probability and reports completion, latency, and
//! the retransmission overhead (messages per operation vs the loss-free
//! `3(n−1)` average for a 50/50 read/write mix).

use abd_bench::{us, write_artifact, Stats, Table};
use abd_core::msg::RegisterOp;
use abd_core::swmr::{SwmrConfig, SwmrNode};
use abd_core::types::ProcessId;
use abd_simnet::{LatencyModel, Sim, SimConfig};

fn main() {
    let n = 5;
    let ops = 200u64;
    let retransmit_every = 30_000; // 30µs, ~2x the max delay
    let mut t = Table::new(
        "F3 — message-loss sweep (n = 5, retransmit every 30µs); 200 ops each",
        &[
            "loss p",
            "completed",
            "msgs/op",
            "overhead vs p=0",
            "mean latency µs",
            "p99 µs",
        ],
    );
    let mut base_msgs_per_op = None;
    for loss in [0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5_f64] {
        let nodes: Vec<SwmrNode<u64>> = (0..n)
            .map(|i| {
                SwmrNode::new(
                    SwmrConfig::new(n, ProcessId(i), ProcessId(0))
                        .with_retransmit(retransmit_every),
                    0,
                )
            })
            .collect();
        let cfg = SimConfig::new(99)
            .with_latency(LatencyModel::Uniform {
                lo: 2_000,
                hi: 15_000,
            })
            .with_loss(loss.min(0.999));
        let mut sim = Sim::new(cfg, nodes);
        let mut lats = Vec::new();
        for k in 0..ops {
            let before = sim.completed().len();
            if k % 2 == 0 {
                sim.invoke(ProcessId(0), RegisterOp::Write(k + 1));
            } else {
                sim.invoke(ProcessId((k as usize % (n - 1)) + 1), RegisterOp::Read);
            }
            assert!(
                sim.run_until_ops_complete(sim.now() + 60_000_000_000),
                "loss {loss}: op {k} failed to complete despite retransmission"
            );
            lats.push(sim.completed()[before].latency());
        }
        let msgs_per_op = sim.metrics().sent as f64 / ops as f64;
        let base = *base_msgs_per_op.get_or_insert(msgs_per_op);
        let s = Stats::from_samples(lats).unwrap();
        t.row(vec![
            format!("{loss:.2}"),
            format!("{}/{}", sim.metrics().ops_completed, ops),
            format!("{msgs_per_op:.1}"),
            format!("{:.2}x", msgs_per_op / base),
            us(s.mean),
            us(s.p99),
        ]);
    }
    t.print();
    println!(
        "\nShape checks: completion stays {}/{} at every loss rate (fair-lossy liveness),\nwhile messages/op and tail latency grow with the loss rate — the price of\nretransmission, not a correctness cliff.",
        ops, ops
    );
    write_artifact(env!("CARGO_BIN_NAME"), &[&t]);
}
