//! The impossibility half of the paper, live: with `n = 2f` a partition
//! into two halves makes the emulation block — and that is *necessary*,
//! not a bug, because any protocol that answered on both sides would
//! violate atomicity (the partition argument).
//!
//! Runs in the deterministic simulator so the partition timing is exact
//! and the stall is provable rather than probabilistic.
//!
//! Run with: `cargo run --release --example partition_demo`

use abd_core::msg::{RegisterOp, RegisterResp};
use abd_core::swmr::SwmrNode;
use abd_core::types::ProcessId;
use abd_core::SwmrConfig;
use abd_repro::simnet::{Sim, SimConfig};

fn main() {
    println!("Partition demo (deterministic simulation, n = 4, split 2|2)\n");

    // Retransmission keeps the stalled operation alive across the heal.
    let n = 4;
    let nodes: Vec<SwmrNode<u64>> = (0..n)
        .map(|i| {
            let cfg = SwmrConfig::new(n, ProcessId(i), ProcessId(0)).with_retransmit(100_000);
            SwmrNode::new(cfg, 0)
        })
        .collect();
    let mut sim = Sim::new(SimConfig::new(2024), nodes);

    println!("t=0        : partition {{p0,p1}} | {{p2,p3}} — no majority anywhere");
    sim.partition_at(0, vec![0, 0, 1, 1]);

    println!("t=10µs     : p0 invokes Write(42)");
    sim.invoke_at(10_000, ProcessId(0), RegisterOp::Write(42));

    let done = sim.run_until_ops_complete(2_000_000_000);
    println!(
        "t=2s       : write completed? {} (messages dropped at the partition: {})",
        done,
        sim.metrics().dropped_partition
    );
    assert!(!done, "a 2|2 split must stall every operation");

    println!("t=2s       : healing the partition...");
    sim.heal_at(sim.now() + 1);
    let done = sim.run_until_ops_complete(10_000_000_000);
    println!("t=+retrans : write completed? {done}");
    assert!(done);

    println!("\np3 reads to confirm the write took effect exactly once:");
    sim.invoke(ProcessId(3), RegisterOp::Read);
    assert!(sim.run_until_ops_complete(20_000_000_000));
    let last = sim.completed().last().unwrap();
    println!("p3: Read() -> {:?}", last.resp);
    assert!(matches!(last.resp, RegisterResp::ReadOk(42)));

    println!("\nThis is the paper's optimality proof made executable: tolerate f >= n/2 and");
    println!("you must answer inside one half — which a healed run would expose as a");
    println!("consistency violation. Blocking is the only atomic option.");
}
