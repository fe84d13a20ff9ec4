//! Outliving the original cluster: reconfiguration (RAMBO-lite).
//!
//! The static emulation tolerates a *minority* of the original replicas
//! crashing — forever. With reconfiguration, an administrator migrates the
//! store to a new member set and the resilience clock restarts: across
//! enough reconfigurations, every original replica can die without losing
//! a byte. And since `RcNode` is an epoch fence around a `KvNode`, a member
//! that reboots — even one that slept through a migration — catches up and
//! serves again.
//!
//! Runs in the deterministic simulator. Run with:
//! `cargo run --release --example reconfiguration_demo`

use abd_core::types::ProcessId;
use abd_repro::kv::reconfig::{RcNode, RcNodeConfig, RcOp, RcResp};
use abd_repro::simnet::{LatencyModel, Sim, SimConfig};

fn main() {
    println!("Reconfigurable replicated store (universe of 6 nodes)\n");
    let n = 6;
    let nodes = (0..n)
        .map(|i| RcNode::new(RcNodeConfig::new(n, ProcessId(i))))
        .collect();
    let mut sim: Sim<RcNode<String, String>> = Sim::new(
        SimConfig::new(7).with_latency(LatencyModel::Uniform {
            lo: 1_000,
            hi: 20_000,
        }),
        nodes,
    );

    let run = |sim: &mut Sim<RcNode<String, String>>, node: usize, op: RcOp<String, String>| {
        sim.invoke(ProcessId(node), op);
        assert!(sim.run_until_ops_complete(sim.now() + 60_000_000_000));
        sim.completed().last().unwrap().resp.clone()
    };
    let members = |ids: &[usize]| ids.iter().copied().map(ProcessId).collect::<Vec<_>>();

    println!("epoch 0, members {{0..5}}: put paper=ABD");
    run(&mut sim, 0, RcOp::Put("paper".into(), "ABD".into()));

    println!("crashing replicas 4 and 5 (static bound for n=6 is f=2 — at the limit)...");
    sim.crash_at(sim.now(), ProcessId(4));
    sim.crash_at(sim.now(), ProcessId(5));

    println!("reconfiguring to the survivors {{0,1,2,3}}...");
    let r = run(&mut sim, 0, RcOp::Reconfig(members(&[0, 1, 2, 3])));
    println!("  -> {r:?}");
    assert_eq!(r, RcResp::ReconfigOk { epoch: 1 });

    println!("crashing replica 3 (three of the original six are now down)...");
    sim.crash_at(sim.now(), ProcessId(3));

    println!("the store is still alive — a majority of the *new* members remains:");
    let v = run(&mut sim, 1, RcOp::Get("paper".into()));
    println!("  get paper -> {v:?}");
    assert_eq!(v, RcResp::GetOk(Some("ABD".into())));

    println!("\nwhile 3 is down: a write through epoch 1, then a migration to {{1,2,3}}");
    run(
        &mut sim,
        2,
        RcOp::Put("prize".into(), "Dijkstra 2011".into()),
    );
    let r = run(&mut sim, 0, RcOp::Reconfig(members(&[1, 2, 3])));
    assert_eq!(r, RcResp::ReconfigOk { epoch: 2 });
    println!("  -> {r:?} (3 is a member again and has not heard of it)");

    println!("restarting replica 3: it wakes in epoch 1 with a stale store...");
    sim.restart_at(sim.now(), ProcessId(3));
    sim.run_until(sim.now() + 1_000_000);
    let node = sim.node(3);
    println!(
        "  ...its catch-up traffic met epoch 2, a fellow member sent the install: epoch {}, prize = {:?}",
        node.current_config().epoch,
        node.local_entry(&"prize".to_string()).map(|(_, v)| v),
    );
    assert_eq!(node.current_config().epoch, 2);

    println!("crashing replica 1: {{2,3}} is a majority of {{1,2,3}} only because 3 is back");
    sim.crash_at(sim.now(), ProcessId(1));
    let v = run(&mut sim, 3, RcOp::Get("prize".into()));
    println!("  get prize (on 3) -> {v:?}");
    assert_eq!(v, RcResp::GetOk(Some("Dijkstra 2011".into())));
    let v = run(&mut sim, 0, RcOp::Get("paper".into()));
    println!("  get paper (on 0, a client outside the member set) -> {v:?}");
    assert_eq!(v, RcResp::GetOk(Some("ABD".into())));

    println!("\nThree of the original six are dead, one died and came back; the data survived");
    println!("two migrations and every operation stayed linearizable — the RAMBO follow-up's");
    println!("point, in miniature.");
}
