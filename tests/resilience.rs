//! Integration: the paper's exact resilience boundary and the partition
//! impossibility, across cluster sizes and both protocols.

use abd_core::msg::RegisterOp;
use abd_core::types::ProcessId;
use abd_core::{MwmrConfig, SwmrConfig};
use abd_repro::simnet::{Sim, SimConfig};

#[test]
fn crash_boundary_is_exact_for_swmr() {
    for n in [3usize, 4, 5, 6, 7] {
        let f_max = n.div_ceil(2) - 1;
        for f in 0..n {
            let nodes = (0..n)
                .map(|i| {
                    abd_core::swmr::SwmrNode::new(
                        SwmrConfig::new(n, ProcessId(i), ProcessId(0)),
                        0u64,
                    )
                })
                .collect();
            let mut sim = Sim::new(SimConfig::new(1), nodes);
            for i in n - f..n {
                sim.crash_at(0, ProcessId(i));
            }
            sim.invoke_at(10, ProcessId(0), RegisterOp::Write(1));
            let ok = sim.run_until_ops_complete(5_000_000_000);
            assert_eq!(
                ok,
                f <= f_max,
                "n={n} f={f}: liveness must flip exactly at ceil(n/2)"
            );
        }
    }
}

#[test]
fn crash_boundary_is_exact_for_mwmr() {
    for n in [3usize, 4, 5, 6] {
        let f_max = n.div_ceil(2) - 1;
        for f in 0..n {
            let nodes = (0..n)
                .map(|i| abd_core::mwmr::MwmrNode::new(MwmrConfig::new(n, ProcessId(i)), 0u64))
                .collect();
            let mut sim = Sim::new(SimConfig::new(2), nodes);
            for i in n - f..n {
                sim.crash_at(0, ProcessId(i));
            }
            sim.invoke_at(10, ProcessId(0), RegisterOp::Write(1));
            let w_ok = sim.run_until_ops_complete(5_000_000_000);
            assert_eq!(w_ok, f <= f_max, "n={n} f={f} (write)");
            sim.invoke(ProcessId(0), RegisterOp::Read);
            let r_ok = sim.run_until_ops_complete(10_000_000_000);
            assert_eq!(r_ok, f <= f_max, "n={n} f={f} (read)");
        }
    }
}

#[test]
fn crashes_during_an_operation_are_tolerated() {
    // Crash replicas *mid-operation*: after the query phase has started
    // but (virtually certainly) before it completes.
    let n = 5;
    let nodes = (0..n)
        .map(|i| abd_core::mwmr::MwmrNode::new(MwmrConfig::new(n, ProcessId(i)), 0u64))
        .collect();
    let mut sim = Sim::new(
        SimConfig::new(9).with_latency(abd_repro::simnet::LatencyModel::Uniform {
            lo: 10_000,
            hi: 100_000,
        }),
        nodes,
    );
    sim.invoke_at(0, ProcessId(0), RegisterOp::Write(7));
    // Both crashes land inside the operation's first round trip.
    sim.crash_at(15_000, ProcessId(3));
    sim.crash_at(20_000, ProcessId(4));
    assert!(
        sim.run_until_ops_complete(10_000_000_000),
        "write must survive mid-flight crashes"
    );
    sim.invoke(ProcessId(1), RegisterOp::Read);
    assert!(sim.run_until_ops_complete(20_000_000_000));
    let last = sim.completed().last().unwrap();
    assert!(matches!(last.resp, abd_core::msg::RegisterResp::ReadOk(7)));
}

#[test]
fn even_split_blocks_and_heal_releases() {
    for n in [4usize, 6] {
        let nodes = (0..n)
            .map(|i| {
                let cfg = SwmrConfig::new(n, ProcessId(i), ProcessId(0)).with_retransmit(100_000);
                abd_core::swmr::SwmrNode::new(cfg, 0u64)
            })
            .collect();
        let mut sim = Sim::new(SimConfig::new(3), nodes);
        let groups: Vec<u32> = (0..n).map(|i| u32::from(i >= n / 2)).collect();
        sim.partition_at(0, groups);
        sim.invoke_at(10, ProcessId(0), RegisterOp::Write(5));
        assert!(
            !sim.run_until_ops_complete(1_000_000_000),
            "n={n}: even split must block"
        );
        sim.heal_at(sim.now() + 1);
        assert!(
            sim.run_until_ops_complete(30_000_000_000),
            "n={n}: heal must release"
        );
    }
}

#[test]
fn majority_side_of_an_uneven_partition_stays_live() {
    let n = 5;
    let nodes = (0..n)
        .map(|i| abd_core::mwmr::MwmrNode::new(MwmrConfig::new(n, ProcessId(i)), 0u64))
        .collect();
    let mut sim = Sim::new(SimConfig::new(4), nodes);
    // {p0,p1,p2} | {p3,p4}: the left side holds a majority.
    sim.partition_at(0, vec![0, 0, 0, 1, 1]);
    sim.invoke_at(10, ProcessId(1), RegisterOp::Write(9));
    assert!(
        sim.run_until_ops_complete(5_000_000_000),
        "majority side must stay live"
    );
    // The minority side blocks.
    sim.invoke(ProcessId(4), RegisterOp::Read);
    assert!(
        !sim.run_until_ops_complete(sim.now() + 1_000_000_000),
        "minority side must block"
    );
}

#[test]
fn reader_crash_does_not_disturb_others() {
    let n = 3;
    let nodes = (0..n)
        .map(|i| {
            abd_core::swmr::SwmrNode::new(SwmrConfig::new(n, ProcessId(i), ProcessId(0)), 0u64)
        })
        .collect();
    let mut sim = Sim::new(SimConfig::new(5), nodes);
    sim.invoke_at(0, ProcessId(0), RegisterOp::Write(1));
    assert!(sim.run_until_ops_complete(1_000_000_000));
    // p2 starts a read, then crashes mid-read; its op never completes —
    // it is recorded as aborted (and stays visible to history extraction
    // via `pending_details`) — and the system is unaffected.
    sim.invoke(ProcessId(2), RegisterOp::Read);
    sim.crash_at(sim.now() + 1_000, ProcessId(2));
    sim.run_until_quiet(5_000_000_000);
    assert_eq!(
        sim.aborted_details().len(),
        1,
        "the crashed reader's op is aborted, not completed"
    );
    assert_eq!(
        sim.pending_details().len(),
        1,
        "aborted ops stay visible to history extraction"
    );
    sim.invoke(ProcessId(1), RegisterOp::Read);
    assert!(
        sim.run_until_ops_complete(10_000_000_000),
        "others unaffected"
    );
}
