//! Integration: the bounded-timestamp protocol behaves exactly like the
//! unbounded one — linearizable histories, same message complexity, same
//! resilience — while its labels stay a constant handful of bits across
//! executions long enough to lap the label cycle many times.

use abd_core::bounded::{BoundedSwmrConfig, BoundedSwmrNode, LabelSpace};
use abd_core::msg::{RegisterOp, RegisterResp};
use abd_core::types::{Consistency, ProcessId};
use abd_repro::lincheck::{
    check_linearizable_with_limit, check_regular_swmr, check_sequential, CheckResult, History,
    RegAction, ScCheckResult,
};
use abd_repro::simnet::harness::run_scripts;
use abd_repro::simnet::{LatencyModel, Sim, SimConfig};

fn bounded_cluster(n: usize, modulus: u32, seed: u64) -> Sim<BoundedSwmrNode<u64>> {
    let nodes = (0..n)
        .map(|i| {
            BoundedSwmrNode::new(
                BoundedSwmrConfig::new(n, ProcessId(i), ProcessId(0))
                    .with_space(LabelSpace::new(modulus)),
                0u64,
            )
        })
        .collect();
    Sim::new(
        SimConfig::new(seed).with_latency(LatencyModel::Uniform {
            lo: 100,
            hi: 10_000,
        }),
        nodes,
    )
}

fn history_of(sim: &Sim<BoundedSwmrNode<u64>>) -> History<u64> {
    let mut h = History::new(0);
    for r in sim.completed() {
        match (&r.input, &r.resp) {
            (RegisterOp::Write(v), RegisterResp::WriteOk) => {
                h.push(
                    r.client.index(),
                    RegAction::Write(*v),
                    r.invoked_at,
                    r.completed_at,
                );
            }
            (RegisterOp::Read | RegisterOp::ReadAt(_), RegisterResp::ReadOk(v)) => {
                h.push(
                    r.client.index(),
                    RegAction::Read(*v),
                    r.invoked_at,
                    r.completed_at,
                );
            }
            _ => {}
        }
    }
    h
}

#[test]
fn bounded_histories_are_linearizable_across_seeds() {
    for seed in 0..60u64 {
        let n = 5;
        let mut sim = bounded_cluster(n, 64, seed);
        // Closed-loop scripts: per-client sequential operations, so the
        // recorded intervals reflect real concurrency.
        let mut scripts: Vec<Vec<RegisterOp<u64>>> =
            vec![(1..=12u64).map(RegisterOp::Write).collect()];
        for _ in 1..n {
            scripts.push(vec![RegisterOp::Read; 10]);
        }
        assert!(
            run_scripts(&mut sim, scripts, 500, 1, 120_000_000_000),
            "seed {seed}"
        );
        let violations: u64 = (0..n).map(|i| sim.node(i).window_violations()).sum();
        assert_eq!(violations, 0, "seed {seed}: window violated — run invalid");
        let h = history_of(&sim);
        assert_eq!(
            check_linearizable_with_limit(&h, 2_000_000),
            CheckResult::Linearizable,
            "seed {seed}:\n{h}"
        );
    }
}

#[test]
fn labels_lap_the_cycle_many_times_without_growing() {
    let n = 3;
    let modulus = 16;
    let mut sim = bounded_cluster(n, modulus, 7);
    let writes = 500u64; // 31 laps of a 16-label cycle
    for v in 1..=writes {
        sim.invoke(ProcessId(0), RegisterOp::Write(v));
        assert!(sim.run_until_ops_complete(u64::MAX / 2));
    }
    sim.invoke(ProcessId(2), RegisterOp::Read);
    assert!(sim.run_until_ops_complete(u64::MAX / 2));
    let last = sim.completed().last().unwrap();
    assert!(matches!(last.resp, RegisterResp::ReadOk(v) if v == writes));
    assert_eq!(sim.node(0).labels_issued(), writes);
    assert_eq!(
        sim.node(0).label_bits(),
        4,
        "4 bits forever, regardless of {writes} writes"
    );
    for i in 0..n {
        assert_eq!(sim.node(i).window_violations(), 0);
    }
}

#[test]
fn bounded_message_complexity_matches_unbounded() {
    let n = 7;
    let mut sim = bounded_cluster(n, 64, 1);
    sim.invoke(ProcessId(0), RegisterOp::Write(1));
    // Drain fully so straggler acknowledgements are counted too.
    assert!(sim.run_until_quiet(u64::MAX / 2));
    assert_eq!(sim.metrics().sent, 2 * (n as u64 - 1), "write: one round");
    sim.invoke(ProcessId(3), RegisterOp::Read);
    assert!(sim.run_until_quiet(u64::MAX / 2));
    assert_eq!(
        sim.metrics().sent,
        6 * (n as u64 - 1),
        "read adds two rounds"
    );
}

#[test]
fn bounded_protocol_tolerates_minority_crashes() {
    let n = 5;
    let mut sim = bounded_cluster(n, 64, 3);
    sim.crash_at(0, ProcessId(3));
    sim.crash_at(0, ProcessId(4));
    for v in 1..=50u64 {
        sim.invoke(ProcessId(0), RegisterOp::Write(v));
        assert!(sim.run_until_ops_complete(u64::MAX / 2));
    }
    sim.invoke(ProcessId(1), RegisterOp::Read);
    assert!(sim.run_until_ops_complete(u64::MAX / 2));
    assert!(matches!(
        sim.completed().last().unwrap().resp,
        RegisterResp::ReadOk(50)
    ));
}

#[test]
fn zombie_beyond_window_is_detected_by_the_protocol() {
    // Directly deliver an ancient label to a replica that has advanced far
    // past it: the protocol must count a violation and refuse to adopt.
    use abd_core::context::{Effects, Protocol};
    use abd_core::msg::RegisterMsg;
    let space = LabelSpace::new(16);
    let mut node = BoundedSwmrNode::new(
        BoundedSwmrConfig::new(3, ProcessId(1), ProcessId(0)).with_space(space),
        0u64,
    );
    let mut fx = Effects::new();
    // Advance the replica by 12 in-window steps (window is 7, so feed one
    // at a time).
    let mut l = space.origin();
    for k in 1..=12u64 {
        l = space.successor(l);
        node.on_message(
            ProcessId(0),
            RegisterMsg::Update {
                uid: k,
                key: (),
                label: l,
                value: k,
            },
            &mut fx,
        );
    }
    let before = node.replica_state();
    // With modulus 16 and window 7, the incomparable band is exactly
    // forward-distance 8: a label 8 steps behind the stored label 12 is
    // raw 4.
    let mut zombie = space.origin();
    for _ in 0..4 {
        zombie = space.successor(zombie);
    }
    node.on_message(
        ProcessId(2),
        RegisterMsg::Update {
            uid: 99,
            key: (),
            label: zombie,
            value: 777,
        },
        &mut fx,
    );
    assert_eq!(node.window_violations(), 1);
    assert_eq!(node.replica_state(), before, "zombie must not be adopted");
}

/// The tiers the hand-written node served atomically now take the engine's
/// paths — `Regular` adopts the windowed maximum locally, `Sequential`
/// answers from the replica — while 40 writes lap the 16-label cycle twice
/// and a half. Each judged by its own checker; no comparison may leave the
/// window.
fn tier_across_a_label_wrap(cons: Consistency, judge: impl Fn(&History<u64>, &str)) {
    for seed in 0..20u64 {
        let n = 5;
        let mut sim = bounded_cluster(n, 16, seed);
        let mut scripts: Vec<Vec<RegisterOp<u64>>> =
            vec![(1..=40u64).map(RegisterOp::Write).collect()];
        scripts.resize(n, vec![RegisterOp::ReadAt(cons); 30]);
        assert!(run_scripts(&mut sim, scripts, 500, 1, 120_000_000_000));
        assert_eq!(sim.node(0).labels_issued(), 40);
        for i in 0..n {
            assert_eq!(sim.node(i).window_violations(), 0, "{cons:?} seed {seed}");
        }
        let m = sim.read_path_metrics();
        assert_eq!(m.sc_reads + m.regular_reads, 120, "{cons:?} seed {seed}");
        assert_eq!(m.write_backs, 0, "{cons:?} seed {seed}: no read is atomic");
        judge(&history_of(&sim), &format!("{cons:?} seed {seed}"));
    }
}

#[test]
fn regular_reads_stay_regular_across_a_label_wrap() {
    tier_across_a_label_wrap(Consistency::Regular, |h, ctx| {
        assert_eq!(check_regular_swmr(h), vec![], "{ctx}:\n{h}");
    });
}

#[test]
fn sequential_reads_stay_sequentially_consistent_across_a_label_wrap() {
    tier_across_a_label_wrap(Consistency::Sequential, |h, ctx| {
        assert_eq!(
            check_sequential(h),
            ScCheckResult::Sequential,
            "{ctx}:\n{h}"
        );
    });
}
