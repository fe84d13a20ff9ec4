//! Integration: the bounded-timestamp protocol behaves exactly like the
//! unbounded one — linearizable histories, same message complexity, same
//! resilience — while its labels stay a constant handful of bits across
//! executions long enough to lap the label cycle many times.
//!
//! Every judged run is a [`Repro`] of [`ProtocolSpec::Bounded`]: a failing
//! seed, or one whose labels left their window, leaves an artifact under
//! `target/repro/`. The message count keeps its own `Sim`.

use abd_core::bounded::{BoundedSwmrConfig, BoundedSwmrNode, LabelSpace};
use abd_core::msg::RegisterOp;
use abd_core::types::{Consistency, ProcessId};
use abd_repro::lincheck::RegAction;
use abd_repro::simnet::{
    shrink, Failure, LatencyModel, NemesisSchedule, OracleSpec, PlannedFault, ProtocolSpec,
    ReplayOutcome, Repro, Sim, SimConfig,
};

fn uniform(seed: u64) -> SimConfig {
    SimConfig::new(seed).with_latency(LatencyModel::Uniform {
        lo: 100,
        hi: 10_000,
    })
}

/// `scripts` on `n = scripts.len()` nodes over a cycle of `modulus` labels:
/// clients 1 ns apart, 500 ns think, judged by `oracle` — and invalid if a
/// label comparison leaves the window.
fn bounded_run(
    name: String,
    modulus: u32,
    seed: u64,
    scripts: Vec<Vec<RegisterOp<u64>>>,
    oracle: OracleSpec,
) -> ReplayOutcome {
    let spec = ProtocolSpec::Bounded { modulus };
    let run = Repro::staggered(name, spec, uniform(seed), scripts, 1, 120_000_000_000);
    Repro {
        think: 500,
        oracle,
        ..run
    }
    .check_or_emit()
    .unwrap_or_else(|e| panic!("{e}"))
}

/// The values `out`'s register history read, in completion order.
fn reads(out: &ReplayOutcome) -> Vec<u64> {
    let ops = out.histories[0].ops();
    ops.iter()
        .filter_map(|op| match op.action {
            RegAction::Read(v) => Some(v),
            RegAction::Write(_) => None,
        })
        .collect()
}

#[test]
fn bounded_histories_are_linearizable_across_seeds() {
    // Closed-loop scripts: per-client sequential operations, so the
    // recorded intervals reflect real concurrency.
    let mut scripts = vec![(1..=12u64).map(RegisterOp::Write).collect()];
    scripts.resize(5, vec![RegisterOp::Read; 10]);
    for seed in 0..60u64 {
        let name = "bounded-64".to_string();
        bounded_run(name, 64, seed, scripts.clone(), OracleSpec::Linearizable);
    }
}

#[test]
fn labels_lap_the_cycle_many_times_without_growing() {
    // 500 writes lap a 16-label cycle 31 times, each label 4 bits
    // (`LabelSpace::label_bits`; the writer's count of issued labels is
    // pinned by the store's own unit test), and a read after the last one
    // returns it.
    let writes = 500u64;
    let mut script: Vec<_> = (1..=writes).map(RegisterOp::Write).collect();
    script.push(RegisterOp::Read);
    let scripts = vec![script, vec![], vec![]];
    let out = bounded_run(
        "bounded-lap".into(),
        16,
        7,
        scripts,
        OracleSpec::Linearizable,
    );
    assert_eq!(reads(&out), [writes]);
    assert_eq!(LabelSpace::new(16).label_bits(), 4);
}

#[test]
fn bounded_message_complexity_matches_unbounded() {
    let n = 7;
    let nodes = (0..n)
        .map(|i| {
            let cfg = BoundedSwmrConfig::new(n, ProcessId(i), ProcessId(0))
                .with_space(LabelSpace::new(64));
            BoundedSwmrNode::new(cfg, 0u64)
        })
        .collect();
    let mut sim: Sim<BoundedSwmrNode<u64>> = Sim::new(uniform(1), nodes);
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
    let mut script: Vec<_> = (1..=50u64).map(RegisterOp::Write).collect();
    script.push(RegisterOp::Read);
    let mut scripts = vec![script];
    scripts.resize(5, vec![]);
    let spec = ProtocolSpec::Bounded { modulus: 64 };
    let run = Repro::staggered(
        "bounded-crashes",
        spec,
        uniform(3),
        scripts,
        1,
        u64::MAX / 2,
    );
    let out = run
        .with_crashes(&[(3, 0), (4, 0)])
        .check_or_emit()
        .unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(reads(&out), [50]);
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
/// and a half. Each judged by its own oracle; no comparison may leave the
/// window.
fn tier_across_a_label_wrap(cons: Consistency, oracle: OracleSpec) {
    let mut scripts = vec![(1..=40u64).map(RegisterOp::Write).collect()];
    scripts.resize(5, vec![RegisterOp::ReadAt(cons); 30]);
    for seed in 0..20u64 {
        let name = format!("bounded-{cons:?}");
        let out = bounded_run(name, 16, seed, scripts.clone(), oracle);
        assert_eq!(out.histories[0].ops().len(), 160, "{cons:?} seed {seed}");
        let m = out.read_path;
        assert_eq!(m.sc_reads + m.regular_reads, 120, "{cons:?} seed {seed}");
        assert_eq!(m.write_backs, 0, "{cons:?} seed {seed}: no read is atomic");
    }
}

#[test]
fn regular_reads_stay_regular_across_a_label_wrap() {
    tier_across_a_label_wrap(Consistency::Regular, OracleSpec::RegularSwmr);
}

#[test]
fn sequential_reads_stay_sequentially_consistent_across_a_label_wrap() {
    tier_across_a_label_wrap(Consistency::Sequential, OracleSpec::Sequential);
}

/// Four clients on an 8-label cycle (window 3), the writer's twelve writes
/// lapping it one and a half times, while a partition holds node 4 — which
/// issues nothing — away from the rest until `heal_at`.
fn held_replica(heal_at: u64) -> Repro {
    let mut scripts = vec![(1..=12u64).map(RegisterOp::Write).collect()];
    scripts.resize(4, vec![RegisterOp::Read; 4]);
    scripts.push(vec![]);
    let groups = vec![0, 0, 0, 0, 1];
    let cut = PlannedFault::Partition {
        at: 0,
        groups,
        heal_at,
    };
    let schedule = NemesisSchedule::from_faults(vec![cut], 0, (0..5).collect(), 5);
    let spec = ProtocolSpec::Bounded { modulus: 8 };
    let run = Repro::new(
        "bounded-held",
        spec,
        uniform(1),
        scripts,
        schedule,
        120_000_000_000,
    );
    Repro { think: 500, ..run }
}

#[test]
fn a_replica_held_past_the_window_is_convicted() {
    // Healed mid-lap, node 4's label is not comparable with the next one it
    // hears: the window counts the escape and the run is invalid.
    let mid_lap = held_replica(40_000).run().failure;
    assert!(matches!(mid_lap, Some(Failure::Window(_))), "{mid_lap:?}");
    // Healed a whole lap later, its stale label is the writer's current one
    // again: nothing escapes the window, and a read quorum holding both
    // returns an old value after a new one. The artifact is written, and
    // the shrinker keeps the partition and the failure's class.
    let run = held_replica(60_000);
    assert_eq!(run.run().window_violations, 0);
    let err = run.clone().check_or_emit().expect_err("a held replica");
    assert!(
        err.contains("not atomic") && err.contains("bounded-held-1.repro"),
        "{err}"
    );
    let minimal = shrink(&run).expect("the run fails");
    assert_eq!(minimal.failure.kind(), "violation");
    assert_eq!(minimal.minimal.schedule.faults(), run.schedule.faults());
}
