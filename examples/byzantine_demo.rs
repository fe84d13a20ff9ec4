//! Beyond crash failures: what happens when a replica *lies* — and how the
//! masking-quorum generalization of ABD (Malkhi–Reiter) handles it.
//!
//! Runs the same lying replica against two quorum disciplines in the
//! deterministic simulator, each run a `Repro` of the Byzantine register:
//!
//! 1. the plain crash-tolerant majority (`b = 0`) — a single forged label
//!    poisons reads;
//! 2. masking quorums (`n = 4b+1`, accept only pairs vouched by `b+1`
//!    replicas) — the same liar is shrugged off.
//!
//! Run with: `cargo run --release --example byzantine_demo`

use abd_core::byzantine::LieStrategy;
use abd_core::msg::RegisterOp;
use abd_repro::lincheck::RegAction;
use abd_repro::simnet::{LatencyModel, ProtocolSpec, Repro, SimConfig};

/// Writer 0 writes 1..=10 while nodes 2–4, starting once the first write is
/// done, each read ten times, and replica 1 pairs a fabricated sky-high
/// label with its stale value: the reads, and those that returned no value
/// of 1..=10.
fn run(b: usize, label: &str) -> (usize, usize) {
    let mut scripts = vec![(1..=10).map(RegisterOp::Write).collect(), vec![]];
    scripts.resize(5, vec![RegisterOp::Read; 10]);
    let liars = vec![(1, LieStrategy::ForgeLabel)];
    let latency = LatencyModel::Uniform {
        lo: 1_000,
        hi: 20_000,
    };
    let sim = SimConfig::new(7).with_latency(latency);
    let spec = ProtocolSpec::Byzantine { b, liars };
    let out = Repro::staggered(
        "byzantine-demo",
        spec,
        sim,
        scripts,
        25_000,
        600_000_000_000,
    )
    .run();
    assert!(out.completed, "{label}: every operation completes");
    let ops = out.histories[0].ops();
    let reads = ops.iter().filter_map(|op| match op.action {
        RegAction::Read(v) => Some(v),
        RegAction::Write(_) => None,
    });
    let (reads, wrong) = reads.fold((0, 0), |(n, bad), v| {
        (n + 1, bad + usize::from(!(1..=10).contains(&v)))
    });
    let atomic = out.failure.is_none();
    println!("{label:<42} reads: {reads:>3}   wrong: {wrong:>3}   atomic: {atomic}");
    (reads, wrong)
}

fn main() {
    println!("One Byzantine replica (forged labels) against two quorum disciplines:\n");
    let (_, poisoned) = run(0, "plain majority (crash-tolerant ABD)");
    let (_, masked) = run(1, "masking quorums (n=4b+1, b+1 vouchers)");
    println!();
    assert!(
        poisoned > 0,
        "the forger should poison the plain protocol in this schedule"
    );
    assert_eq!(masked, 0, "masking quorums must mask the forger");
    println!("The crash-tolerant protocol trusts the highest label it hears; a liar forges");
    println!("one and wins. The masking protocol only believes a (label, value) pair that");
    println!("b+1 replicas report identically — a lone liar can never gather the vouchers.");
}
