//! **E1 (extension) — Byzantine replicas: masking quorums vs plain
//! majorities** (Malkhi–Reiter's follow-up, cited by the Dijkstra Prize
//! account as the key generalization of ABD's quorums).
//!
//! Seeded sweeps with one (or two) lying replicas in the cluster. For each
//! lie strategy the table reports how many reads returned a wrong value:
//!
//! * the plain majority protocol (ABD parameters, `b = 0` masking
//!   threshold) believes whatever the liar reports — forged labels win the
//!   max, poisoning reads;
//! * the masking-quorum protocol (`n = 4b + 1`, quorum `3b + 1`, accept a
//!   pair only with `b + 1` identical vouchers) returns correct values on
//!   every schedule, asserted.

use abd_bench::{write_artifact, Table};
use abd_core::byzantine::{ByzConfig, ByzNode, LieStrategy};
use abd_core::msg::{RegisterOp, RegisterResp};
use abd_core::types::ProcessId;
use abd_simnet::{LatencyModel, Sim, SimConfig};

fn sweep(b: usize, n: usize, lie: LieStrategy, liar: usize, seeds: u64) -> (u64, u64) {
    let mut reads = 0u64;
    let mut wrong = 0u64;
    for seed in 0..seeds {
        let nodes = (0..n)
            .map(|i| {
                let mut cfg = ByzConfig::new(n, ProcessId(i), ProcessId(0), b);
                if i == liar {
                    cfg = cfg.with_lie(lie);
                }
                ByzNode::new(cfg, 0u64)
            })
            .collect();
        let mut sim: Sim<ByzNode<u64>> = Sim::new(
            SimConfig::new(seed).with_latency(LatencyModel::Uniform {
                lo: 100,
                hi: 30_000,
            }),
            nodes,
        );
        // Sequential rounds: each write completes before its reads start,
        // so a correct protocol must return exactly the round's value.
        for round in 1..=6u64 {
            sim.invoke(ProcessId(0), RegisterOp::Write(round));
            assert!(sim.run_until_ops_complete(600_000_000_000), "seed {seed}");
            let before = sim.completed().len();
            for reader in 2..n.min(5) {
                sim.invoke(ProcessId(reader), RegisterOp::Read);
            }
            assert!(sim.run_until_ops_complete(600_000_000_000), "seed {seed}");
            for r in &sim.completed()[before..] {
                if let (RegisterOp::Read, RegisterResp::ReadOk(v)) = (&r.input, &r.resp) {
                    reads += 1;
                    if *v != round {
                        wrong += 1;
                    }
                }
            }
        }
    }
    (reads, wrong)
}

fn main() {
    let seeds = 60;
    let mut t = Table::new(
        &format!("E1 — Byzantine replica sweeps ({seeds} seeds each, 1 liar unless noted)"),
        &["protocol", "lie strategy", "reads", "wrong reads"],
    );
    for lie in [
        LieStrategy::ReportStale,
        LieStrategy::ForgeLabel,
        LieStrategy::Silent,
    ] {
        // Plain majority (b = 0 masking; ABD parameters) on n = 5, liar at 1.
        let (reads, wrong) = sweep(0, 5, lie, 1, seeds);
        t.row(vec![
            "plain majority (ABD)".into(),
            format!("{lie:?}"),
            reads.to_string(),
            wrong.to_string(),
        ]);
        // Masking quorums, b = 1, n = 5.
        let (reads, wrong) = sweep(1, 5, lie, 1, seeds);
        assert_eq!(wrong, 0, "masking quorums must mask {lie:?}");
        t.row(vec![
            "masking quorum (b=1)".into(),
            format!("{lie:?}"),
            reads.to_string(),
            wrong.to_string(),
        ]);
    }
    t.print();
    println!(
        "\nShape checks: the ForgeLabel row poisons the plain protocol (wrong > 0) while\nevery masking row is asserted wrong = 0. Crash-tolerance (ABD) and\nByzantine-tolerance (Malkhi–Reiter) genuinely need different quorum systems."
    );
    write_artifact(env!("CARGO_BIN_NAME"), &[&t]);
}
