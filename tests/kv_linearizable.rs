//! Integration: the replicated key-value store under the simulator's
//! adversary — per-key histories are linearizable, keys are independent,
//! and the store tolerates the same failure bound as the registers it is
//! made of.
//!
//! The judged sweeps are [`Repro`]s of [`ProtocolSpec::Kv`], so a failing
//! seed leaves an artifact under `target/repro/`. Pipelined invocations (two
//! operations in flight at one node) are no script of a `Repro` and keep
//! their own `Sim`, as do the runs that count messages or read a replica.

use abd_core::msg::RegisterOp;
use abd_core::types::{ProcessId, ReadMode};
use abd_kv::{KvConfig, KvNode, KvOp, KvResp};
use abd_repro::lincheck::{check_linearizable, CheckResult, RegAction};
use abd_repro::simnet::workload::{kv_histories, WorkloadConfig, WriterMode};
use abd_repro::simnet::{LatencyModel, ProtocolSpec, ReplayOutcome, Repro, Sim, SimConfig};

type KvSim = Sim<KvNode<u32, u64>>;

/// Uniform 0.1–40 µs links that duplicate 5 % of messages.
fn links(seed: u64) -> SimConfig {
    SimConfig::new(seed)
        .with_latency(LatencyModel::Uniform {
            lo: 100,
            hi: 40_000,
        })
        .with_duplication(0.05)
}

fn nodes(n: usize) -> Vec<KvNode<u32, u64>> {
    (0..n)
        .map(|i| KvNode::new(KvConfig::new(n, ProcessId(i))))
        .collect()
}

/// Five clients of 15 gets and puts (values unique across the store) over
/// four contended keys — operation `j` of client `c` on key `(c + j) % 4` —
/// each running from its own completions, 500 ns think, clients 1 ns apart.
/// Every key's history is judged linearizable.
fn contended(name: &str, read_mode: ReadMode, seed: u64, workload_seed: u64) -> ReplayOutcome {
    let spec = ProtocolSpec::Kv {
        read_mode,
        hot: 4,
        preload: 0,
        buckets: 1024,
        amnesiac: false,
    };
    let scripts = WorkloadConfig::new(workload_seed, 15, WriterMode::All).generate(5);
    let run = Repro::staggered(name, spec, links(seed), scripts, 1, 600_000_000_000);
    Repro { think: 500, ..run }
        .check_or_emit()
        .unwrap_or_else(|e| panic!("{e}"))
}

#[test]
fn per_key_histories_are_linearizable_across_seeds() {
    for seed in 0..60u64 {
        contended("kv-sweep", ReadMode::TwoRound, seed, seed ^ 0xfeed);
    }
}

/// The write-back elision must be invisible to the checker: the same
/// contended workload as above, with fast reads on, stays linearizable
/// per key — and the fast path actually fires somewhere in the sweep.
#[test]
fn fast_reads_keep_per_key_histories_linearizable() {
    let total_fast: u64 = (0..40u64)
        .map(|seed| {
            let out = contended(
                "kv-sweep-fast",
                ReadMode::FastUnanimous,
                seed,
                seed ^ 0xfa57,
            );
            out.read_path.fast_reads
        })
        .sum();
    assert!(total_fast > 0, "the fast path must fire during the sweep");
}

/// The kv node *does* pipeline concurrent invocations; this test exercises
/// that path with moderate pipelining (two ops in flight per node) so the
/// checker stays tractable.
#[test]
fn pipelined_invocations_stay_linearizable() {
    for seed in 0..30u64 {
        let n = 3;
        let mut sim: KvSim = Sim::new(links(seed ^ 0x99), nodes(n));
        let mut value = 0u64;
        for round in 0..5u64 {
            for node in 0..n {
                // Two back-to-back invocations per node per round.
                value += 1;
                sim.invoke_at(
                    sim.now() + round * 100_000,
                    ProcessId(node),
                    KvOp::Put(0, value),
                );
                sim.invoke_at(
                    sim.now() + round * 100_000 + 10,
                    ProcessId(node),
                    KvOp::Get(0),
                );
            }
        }
        assert!(sim.run_until_ops_complete(600_000_000_000), "seed {seed}");
        for (key, h) in kv_histories(&sim) {
            assert_ne!(
                check_linearizable(&h),
                CheckResult::NotLinearizable,
                "seed {seed}, key {key}: non-linearizable pipelined history\n{h}"
            );
        }
    }
}

#[test]
fn store_survives_minority_crash_mid_workload() {
    // Node 0 puts 100 while nodes 3 and 4 crash under it; node 1 gets the
    // key once the put is surely done.
    let spec = ProtocolSpec::Kv {
        read_mode: ReadMode::TwoRound,
        hot: 1,
        preload: 0,
        buckets: 1024,
        amnesiac: false,
    };
    let mut scripts = vec![vec![RegisterOp::Write(100)], vec![RegisterOp::Read]];
    scripts.resize(5, vec![]);
    let run = Repro::staggered(
        "kv-minority-crash",
        spec,
        links(77),
        scripts,
        1_000_000,
        60_000_000_000,
    );
    let out = run
        .with_crashes(&[(3, 500), (4, 700)])
        .check_or_emit()
        .unwrap_or_else(|e| panic!("{e}"));
    let actions: Vec<_> = out.histories[0]
        .ops()
        .iter()
        .map(|op| op.action.clone())
        .collect();
    assert_eq!(actions, [RegAction::Write(100), RegAction::Read(100)]);
}

#[test]
fn keys_do_not_interfere() {
    let n = 3;
    let mut sim: KvSim = Sim::new(links(5), nodes(n));
    for k in 0..20u32 {
        sim.invoke(
            ProcessId((k % 3) as usize),
            KvOp::Put(k, u64::from(k) + 1000),
        );
    }
    assert!(sim.run_until_ops_complete(60_000_000_000));
    for k in 0..20u32 {
        sim.invoke(ProcessId(((k + 1) % 3) as usize), KvOp::Get(k));
    }
    assert!(sim.run_until_ops_complete(120_000_000_000));
    let gets: Vec<_> = sim
        .completed()
        .iter()
        .filter_map(|r| match (&r.input, &r.resp) {
            (KvOp::Get(k), KvResp::GetOk(v)) => Some((*k, *v)),
            _ => None,
        })
        .collect();
    assert_eq!(gets.len(), 20);
    for (k, v) in gets {
        assert_eq!(v, Some(u64::from(k) + 1000), "key {k}");
    }
}

#[test]
fn get_of_unwritten_key_completes_in_one_round() {
    let mut sim: KvSim = Sim::new(links(1), nodes(3));
    sim.invoke(ProcessId(0), KvOp::Get(99));
    // Drain fully so straggler replies are counted too.
    assert!(sim.run_until_quiet(10_000_000_000));
    assert_eq!(sim.completed()[0].resp, KvResp::GetOk(None));
    // Query round only: 2(n-1) = 4 messages.
    assert_eq!(sim.metrics().sent, 4);
}

#[test]
fn concurrent_puts_to_same_key_from_all_nodes_converge() {
    let n = 5;
    let mut sim: KvSim = Sim::new(links(13), nodes(n));
    for node in 0..n {
        sim.invoke_at(0, ProcessId(node), KvOp::Put(7, 100 + node as u64));
    }
    assert!(sim.run_until_ops_complete(60_000_000_000));
    // All replicas agree on one winner.
    let entries: Vec<_> = (0..n)
        .filter_map(|i| sim.node(i).local_entry(&7).map(|(t, v)| (t, *v)))
        .collect();
    assert_eq!(entries.len(), n);
    assert!(
        entries.windows(2).all(|w| w[0] == w[1]),
        "replicas diverged: {entries:?}"
    );
    assert!((100..100 + n as u64).contains(&entries[0].1));
}

/// Two puts on one key, invoked together at one node, must write under two
/// tags. Their query rounds may run side by side and see the same largest
/// tag, so only the node's own store knows the first has already issued
/// the next one. With one tag issued twice, replicas kept different values
/// under it, and no Merkle walk could repair that: the tree digests
/// `(key → tag)`.
#[test]
fn two_puts_on_one_key_at_one_node_issue_two_tags() {
    for seed in 0..300u64 {
        let uniform = LatencyModel::Uniform {
            lo: 100,
            hi: 40_000,
        };
        let mut sim: KvSim = Sim::new(SimConfig::new(seed).with_latency(uniform), nodes(3));
        sim.invoke_at(0, ProcessId(0), KvOp::Put(7, 1));
        sim.invoke_at(0, ProcessId(0), KvOp::Put(7, 2));
        assert!(sim.run_until_ops_complete(10_000_000_000), "seed {seed}");
        for i in 0..8 {
            sim.invoke(ProcessId(i % 3), KvOp::Get(7));
            assert!(sim.run_until_ops_complete(20_000_000_000), "seed {seed}");
        }
        assert!(sim.run_until_quiet(30_000_000_000), "seed {seed}");
        let entries: Vec<_> = (0..3)
            .map(|i| sim.node(i).local_entry(&7).map(|(t, v)| (t, *v)))
            .collect();
        assert!(
            entries.iter().all(|e| *e == entries[0]),
            "seed {seed}: replicas hold different entries: {entries:?}"
        );
        let (tag, _) = entries[0].expect("the key was written");
        assert_eq!(tag.seq, 2, "seed {seed}: two puts, two tags");
        for (key, h) in kv_histories(&sim) {
            assert_eq!(
                check_linearizable(&h),
                CheckResult::Linearizable,
                "seed {seed}, key {key}: non-linearizable history\n{h}"
            );
        }
    }
}
