//! Integration: the replicated key-value store under the simulator's
//! adversary — per-key histories are linearizable, keys are independent,
//! and the store tolerates the same failure bound as the registers it is
//! made of.

use abd_core::types::{ProcessId, ReadMode};
use abd_kv::{KvConfig, KvNode, KvOp, KvResp};
use abd_repro::lincheck::{check_linearizable, CheckResult};
use abd_repro::simnet::workload::kv_histories;
use abd_repro::simnet::{LatencyModel, Sim, SimConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type KvSim = Sim<KvNode<u32, u64>>;

fn cluster(n: usize, seed: u64) -> KvSim {
    cluster_cfg(n, seed, false)
}

fn cluster_cfg(n: usize, seed: u64, fast_reads: bool) -> KvSim {
    let mode = if fast_reads {
        ReadMode::FastUnanimous
    } else {
        ReadMode::TwoRound
    };
    let nodes = (0..n)
        .map(|i| KvNode::new(KvConfig::new(n, ProcessId(i)).with_read_mode(mode)))
        .collect();
    Sim::new(
        SimConfig::new(seed)
            .with_latency(LatencyModel::Uniform {
                lo: 100,
                hi: 40_000,
            })
            .with_duplication(0.05),
        nodes,
    )
}

#[test]
fn per_key_histories_are_linearizable_across_seeds() {
    for seed in 0..60u64 {
        let n = 5;
        let mut sim = cluster(n, seed);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xfeed);
        let mut value = 0u64;
        // Closed-loop random workload: each node runs 15 sequential
        // gets/puts over 4 contended keys (concurrency comes from the five
        // clients racing, with honest per-client intervals).
        let scripts: Vec<Vec<KvOp<u32, u64>>> = (0..n)
            .map(|_| {
                (0..15)
                    .map(|_| {
                        let key = rng.gen_range(0..4u32);
                        if rng.gen_bool(0.5) {
                            value += 1;
                            KvOp::Put(key, value)
                        } else {
                            KvOp::Get(key)
                        }
                    })
                    .collect()
            })
            .collect();
        assert!(
            abd_repro::simnet::harness::run_scripts(&mut sim, scripts, 500, 1, 600_000_000_000),
            "seed {seed}"
        );
        for (key, h) in kv_histories(&sim) {
            assert_eq!(
                check_linearizable(&h),
                CheckResult::Linearizable,
                "seed {seed}, key {key}: non-linearizable history\n{h}"
            );
        }
    }
}

/// The write-back elision must be invisible to the checker: the same
/// contended workload as above, with `fast_reads` on, stays linearizable
/// per key — and the fast path actually fires somewhere in the sweep.
#[test]
fn fast_reads_keep_per_key_histories_linearizable() {
    let mut total_fast = 0u64;
    for seed in 0..40u64 {
        let n = 5;
        let mut sim = cluster_cfg(n, seed, true);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xfa57);
        let mut value = 0u64;
        let scripts: Vec<Vec<KvOp<u32, u64>>> = (0..n)
            .map(|_| {
                (0..15)
                    .map(|_| {
                        let key = rng.gen_range(0..4u32);
                        if rng.gen_bool(0.5) {
                            value += 1;
                            KvOp::Put(key, value)
                        } else {
                            KvOp::Get(key)
                        }
                    })
                    .collect()
            })
            .collect();
        assert!(
            abd_repro::simnet::harness::run_scripts(&mut sim, scripts, 500, 1, 600_000_000_000),
            "seed {seed}"
        );
        for (key, h) in kv_histories(&sim) {
            assert_eq!(
                check_linearizable(&h),
                CheckResult::Linearizable,
                "seed {seed}, key {key}: non-linearizable fast-read history\n{h}"
            );
        }
        total_fast += sim.read_path_metrics().fast_reads;
    }
    assert!(total_fast > 0, "the fast path must fire during the sweep");
}

/// The kv node *does* pipeline concurrent invocations; this test exercises
/// that path with moderate pipelining (two ops in flight per node) so the
/// checker stays tractable.
#[test]
fn pipelined_invocations_stay_linearizable() {
    for seed in 0..30u64 {
        let n = 3;
        let mut sim = cluster(n, seed ^ 0x99);
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
    let n = 5;
    let mut sim = cluster(n, 77);
    sim.invoke_at(0, ProcessId(0), KvOp::Put(1, 100));
    sim.crash_at(500, ProcessId(3));
    sim.crash_at(700, ProcessId(4));
    assert!(sim.run_until_ops_complete(30_000_000_000));
    sim.invoke(ProcessId(1), KvOp::Get(1));
    assert!(sim.run_until_ops_complete(60_000_000_000));
    let last = sim.completed().last().unwrap();
    assert_eq!(last.resp, KvResp::GetOk(Some(100)));
}

#[test]
fn keys_do_not_interfere() {
    let n = 3;
    let mut sim = cluster(n, 5);
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
    let mut sim = cluster(3, 1);
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
    let mut sim = cluster(n, 13);
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
        let nodes = (0..3)
            .map(|i| KvNode::new(KvConfig::new(3, ProcessId(i))))
            .collect();
        let uniform = LatencyModel::Uniform {
            lo: 100,
            hi: 40_000,
        };
        let mut sim: KvSim = Sim::new(SimConfig::new(seed).with_latency(uniform), nodes);
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
