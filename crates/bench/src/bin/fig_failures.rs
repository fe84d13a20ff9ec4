//! **F2 — graceful degradation under crashes and stragglers.**
//!
//! The emulation waits for the **fastest quorum**, so:
//!
//! * crashing up to `⌈n/2⌉ − 1` replicas leaves latency essentially
//!   unchanged (the quorum is formed from the survivors);
//! * a *slow* (not crashed) replica is simply left behind — unlike a
//!   wait-for-all scheme, whose latency is dragged to the straggler's
//!   delay. The second table contrasts quorum waiting with an emulated
//!   wait-for-all configuration (`Threshold(n, n, n)`).

use abd_bench::{bulk_reference, us, Stats, Table};
use abd_core::msg::RegisterOp;
use abd_core::quorum::Threshold;
use abd_core::retransmit::BackoffPolicy;
use abd_core::swmr::{SwmrConfig, SwmrNode};
use abd_core::types::{ProcessId, Tag};
use abd_kv::{KvConfig, KvNode};
use abd_simnet::nemesis::liveness_bound;
use abd_simnet::{run_campaign, LatencyModel, NemesisConfig, Sim, SimConfig};
use std::sync::Arc;

fn run_ops(sim: &mut Sim<SwmrNode<u64>>, clients: &[usize], ops: u64) -> Stats {
    let mut lats = Vec::new();
    for k in 0..ops {
        let before = sim.completed().len();
        if k % 2 == 0 {
            sim.invoke(ProcessId(0), RegisterOp::Write(k + 1));
        } else {
            sim.invoke(
                ProcessId(clients[(k as usize) % clients.len()]),
                RegisterOp::Read,
            );
        }
        assert!(sim.run_until_quiet(u64::MAX / 2), "op must complete");
        lats.push(sim.completed()[before].latency());
    }
    Stats::from_samples(lats).unwrap()
}

fn main() {
    let n = 9;
    let lat = LatencyModel::Uniform {
        lo: 5_000,
        hi: 15_000,
    };

    let mut f2a = Table::new(
        "F2a — latency vs crashed replicas (n = 9, majority quorums); µs",
        &["crashed f", "mean", "p99", "note"],
    );
    for f in 0..=4usize {
        let nodes: Vec<SwmrNode<u64>> = (0..n)
            .map(|i| SwmrNode::new(SwmrConfig::new(n, ProcessId(i), ProcessId(0)), 0))
            .collect();
        let mut sim = Sim::new(SimConfig::new(5).with_latency(lat), nodes);
        for i in n - f..n {
            sim.crash_at(0, ProcessId(i));
        }
        let clients: Vec<usize> = (1..n - f).collect();
        let s = run_ops(&mut sim, &clients, 200);
        f2a.row(vec![
            f.to_string(),
            us(s.mean),
            us(s.p99),
            if f == 4 {
                "max tolerated (paper bound)"
            } else {
                ""
            }
            .to_string(),
        ]);
    }
    f2a.print();

    let mut f2b = Table::new(
        "F2b — one straggler replica (100x slower): quorum vs wait-for-all (n = 5); µs",
        &["scheme", "mean", "p99"],
    );
    let straggler_lat = LatencyModel::Bimodal {
        fast: 5_000,
        slow: 500_000,
        slow_prob: 0.2,
    };
    for (name, quorum_all) in [
        ("ABD majority quorum", false),
        ("wait-for-all (r=w=n)", true),
    ] {
        let nodes: Vec<SwmrNode<u64>> = (0..5)
            .map(|i| {
                let mut cfg = SwmrConfig::new(5, ProcessId(i), ProcessId(0));
                if quorum_all {
                    cfg = cfg.with_quorum(Arc::new(Threshold::new(5, 5, 5)));
                }
                SwmrNode::new(cfg, 0)
            })
            .collect();
        let mut sim = Sim::new(SimConfig::new(11).with_latency(straggler_lat), nodes);
        let s = run_ops(&mut sim, &[1, 2, 3, 4], 200);
        f2b.row(vec![name.to_string(), us(s.mean), us(s.p99)]);
    }
    f2b.print();

    // F2c — fault accounting under full nemesis campaigns: where do the
    // messages go, and what does recovery cost? Every op still completes
    // and the history stays atomic (the nemesis integration tests assert
    // this); here we only read the meters. The sync columns come from
    // `read_path_metrics` (protocol-internal counters); SWMR registers
    // recover through the ordinary query round, not a sync protocol, so
    // they stay zero here — F2d below shows them live on the KV store.
    let mut f2c = Table::new(
        "F2c — nemesis campaign fault accounting (n = 5, adaptive backoff)",
        &[
            "seed",
            "ops",
            "aborted",
            "restarts",
            "retrans",
            "drop-part",
            "drop-loss",
            "drop-crash",
            "sync-msgs",
            "sync-bytes",
            "sync-entries",
        ],
    );
    let backoff = BackoffPolicy::new(20_000);
    for seed in [7u64, 21, 42] {
        let nodes: Vec<SwmrNode<u64>> = (0..5)
            .map(|i| {
                SwmrNode::new(
                    SwmrConfig::new(5, ProcessId(i), ProcessId(0)).with_backoff(backoff),
                    0,
                )
            })
            .collect();
        let mut sim = Sim::new(SimConfig::new(seed), nodes);
        let sched = NemesisConfig::new(seed, 5).plan();
        sched.apply(&mut sim);
        let scripts: Vec<Vec<RegisterOp<u64>>> = (0..5)
            .map(|c| {
                (0..8u64)
                    .map(|k| {
                        if c == 0 {
                            RegisterOp::Write(k + 1)
                        } else {
                            RegisterOp::Read
                        }
                    })
                    .collect()
            })
            .collect();
        let deadline = sched.heal_at() + liveness_bound(&backoff, 20_000, 10);
        let done = run_campaign(&mut sim, &sched, scripts, 5_000, deadline);
        assert!(done, "campaign seed {seed} must complete after healing");
        sim.run_until(sched.heal_at() + 1); // execute any post-completion faults
        let (m, sync) = (sim.metrics(), sim.read_path_metrics());
        f2c.row(vec![
            seed.to_string(),
            m.ops_completed.to_string(),
            m.ops_aborted.to_string(),
            m.restarts.to_string(),
            m.retransmissions.to_string(),
            m.dropped_partition.to_string(),
            m.dropped_loss.to_string(),
            m.dropped_crash.to_string(),
            sync.recovery_msgs.to_string(),
            sync.recovery_bytes.to_string(),
            sync.sync_entries_sent.to_string(),
        ]);
    }
    f2c.print();

    // F2d — what a restarted *store* pays to catch up: a 4-key-stale
    // recovery by Merkle walk, beside what pulling every peer's snapshot
    // would cost (the closed form). All five replicas hold 256 keys; the
    // four survivors hold 4 newer tags the rebooted node lacks. Bulk ships
    // every peer's full snapshot; the walk ships digests until the
    // divergent leaves isolate the 4 keys. (fig_recovery scales this shape
    // to 100k keys and gates the ratio; here it is one table row per mode.)
    let mut f2d = Table::new(
        "F2d — recovery sync accounting: bulk snapshot vs Merkle walk \
         (n = 5, 256-key store, 4 stale keys)",
        &["sync mode", "sync-msgs", "sync-bytes", "entries shipped"],
    );
    let mut nodes: Vec<KvNode<u32, u64>> = (0..5)
        .map(|i| KvNode::new(KvConfig::new(5, ProcessId(i)).with_sync_buckets(64)))
        .collect();
    for node in &mut nodes {
        for k in 0..256u32 {
            node.preload(k, Tag::new(1, ProcessId(0)), u64::from(k));
        }
    }
    // The rebooted node (4) misses four newer writes the peers hold.
    for node in nodes.iter_mut().take(4) {
        for k in 0..4u32 {
            node.preload(k, Tag::new(2, ProcessId(1)), 1_000 + u64::from(k));
        }
    }
    let mut sim = Sim::new(SimConfig::new(9), nodes);
    sim.crash_at(1_000, ProcessId(4));
    sim.restart_at(2_000, ProcessId(4));
    assert!(sim.run_until_quiet(60_000_000_000), "recovery quiesces");
    assert!(!sim.node(4).is_recovering(), "node 4 caught up");
    for k in 0..4u32 {
        assert_eq!(
            sim.node(4).local_entry(&k).map(|(_, v)| *v),
            Some(1_000 + u64::from(k)),
            "stale key {k} repaired"
        );
    }
    let m = sim.read_path_metrics();
    let entry_bytes = std::mem::size_of::<(u32, Tag, u64)>() as u64;
    let walked = [m.recovery_msgs, m.recovery_bytes, m.sync_entries_sent];
    for (name, meters) in [
        ("bulk (closed form)", bulk_reference(5, 256, entry_bytes)),
        ("merkle walk", walked),
    ] {
        let mut row = vec![name.to_string()];
        row.extend(meters.map(|x| x.to_string()));
        f2d.row(row);
    }
    f2d.print();

    println!(
        "\nShape checks: F2a rows are flat — up to the paper's bound, crashes do not slow\nthe emulation. F2b shows why 'wait for a majority' (not all) is load-bearing:\nthe wait-for-all scheme inherits the straggler's tail, the quorum scheme does not.\nF2c: campaigns crash every node, partition minorities and burn messages, yet all\nsurviving ops complete — retransmissions and restart catch-ups pay the bill.\nF2d: the bulk row ships every peer's whole snapshot (entries ~ store size x\npeers); the Merkle row ships digests plus exactly the divergent keys."
    );
}
