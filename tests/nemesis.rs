//! Integration: nemesis fault campaigns end to end.
//!
//! The acceptance bar for the fault-injection work: a seeded campaign that
//! crashes **and restarts every node at least once** — while a majority
//! stays alive at every instant — must (a) let every surviving operation
//! complete within the liveness bound derived from the retransmission
//! backoff cap, (b) yield a history `abd-lincheck` certifies atomic, and
//! (c) replay bit-identically from the same seed
//! (`Sim::trace_digest`). A soak then drives randomized campaigns through
//! all four register protocols, and a deliberate majority violation shows
//! the flip side: outside the `f < n/2` envelope, operations block.
//!
//! Register soaks run through [`Repro::check_or_emit`]: when a campaign
//! fails, a self-contained artifact lands under `target/repro/` and the
//! panic message names the `abd_repro` commands that replay and shrink it.

use abd_core::context::{Effects, Protocol, ReadPathStats, TimerKey};
use abd_core::msg::RegisterOp;
use abd_core::retransmit::BackoffPolicy;
use abd_core::swmr::{SwmrConfig, SwmrNode};
use abd_core::types::{Consistency, OpId, ProcessId, ReadMode, Tag};
use abd_kv::{KvConfig, KvNode, KvOp, KvResp};
use abd_repro::lincheck::RegAction;
use abd_repro::simnet::nemesis::liveness_bound;
use abd_repro::simnet::workload::{kv_histories, scripts_at_tier, scripts_mixed_tier};
use abd_repro::simnet::{
    run_campaign, shrink, Failure, MutantKind, NemesisConfig, NemesisSchedule, OracleSpec,
    PlannedFault, ProtocolSpec, Repro, Sim, SimConfig,
};
use std::collections::BTreeSet;

const N: usize = 5;
const BACKOFF_BASE: u64 = 20_000;
const THINK: u64 = 5_000;

fn backoff() -> BackoffPolicy {
    BackoffPolicy::new(BACKOFF_BASE)
}

/// Single-writer scripts: client 0 writes unique values, the rest read.
fn swmr_scripts(ops: u64) -> Vec<Vec<RegisterOp<u64>>> {
    let mut scripts = vec![(1..=ops).map(RegisterOp::Write).collect()];
    scripts.resize(N, vec![RegisterOp::Read; ops as usize]);
    scripts
}

/// Multi-writer scripts: every client alternates unique writes and reads.
fn mwmr_scripts(ops: u64) -> Vec<Vec<RegisterOp<u64>>> {
    (0..N)
        .map(|c| {
            (0..ops)
                .map(|k| {
                    if k % 2 == 0 {
                        RegisterOp::Write(100 * (c as u64 + 1) + k)
                    } else {
                        RegisterOp::Read
                    }
                })
                .collect()
        })
        .collect()
}

/// A soak campaign as a repro artifact: failures are emitted to
/// `target/repro/` (by [`Repro::check_or_emit`]) before the caller panics.
fn soak_repro(
    name: &str,
    protocol: ProtocolSpec,
    oracle: OracleSpec,
    sim_seed: u64,
    sched: NemesisSchedule,
    scripts: Vec<Vec<RegisterOp<u64>>>,
) -> Repro {
    let deadline = sched.heal_at() + liveness_bound(&backoff(), 20_000, 8);
    let run = Repro::new(
        name,
        protocol,
        SimConfig::new(sim_seed),
        scripts,
        sched,
        deadline,
    );
    Repro {
        backoff_base: Some(BACKOFF_BASE),
        think: THINK,
        oracle,
        ..run
    }
}

/// One full SWMR campaign; returns the trace digest for replay checks.
fn swmr_campaign(sim_seed: u64, nemesis_seed: u64) -> u64 {
    swmr_campaign_cfg(sim_seed, nemesis_seed, ReadMode::TwoRound)
}

/// SWMR campaign with the read mode under test control.
fn swmr_campaign_cfg(sim_seed: u64, nemesis_seed: u64, read_mode: ReadMode) -> u64 {
    let sched = NemesisConfig::new(nemesis_seed, N).plan();
    assert!(sched.respects_min_alive(N));
    let name = match read_mode {
        ReadMode::TwoRound => "nemesis-swmr",
        ReadMode::FastUnanimous => "nemesis-swmr-fast",
        ReadMode::Relay => "nemesis-swmr-relay",
        ReadMode::NoWriteBack => "nemesis-swmr-no-write-back",
    };
    soak_repro(
        name,
        ProtocolSpec::Swmr { read_mode },
        OracleSpec::Linearizable,
        sim_seed,
        sched,
        swmr_scripts(6),
    )
    .check_or_emit()
    .unwrap_or_else(|e| panic!("seed ({sim_seed},{nemesis_seed}): {e}"))
    .digest
}

#[test]
fn fixed_seed_campaign_restarts_every_node_and_stays_atomic() {
    let sched = NemesisConfig::new(77, N).plan();

    // Every node crashes (and restarts) at least once, yet the planner
    // never drops below a live majority.
    let mut crashed = BTreeSet::new();
    for f in sched.faults() {
        if let PlannedFault::Crash {
            node, restart_at, ..
        } = f
        {
            crashed.insert(node.index());
            assert!(*restart_at <= sched.heal_at());
        }
    }
    assert_eq!(crashed.len(), N, "campaign must cover every node");
    assert!(sched.respects_min_alive(N));

    let digest = swmr_campaign(1234, 77);
    let replay = swmr_campaign(1234, 77);
    assert_eq!(digest, replay, "same seeds must replay bit-identically");
    assert_ne!(
        digest,
        swmr_campaign(1234, 78),
        "a different campaign seed must produce a different trace"
    );
}

#[test]
fn fixed_seed_campaign_counts_restarts_and_retransmissions() {
    let nodes: Vec<SwmrNode<u64>> = (0..N)
        .map(|i| {
            SwmrNode::new(
                SwmrConfig::new(N, ProcessId(i), ProcessId(0)).with_retransmit(BACKOFF_BASE),
                0,
            )
        })
        .collect();
    let mut sim = Sim::new(SimConfig::new(9), nodes);
    let sched = NemesisConfig::new(41, N).plan();
    let planned_crashes = sched
        .faults()
        .iter()
        .filter(|f| matches!(f, PlannedFault::Crash { .. }))
        .count() as u64;
    sched.apply(&mut sim);
    let deadline = sched.heal_at() + liveness_bound(&backoff(), 20_000, 8);
    assert!(run_campaign(
        &mut sim,
        &sched,
        swmr_scripts(6),
        THINK,
        deadline
    ));
    // The campaign driver stops once all ops complete, which can be before
    // the last planned faults fire — drive the sim through the whole
    // schedule so every crash/restart is actually executed.
    sim.run_until(sched.heal_at() + 1);
    let m = sim.metrics();
    assert_eq!(m.restarts, planned_crashes, "every crash wave reboots");
    assert!(
        sim.read_path_metrics().retransmissions > 0,
        "loss bursts and crashes must force retransmissions"
    );
}

#[test]
fn soak_swmr_and_mwmr_randomized_campaigns() {
    for seed in [5u64, 6, 7] {
        let d = swmr_campaign(seed, seed * 31 + 1);
        assert_eq!(d, swmr_campaign(seed, seed * 31 + 1));

        let run_mwmr = |sim_seed: u64| {
            let sched = NemesisConfig::new(sim_seed * 31 + 2, N).plan();
            soak_repro(
                "nemesis-mwmr",
                ProtocolSpec::Mwmr {
                    read_mode: ReadMode::TwoRound,
                },
                OracleSpec::Linearizable,
                sim_seed,
                sched,
                mwmr_scripts(4),
            )
            .check_or_emit()
            .unwrap_or_else(|e| panic!("mwmr seed {sim_seed}: {e}"))
            .digest
        };
        assert_eq!(run_mwmr(seed), run_mwmr(seed));
    }
}

#[test]
fn soak_bounded_and_byzantine_randomized_campaigns() {
    for seed in [11u64, 12] {
        // Bounded labels: a modulus comfortably above the write count, so
        // the campaign exercises wraparound-safe adoption, not overflow. A
        // comparison outside the window would fail the run.
        let run_bounded = |sim_seed: u64| {
            let sched = NemesisConfig::new(sim_seed * 37 + 3, N).plan();
            let bounded = ProtocolSpec::Bounded { modulus: 64 };
            soak_repro(
                "nemesis-bounded",
                bounded,
                OracleSpec::Linearizable,
                sim_seed,
                sched,
                swmr_scripts(5),
            )
            .check_or_emit()
            .unwrap_or_else(|e| panic!("bounded seed {sim_seed}: {e}"))
            .digest
        };
        assert_eq!(run_bounded(seed), run_bounded(seed));

        // Byzantine masking quorums need q = 4 of n = 5 live (b = 1), so the
        // campaign's liveness floor rises to 4 and waves go one at a time.
        let run_byz = |sim_seed: u64| {
            let mut cfg = NemesisConfig::new(sim_seed * 41 + 4, N).with_min_alive(4);
            cfg.crash_cycles = 5; // one victim per wave still covers all five
            let sched = cfg.plan();
            assert!(sched.respects_min_alive(N));
            let byz = ProtocolSpec::Byzantine {
                b: 1,
                liars: vec![],
            };
            let out = soak_repro(
                "nemesis-byzantine",
                byz,
                OracleSpec::Linearizable,
                sim_seed,
                sched,
                swmr_scripts(4),
            )
            .check_or_emit()
            .unwrap_or_else(|e| panic!("byzantine seed {sim_seed}: {e}"));
            assert_eq!(
                out.unvouched_folds, 0,
                "byzantine seed {sim_seed}: a node fell back to its own pair"
            );
            out.digest
        };
        assert_eq!(run_byz(seed), run_byz(seed));
    }
}

#[test]
fn fast_read_campaigns_stay_atomic_and_replay() {
    // SWMR with the write-back elision on: crashes, restarts, and loss
    // bursts must not let a stale fast read through, and the runs must
    // replay bit-identically.
    let d = swmr_campaign_cfg(21, 91, ReadMode::FastUnanimous);
    assert_eq!(d, swmr_campaign_cfg(21, 91, ReadMode::FastUnanimous));
    assert_ne!(
        d,
        swmr_campaign_cfg(21, 92, ReadMode::FastUnanimous),
        "a different campaign seed must produce a different trace"
    );

    // MWMR with fast reads: concurrent writers make disagreement (and thus
    // the slow path) common; the history must still linearize.
    let run_fast_mwmr = |sim_seed: u64| {
        let sched = NemesisConfig::new(sim_seed * 31 + 2, N).plan();
        soak_repro(
            "nemesis-mwmr-fast",
            ProtocolSpec::Mwmr {
                read_mode: ReadMode::FastUnanimous,
            },
            OracleSpec::Linearizable,
            sim_seed,
            sched,
            mwmr_scripts(4),
        )
        .check_or_emit()
        .unwrap_or_else(|e| panic!("fast mwmr seed {sim_seed}: {e}"))
        .digest
    };
    assert_eq!(run_fast_mwmr(22), run_fast_mwmr(22));
}

#[test]
fn interrupted_write_campaigns_roll_forward_and_replay() {
    // The writer crashes mid-write and, on restart, rolls the write forward
    // at once. The history must certify atomic and replay bit-identically,
    // and hold the rolled-forward write: one that completed across its own
    // node's crash. The schedule is nemesis seed 88's with the writer's
    // first crash moved onto its third write (52.4–62.2 µs in this frame;
    // the planner put it at 242 µs, after the writer's last write).
    let planned = NemesisConfig::new(88, N).plan();
    let mut faults = planned.faults().to_vec();
    let first = faults
        .iter()
        .position(|f| {
            matches!(
                f,
                PlannedFault::Crash {
                    node: ProcessId(0),
                    ..
                }
            )
        })
        .expect("seed 88 crashes the writer");
    let PlannedFault::Crash { restart_at, .. } = faults[first] else {
        unreachable!("matched a crash")
    };
    faults[first] = PlannedFault::Crash {
        at: 57_000,
        node: ProcessId(0),
        restart_at,
    };
    let sched = NemesisSchedule::from_faults(
        faults,
        planned.heal_at(),
        planned.skews().to_vec(),
        planned.min_alive(),
    );
    assert!(sched.validate(N).is_ok());
    let writer_crashes: Vec<u64> = sched
        .faults()
        .iter()
        .filter_map(|f| match *f {
            PlannedFault::Crash {
                at,
                node: ProcessId(0),
                ..
            } => Some(at),
            _ => None,
        })
        .collect();
    let run = || {
        soak_repro(
            "nemesis-swmr-roll-forward",
            ProtocolSpec::Swmr {
                read_mode: ReadMode::TwoRound,
            },
            OracleSpec::Linearizable,
            1234,
            sched.clone(),
            swmr_scripts(6),
        )
        .check_or_emit()
        .unwrap_or_else(|e| panic!("roll-forward seed (1234,88): {e}"))
    };
    let out = run();
    assert_eq!(out.digest, run().digest, "replays bit-identically");
    assert!(
        out.histories[0].ops().iter().any(|op| {
            matches!(op.action, RegAction::Write(_))
                && writer_crashes
                    .iter()
                    .any(|&at| op.start < at && at < op.end)
        }),
        "no write survived the writer's crash:\n{}",
        out.histories[0]
    );
}

#[test]
fn batched_fast_campaign_stays_atomic_and_replays() {
    // Fast reads *and* a Nagle-style batching window: coalescing must not
    // reorder phase messages in a way the protocol can observe, even while
    // the nemesis crashes nodes mid-window (buffered sends die with the
    // node). Note: no retransmission assertions here — the flush timer's
    // sends land in the same counter.
    let run = |sim_seed: u64| {
        let sched = NemesisConfig::new(sim_seed * 43 + 5, N).plan();
        soak_repro(
            "nemesis-batched",
            ProtocolSpec::BatchedSwmr {
                window: 2_000,
                read_mode: ReadMode::FastUnanimous,
            },
            OracleSpec::Linearizable,
            sim_seed,
            sched,
            swmr_scripts(5),
        )
        .check_or_emit()
        .unwrap_or_else(|e| panic!("batched seed {sim_seed}: {e}"))
        .digest
    };
    assert_eq!(run(31), run(31));
    assert_eq!(run(32), run(32));
}

#[test]
fn batched_forwards_every_counter() {
    // Four puts, then node 2 reboots and walks its two peers' trees (the
    // default config: 1024 buckets over four keys). It missed nothing, so
    // each walk is its opening step alone: a `SyncDiffReq` for the root out
    // (16 + 8 + 4 bytes), a `SyncEntries` of the root's two children
    // digests and no entry back (16 + 8 + 2 · 12). The envelope layer
    // changes how messages travel, not what a node counts, so the batched
    // cluster must report the sync counters of the plain one. It reported
    // `(0, 0, 0)`: the wrapper forwarded five of eight counters.
    fn sync_counters<P>(wrap: impl Fn(KvNode<u32, u64>) -> P) -> (u64, u64, u64)
    where
        P: abd_core::Protocol<Op = KvOp<u32, u64>, Resp = KvResp<u64>> + ReadPathStats,
    {
        let nodes = (0..3)
            .map(|i| wrap(KvNode::new(KvConfig::new(3, ProcessId(i)))))
            .collect();
        let mut sim = Sim::new(SimConfig::new(9), nodes);
        for k in 0..4u32 {
            sim.invoke(ProcessId(0), KvOp::Put(k, u64::from(k)));
        }
        assert!(sim.run_until_quiet(1_000_000));
        sim.crash_at(sim.now() + 1, ProcessId(2));
        sim.restart_at(sim.now() + 2, ProcessId(2));
        assert!(sim.run_until_quiet(2_000_000));
        let m = sim.read_path_metrics();
        (m.recovery_msgs, m.recovery_bytes, m.sync_entries_sent)
    }
    let plain = sync_counters(|node| node);
    // Was `(4, 320, 8)`: two bulk pulls, two snapshots of four entries.
    assert_eq!(plain, (4, 2 * 28 + 2 * 48, 0));
    assert_eq!(
        sync_counters(|node| abd_core::batch::Batched::new(node, 0)),
        plain
    );
}

/// The recovery scenario shared by the behavior test and the pinned golden
/// digest below: nodes 3 and 4 miss a batch of puts, restart, catch up by
/// walking their peers' trees, then carry a quorum on their own merits.
fn kv_recovery_digest(sim_seed: u64) -> u64 {
    let run = |sim_seed: u64| {
        let nodes: Vec<KvNode<u32, u64>> = (0..N)
            .map(|i| KvNode::new(KvConfig::new(N, ProcessId(i)).with_retransmit(BACKOFF_BASE)))
            .collect();
        let mut sim = Sim::new(SimConfig::new(sim_seed), nodes);
        sim.crash_at(0, ProcessId(3));
        sim.crash_at(0, ProcessId(4));
        for k in 0..4u32 {
            sim.invoke_at(
                1_000 + u64::from(k),
                ProcessId(0),
                KvOp::Put(k, 100 + u64::from(k)),
            );
        }
        assert!(sim.run_until_ops_complete(60_000_000_000), "puts complete");
        let restart_at = sim.now() + 1;
        sim.restart_at(restart_at, ProcessId(3));
        sim.restart_at(restart_at, ProcessId(4));
        assert!(sim.run_until_quiet(restart_at + 60_000_000_000));
        for i in [3usize, 4] {
            assert!(!sim.node(i).is_recovering(), "node {i} finished catch-up");
            for k in 0..4u32 {
                assert_eq!(
                    sim.node(i).local_entry(&k).map(|(_, v)| *v),
                    Some(100 + u64::from(k)),
                    "node {i} key {k}: store caught up by its walks"
                );
            }
        }
        // The caught-up nodes can now carry a quorum on their own merits:
        // crash both nodes that served the original puts besides node 2.
        sim.crash_at(sim.now() + 1, ProcessId(0));
        sim.crash_at(sim.now() + 1, ProcessId(1));
        sim.invoke_at(sim.now() + 2, ProcessId(3), KvOp::Get(2));
        assert!(sim.run_until_ops_complete(120_000_000_000), "get completes");
        assert_eq!(
            sim.completed().last().unwrap().resp,
            KvResp::GetOk(Some(102))
        );
        sim.trace_digest()
    };
    run(sim_seed)
}

#[test]
fn kv_recovery_campaign_catches_up_and_replays() {
    // The catch-up must bring restarted stores up to date — proven by
    // inspecting the stores directly inside `kv_recovery_digest`, not by a
    // quorum read that a fresh node could answer for them.
    assert_eq!(
        kv_recovery_digest(3),
        kv_recovery_digest(3),
        "same seed must replay bit-identically"
    );
}

#[test]
fn kv_recovery_trace_digest_is_pinned() {
    // A default-config reboot: four keys under the 1024-bucket tree, one
    // walk per peer. Regenerate only for a *deliberate* change to what a
    // rebooted store sends: run `kv_recovery_digest(3)` and update the
    // constant. Moved three times since the pre-Merkle golden
    // (`0x0d93_5289_a11e_0ac6`). `KvNode` gave up its private retry counters
    // for `abd_core::Retransmitter`, whose jitter salt is `mix64(me + 1) ^
    // uid` where the store's was `(me + 1) ^ uid` — the same messages, each
    // retransmission at a differently jittered instant
    // (`0x61af_698b_c11c_cea7`). Then the bulk pull this scenario took (as
    // `kv_bulk_recovery_trace_digest_is_pinned`) left the store: the catch-up
    // is up to eleven request/reply steps down to the leaves that differ,
    // where it was one pull and one snapshot per peer
    // (`0x5641_03f2_b2d2_f7ae`). Then the trace digest stopped being FNV-1a
    // and folds each word of an event whole: the same events, another
    // fingerprint.
    assert_eq!(
        kv_recovery_digest(3),
        0x957b_ac0f_719d_1644,
        "recovery diverged from the golden trace"
    );
}

/// Asserts every per-key history of `sim` linearizable.
fn assert_kv_linearizable(sim: &Sim<KvNode<u32, u64>>, under: &str) {
    for (key, h) in kv_histories(sim) {
        assert_ne!(
            abd_repro::lincheck::check_linearizable(&h),
            abd_repro::lincheck::CheckResult::NotLinearizable,
            "key {key}: non-linearizable history under {under}\n{h}"
        );
    }
}

/// One six-op script per node: a contended put/get mix over the 4 keys
/// from `first_key`, with globally unique written values.
fn kv_contended_scripts(first_key: u32) -> Vec<Vec<KvOp<u32, u64>>> {
    (0..N)
        .map(|c| {
            (0..6u64)
                .map(|k| {
                    let key = first_key + ((c as u64 + k) % 4) as u32;
                    if (c as u64 + k).is_multiple_of(2) {
                        KvOp::Put(key, c as u64 * 1_000 + k + 1)
                    } else {
                        KvOp::Get(key)
                    }
                })
                .collect()
        })
        .collect()
}

/// A store node holding `keys` cold keys at one tag, except its own `1/N`th
/// of them, on which it alone holds a newer tag (writes that reached one
/// replica): against its peers, nearly every bucket of its tree diverges.
fn divergent_kv_node(cfg: KvConfig, keys: u32) -> KvNode<u32, u64> {
    let i = cfg.me.index();
    let mut node = KvNode::new(cfg);
    for k in 0..keys {
        node.preload(k, Tag::new(1, ProcessId(0)), 1);
        if k as usize % N == i {
            node.preload(k, Tag::new(2, ProcessId(i)), 2);
        }
    }
    node
}

/// One wide-divergence recovery campaign: 2 000 preloaded keys over 256
/// buckets, every node alone holding a newer tag on its own fifth of them
/// (writes that reached one replica), so each reboot's walks find nearly
/// every bucket divergent and run up to eight batches per level in flight —
/// over links that lose and duplicate messages, under the planner's crash
/// waves and partitions. Returns the trace digest after asserting per-key
/// linearizability of the client workload (on keys outside the preload) and
/// that every walk finished within one round trip per tree level.
fn kv_pipelined_recovery_campaign(sim_seed: u64, nemesis_seed: u64) -> u64 {
    const KEYS: u32 = 2_000;
    const BUCKETS: usize = 256;
    let nodes: Vec<KvNode<u32, u64>> = (0..N)
        .map(|i| {
            let cfg = KvConfig::new(N, ProcessId(i))
                .with_retransmit(BACKOFF_BASE)
                .with_sync_buckets(BUCKETS);
            divergent_kv_node(cfg, KEYS)
        })
        .collect();
    let cfg = SimConfig::new(sim_seed)
        .with_loss(0.05)
        .with_duplication(0.05);
    let mut sim = Sim::new(cfg, nodes);
    let sched = NemesisConfig::new(nemesis_seed, N).plan();
    sched.apply(&mut sim);
    // The clients work on fresh keys, past the preload.
    let scripts = kv_contended_scripts(KEYS);
    // A reboot prepends a catch-up of up to nine round trips, not one phase.
    let deadline = sched.heal_at() + liveness_bound(&backoff(), THINK, 40);
    assert!(
        run_campaign(&mut sim, &sched, scripts, THINK, deadline),
        "pipelined recovery campaign: operations must complete"
    );
    assert!(
        sim.run_until_quiet(deadline + liveness_bound(&backoff(), THINK, 40)),
        "walks still running after the quorum was reached must finish too"
    );
    assert_kv_linearizable(&sim, "pipelined recovery");
    let round_bound = u64::from(BUCKETS.trailing_zeros()) + 1;
    let mut widest = 0;
    for i in 0..N {
        let node = sim.node(i);
        assert_eq!(node.walks_in_flight(), 0, "node {i}: every walk finished");
        assert!(!node.is_recovering(), "node {i} caught up");
        assert!(
            node.max_walk_rounds() <= round_bound,
            "node {i}: a walk took {} round trips, bound {round_bound}",
            node.max_walk_rounds()
        );
        widest = widest.max(node.max_walk_rounds());
    }
    // A full descent — which stop-and-wait batches could not fit in the
    // bound: levels of 64, 128 and 256 nodes alone are 14 batches.
    assert_eq!(widest, round_bound, "some walk descended to the leaves");
    sim.trace_digest()
}

#[test]
fn merkle_recovery_pipelined_campaign_survives_loss_duplication_and_crash_waves() {
    for (sim_seed, nemesis_seed) in [(21u64, 111u64), (22, 222), (23, 333)] {
        let d = kv_pipelined_recovery_campaign(sim_seed, nemesis_seed);
        assert_eq!(
            d,
            kv_pipelined_recovery_campaign(sim_seed, nemesis_seed),
            "seeds ({sim_seed},{nemesis_seed}): same-seed runs must replay bit-identically"
        );
    }
}

/// The frame both serve-during-catch-up campaigns share, as a repro
/// artifact: `crash_cycles` crash waves in the first 2 ms over links that
/// lose and duplicate 5 % of all messages, and clients `think` apart that
/// invoke a rebooted node again the moment it is back: its operations race
/// its catch-up. The deadline allows `liveness_bound(latency, ops)` after
/// the heal. Each client runs its script of 150 operations from
/// `op(client, j)`.
fn catch_up_repro(
    (name, protocol, oracle): (String, ProtocolSpec, OracleSpec),
    (sim_seed, nemesis_seed): (u64, u64),
    crash_cycles: usize,
    think: u64,
    (latency, ops): (u64, u64),
    op: impl Fn(u64, u64) -> RegisterOp<u64>,
) -> Repro {
    let mut nemesis = NemesisConfig::new(nemesis_seed, N).with_window(0, 2_000_000);
    nemesis.crash_cycles = crash_cycles;
    nemesis.base_loss = 0.05;
    let schedule = nemesis.plan();
    assert!(schedule.respects_min_alive(N));
    let sim = SimConfig::new(sim_seed)
        .with_loss(0.05)
        .with_duplication(0.05);
    let scripts = (0..N as u64)
        .map(|c| (0..150).map(|j| op(c, j)).collect())
        .collect();
    let deadline = schedule.heal_at() + liveness_bound(&backoff(), latency, ops);
    let run = Repro::new(name, protocol, sim, scripts, schedule, deadline);
    Repro {
        backoff_base: Some(BACKOFF_BASE),
        think,
        oracle,
        ..run
    }
}

/// One serve-during-catch-up campaign over the store. Every node holds
/// 2 000 cold keys over 256 buckets and alone is ahead on its own fifth of
/// them, so each reboot's four walks descend the whole tree — nine round
/// trips and more under loss and duplication — while its clients race
/// them. The scripts spread one put in three and two gets over `hot`
/// contended keys; with `tiers` the gets rotate through the three
/// consistency tiers and the oracle is per-key sequential consistency,
/// otherwise every get is atomic and the oracle is per-key
/// linearizability.
fn kv_catch_up_repro(
    sim_seed: u64,
    nemesis_seed: u64,
    read_mode: ReadMode,
    tiers: bool,
    amnesiac: bool,
) -> Repro {
    let name = format!(
        "nemesis-kv-catch-up{}{}",
        if tiers { "-tiers" } else { "" },
        if amnesiac { "-amnesiac" } else { "" }
    );
    let protocol = ProtocolSpec::Kv {
        read_mode,
        hot: if tiers { 16 } else { 8 },
        preload: 2_000,
        buckets: 256,
        amnesiac,
    };
    let oracle = if tiers {
        OracleSpec::Sequential
    } else {
        OracleSpec::Linearizable
    };
    // A reboot's walks add up to ten retransmitted round trips to the tail.
    catch_up_repro(
        (name, protocol, oracle),
        (sim_seed, nemesis_seed),
        8,
        0,
        (THINK, 40),
        |c, j| match (j % 3, tiers) {
            (0, _) => RegisterOp::Write(c * 1_000_000 + j + 1),
            (1, true) => RegisterOp::ReadAt(Consistency::Sequential),
            (2, true) if j % 2 == 0 => RegisterOp::ReadAt(Consistency::Regular),
            _ => RegisterOp::Read,
        },
    )
}

/// The serve-during-catch-up campaigns: three seed pairs × all three read
/// modes, atomic-only and mixed-tier (no tiers on relay: a relay read
/// returns a census minimum that may be older than the reader's own
/// replica, which sequential reads do not compose with — DESIGN §14).
/// `campaign(sim_seed, nemesis_seed, read_mode, tiers)` returns its repro,
/// the trace digest of a second run of it, and how many operations that run
/// completed on a node still catching up. Every campaign must pass its
/// oracle and replay bit-identically, and together they must actually have
/// served from nodes that were catching up.
fn served_during_catch_up(campaign: impl Fn(u64, u64, ReadMode, bool) -> (Repro, u64, u64)) {
    let mut served_while_catching_up = 0u64;
    for (sim_seed, nemesis_seed) in [(31u64, 131u64), (32, 232), (33, 333)] {
        for (read_mode, tiers) in [
            (ReadMode::TwoRound, false),
            (ReadMode::TwoRound, true),
            (ReadMode::FastUnanimous, false),
            (ReadMode::FastUnanimous, true),
            (ReadMode::Relay, false),
        ] {
            let under = format!("seeds ({sim_seed},{nemesis_seed}) {read_mode:?} tiers {tiers}");
            let (repro, again, served) = campaign(sim_seed, nemesis_seed, read_mode, tiers);
            let out = repro
                .check_or_emit()
                .unwrap_or_else(|e| panic!("{under}: {e}"));
            assert_eq!(out.digest, again, "{under}: replays bit-identically");
            served_while_catching_up += served;
        }
    }
    assert!(
        served_while_catching_up >= 50,
        "the campaigns must exercise serving during catch-up, not skip it: \
         only {served_while_catching_up} operations completed on a catching-up node"
    );
}

#[test]
fn kv_serves_during_catch_up_campaign() {
    served_during_catch_up(|sim_seed, nemesis_seed, read_mode, tiers| {
        let repro = kv_catch_up_repro(sim_seed, nemesis_seed, read_mode, tiers, false);
        let (nodes, scripts) = repro.kv_parts();
        let (digest, served) = watched_run(&repro, nodes, scripts);
        (repro, digest, served)
    });
}

/// The oracle for the assumption that carries safety: the first of
/// `candidates` a violation convicts — a campaign over nodes that forget
/// what they stored — and the conviction carried through the whole artifact
/// pipeline: check_or_emit -> parse -> shrink -> replay. Amnesia needs a
/// reboot to show, so the minimal schedule keeps a crash. Returns the
/// failure message.
fn convicted_through_the_pipeline(mut candidates: impl Iterator<Item = Repro>) -> String {
    let convicted = candidates
        .find(|repro| matches!(repro.run().failure, Some(Failure::Violation(_))))
        .expect("some seed within budget convicts the amnesiac nodes");
    let path =
        Repro::default_dir().join(format!("{}-{}.repro", convicted.name, convicted.sim.seed));
    let message = convicted
        .check_or_emit()
        .expect_err("the conviction repeats");
    let emitted: Repro = std::fs::read_to_string(&path)
        .expect("artifact was emitted")
        .parse()
        .expect("artifact parses");
    assert!(message.contains(&emitted.reason));
    let shrunk = shrink(&emitted).expect("failing artifact must shrink");
    assert_eq!(shrunk.failure.kind(), "violation");
    assert!(
        shrunk
            .minimal
            .schedule
            .faults()
            .iter()
            .any(|f| matches!(f, PlannedFault::Crash { .. })),
        "amnesia needs a reboot to show:\n{}",
        shrunk.report()
    );
    let minimal: Repro = shrunk
        .minimal
        .to_string()
        .parse()
        .expect("minimal artifact parses");
    let replay = minimal.run();
    assert_eq!(replay.digest, minimal.expected_digest);
    assert!(matches!(replay.failure, Some(Failure::Violation(_))));
    message
}

#[test]
fn kv_serves_during_catch_up_campaign_convicts_a_store_that_forgets() {
    // The same campaign over nodes whose store does not survive a reboot
    // must produce a per-key linearizability violation within 24 seeds.
    let message = convicted_through_the_pipeline(
        (0..24).map(|seed| kv_catch_up_repro(seed, seed * 31 + 5, ReadMode::TwoRound, false, true)),
    );
    assert!(
        message.contains("not linearizable") && message.contains("key 20"),
        "must fail on a hot key's linearizability: {message}"
    );
}

/// The register twin of [`kv_catch_up_repro`], with three times the
/// store's crash waves and clients 20 µs apart: a register replica that
/// forgets is set right by the next `Update` it receives, about a round
/// trip after its reboot under this load, so only about one campaign in
/// ten catches a read in that window at all. Client 0 writes one operation
/// in three and reads otherwise; the others read. With `tiers` the reads
/// rotate through the three consistency tiers and the oracle is sequential
/// consistency, otherwise every read is atomic and so is the oracle.
fn register_catch_up_repro(
    sim_seed: u64,
    nemesis_seed: u64,
    protocol: ProtocolSpec,
    tiers: bool,
) -> Repro {
    let name = format!(
        "nemesis-register-catch-up{}",
        if tiers { "-tiers" } else { "" }
    );
    let oracle = if tiers {
        OracleSpec::Sequential
    } else {
        OracleSpec::Linearizable
    };
    catch_up_repro(
        (name, protocol, oracle),
        (sim_seed, nemesis_seed),
        24,
        20_000,
        (20_000, 8),
        |c, j| match (c, j % 3, tiers) {
            (0, 0, _) => RegisterOp::Write(j + 1),
            (_, 1, true) => RegisterOp::ReadAt(Consistency::Sequential),
            (_, 2, true) => RegisterOp::ReadAt(Consistency::Regular),
            _ => RegisterOp::Read,
        },
    )
}

/// A node whose post-restart catch-up can still be open.
trait CatchesUp: Protocol {
    fn is_recovering(&self) -> bool;
}

impl CatchesUp for SwmrNode<u64> {
    fn is_recovering(&self) -> bool {
        SwmrNode::is_recovering(self)
    }
}

impl CatchesUp for KvNode<u32, u64> {
    fn is_recovering(&self) -> bool {
        KvNode::is_recovering(self)
    }
}

/// A node that counts the responses it gives while its catch-up is still
/// open. It forwards every callback untouched, so a campaign over it
/// replays the plain node's trace digest.
struct Watched<P> {
    node: P,
    served_catching_up: u64,
}

type Fx<P> = Effects<<P as Protocol>::Msg, <P as Protocol>::Resp>;

impl<P: CatchesUp> Watched<P> {
    fn watch(&mut self, fx: &mut Fx<P>, call: impl FnOnce(&mut P, &mut Fx<P>)) {
        let before = fx.responses.len();
        call(&mut self.node, fx);
        if self.node.is_recovering() {
            self.served_catching_up += (fx.responses.len() - before) as u64;
        }
    }
}

impl<P: CatchesUp> Protocol for Watched<P> {
    type Msg = P::Msg;
    type Op = P::Op;
    type Resp = P::Resp;

    fn id(&self) -> ProcessId {
        self.node.id()
    }

    fn on_start(&mut self, fx: &mut Fx<P>) {
        self.node.on_start(fx);
    }

    fn on_invoke(&mut self, op: OpId, input: Self::Op, fx: &mut Fx<P>) {
        self.watch(fx, |node, fx| node.on_invoke(op, input, fx));
    }

    fn on_message(&mut self, from: ProcessId, msg: Self::Msg, fx: &mut Fx<P>) {
        self.watch(fx, |node, fx| node.on_message(from, msg, fx));
    }

    fn on_timer(&mut self, key: TimerKey, fx: &mut Fx<P>) {
        self.node.on_timer(key, fx);
    }

    fn on_restart(&mut self, fx: &mut Fx<P>) {
        self.watch(fx, |node, fx| node.on_restart(fx));
    }
}

/// Replays `repro`'s schedule over `nodes`, each [`Watched`], running
/// `scripts` — the repro's own, translated to the nodes' operations: its
/// trace digest, and the operations answered by nodes that were still
/// catching up. The digest equals the repro's when `nodes` are the ones
/// its replay builds.
fn watched_run<P>(repro: &Repro, nodes: Vec<P>, scripts: Vec<Vec<P::Op>>) -> (u64, u64)
where
    P: CatchesUp,
    P::Op: Clone,
{
    let nodes = nodes
        .into_iter()
        .map(|node| Watched {
            node,
            served_catching_up: 0,
        })
        .collect();
    let mut sim = Sim::new(repro.sim.clone(), nodes);
    repro.schedule.apply(&mut sim);
    run_campaign(
        &mut sim,
        &repro.schedule,
        scripts,
        repro.think,
        repro.deadline,
    );
    let served = (0..N).map(|i| sim.node(i).served_catching_up).sum();
    (sim.trace_digest(), served)
}

#[test]
fn register_serves_during_catch_up_campaign() {
    served_during_catch_up(|sim_seed, nemesis_seed, read_mode, tiers| {
        let swmr = ProtocolSpec::Swmr { read_mode };
        let repro = register_catch_up_repro(sim_seed, nemesis_seed, swmr, tiers);
        let nodes = (0..N)
            .map(|i| {
                let cfg = SwmrConfig::new(N, ProcessId(i), ProcessId(0))
                    .with_read_mode(read_mode)
                    .with_retransmit(BACKOFF_BASE);
                SwmrNode::new(cfg, 0)
            })
            .collect();
        let (digest, served) = watched_run(&repro, nodes, repro.scripts.clone());
        (repro, digest, served)
    });
}

#[test]
fn register_serves_during_catch_up_campaign_convicts_a_replica_that_forgets() {
    // The same campaign over replicas that answer from their initial state
    // after a reboot must produce an atomicity violation within 24 seeds.
    let amnesiac = ProtocolSpec::MutantSwmr {
        mutant: MutantKind::Amnesiac,
        every: 0,
    };
    let message = convicted_through_the_pipeline(
        (0..24).map(|seed| register_catch_up_repro(seed, seed * 31 + 5, amnesiac.clone(), false)),
    );
    assert!(
        message.contains("not atomic"),
        "must fail on atomicity: {message}"
    );
}

#[test]
fn relay_campaigns_survive_crash_waves_and_partitions_across_forty_seeds() {
    // The relay read mode under the full nemesis: the planner's crash waves
    // reboot every node and its rolling partitions repeatedly split the
    // cluster while relay rounds are mid-flight. Across 40 seeds every
    // history must certify atomic and every same-seed pair of runs must
    // produce identical trace digests; a failing seed lands in
    // `target/repro/` via `check_or_emit` for `abd_repro replay`/`shrink`.
    for seed in 0..40u64 {
        let nemesis_seed = seed * 31 + 9;
        let d = swmr_campaign_cfg(seed, nemesis_seed, ReadMode::Relay);
        assert_eq!(
            d,
            swmr_campaign_cfg(seed, nemesis_seed, ReadMode::Relay),
            "relay seed {seed}: same-seed runs must replay bit-identically"
        );
    }
}

#[test]
fn relay_mwmr_campaign_linearizes_under_faults() {
    // Multi-writer relay under the nemesis: concurrent writers guarantee
    // tag disagreement, so every read exercises the min-of-maxes path while
    // crash waves and partitions interfere.
    let run = |sim_seed: u64| {
        let sched = NemesisConfig::new(sim_seed * 31 + 6, N).plan();
        soak_repro(
            "nemesis-mwmr-relay",
            ProtocolSpec::Mwmr {
                read_mode: ReadMode::Relay,
            },
            OracleSpec::Linearizable,
            sim_seed,
            sched,
            mwmr_scripts(4),
        )
        .check_or_emit()
        .unwrap_or_else(|e| panic!("relay mwmr seed {sim_seed}: {e}"))
        .digest
    };
    for seed in [17u64, 18, 19] {
        assert_eq!(run(seed), run(seed));
    }
}

/// One SWMR campaign with every read demoted to `tier`, judged by
/// `oracle`; returns the trace digest for replay checks.
fn tier_campaign(
    sim_seed: u64,
    nemesis_seed: u64,
    name: &str,
    scripts: Vec<Vec<RegisterOp<u64>>>,
    oracle: OracleSpec,
) -> u64 {
    let sched = NemesisConfig::new(nemesis_seed, N).plan();
    assert!(sched.respects_min_alive(N));
    soak_repro(
        name,
        ProtocolSpec::Swmr {
            read_mode: ReadMode::TwoRound,
        },
        oracle,
        sim_seed,
        sched,
        scripts,
    )
    .check_or_emit()
    .unwrap_or_else(|e| panic!("seed ({sim_seed},{nemesis_seed}): {e}"))
    .digest
}

#[test]
fn tier_sc_campaigns_certify_sequential_and_replay() {
    // Every read demoted to the sequential tier: served from the local
    // replica, zero rounds, no write-back. Under the full nemesis the
    // histories must still certify *sequentially consistent* (the tier's
    // own oracle — atomicity is deliberately not promised here), and the
    // runs must replay bit-identically.
    for seed in [51u64, 52, 53] {
        let run = || {
            tier_campaign(
                seed,
                seed * 31 + 7,
                "nemesis-swmr-sc",
                scripts_at_tier(swmr_scripts(6), Consistency::Sequential),
                OracleSpec::Sequential,
            )
        };
        assert_eq!(run(), run(), "sc tier seed {seed}");
    }
}

#[test]
fn tier_regular_campaigns_certify_regularity_and_replay() {
    // Every read demoted to the regular tier: the query round still runs
    // (so reads see every completed write) but the write-back is skipped,
    // which is exactly the new/old inversion regularity tolerates. The
    // tier's oracle must pass and the runs must replay bit-identically.
    for seed in [61u64, 62, 63] {
        let run = || {
            tier_campaign(
                seed,
                seed * 31 + 8,
                "nemesis-swmr-regular",
                scripts_at_tier(swmr_scripts(6), Consistency::Regular),
                OracleSpec::RegularSwmr,
            )
        };
        assert_eq!(run(), run(), "regular tier seed {seed}");
    }
}

#[test]
fn tier_mixed_campaigns_stay_sequential_and_replay() {
    // The SC-ABD deployment shape under faults: most reads sequential,
    // every third read atomic (two-round — the relay read is deliberately
    // not composed with SC reads here, because a relay read can return a
    // census *minimum* older than the reader's own replica). The combined
    // history must certify sequentially consistent as a whole.
    for seed in [71u64, 72] {
        let run = || {
            tier_campaign(
                seed,
                seed * 31 + 9,
                "nemesis-swmr-mixed-tier",
                scripts_mixed_tier(
                    swmr_scripts(6),
                    Consistency::Sequential,
                    Consistency::Atomic,
                    3,
                ),
                OracleSpec::Sequential,
            )
        };
        assert_eq!(run(), run(), "mixed tier seed {seed}");
    }
}

#[test]
fn relay_read_overlapping_writer_crash_pinned_campaign() {
    // A hand-pinned schedule instead of the seeded planner: the writer is
    // crashed at a fixed instant chosen to land inside the readers' first
    // relay rounds (reads start at t=0; one hop is 1–10µs, so a relay read
    // spans roughly 3–30µs). The relay servers must finish the read from
    // the surviving majority's forwarded tags, the history must certify
    // atomic, and the run must replay bit-identically — all routed through
    // `check_or_emit` so a failure lands as a repro artifact.
    const CRASH_AT: u64 = 8_000;
    let run = |sim_seed: u64| {
        let faults = vec![PlannedFault::Crash {
            at: CRASH_AT,
            node: ProcessId(0),
            restart_at: 400_000,
        }];
        let sched = NemesisSchedule::from_faults(faults, 500_000, vec![0; N], N - 1);
        let out = soak_repro(
            "relay-read-writer-crash",
            ProtocolSpec::Swmr {
                read_mode: ReadMode::Relay,
            },
            OracleSpec::Linearizable,
            sim_seed,
            sched,
            swmr_scripts(4),
        )
        .check_or_emit()
        .unwrap_or_else(|e| panic!("relay crash seed {sim_seed}: {e}"));
        assert!(
            out.histories[0]
                .ops()
                .iter()
                .any(|op| matches!(op.action, RegAction::Read(_))
                    && op.start < CRASH_AT
                    && op.end > CRASH_AT),
            "seed {sim_seed}: a relay read must straddle the writer crash"
        );
        out.digest
    };
    for seed in [3u64, 4, 5] {
        assert_eq!(run(seed), run(seed), "relay crash seed {seed}");
    }
}

#[test]
fn violating_the_majority_envelope_blocks_operations() {
    let nodes: Vec<SwmrNode<u64>> = (0..N)
        .map(|i| {
            SwmrNode::new(
                SwmrConfig::new(N, ProcessId(i), ProcessId(0)).with_retransmit(BACKOFF_BASE),
                0,
            )
        })
        .collect();
    let mut sim = Sim::new(SimConfig::new(2), nodes);
    let sched = NemesisConfig::new(55, N).with_violate_majority(true).plan();
    assert!(
        !sched.respects_min_alive(N),
        "violation mode must exceed the envelope"
    );
    sched.apply(&mut sim);
    // Scripts long enough that clients are still working when the violation
    // window opens; the deadline lands *inside* that window, before the
    // campaign heals — so progress must stall.
    let scripts = swmr_scripts(12);
    let blocked_deadline = sched.heal_at() - 1;
    assert!(
        !run_campaign(&mut sim, &sched, scripts, 300_000, blocked_deadline),
        "without a live majority, operations must block until healing"
    );
}

#[test]
fn flag_off_campaign_trace_digest_is_pinned() {
    // Golden trace digest of the flag-off (`ReadMode::TwoRound`, no
    // batching) fixed-seed SWMR campaign. The fast and relay read paths,
    // batching, and the repro layers are all opt-in: with every one of them
    // off, the protocol must execute the exact byte-for-byte event sequence
    // it always has. If a refactor moves this digest, it changed flag-off
    // behavior — that is a finding, not a reason to re-pin (re-derive only
    // for deliberate protocol changes). Re-pinned once when campaign
    // clients began to run from their own completions instead of 10 µs
    // slices (`0x0181_8fe1_7d26_b1bf`), and again when the trace digest
    // began to fold each word of an event whole instead of byte by byte
    // (`0x738a_82ed_b449_3511`): the same events, another fingerprint.
    assert_eq!(
        swmr_campaign_cfg(1234, 77, ReadMode::TwoRound),
        0xa207_6874_5167_18f2,
        "flag-off campaign trace drifted from the pinned golden digest"
    );
}
