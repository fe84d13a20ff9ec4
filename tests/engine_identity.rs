//! Integration: the quorum-operation engine's event-level identity proof.
//!
//! One fixed-seed nemesis campaign (crash waves covering every node,
//! partitions, loss bursts; retransmission on) per register instantiation
//! and read mode, driven by a script that mixes all three consistency
//! tiers, with `Sim::trace_digest` and `Metrics::sent` pinned for each row.
//! The constants were computed on the two hand-written node types
//! (`swmr.rs` / `mwmr.rs` at commit 4147333) **before** they were collapsed
//! into `abd_core::register::RegisterNode`, and the engine reproduced every
//! one. They were re-pinned twice since, with the variant table below: when
//! a rebooted register began to serve at once and to roll its interrupted
//! write forward, and when campaign clients began to run from their own
//! completions instead of 10 µs slices (CHANGES.md lists the old constants
//! both times). A row that moves
//! means a handler reordered, added or dropped an effect — a finding, not a
//! reason to re-pin.
//!
//! The key-value half of the table (`kv_identity_table_is_pinned`) does the
//! same for `abd_kv::KvNode`: its constants were computed on the
//! hand-written node (`kv/node.rs` at commit 24bccf8, its own five-variant
//! `Pending`, already on `abd_core::Retransmitter`) **before** its operation
//! path moved onto the engine it now shares with the registers. Operations
//! pipeline there, so the driver is open-loop — three invocations per node
//! at a time — and, since nothing feeds a response back into the schedule,
//! each row also pins a digest of every response and its completion time.
//! Every row reboots nodes, and what a rebooted store sends in the
//! background changed once since (the bulk pull and the walk's root-digest
//! handshake went), so the five rows were re-pinned at that commit, each
//! with its cause (CHANGES PR 23 has the old constants); the engine was not
//! edited there, and the register and variant tables held.
//!
//! The third table (`variant_identity_table_is_pinned`) does it once more
//! for `ByzNode` and `BoundedSwmrNode`, the last two hand-written copies of
//! the single-writer machine: trace digest, `sent` and a response digest,
//! computed at commit c95f798.

use abd_core::context::{Effects, Protocol, ReadPathCounters, ReadPathStats, TimerKey};
use abd_core::msg::{RegisterOp, RegisterResp};
use abd_core::mwmr::{MwmrConfig, MwmrNode};
use abd_core::quorum::{Majority, QuorumSystem, Threshold};
use abd_core::retransmit::BackoffPolicy;
use abd_core::swmr::{SwmrConfig, SwmrNode};
use abd_core::types::{Consistency, OpId, ProcessId, ReadMode};
use abd_kv::{KvConfig, KvMsg, KvNode, KvOp, KvResp};
use abd_repro::simnet::nemesis::liveness_bound;
use abd_repro::simnet::{
    run_campaign, Metrics, NemesisConfig, NemesisSchedule, PlannedFault, Sim, SimConfig,
};
use std::sync::Arc;

const N: usize = 5;
const OPS: u64 = 9;
const SIM_SEED: u64 = 1234;
const NEMESIS_SEED: u64 = 71;

fn backoff() -> BackoffPolicy {
    BackoffPolicy::new(20_000)
}

/// The `k`-th read of client `c`: plain atomic, regular and sequential in
/// rotation, offset per client so every tier runs on every node.
fn tiered_read(c: usize, k: u64) -> RegisterOp<u64> {
    match (c as u64 + k) % 3 {
        0 => RegisterOp::Read,
        1 => RegisterOp::ReadAt(Consistency::Regular),
        _ => RegisterOp::ReadAt(Consistency::Sequential),
    }
}

/// Client 0 writes (reading every third op, so the writer's own queue and
/// read paths run too); everyone else reads across the tiers.
fn swmr_scripts() -> Vec<Vec<RegisterOp<u64>>> {
    (0..N)
        .map(|c| {
            (0..OPS)
                .map(|k| {
                    if c == 0 && k % 3 != 2 {
                        RegisterOp::Write(k + 1)
                    } else {
                        tiered_read(c, k)
                    }
                })
                .collect()
        })
        .collect()
}

/// Every client alternates unique writes with reads across the tiers.
fn mwmr_scripts() -> Vec<Vec<RegisterOp<u64>>> {
    (0..N)
        .map(|c| {
            (0..OPS)
                .map(|k| {
                    if k % 2 == 0 {
                        RegisterOp::Write(100 * (c as u64 + 1) + k)
                    } else {
                        tiered_read(c, k)
                    }
                })
                .collect()
        })
        .collect()
}

/// What a register row's run reports: the trace digest, the simulator's
/// metrics and the nodes' read-path counters summed.
type Counted = (u64, Metrics, ReadPathCounters);

/// The register rows' campaign: nemesis seed 71's plan with the writer's
/// first crash (planned at 81.6 µs) moved onto its second write, in flight
/// over 47.5–55.1 µs in every SWMR row, so every SWMR row rolls that write
/// forward.
fn register_schedule() -> NemesisSchedule {
    let planned = NemesisConfig::new(NEMESIS_SEED, N).plan();
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
        .expect("seed 71 crashes the writer");
    let PlannedFault::Crash { restart_at, .. } = faults[first] else {
        unreachable!("matched a crash")
    };
    faults[first] = PlannedFault::Crash {
        at: 50_000,
        node: ProcessId(0),
        restart_at,
    };
    NemesisSchedule::from_faults(
        faults,
        planned.heal_at(),
        planned.skews().to_vec(),
        planned.min_alive(),
    )
}

/// Runs the campaign to completion.
fn campaign<P>(nodes: Vec<P>, scripts: Vec<Vec<RegisterOp<u64>>>) -> Counted
where
    P: Protocol<Op = RegisterOp<u64>, Resp = RegisterResp<u64>> + ReadPathStats,
{
    let mut sim = Sim::new(SimConfig::new(SIM_SEED), nodes);
    let sched = register_schedule();
    assert!(sched.validate(N).is_ok());
    sched.apply(&mut sim);
    let deadline = sched.heal_at() + liveness_bound(&backoff(), 20_000, 8);
    assert!(
        run_campaign(&mut sim, &sched, scripts, 5_000, deadline),
        "every surviving operation must complete after healing"
    );
    let m = sim.metrics().clone();
    (sim.trace_digest(), m, sim.read_path_metrics())
}

fn swmr(read_mode: ReadMode) -> Counted {
    let nodes: Vec<SwmrNode<u64>> = (0..N)
        .map(|i| {
            let cfg = SwmrConfig::new(N, ProcessId(i), ProcessId(0))
                .with_read_mode(read_mode)
                .with_backoff(backoff());
            SwmrNode::new(cfg, 0)
        })
        .collect();
    campaign(nodes, swmr_scripts())
}

fn mwmr(read_mode: ReadMode) -> Counted {
    let nodes: Vec<MwmrNode<u64>> = (0..N)
        .map(|i| {
            let cfg = MwmrConfig::new(N, ProcessId(i))
                .with_read_mode(read_mode)
                .with_backoff(backoff());
            MwmrNode::new(cfg, 0)
        })
        .collect();
    campaign(nodes, mwmr_scripts())
}

/// One row of the table: the run must have walked the paths the row is
/// named for — otherwise a pinned digest proves nothing about them — and
/// must reproduce the pre-refactor trace digest and `Metrics::sent`.
fn check(row: &str, (digest, m, reads): Counted, want_digest: u64, want_sent: u64) {
    assert!(
        reads.sc_reads > 0 && reads.regular_reads > 0,
        "{row}: tiers idle"
    );
    assert!(m.retransmissions > 0, "{row}: no retransmission fired");
    assert!(m.restarts > 0, "{row}: no node restarted");
    let atomic_path = if row.contains("relay") {
        reads.relay_reads
    } else if row.contains("fast") {
        reads.fast_reads
    } else {
        reads.write_backs
    };
    assert!(atomic_path > 0, "{row}: atomic read path idle");
    if row.starts_with("swmr") {
        assert!(
            m.ops_resolved > 0,
            "{row}: no interrupted write rolled forward"
        );
    }
    assert_eq!(
        (digest, m.sent),
        (want_digest, want_sent),
        "{row}: trace drifted from the golden"
    );
}

#[test]
fn engine_identity_table_is_pinned() {
    use ReadMode::{FastUnanimous, Relay, TwoRound};
    check("swmr/two-round", swmr(TwoRound), 0xbac566138292d424, 376);
    check("swmr/fast", swmr(FastUnanimous), 0x150b2cd9e3e2c76a, 324);
    check("swmr/relay", swmr(Relay), 0xc44d624956ee1038, 443);
    check("mwmr/two-round", mwmr(TwoRound), 0x24a84bbba316c613, 537);
    check("mwmr/fast", mwmr(FastUnanimous), 0x875f15a04372dab4, 526);
    check("mwmr/relay", mwmr(Relay), 0xa4c8ed7d9d23f0c6, 550);
}

// ---- the key-value half ----

const KV_SIM_SEED: u64 = 4321;
const KV_NEMESIS_SEED: u64 = 97;
/// Operations per node, invoked three at a time every `BURST_GAP`: the
/// invocations span the campaign's 4 ms of faults.
const KV_OPS: u64 = 60;
const LANES: u64 = 3;
const BURST_GAP: u64 = 200_000;
const HOT_KEYS: u64 = 4;

/// Node `c`'s `i`-th operation: two puts (unique values), one atomic, one
/// regular and one sequential get in every five, walking the hot keys at a
/// per-node offset so every key sees every kind from every node.
fn kv_op(c: usize, i: u64) -> KvOp<u32, u64> {
    let key = ((c as u64 + i) % HOT_KEYS) as u32;
    match (c as u64 + i) % 5 {
        0 | 3 => KvOp::Put(key, 1_000 * (c as u64 + 1) + i),
        1 => KvOp::Get(key),
        2 => KvOp::GetAt(key, Consistency::Regular),
        _ => KvOp::GetAt(key, Consistency::Sequential),
    }
}

/// What a row pins: the trace digest, `Metrics::sent`, an FNV fold of every
/// completed operation's id, completion time and response, and the five
/// read-path counters (fast, write-backs, relay, sequential, regular).
type KvPins = (u64, u64, u64, [u64; 5]);

/// FNV fold of every completed operation's id, completion time and
/// response (`word` turns a response into the word folded for it).
fn response_digest<P: Protocol>(sim: &Sim<P>, word: impl Fn(&P::Resp) -> u64) -> u64
where
    P::Op: Clone,
{
    sim.completed()
        .iter()
        .flat_map(|r| [r.op.0, r.completed_at, word(&r.resp)])
        .fold(0xcbf2_9ce4_8422_2325, |h, x| {
            (h ^ x).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// Runs the open-loop campaign — crash waves covering every node,
/// partitions, loss bursts over 5 % background loss and 5 % duplication —
/// to a fixed virtual instant, by which every surviving operation must be
/// done. `op(c, i)` is node `c`'s `i`-th invocation.
fn kv_campaign<P>(
    nodes: Vec<P>,
    op: impl Fn(usize, u64) -> P::Op,
) -> (KvPins, Metrics, ReadPathCounters, Sim<P>)
where
    P: Protocol<Resp = KvResp<u64>> + ReadPathStats,
    P::Op: Clone,
{
    let cfg = SimConfig::new(KV_SIM_SEED)
        .with_loss(0.05)
        .with_duplication(0.05);
    let mut sim = Sim::new(cfg, nodes);
    let mut nemesis = NemesisConfig::new(KV_NEMESIS_SEED, N);
    nemesis.base_loss = 0.05;
    let sched = nemesis.plan();
    assert!(sched.respects_min_alive(N));
    sched.apply(&mut sim);
    for c in 0..N {
        let skew = sched.invoker_skew(ProcessId(c));
        for i in 0..KV_OPS {
            sim.invoke_at(skew + i / LANES * BURST_GAP, ProcessId(c), op(c, i));
        }
    }
    sim.run_until(sched.heal_at() + liveness_bound(&backoff(), 20_000, 16));
    assert!(
        !sim.has_waiting_ops(),
        "every surviving operation must complete after healing"
    );
    let responses = response_digest(&sim, |resp| match *resp {
        KvResp::PutOk => u64::MAX,
        KvResp::GetOk(None) => 0,
        KvResp::GetOk(Some(v)) => v,
    });
    let (m, r) = (sim.metrics().clone(), sim.read_path_metrics());
    let reads = [
        r.fast_reads,
        r.write_backs,
        r.relay_reads,
        r.sc_reads,
        r.regular_reads,
    ];
    ((sim.trace_digest(), m.sent, responses, reads), m, r, sim)
}

fn kv_nodes(cfg: impl Fn(KvConfig) -> KvConfig) -> Vec<KvNode<u32, u64>> {
    (0..N)
        .map(|i| KvNode::new(cfg(KvConfig::new(N, ProcessId(i)).with_backoff(backoff()))))
        .collect()
}

/// The checks every KV row shares: tiers, retransmission, restarts and the
/// catch-up all ran, a crash caught operations in flight, and the pins hold.
fn check_kv(row: &str, pins: KvPins, m: &Metrics, r: &ReadPathCounters, want: KvPins) {
    assert!(r.sc_reads > 0 && r.regular_reads > 0, "{row}: tiers idle");
    assert!(m.retransmissions > 0, "{row}: no retransmission fired");
    assert!(m.restarts > 0, "{row}: no node restarted");
    assert!(r.recovery_msgs > 0, "{row}: no catch-up ran");
    assert!(m.ops_aborted > 0, "{row}: no crash caught an operation");
    assert_eq!(
        pins, want,
        "{row}: (trace digest, sent, responses digest, read counters) drifted"
    );
}

/// A [`KvNode`] with one more operation, for the last row: swap the quorum
/// system under everything in flight ([`KvNode::requorum`]), as `RcNode`
/// does when its epoch moves — here without the fence, so the row pins the
/// restart of the rounds and nothing about safety.
struct Requorum {
    inner: KvNode<u32, u64>,
    /// Rounds of each kind in flight over all `requorum` calls, read off
    /// the node's `Debug` output by the phase names `abd-lint`'s phase-spec
    /// declares.
    caught: [usize; 5],
}

const PHASES: [&str; 5] = [
    "WriteQuery",
    "WriteUpdate",
    "ReadQuery",
    "ReadWriteBack",
    "RelayRead",
];

#[derive(Clone, Debug)]
enum RqOp {
    Kv(KvOp<u32, u64>),
    /// Requorum to the skewed `R = 2, W = 4` system (`true`) or back to
    /// majorities.
    Requorum(bool),
}

impl Protocol for Requorum {
    type Msg = KvMsg<u32, u64>;
    type Op = RqOp;
    type Resp = KvResp<u64>;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_start(&mut self, fx: &mut Effects<Self::Msg, Self::Resp>) {
        self.inner.on_start(fx);
    }

    fn on_invoke(&mut self, op: OpId, input: RqOp, fx: &mut Effects<Self::Msg, Self::Resp>) {
        match input {
            RqOp::Kv(input) => self.inner.on_invoke(op, input, fx),
            RqOp::Requorum(skewed) => {
                let state = format!("{:?}", self.inner);
                for (seen, phase) in self.caught.iter_mut().zip(PHASES) {
                    *seen += state.matches(phase).count();
                }
                let quorum: Arc<dyn QuorumSystem> = if skewed {
                    Arc::new(Threshold::new(N, 2, 4))
                } else {
                    Arc::new(Majority::new(N))
                };
                self.inner.requorum(quorum, fx);
                fx.respond(op, KvResp::PutOk);
            }
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        fx: &mut Effects<Self::Msg, Self::Resp>,
    ) {
        self.inner.on_message(from, msg, fx);
    }

    fn on_timer(&mut self, key: TimerKey, fx: &mut Effects<Self::Msg, Self::Resp>) {
        self.inner.on_timer(key, fx);
    }

    fn on_restart(&mut self, fx: &mut Effects<Self::Msg, Self::Resp>) {
        self.inner.on_restart(fx);
    }
}

impl ReadPathStats for Requorum {
    fn counters(&self) -> ReadPathCounters {
        self.inner.counters()
    }
}

#[test]
fn kv_identity_table_is_pinned() {
    use ReadMode::{FastUnanimous, Relay, TwoRound};
    let (pins, m, r, _) = kv_campaign(kv_nodes(|c| c.with_read_mode(TwoRound)), kv_op);
    assert!(r.write_backs > 0, "kv/two-round: atomic read path idle");
    check_kv(
        "kv/two-round",
        pins,
        &m,
        &r,
        (
            // Re-pinned: under 64 keys, so each reboot was one bulk pull; it is
            // a walk per peer now, whose sends shift every later latency draw.
            0x193ff309804332a5,
            3724,
            0x070fa520690e5f7c,
            [0, 41, 0, 48, 44],
        ),
    );

    let (pins, m, r, _) = kv_campaign(kv_nodes(|c| c.with_read_mode(FastUnanimous)), kv_op);
    assert!(
        r.fast_reads > 0 && r.write_backs > 0,
        "kv/fast: a path idle"
    );
    check_kv(
        "kv/fast",
        pins,
        &m,
        &r,
        (
            // Re-pinned: bulk pulls became walks, as in kv/two-round.
            0x47aa801570b238a6,
            3572,
            0xb0477c113b8214d3,
            [35, 9, 0, 48, 43],
        ),
    );

    let (pins, m, r, _) = kv_campaign(kv_nodes(|c| c.with_read_mode(Relay)), kv_op);
    assert!(r.relay_reads > 0, "kv/relay: atomic read path idle");
    check_kv(
        "kv/relay",
        pins,
        &m,
        &r,
        (
            // Re-pinned: bulk pulls became walks, as in kv/two-round.
            0x3e2cae3bf05944f0,
            4256,
            0x4551631e6238b22f,
            [0, 0, 44, 48, 44],
        ),
    );

    // Merkle walks on every reboot and a sweep every 150 µs: walks draw
    // their ids from the operations' counter and share their timers.
    let walking = |c: KvConfig| c.with_sync_buckets(8).with_anti_entropy(150_000);
    let (pins, m, r, sim) = kv_campaign(kv_nodes(walking), kv_op);
    assert!(r.write_backs > 0, "kv/walks+sweep: atomic read path idle");
    assert!(
        (0..N).any(|i| sim.node(i).max_walk_rounds() > 1),
        "kv/walks+sweep: no walk descended"
    );
    check_kv(
        "kv/walks+sweep",
        pins,
        &m,
        &r,
        (
            // Re-pinned: every walk, a reboot's or a sweep's, lost the two
            // messages of its root-digest handshake (`sent` was 5152).
            0x35d1cbb6aebed0ca,
            5042,
            0x1af4e24e9c7b9847,
            [0, 41, 0, 48, 43],
        ),
    );

    // Nodes 0 and 1 read by relay, the rest in two rounds, so that all
    // five kinds of round exist; every node swaps the quorum system every
    // fourth burst, alternating the skewed system and majorities.
    let mixed = (0..N)
        .map(|i| {
            let mode = if i < 2 { Relay } else { TwoRound };
            let cfg = KvConfig::new(N, ProcessId(i))
                .with_backoff(backoff())
                .with_read_mode(mode);
            Requorum {
                inner: KvNode::new(cfg),
                caught: [0; 5],
            }
        })
        .collect();
    let (pins, m, r, sim) = kv_campaign(mixed, |c, i| {
        if i % (4 * LANES) == 4 * LANES - 1 {
            RqOp::Requorum((i / (4 * LANES)).is_multiple_of(2))
        } else {
            RqOp::Kv(kv_op(c, i))
        }
    });
    let caught = (0..N).fold([0; 5], |mut sum, i| {
        for (s, c) in sum.iter_mut().zip(sim.node(i).caught) {
            *s += c;
        }
        sum
    });
    assert!(
        caught.iter().all(|&c| c > 0),
        "kv/requorum: a kind of round was never in flight at a requorum: {caught:?} of {PHASES:?}"
    );
    assert!(
        r.relay_reads > 0 && r.write_backs > 0,
        "kv/requorum: a path idle"
    );
    check_kv(
        "kv/requorum",
        pins,
        &m,
        &r,
        (
            // Re-pinned: bulk pulls became walks, as in kv/two-round, and a
            // requorum drops a reboot's walks where it dropped its pull.
            0xe3b62669b87a450b,
            4048,
            0xaee285536e760fea,
            [0, 23, 18, 43, 43],
        ),
    );
}

// ---- the Byzantine and bounded-label half ----
//
// `ByzNode` and `BoundedSwmrNode` were two more hand-written copies of the
// single-writer machine (`byzantine.rs` / `bounded/swmr.rs` at commit
// c95f798). The constants below were computed on those copies **before**
// they became instantiations of the register shell over the engine (the
// commit before the merge carries this table, passing on them), and
// re-pinned with the register table both times it moved. Plain
// `Read` / `Write` scripts only: the hand-written nodes served every tier
// atomically, so a tiered read means something else after the merge.

use abd_core::bounded::{BoundedSwmrConfig, BoundedSwmrNode, LabelSpace};
use abd_core::byzantine::{ByzConfig, ByzNode, LieStrategy};
use abd_core::msg::RegisterMsg;
use abd_repro::lincheck::is_atomic_swmr;
use abd_repro::simnet::sim::TapKind;
use abd_repro::simnet::workload::history_from_sim;
use std::cell::RefCell;
use std::rc::Rc;

/// What a variant row pins: the trace digest, `Metrics::sent`, and an FNV
/// fold of every completed operation's id, completion time and response.
type VariantPins = (u64, u64, u64);

/// `(operations per client, think time)`: 40 operations, each invoked
/// 100 µs after the client's previous one completed, so every client stays
/// busy past the last crash wave.
const VARIANT_LOAD: (u64, u64) = (40, 100_000);

/// Client 0 writes, reading every third operation; the liars issue
/// nothing; everyone else reads.
fn variant_scripts(n: usize, ops: u64, liars: &[usize]) -> Vec<Vec<RegisterOp<u64>>> {
    (0..n)
        .map(|c| {
            let op = |k| match (c, k % 3) {
                (0, 0 | 1) => RegisterOp::Write(k + 1),
                _ => RegisterOp::Read,
            };
            let ops = if liars.contains(&c) { 0 } else { ops };
            (0..ops).map(op).collect()
        })
        .collect()
}

/// What the tap saw of the catch-ups. Until a rebooted node is invoked,
/// every `Query` it sends is its catch-up's (a rolled-forward write sends
/// `Update`s), so a reply to the uid of a `Query` seen from it before then
/// is an answer to the catch-up — from a liar, a liar answering a recovery.
/// A reboot whose node is invoked before that is not tracked: a client
/// read's `Query` could then be the first one seen.
struct CatchUps {
    /// Per node: `Some(None)` once rebooted, `Some(Some(uid))` once its
    /// catch-up query was seen on the wire, `None` when untracked.
    open: Vec<Option<Option<u64>>>,
    liar_replies: u64,
}

/// One fixed-seed campaign over `nodes` — the file's nemesis (crash waves
/// covering every node, the writer included unless `spare_writer`,
/// partitions, loss bursts, a gray node; retransmission on), with at least
/// `min_alive` nodes up. Every client runs `ops` operations `think` apart,
/// which is what makes the scripts span all the waves.
fn variant_campaign<L, P>(
    nodes: Vec<P>,
    liars: &[usize],
    min_alive: usize,
    spare_writer: bool,
    (ops, think): (u64, u64),
) -> (VariantPins, Metrics, u64, Sim<P>)
where
    L: 'static,
    P: Protocol<Msg = RegisterMsg<L, u64>, Op = RegisterOp<u64>, Resp = RegisterResp<u64>>,
{
    let n = nodes.len();
    let mut sim = Sim::new(SimConfig::new(SIM_SEED), nodes);
    let mut nemesis = NemesisConfig::new(NEMESIS_SEED, n).with_min_alive(min_alive);
    // One victim per wave still has to cover the whole cluster.
    nemesis.crash_cycles = nemesis.crash_cycles.max(n.div_ceil(n - min_alive));
    let mut sched = nemesis.plan();
    assert!(sched.respects_min_alive(n));
    if spare_writer {
        let crashes_writer =
            |f: &PlannedFault| matches!(f, PlannedFault::Crash { node, .. } if node.index() == 0);
        while let Some(idx) = sched.faults().iter().position(crashes_writer) {
            sched = sched.without_fault(idx);
        }
    }
    sched.apply(&mut sim);
    let seen = Rc::new(RefCell::new(CatchUps {
        open: vec![None; n],
        liar_replies: 0,
    }));
    let (tap, liars_in_tap) = (Rc::clone(&seen), liars.to_vec());
    sim.set_tap(Box::new(move |ev| {
        let mut seen = tap.borrow_mut();
        match ev.kind {
            TapKind::Restart => seen.open[ev.target.index()] = Some(None),
            TapKind::Invoke { .. } if seen.open[ev.target.index()] == Some(None) => {
                seen.open[ev.target.index()] = None;
            }
            TapKind::Deliver { from, msg, dropped } => match *msg {
                RegisterMsg::Query { uid, .. } => {
                    if let Some(slot @ None) = seen.open[from.index()].as_mut() {
                        *slot = Some(uid);
                    }
                }
                RegisterMsg::QueryReply { uid, .. }
                    if dropped.is_none()
                        && liars_in_tap.contains(&from.index())
                        && seen.open[ev.target.index()] == Some(Some(uid)) =>
                {
                    seen.liar_replies += 1;
                }
                _ => {}
            },
            _ => {}
        }
    }));
    let deadline = sched.heal_at() + liveness_bound(&backoff(), 20_000, ops) + ops * think;
    assert!(
        run_campaign(
            &mut sim,
            &sched,
            variant_scripts(n, ops, liars),
            think,
            deadline
        ),
        "every surviving operation must complete after healing"
    );
    sim.clear_tap();
    let responses = response_digest(&sim, |resp| match *resp {
        RegisterResp::WriteOk => u64::MAX,
        RegisterResp::ReadOk(v) => v,
        RegisterResp::Err(_) => u64::MAX - 1,
    });
    let m = sim.metrics().clone();
    let liar_replies = seen.borrow().liar_replies;
    (
        (sim.trace_digest(), m.sent, responses),
        m,
        liar_replies,
        sim,
    )
}

fn byz_nodes(n: usize, b: usize, liars: &[(usize, LieStrategy)]) -> Vec<ByzNode<u64>> {
    (0..n)
        .map(|i| {
            let mut cfg = ByzConfig::new(n, ProcessId(i), ProcessId(0), b).with_backoff(backoff());
            if let Some((_, lie)) = liars.iter().find(|(id, _)| *id == i) {
                cfg = cfg.with_lie(*lie);
            }
            ByzNode::new(cfg, 0)
        })
        .collect()
}

/// One Byzantine row: the run restarted nodes, retransmitted, finished
/// every catch-up — with a liar answering at least one, where the row has
/// a liar that answers — folded `unvouched` times back to an honest node's
/// own pair (a read quorum straddling a write, DESIGN §13) and reproduces
/// the row's pins.
fn check_byz(
    row: &str,
    (n, b): (usize, usize),
    liars: &[(usize, LieStrategy)],
    unvouched: u64,
    want: VariantPins,
) {
    let ids: Vec<usize> = liars.iter().map(|(id, _)| *id).collect();
    let min_alive = abd_core::quorum::masking_threshold(n, b);
    let (pins, m, liar_replies, sim) = variant_campaign(
        byz_nodes(n, b, liars),
        &ids,
        min_alive,
        b == 0,
        VARIANT_LOAD,
    );
    assert!(m.restarts > 0, "{row}: no node restarted");
    assert!(m.retransmissions > 0, "{row}: no retransmission fired");
    assert!(
        (0..n).all(|i| !sim.node(i).is_recovering()),
        "{row}: a catch-up never completed"
    );
    let honest_unvouched: u64 = (0..n)
        .filter(|i| !ids.contains(i))
        .map(|i| sim.node(i).unvouched_folds())
        .sum();
    assert_eq!(
        honest_unvouched, unvouched,
        "{row}: honest folds that fell back to their own pair"
    );
    // Masking quorums mask; the same forger poisons the plain majority.
    assert_eq!(
        is_atomic_swmr(&history_from_sim(0, &sim)),
        b > 0,
        "{row}: atomicity of the honest clients' history"
    );
    let answering = liars.iter().any(|(_, lie)| *lie != LieStrategy::Silent);
    assert_eq!(
        liar_replies > 0,
        answering,
        "{row}: liars answered {liar_replies} catch-up queries"
    );
    assert_eq!(
        pins, want,
        "{row}: (trace digest, sent, responses digest) drifted from the golden"
    );
}

fn bounded_nodes(n: usize, modulus: u32) -> Vec<BoundedSwmrNode<u64>> {
    (0..n)
        .map(|i| {
            let cfg = BoundedSwmrConfig::new(n, ProcessId(i), ProcessId(0))
                .with_space(LabelSpace::new(modulus))
                .with_backoff(backoff());
            BoundedSwmrNode::new(cfg, 0)
        })
        .collect()
}

/// One bounded-label row: as above, plus no comparison left the window and
/// the writer issued exactly `labels` labels.
fn check_bounded(row: &str, modulus: u32, load: (u64, u64), labels: u64, want: VariantPins) {
    let (pins, m, _, sim) = variant_campaign(bounded_nodes(N, modulus), &[], 3, false, load);
    assert!(m.restarts > 0, "{row}: no node restarted");
    assert!(m.retransmissions > 0, "{row}: no retransmission fired");
    for i in 0..N {
        assert!(!sim.node(i).is_recovering(), "{row}: catch-up open on {i}");
        assert_eq!(sim.node(i).window_violations(), 0, "{row}: node {i}");
    }
    assert_eq!(sim.node(0).labels_issued(), labels, "{row}: labels issued");
    assert!(
        is_atomic_swmr(&history_from_sim(0, &sim)),
        "{row}: atomicity"
    );
    assert_eq!(
        pins, want,
        "{row}: (trace digest, sent, responses digest) drifted from the golden"
    );
}

#[test]
fn variant_identity_table_is_pinned() {
    use LieStrategy::{ForgeLabel, ReportStale, Silent};
    check_byz(
        "byz b=1 n=5/honest",
        (5, 1),
        &[],
        0,
        (0xdc4cc7bfb715dcd2, 3385, 0x3adb32e2e1f1c34d),
    );
    check_byz(
        "byz b=1 n=5/stale",
        (5, 1),
        &[(1, ReportStale)],
        2,
        (0xa266c77d7fddcee0, 2648, 0x5823c683ae57f9ec),
    );
    // Same pins as the stale row: the digests fold no message content, and
    // both lies are masked into the same schedule and the same answers.
    check_byz(
        "byz b=1 n=5/forger",
        (5, 1),
        &[(1, ForgeLabel)],
        2,
        (0xa266c77d7fddcee0, 2648, 0x5823c683ae57f9ec),
    );
    check_byz(
        "byz b=1 n=5/silent",
        (5, 1),
        &[(1, Silent)],
        0,
        (0xb20b3408f4ec00e2, 2327, 0x06d1db01aa72f0b8),
    );
    check_byz(
        "byz b=2 n=9/two forgers",
        (9, 2),
        &[(1, ForgeLabel), (2, ForgeLabel)],
        0,
        (0x230388b8e50ead72, 9568, 0xc84c61f836db0669),
    );
    // The contrast: the same forger against majority quorums and a vouching
    // threshold of one. The waves spare the writer here: the hand-written
    // writer re-anchored its counter on whatever its catch-up believed, so
    // after a reboot under this forger it sat at `u64::MAX - 1` and
    // overflowed two writes later — no pin can be computed on that.
    check_byz(
        "byz b=0 n=5/forger",
        (5, 0),
        &[(1, ForgeLabel)],
        0,
        (0xc7e9ca2b13b1ed78, 2709, 0x936f5df516553f19),
    );
    // 36 operations 200 µs apart: the labels lap the 16-cycle, and no
    // replica sleeps through more than a window (7) of writes.
    check_bounded(
        "bounded n=5/mod 16",
        16,
        (36, 200_000),
        23,
        (0x3a430f2e19b4264e, 3026, 0x09986f95aa630c06),
    );
    check_bounded(
        "bounded n=5/mod 64",
        64,
        VARIANT_LOAD,
        26,
        (0xdebfe3aaaea33de4, 3341, 0xe40e2d6abbf3a65c),
    );
}
