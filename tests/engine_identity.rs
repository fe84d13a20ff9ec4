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
//! background changed twice since (the bulk pull and the walk's root-digest
//! handshake went; keys moved to other Merkle buckets when they began to
//! hash with `FastHasher`), so the rows were re-pinned at those commits,
//! each with its cause (CHANGES has the old constants); the engine was not
//! edited there, and the register and variant tables held.
//!
//! The third table (`variant_identity_table_is_pinned`) does it once more
//! for `ByzNode` and `BoundedSwmrNode`, the last two hand-written copies of
//! the single-writer machine: trace digest, `sent` and a response digest,
//! computed at commit c95f798.

use abd_core::context::{Protocol, ReadPathCounters, ReadPathStats};
use abd_core::msg::{RegisterOp, RegisterResp};
use abd_core::mwmr::{MwmrConfig, MwmrNode};
use abd_core::phase::NodeEdges;
use abd_core::quorum::{Majority, QuorumSystem};
use abd_core::retransmit::BackoffPolicy;
use abd_core::swmr::{SwmrConfig, SwmrNode};
use abd_core::types::{Consistency, ProcessId, ReadMode};
use abd_kv::{KvConfig, KvNode, KvOp, KvResp};
use abd_repro::simnet::nemesis::liveness_bound;
use abd_repro::simnet::{
    run_campaign, Metrics, NemesisConfig, NemesisSchedule, PlannedFault, Sim, SimConfig,
};
use std::sync::Arc;

const N: usize = 5;
const OPS: u64 = 9;
const SIM_SEED: u64 = 1234;
const NEMESIS_SEED: u64 = 71;

const BACKOFF_BASE: u64 = 20_000;

fn backoff() -> BackoffPolicy {
    BackoffPolicy::new(BACKOFF_BASE)
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
/// metrics, the nodes' read-path counters summed and the phase edges they
/// took.
type Counted = (u64, Metrics, ReadPathCounters, NodeEdges);

/// The union of the phase edges every node of `sim` took.
fn walked<P>(sim: &Sim<P>) -> NodeEdges
where
    P: Protocol + ReadPathStats,
    P::Op: Clone,
{
    let mut edges = NodeEdges::default();
    for i in 0..sim.n() {
        edges |= sim.node(i).phase_edges();
    }
    edges
}

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
    (sim.trace_digest(), m, sim.read_path_metrics(), walked(&sim))
}

fn swmr(read_mode: ReadMode) -> Counted {
    let nodes: Vec<SwmrNode<u64>> = (0..N)
        .map(|i| {
            let cfg = SwmrConfig::new(N, ProcessId(i), ProcessId(0))
                .with_read_mode(read_mode)
                .with_retransmit(BACKOFF_BASE);
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
                .with_retransmit(BACKOFF_BASE);
            MwmrNode::new(cfg, 0)
        })
        .collect();
    campaign(nodes, mwmr_scripts())
}

/// One row of the table: the run must have walked the paths the row is
/// named for — otherwise a pinned digest proves nothing about them — and
/// must reproduce the pre-refactor trace digest and `Metrics::sent`.
fn check(row: &str, run: Counted, want_digest: u64, want_sent: u64) -> NodeEdges {
    let (digest, m, reads, edges) = run;
    assert!(
        reads.sc_reads > 0 && reads.regular_reads > 0,
        "{row}: tiers idle"
    );
    assert!(reads.retransmissions > 0, "{row}: no retransmission fired");
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
    edges
}

/// The register table; returns the phase edges its rows took.
fn register_rows() -> NodeEdges {
    use ReadMode::{FastUnanimous, Relay, TwoRound};
    let mut edges = check("swmr/two-round", swmr(TwoRound), 0x5e4086c3a2ac620b, 376);
    edges |= check("swmr/fast", swmr(FastUnanimous), 0xe03f8eeaded75d1f, 324);
    edges |= check("swmr/relay", swmr(Relay), 0x1b7218e930cdfe14, 443);
    edges |= check("mwmr/two-round", mwmr(TwoRound), 0x4872853a669c0b84, 537);
    edges |= check("mwmr/fast", mwmr(FastUnanimous), 0x8c4359744836e743, 526);
    edges |= check("mwmr/relay", mwmr(Relay), 0x7c4ac2f3871f620e, 550);
    edges
}

#[test]
fn engine_identity_table_is_pinned() {
    register_rows();
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
) -> (KvPins, ReadPathCounters, Sim<P>)
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
    let r = sim.read_path_metrics();
    let reads = [
        r.fast_reads,
        r.write_backs,
        r.relay_reads,
        r.sc_reads,
        r.regular_reads,
    ];
    let sent = sim.metrics().sent;
    ((sim.trace_digest(), sent, responses, reads), r, sim)
}

fn kv_nodes(cfg: impl Fn(KvConfig) -> KvConfig) -> Vec<KvNode<u32, u64>> {
    (0..N)
        .map(|i| {
            KvNode::new(cfg(
                KvConfig::new(N, ProcessId(i)).with_retransmit(BACKOFF_BASE)
            ))
        })
        .collect()
}

/// The checks every KV row shares: tiers, retransmission, restarts and the
/// catch-up all ran, a crash caught operations in flight, and the pins hold.
fn check_kv<P>(row: &str, pins: KvPins, sim: &Sim<P>, want: KvPins)
where
    P: Protocol + ReadPathStats,
    P::Op: Clone,
{
    let (m, r) = (sim.metrics(), sim.read_path_metrics());
    assert!(r.sc_reads > 0 && r.regular_reads > 0, "{row}: tiers idle");
    assert!(r.retransmissions > 0, "{row}: no retransmission fired");
    assert!(m.restarts > 0, "{row}: no node restarted");
    assert!(r.recovery_msgs > 0, "{row}: no catch-up ran");
    assert!(m.ops_aborted > 0, "{row}: no crash caught an operation");
    assert_eq!(
        pins, want,
        "{row}: (trace digest, sent, responses digest, read counters) drifted"
    );
}

/// The key-value table; returns the phase edges its rows took.
fn kv_rows() -> NodeEdges {
    use ReadMode::{FastUnanimous, Relay, TwoRound};
    let (pins, r, sim) = kv_campaign(kv_nodes(|c| c.with_read_mode(TwoRound)), kv_op);
    let mut edges = walked(&sim);
    assert!(r.write_backs > 0, "kv/two-round: atomic read path idle");
    check_kv(
        "kv/two-round",
        pins,
        &sim,
        (
            // Re-pinned when keys began to hash with FastHasher: a key's
            // Merkle bucket moved, so a reboot's walks ship other buckets,
            // and the seeded loss and duplication draws fall on other
            // messages (sent 3724 -> 3737, read counters [0, 41, 0, 48, 44]
            // -> [0, 40, 0, 48, 43]). The other KV rows moved for this cause.
            0xadd0f1feccc60139,
            3737,
            0x29418e1badd469fb,
            [0, 40, 0, 48, 43],
        ),
    );

    let (pins, r, sim) = kv_campaign(kv_nodes(|c| c.with_read_mode(FastUnanimous)), kv_op);
    assert!(
        r.fast_reads > 0 && r.write_backs > 0,
        "kv/fast: a path idle"
    );
    edges |= walked(&sim);
    check_kv(
        "kv/fast",
        pins,
        &sim,
        (
            // Re-pinned as kv/two-round (sent 3584 -> 3650).
            0xc57eede8acdcd35b,
            3650,
            0x44d1da9d5a2214f0,
            [31, 13, 0, 48, 44],
        ),
    );

    let (pins, r, sim) = kv_campaign(kv_nodes(|c| c.with_read_mode(Relay)), kv_op);
    assert!(r.relay_reads > 0, "kv/relay: atomic read path idle");
    edges |= walked(&sim);
    check_kv(
        "kv/relay",
        pins,
        &sim,
        (
            // Re-pinned as kv/two-round (sent 4256 -> 4359).
            0xf941cd7ac3dba8b1,
            4359,
            0xb8a2f983415ecf02,
            [0, 0, 44, 48, 43],
        ),
    );

    // Merkle walks on every reboot over a small tree: walks draw their ids
    // from the operations' counter and share their timers.
    let walking = |c: KvConfig| c.with_sync_buckets(8);
    let (pins, r, sim) = kv_campaign(kv_nodes(walking), kv_op);
    assert!(r.write_backs > 0, "kv/walks: atomic read path idle");
    assert!(
        (0..N).any(|i| sim.node(i).max_walk_rounds() > 1),
        "kv/walks: no walk descended"
    );
    edges |= walked(&sim);
    check_kv(
        "kv/walks",
        pins,
        &sim,
        (
            // Re-pinned as kv/two-round (sent 3659 -> 3609).
            0x498c5e3c3ae4dfca,
            3609,
            0x8b8afc1b7032ea2d,
            [0, 40, 0, 48, 43],
        ),
    );

    edges
}

#[test]
fn kv_identity_table_is_pinned() {
    kv_rows();
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
            let mut cfg =
                ByzConfig::new(n, ProcessId(i), ProcessId(0), b).with_retransmit(BACKOFF_BASE);
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
/// the row's pins. Returns the phase edges the row took.
fn check_byz(
    row: &str,
    (n, b): (usize, usize),
    liars: &[(usize, LieStrategy)],
    unvouched: u64,
    want: VariantPins,
) -> NodeEdges {
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
    let resent = sim.read_path_metrics().retransmissions;
    assert!(resent > 0, "{row}: no retransmission fired");
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
    walked(&sim)
}

fn bounded_nodes(n: usize, modulus: u32) -> Vec<BoundedSwmrNode<u64>> {
    (0..n)
        .map(|i| {
            let cfg = BoundedSwmrConfig::new(n, ProcessId(i), ProcessId(0))
                .with_space(LabelSpace::new(modulus))
                .with_retransmit(BACKOFF_BASE);
            BoundedSwmrNode::new(cfg, 0)
        })
        .collect()
}

/// One bounded-label row: as above, plus no comparison left the window and
/// the writer issued exactly `labels` labels.
fn check_bounded(
    row: &str,
    modulus: u32,
    load: (u64, u64),
    labels: u64,
    want: VariantPins,
) -> NodeEdges {
    let (pins, m, _, sim) = variant_campaign(bounded_nodes(N, modulus), &[], 3, false, load);
    assert!(m.restarts > 0, "{row}: no node restarted");
    let resent = sim.read_path_metrics().retransmissions;
    assert!(resent > 0, "{row}: no retransmission fired");
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
    walked(&sim)
}

/// The Byzantine and bounded-label table; returns the phase edges its rows
/// took.
fn variant_rows() -> NodeEdges {
    use LieStrategy::{ForgeLabel, ReportStale, Silent};
    let mut edges = check_byz(
        "byz b=1 n=5/honest",
        (5, 1),
        &[],
        0,
        (0xf5258886137e2346, 3385, 0x3adb32e2e1f1c34d),
    );
    edges |= check_byz(
        "byz b=1 n=5/stale",
        (5, 1),
        &[(1, ReportStale)],
        2,
        (0x884486b395d8f1ed, 2648, 0x5823c683ae57f9ec),
    );
    // Same pins as the stale row: the digests fold no message content, and
    // both lies are masked into the same schedule and the same answers.
    edges |= check_byz(
        "byz b=1 n=5/forger",
        (5, 1),
        &[(1, ForgeLabel)],
        2,
        (0x884486b395d8f1ed, 2648, 0x5823c683ae57f9ec),
    );
    edges |= check_byz(
        "byz b=1 n=5/silent",
        (5, 1),
        &[(1, Silent)],
        0,
        (0x66f1740cdcfaa6e0, 2327, 0x06d1db01aa72f0b8),
    );
    edges |= check_byz(
        "byz b=2 n=9/two forgers",
        (9, 2),
        &[(1, ForgeLabel), (2, ForgeLabel)],
        0,
        (0x49456ac0317df702, 9568, 0xc84c61f836db0669),
    );
    // The contrast: the same forger against majority quorums and a vouching
    // threshold of one. The waves spare the writer here: the hand-written
    // writer re-anchored its counter on whatever its catch-up believed, so
    // after a reboot under this forger it sat at `u64::MAX - 1` and
    // overflowed two writes later — no pin can be computed on that.
    edges |= check_byz(
        "byz b=0 n=5/forger",
        (5, 0),
        &[(1, ForgeLabel)],
        0,
        (0xe2fe59d7582ba7da, 2709, 0x936f5df516553f19),
    );
    // 36 operations 200 µs apart: the labels lap the 16-cycle, and no
    // replica sleeps through more than a window (7) of writes.
    edges |= check_bounded(
        "bounded n=5/mod 16",
        16,
        (36, 200_000),
        23,
        (0xe516614e17e7e13e, 3026, 0x09986f95aa630c06),
    );
    edges |= check_bounded(
        "bounded n=5/mod 64",
        64,
        VARIANT_LOAD,
        26,
        (0xb2e8016bb5bac813, 3341, 0xe40e2d6abbf3a65c),
    );
    edges
}

#[test]
fn variant_identity_table_is_pinned() {
    variant_rows();
}

// ---- the phase graph ----
//
// The engine and the register shell declare the transitions a client
// operation may take (`engine::PHASE_GRAPH`, `register::PHASE_GRAPH`) and
// record each one they take. The rows above, and the clusters below in which
// a node forms a quorum alone, must take exactly the declared edges: an edge
// no run takes is dead spec, an edge no graph declares is a path nobody
// meant.

use abd_core::engine;
use abd_core::phase::PhaseEdges;
use abd_core::quorum::{check_by_enumeration, Weighted};
use abd_core::register;
use abd_repro::simnet::harness::run_scripts;

/// Runs one script per node to completion on reliable links and returns
/// the phase edges the nodes took.
fn run_small<P>(nodes: Vec<P>, script: impl Fn(usize) -> Vec<P::Op>) -> NodeEdges
where
    P: Protocol + ReadPathStats,
    P::Op: Clone,
{
    let scripts = (0..nodes.len()).map(script).collect();
    let mut sim = Sim::new(SimConfig::new(SIM_SEED), nodes);
    assert!(run_scripts(&mut sim, scripts, 1_000, 1_000, 1_000_000_000));
    walked(&sim)
}

/// A write, then a read at each tier.
fn register_script(c: usize) -> Vec<RegisterOp<u64>> {
    vec![
        RegisterOp::Write(c as u64 + 1),
        RegisterOp::Read,
        RegisterOp::ReadAt(Consistency::Regular),
        RegisterOp::ReadAt(Consistency::Sequential),
    ]
}

/// Clusters in which a node forms a quorum alone: the single-node register
/// and store in every read mode, and a three-node multi-writer register
/// whose node 0 weighs 3 — a read quorum but no write quorum (`R = 3,
/// W = 4`: its reads write back, its writes update, with no query round
/// before), or the reverse (`R = 4, W = 3`: its writes complete when their
/// query round does). The three-node single-writer register answers its
/// non-writers' writes with `NotWriter`. Under `R = 3, W = 4` node 0's
/// relay server round is a read quorum at first contact, and it forwards
/// all the same, or nodes 1 and 2 would never collect one.
fn alone_in_a_quorum() -> NodeEdges {
    let mut edges = NodeEdges::default();
    for mode in [ReadMode::TwoRound, ReadMode::FastUnanimous, ReadMode::Relay] {
        for n in [1, 3] {
            let nodes = (0..n)
                .map(|i| {
                    let cfg = SwmrConfig::new(n, ProcessId(i), ProcessId(0)).with_read_mode(mode);
                    SwmrNode::new(cfg, 0)
                })
                .collect();
            edges |= run_small(nodes, register_script);
        }
        let quorums: [Arc<dyn QuorumSystem>; 3] = [
            Arc::new(Majority::new(1)),
            Arc::new(Weighted::new(vec![3, 1, 1], 3, 4)),
            Arc::new(Weighted::new(vec![3, 1, 1], 4, 3)),
        ];
        for q in quorums {
            assert!(check_by_enumeration(q.as_ref(), true).is_ok());
            let n = q.n();
            let nodes = (0..n)
                .map(|i| {
                    let cfg = MwmrConfig::new(n, ProcessId(i))
                        .with_quorum(Arc::clone(&q))
                        .with_read_mode(mode);
                    MwmrNode::new(cfg, 0)
                })
                .collect();
            edges |= run_small(nodes, register_script);
        }
        let store: KvNode<u32, u64> =
            KvNode::new(KvConfig::new(1, ProcessId(0)).with_read_mode(mode));
        edges |= run_small(vec![store], |_| {
            vec![
                KvOp::Put(0, 1),
                KvOp::Get(0),
                KvOp::GetAt(0, Consistency::Regular),
                KvOp::GetAt(0, Consistency::Sequential),
            ]
        });
    }
    edges
}

#[test]
fn runs_take_exactly_the_declared_phase_graphs() {
    let mut took = register_rows();
    took |= kv_rows();
    took |= variant_rows();
    took |= alone_in_a_quorum();
    for (graph, took, declared) in [
        ("engine", took.engine, engine::PHASE_GRAPH),
        ("register", took.shell, register::PHASE_GRAPH),
    ] {
        let declared = PhaseEdges::of(declared);
        assert_eq!(
            took, declared,
            "{graph}: runs took [{took}], the graph declares [{declared}]"
        );
    }
}
