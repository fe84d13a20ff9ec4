//! Integration: the register engine's event-level identity proof.
//!
//! One fixed-seed nemesis campaign (crash waves covering every node,
//! partitions, loss bursts; retransmission on) per register instantiation
//! and read mode, driven by a script that mixes all three consistency
//! tiers, with `Sim::trace_digest` and `Metrics::sent` pinned for each row.
//! The constants were computed on the two hand-written node types
//! (`swmr.rs` / `mwmr.rs` at commit 4147333) **before** they were collapsed
//! into `abd_core::register::RegisterNode`; the engine must reproduce every
//! one. A row that moves means a handler reordered, added or dropped an
//! effect — a finding, not a reason to re-pin.

use abd_core::context::{Protocol, ReadPathStats};
use abd_core::msg::{RegisterOp, RegisterResp};
use abd_core::mwmr::{MwmrConfig, MwmrNode};
use abd_core::retransmit::BackoffPolicy;
use abd_core::swmr::{SwmrConfig, SwmrNode};
use abd_core::types::{Consistency, ProcessId, ReadMode};
use abd_repro::simnet::nemesis::liveness_bound;
use abd_repro::simnet::{run_campaign, Metrics, NemesisConfig, Sim, SimConfig};

const N: usize = 5;
const OPS: u64 = 9;
const SIM_SEED: u64 = 1234;
/// Probed: crashes the writer while a write is in flight, so the epilogue
/// row's pinned digest differs from its flag-off twin's.
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

/// Runs the campaign to completion; returns the trace digest and the
/// metrics with the per-node read-path counters summed in.
fn campaign<P>(nodes: Vec<P>, scripts: Vec<Vec<RegisterOp<u64>>>) -> (u64, Metrics)
where
    P: Protocol<Op = RegisterOp<u64>, Resp = RegisterResp<u64>> + ReadPathStats,
{
    let mut sim = Sim::new(SimConfig::new(SIM_SEED), nodes);
    let sched = NemesisConfig::new(NEMESIS_SEED, N).plan();
    assert!(sched.respects_min_alive(N));
    sched.apply(&mut sim);
    let deadline = sched.heal_at() + liveness_bound(&backoff(), 20_000, 8);
    assert!(
        run_campaign(&mut sim, &sched, scripts, 5_000, deadline),
        "every surviving operation must complete after healing"
    );
    (sim.trace_digest(), sim.read_path_metrics())
}

fn swmr(read_mode: ReadMode, epilogue: bool) -> (u64, Metrics) {
    let nodes: Vec<SwmrNode<u64>> = (0..N)
        .map(|i| {
            let cfg = SwmrConfig::new(N, ProcessId(i), ProcessId(0))
                .with_read_mode(read_mode)
                .with_write_epilogue(epilogue)
                .with_backoff(backoff());
            SwmrNode::new(cfg, 0)
        })
        .collect();
    campaign(nodes, swmr_scripts())
}

fn mwmr(read_mode: ReadMode) -> (u64, Metrics) {
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
fn check(row: &str, (digest, m): (u64, Metrics), want_digest: u64, want_sent: u64) {
    assert!(m.sc_reads > 0 && m.regular_reads > 0, "{row}: tiers idle");
    assert!(m.retransmissions > 0, "{row}: no retransmission fired");
    assert!(m.restarts > 0, "{row}: no node restarted");
    let atomic_path = if row.contains("relay") {
        m.relay_reads
    } else if row.contains("fast") {
        m.fast_reads
    } else {
        m.write_backs
    };
    assert!(atomic_path > 0, "{row}: atomic read path idle");
    assert_eq!(
        (digest, m.sent),
        (want_digest, want_sent),
        "{row}: trace drifted from the pre-refactor golden"
    );
}

#[test]
fn engine_identity_table_is_pinned() {
    use ReadMode::{FastUnanimous, Relay, TwoRound};
    check(
        "swmr/two-round",
        swmr(TwoRound, false),
        0x027417d8af063fd9,
        443,
    );
    check(
        "swmr/fast",
        swmr(FastUnanimous, false),
        0xe4dd067ca71a37b0,
        319,
    );
    check("swmr/relay", swmr(Relay, false), 0x888931010ce1fedf, 575);
    // Differs from the first row: the writer crashes mid-write, so the
    // epilogue's resumed write alters the trace.
    check(
        "swmr/two-round+epilogue",
        swmr(TwoRound, true),
        0x3cacc31a0b7956ee,
        461,
    );
    check("mwmr/two-round", mwmr(TwoRound), 0xc7d3a547331e2b2b, 653);
    check("mwmr/fast", mwmr(FastUnanimous), 0x14b7d6ff07469b49, 669);
    check("mwmr/relay", mwmr(Relay), 0x14790903addbfc6e, 795);
}
