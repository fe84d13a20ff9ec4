//! The single-writer multi-reader (SWMR) atomic register emulation — the
//! core construction of the paper, with unbounded integer timestamps.
//!
//! One designated processor is the *writer*; every processor may read. Each
//! processor also plays the replica role for the register.
//!
//! * **Write(v)** — the writer increments its sequence number, adopts
//!   `(seq, v)` locally, broadcasts `Update(seq, v)` and returns once a
//!   *write quorum* (a majority, in the paper) has acknowledged. One round
//!   trip, `2(n−1)` messages.
//! * **Read()** — the reader broadcasts `Query`, waits for a *read quorum*
//!   of `(label, value)` replies (counting its own replica), selects the
//!   pair with the **largest label**, and then — the paper's key move —
//!   performs a **write-back**: it propagates that pair with `Update` and
//!   waits for a write quorum of acknowledgements *before* returning the
//!   value. Two round trips, `4(n−1)` messages.
//!
//! The write-back is what upgrades *regularity* to *atomicity*: once a read
//! returns `v`, a write quorum stores a label `≥ label(v)`, so every later
//! read's query quorum intersects it and cannot return an older value (no
//! "new/old inversion").
//!
//! This module is the single-writer *instantiation*: the [`SeqNo`] label
//! policy, and the configuration that designates the writer. The state
//! machine of an operation — with the read modes, relay reads, tiers and
//! retransmission — lives, once, in [`crate::engine`], shared with the
//! key-value store; what a register adds around it (one operation at a
//! time, crash recovery, the roll-forward of an interrupted write) in
//! [`crate::register`].

use crate::msg::RegisterMsg;
use crate::register::{Label, RegisterConfig, RegisterNode};
use crate::types::{ProcessId, SeqNo};

/// The single writer is the only issuer of labels and adopts each one
/// before broadcasting it, so its own label is the largest in use: a write
/// needs no query round, just the next integer.
impl Label for SeqNo {
    const WRITE_QUERIES: bool = false;

    fn initial() -> Self {
        0
    }

    fn next(self, _me: ProcessId) -> Self {
        self + 1
    }
}

/// Wire message of the SWMR protocol.
pub type SwmrMsg<V> = RegisterMsg<SeqNo, V>;

/// Configuration of one SWMR node.
pub type SwmrConfig = RegisterConfig<SeqNo>;

impl SwmrConfig {
    /// The paper's configuration: majority quorums, write-back on reads, no
    /// retransmission (reliable links), `writer` the one node that may
    /// write.
    pub fn new(n: usize, me: ProcessId, writer: ProcessId) -> Self {
        Self::base(n, me, writer)
    }
}

/// One processor of the SWMR emulation: replica role plus (on the designated
/// writer) the writer role and (on every node) the reader role.
///
/// # Examples
///
/// Driving a single-node "cluster" by hand (with `n = 1` the node itself is
/// a quorum, so operations complete without any messages):
///
/// ```
/// use abd_core::context::{Effects, Protocol};
/// use abd_core::msg::{RegisterOp, RegisterResp};
/// use abd_core::swmr::{SwmrConfig, SwmrNode};
/// use abd_core::types::{OpId, ProcessId};
///
/// let mut node = SwmrNode::new(SwmrConfig::new(1, ProcessId(0), ProcessId(0)), 0u32);
/// let mut fx = Effects::new();
/// node.on_invoke(OpId(1), RegisterOp::Write(7), &mut fx);
/// node.on_invoke(OpId(2), RegisterOp::Read, &mut fx);
/// assert_eq!(fx.responses, vec![
///     (OpId(1), RegisterResp::WriteOk),
///     (OpId(2), RegisterResp::ReadOk(7)),
/// ]);
/// ```
pub type SwmrNode<V> = RegisterNode<SeqNo, V>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Effects, Protocol, ReadPathStats};
    use crate::msg::{RegisterOp, RegisterResp};
    use crate::quorum::{Majority, Threshold};
    use crate::testutil::MiniNet;
    use crate::types::{Consistency, OpId, ReadMode, RegisterError};
    use std::sync::Arc;

    fn cluster(n: usize, write_back: bool) -> MiniNet<SwmrNode<u32>> {
        let nodes = (0..n)
            .map(|i| {
                let cfg =
                    SwmrConfig::new(n, ProcessId(i), ProcessId(0)).with_read_write_back(write_back);
                SwmrNode::new(cfg, 0u32)
            })
            .collect();
        MiniNet::new(nodes)
    }

    #[test]
    fn write_then_read_returns_written_value() {
        let mut net = cluster(3, true);
        net.invoke(0, RegisterOp::Write(42));
        net.run_to_quiescence();
        assert_eq!(net.take_responses(), vec![(OpId(0), RegisterResp::WriteOk)]);

        net.invoke(2, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses(),
            vec![(OpId(1), RegisterResp::ReadOk(42))]
        );
    }

    #[test]
    fn initial_value_is_readable() {
        let mut net = cluster(5, true);
        net.invoke(4, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses(),
            vec![(OpId(0), RegisterResp::ReadOk(0))]
        );
    }

    #[test]
    fn non_writer_write_is_rejected() {
        let mut net = cluster(3, true);
        net.invoke(1, RegisterOp::Write(7));
        net.run_to_quiescence();
        match &net.take_responses()[..] {
            [(_, RegisterResp::Err(RegisterError::NotWriter { invoked_on, writer }))] => {
                assert_eq!(*invoked_on, ProcessId(1));
                assert_eq!(*writer, ProcessId(0));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sequential_writes_are_ordered() {
        let mut net = cluster(3, true);
        for v in [1u32, 2, 3, 4, 5] {
            net.invoke(0, RegisterOp::Write(v));
            net.run_to_quiescence();
        }
        net.take_responses();
        net.invoke(1, RegisterOp::Read);
        net.run_to_quiescence();
        let r = net.take_responses();
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].1, RegisterResp::ReadOk(5));
        // Every replica converged to seq 5.
        for i in 0..3 {
            assert_eq!(net.node(i).replica_state().0, 5);
        }
    }

    #[test]
    fn queued_invocations_run_in_fifo_order() {
        let mut net = cluster(3, true);
        // Invoke three ops on the writer before delivering any message.
        net.invoke(0, RegisterOp::Write(1));
        net.invoke(0, RegisterOp::Read);
        net.invoke(0, RegisterOp::Write(2));
        assert!(net.node(0).is_busy());
        assert_eq!(net.node(0).queue_len(), 2);
        net.run_to_quiescence();
        let resp = net.take_responses();
        assert_eq!(
            resp,
            vec![
                (OpId(0), RegisterResp::WriteOk),
                (OpId(1), RegisterResp::ReadOk(1)),
                (OpId(2), RegisterResp::WriteOk),
            ]
        );
    }

    #[test]
    fn write_completes_with_minority_crashed() {
        let mut net = cluster(5, true);
        net.crash(3);
        net.crash(4);
        net.invoke(0, RegisterOp::Write(9));
        net.run_to_quiescence();
        assert_eq!(net.take_responses(), vec![(OpId(0), RegisterResp::WriteOk)]);
        net.invoke(1, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses(),
            vec![(OpId(1), RegisterResp::ReadOk(9))]
        );
    }

    #[test]
    fn write_blocks_with_majority_crashed() {
        let mut net = cluster(5, true);
        for i in 2..5 {
            net.crash(i);
        }
        net.invoke(0, RegisterOp::Write(9));
        net.run_to_quiescence();
        assert!(
            net.take_responses().is_empty(),
            "op must block without a quorum"
        );
        assert!(net.node(0).is_busy());
    }

    #[test]
    fn read_write_back_helps_lagging_majority() {
        // Classic scenario: the writer's update reached only the quorum
        // {0,1,2}; replicas 3 and 4 are stale. A read that observes the new
        // value propagates it before returning.
        let mut net = cluster(5, true);
        // Drop updates to 3 and 4 during the write.
        net.set_drop_filter(|_, to, _| to.index() >= 3);
        net.invoke(0, RegisterOp::Write(1));
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses().len(),
            1,
            "write reached quorum {{0,1,2}}"
        );
        net.clear_drop_filter();
        assert_eq!(net.node(3).replica_state().0, 0, "p3 stale before the read");
        assert_eq!(net.node(4).replica_state().0, 0, "p4 stale before the read");
        // Reader 3 (stale itself) queries everyone; quorum replies include a
        // fresh value, which the write-back then installs everywhere.
        net.invoke(3, RegisterOp::Read);
        net.run_to_quiescence();
        let r = net.take_responses();
        assert_eq!(r[0].1, RegisterResp::ReadOk(1));
        let fresh = (0..5)
            .filter(|&i| net.node(i).replica_state().0 == 1)
            .count();
        assert_eq!(fresh, 5, "write-back must spread the value");
    }

    #[test]
    fn regular_baseline_skips_write_back_phase() {
        let mut net = cluster(3, false);
        net.invoke(0, RegisterOp::Write(5));
        net.run_to_quiescence();
        net.take_responses();
        let sent_before = net.messages_sent();
        net.invoke(1, RegisterOp::Read);
        net.run_to_quiescence();
        let read_msgs = net.messages_sent() - sent_before;
        // Regular read: query + replies only = 2(n-1) = 4 messages.
        assert_eq!(read_msgs, 4);
        assert_eq!(net.take_responses()[0].1, RegisterResp::ReadOk(5));
    }

    #[test]
    fn atomic_read_costs_4n_minus_4_messages() {
        let mut net = cluster(5, true);
        net.invoke(3, RegisterOp::Read);
        net.run_to_quiescence();
        // query + replies + write-back updates + acks = 4(n-1).
        assert_eq!(net.messages_sent(), 4 * (5 - 1));
    }

    #[test]
    fn sequential_read_is_local_and_free() {
        let mut net = cluster(5, true);
        net.invoke(0, RegisterOp::Write(7));
        net.run_to_quiescence();
        net.take_responses();
        let before = net.messages_sent();
        net.invoke(2, RegisterOp::ReadAt(Consistency::Sequential));
        net.run_to_quiescence();
        assert_eq!(net.messages_sent() - before, 0, "SC read sends nothing");
        assert_eq!(
            net.take_responses(),
            vec![(OpId(1), RegisterResp::ReadOk(7))]
        );
        assert_eq!(net.node(2).counters().sc_reads, 1);
        assert_eq!(net.node(2).counters().write_backs, 0);
    }

    #[test]
    fn sequential_read_can_lag_but_never_regresses_locally() {
        let mut net = cluster(5, true);
        // The write reaches only {0,1,2}; node 3's local replica is stale.
        net.set_drop_filter(|_, to, _| to.index() >= 3);
        net.invoke(0, RegisterOp::Write(1));
        net.run_to_quiescence();
        net.take_responses();
        net.clear_drop_filter();
        net.invoke(3, RegisterOp::ReadAt(Consistency::Sequential));
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses()[0].1,
            RegisterResp::ReadOk(0),
            "SC read may serve the stale local value"
        );
        // An atomic read raises the local replica; SC reads never go back.
        net.invoke(3, RegisterOp::Read);
        net.invoke(3, RegisterOp::ReadAt(Consistency::Sequential));
        net.run_to_quiescence();
        let r = net.take_responses();
        assert_eq!(r[0].1, RegisterResp::ReadOk(1));
        assert_eq!(r[1].1, RegisterResp::ReadOk(1), "local label only rises");
    }

    #[test]
    fn regular_tier_read_skips_write_back_and_counts() {
        let mut net = cluster(5, true);
        net.invoke(0, RegisterOp::Write(4));
        net.run_to_quiescence();
        net.take_responses();
        let before = net.messages_sent();
        net.invoke(1, RegisterOp::ReadAt(Consistency::Regular));
        net.run_to_quiescence();
        // Query + replies only = 2(n-1); no write-back round.
        assert_eq!(net.messages_sent() - before, 2 * (5 - 1));
        assert_eq!(
            net.take_responses(),
            vec![(OpId(1), RegisterResp::ReadOk(4))]
        );
        assert_eq!(net.node(1).counters().regular_reads, 1);
        assert_eq!(net.node(1).counters().write_backs, 0);
    }

    #[test]
    fn regular_tier_read_adopts_census_max_locally() {
        let mut net = cluster(5, true);
        net.set_drop_filter(|_, to, _| to.index() >= 3);
        net.invoke(0, RegisterOp::Write(6));
        net.run_to_quiescence();
        net.take_responses();
        net.clear_drop_filter();
        assert_eq!(net.node(3).replica_state().0, 0);
        net.invoke(3, RegisterOp::ReadAt(Consistency::Regular));
        net.run_to_quiescence();
        assert_eq!(net.take_responses()[0].1, RegisterResp::ReadOk(6));
        // The reader adopted what it returned (so a later SC read on the
        // same node cannot regress), but lagging peers were not updated.
        assert_eq!(net.node(3).replica_state().0, 1);
        assert_eq!(net.node(4).replica_state().0, 0, "no write-back spread");
    }

    #[test]
    fn read_at_atomic_matches_plain_read() {
        let mut net = cluster(3, true);
        net.invoke(0, RegisterOp::Write(9));
        net.run_to_quiescence();
        net.take_responses();
        let before = net.messages_sent();
        net.invoke(1, RegisterOp::ReadAt(Consistency::Atomic));
        net.run_to_quiescence();
        assert_eq!(net.messages_sent() - before, 4 * (3 - 1));
        assert_eq!(net.take_responses()[0].1, RegisterResp::ReadOk(9));
        assert_eq!(net.node(1).counters().write_backs, 1);
        assert_eq!(net.node(1).counters().sc_reads, 0);
        assert_eq!(net.node(1).counters().regular_reads, 0);
    }

    #[test]
    fn write_costs_2n_minus_2_messages() {
        let mut net = cluster(7, true);
        net.invoke(0, RegisterOp::Write(1));
        net.run_to_quiescence();
        assert_eq!(net.messages_sent(), 2 * (7 - 1));
    }

    #[test]
    fn stale_replies_are_ignored() {
        let mut node = SwmrNode::new(SwmrConfig::new(3, ProcessId(1), ProcessId(0)), 0u32);
        let mut fx = Effects::new();
        // Reply for a phase that does not exist.
        node.on_message(
            ProcessId(0),
            RegisterMsg::QueryReply {
                uid: 99,
                label: 7,
                value: 1,
            },
            &mut fx,
        );
        node.on_message(ProcessId(0), RegisterMsg::UpdateAck { uid: 99 }, &mut fx);
        assert!(fx.is_empty());
        assert_eq!(node.replica_state(), (0, 0));
    }

    #[test]
    fn retransmission_fills_in_lost_messages() {
        let nodes: Vec<SwmrNode<u32>> = (0..3)
            .map(|i| {
                SwmrNode::new(
                    SwmrConfig::new(3, ProcessId(i), ProcessId(0)).with_retransmit(1_000),
                    0,
                )
            })
            .collect();
        let mut net = MiniNet::new(nodes);
        // Lose every message once; retransmission must recover.
        net.set_drop_filter({
            let mut dropped = std::collections::HashSet::new();
            move |from, to, _| dropped.insert((from, to))
        });
        net.invoke(0, RegisterOp::Write(3));
        net.run_to_quiescence();
        assert!(net.take_responses().is_empty(), "first transmission lost");
        // First retransmission: the updates get through, but the (first)
        // acknowledgements on the reverse links are lost too.
        net.fire_timers(0);
        net.run_to_quiescence();
        assert!(net.take_responses().is_empty(), "first acks lost");
        // Second retransmission: replicas re-ack idempotently and the write
        // completes.
        net.fire_timers(0);
        net.run_to_quiescence();
        assert_eq!(net.take_responses(), vec![(OpId(0), RegisterResp::WriteOk)]);
    }

    #[test]
    fn read_one_quorum_completes_without_messages_to_others() {
        // R=1: the reader's own replica is a read quorum, and W=n demands
        // everyone. This is the deliberately weak Dynamo-ish configuration.
        let nodes: Vec<SwmrNode<u32>> = (0..3)
            .map(|i| {
                let cfg = SwmrConfig::new(3, ProcessId(i), ProcessId(0))
                    .with_quorum(Arc::new(Threshold::new(3, 1, 3)))
                    .with_read_write_back(false);
                SwmrNode::new(cfg, 0)
            })
            .collect();
        let mut net = MiniNet::new(nodes);
        net.invoke(2, RegisterOp::Read);
        // Completes instantly: no messages at all.
        assert_eq!(net.messages_sent(), 0);
        assert_eq!(
            net.take_responses(),
            vec![(OpId(0), RegisterResp::ReadOk(0))]
        );
    }

    #[test]
    fn restart_catches_up_via_query_phase() {
        let mut net = cluster(5, true);
        net.invoke(0, RegisterOp::Write(1));
        net.run_to_quiescence();
        net.take_responses();
        // p3 misses the second write entirely.
        net.crash(3);
        net.invoke(0, RegisterOp::Write(2));
        net.run_to_quiescence();
        net.take_responses();
        assert_eq!(net.node(3).replica_state().0, 1, "p3 stale while down");
        net.restart(3);
        assert!(net.node(3).is_recovering());
        net.run_to_quiescence();
        assert!(!net.node(3).is_recovering());
        assert_eq!(net.node(3).replica_state(), (2, 2), "catch-up adopted");
    }

    #[test]
    fn writer_restart_does_not_reuse_labels() {
        let mut net = cluster(3, true);
        net.invoke(0, RegisterOp::Write(1));
        net.run_to_quiescence();
        net.take_responses();
        net.crash(0);
        net.restart(0);
        net.run_to_quiescence();
        net.invoke(0, RegisterOp::Write(2));
        net.run_to_quiescence();
        assert_eq!(net.node(1).replica_state(), (2, 2), "labels keep growing");
    }

    fn fast_cluster(n: usize) -> MiniNet<SwmrNode<u32>> {
        let nodes = (0..n)
            .map(|i| {
                let cfg = SwmrConfig::new(n, ProcessId(i), ProcessId(0))
                    .with_read_mode(ReadMode::FastUnanimous);
                SwmrNode::new(cfg, 0u32)
            })
            .collect();
        MiniNet::new(nodes)
    }

    #[test]
    fn uncontended_fast_read_elides_write_back() {
        let mut net = fast_cluster(5);
        net.invoke(0, RegisterOp::Write(3));
        net.run_to_quiescence();
        net.take_responses();
        let before = net.messages_sent();
        // Every replica holds (1, 3): the query quorum is unanimous, so the
        // read completes in one round — 2(n-1) messages, no write-back.
        net.invoke(2, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(net.messages_sent() - before, 2 * (5 - 1));
        assert_eq!(
            net.take_responses(),
            vec![(OpId(1), RegisterResp::ReadOk(3))]
        );
        assert_eq!(net.node(2).counters().fast_reads, 1);
        assert_eq!(net.node(2).counters().write_backs, 0);
    }

    #[test]
    fn stale_quorum_disagreement_forces_slow_path() {
        // The write reaches only {0,1,2}; stale reader 3's query quorum then
        // mixes fresh and stale labels — no unanimity, no elision.
        let mut net = fast_cluster(5);
        net.set_drop_filter(|_, to, _| to.index() >= 3);
        net.invoke(0, RegisterOp::Write(1));
        net.run_to_quiescence();
        net.take_responses();
        net.clear_drop_filter();
        net.invoke(3, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses(),
            vec![(OpId(1), RegisterResp::ReadOk(1))]
        );
        assert_eq!(
            net.node(3).counters().fast_reads,
            0,
            "disagreement must not elide"
        );
        assert_eq!(
            net.node(3).counters().write_backs,
            1,
            "slow path ran instead"
        );
        // And the write-back did its job: the value spread.
        let fresh = (0..5)
            .filter(|&i| net.node(i).replica_state().0 == 1)
            .count();
        assert_eq!(fresh, 5);
    }

    #[test]
    fn fast_path_needs_a_write_quorum_of_responders() {
        // R=1, W=majority: the reader alone is a read quorum, and even a
        // unanimous one — but one replica is not a write quorum, so the
        // elision must not fire (a later read quorum could miss the label).
        let nodes: Vec<SwmrNode<u32>> = (0..5)
            .map(|i| {
                let cfg = SwmrConfig::new(5, ProcessId(i), ProcessId(0))
                    .with_quorum(Arc::new(Threshold::new(5, 1, 3)))
                    .with_read_mode(ReadMode::FastUnanimous);
                SwmrNode::new(cfg, 0)
            })
            .collect();
        let mut net = MiniNet::new(nodes);
        net.invoke(2, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(net.node(2).counters().fast_reads, 0);
        assert_eq!(
            net.node(2).counters().write_backs,
            1,
            "write-back still required"
        );
        assert_eq!(
            net.take_responses(),
            vec![(OpId(0), RegisterResp::ReadOk(0))]
        );
    }

    #[test]
    fn fast_reads_off_keeps_two_phase_reads() {
        let mut net = cluster(5, true);
        net.invoke(3, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(net.messages_sent(), 4 * (5 - 1), "flag off: 2 rounds");
        assert_eq!(net.node(3).counters().fast_reads, 0);
        assert_eq!(net.node(3).counters().write_backs, 1);
    }

    fn relay_cluster(n: usize) -> MiniNet<SwmrNode<u32>> {
        let nodes = (0..n)
            .map(|i| {
                let cfg =
                    SwmrConfig::new(n, ProcessId(i), ProcessId(0)).with_read_mode(ReadMode::Relay);
                SwmrNode::new(cfg, 0u32)
            })
            .collect();
        MiniNet::new(nodes)
    }

    #[test]
    fn relay_read_returns_written_value() {
        let mut net = relay_cluster(5);
        net.invoke(0, RegisterOp::Write(8));
        net.run_to_quiescence();
        net.take_responses();
        net.invoke(2, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses(),
            vec![(OpId(1), RegisterResp::ReadOk(8))]
        );
        assert_eq!(net.node(2).counters().relay_reads, 1);
        assert_eq!(
            net.node(2).counters().write_backs,
            0,
            "relay never writes back"
        );
        assert_eq!(net.node(2).counters().fast_reads, 0);
    }

    #[test]
    fn relay_read_costs_n_squared_minus_one_messages() {
        let mut net = relay_cluster(5);
        net.invoke(3, RegisterOp::Read);
        net.run_to_quiescence();
        // query (n−1) + forwards (n−1)² + replies (n−1) = n² − 1; the
        // straggler forwards past a completed round are recorded silently,
        // so the loss-free run has no echoes.
        assert_eq!(net.messages_sent(), 5 * 5 - 1);
        assert_eq!(
            net.take_responses(),
            vec![(OpId(0), RegisterResp::ReadOk(0))]
        );
    }

    #[test]
    fn relay_single_node_read_completes_without_messages() {
        let mut net = relay_cluster(1);
        net.invoke(0, RegisterOp::Write(5));
        net.invoke(0, RegisterOp::Read);
        assert_eq!(net.messages_sent(), 0);
        assert_eq!(
            net.take_responses(),
            vec![
                (OpId(0), RegisterResp::WriteOk),
                (OpId(1), RegisterResp::ReadOk(5)),
            ]
        );
        assert_eq!(net.node(0).counters().relay_reads, 1);
    }

    #[test]
    fn relay_read_spreads_a_partially_propagated_write() {
        // The write reached only {0,1,2}; a relay read from stale p3 must
        // still return it: every reply quorum's forwards intersect the
        // write quorum, so every reply label is ≥ the completed write's.
        let mut net = relay_cluster(5);
        net.set_drop_filter(|_, to, _| to.index() >= 3);
        net.invoke(0, RegisterOp::Write(1));
        net.run_to_quiescence();
        net.take_responses();
        net.clear_drop_filter();
        net.invoke(3, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses(),
            vec![(OpId(1), RegisterResp::ReadOk(1))]
        );
        assert_eq!(net.node(3).counters().relay_reads, 1);
    }

    #[test]
    fn relay_read_completes_with_minority_crashed() {
        let mut net = relay_cluster(5);
        net.invoke(0, RegisterOp::Write(4));
        net.run_to_quiescence();
        net.take_responses();
        net.crash(3);
        net.crash(4);
        net.invoke(1, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses(),
            vec![(OpId(1), RegisterResp::ReadOk(4))]
        );
    }

    #[test]
    fn relay_read_survives_lossy_links_via_retransmission() {
        let nodes: Vec<SwmrNode<u32>> = (0..3)
            .map(|i| {
                let cfg = SwmrConfig::new(3, ProcessId(i), ProcessId(0))
                    .with_read_mode(ReadMode::Relay)
                    .with_retransmit(1_000);
                SwmrNode::new(cfg, 0)
            })
            .collect();
        let mut net = MiniNet::new(nodes);
        // Lose the first copy of every (from, to) pair; reader-driven
        // retransmission plus forward echoes must heal every round.
        net.set_drop_filter({
            let mut dropped = std::collections::HashSet::new();
            move |from, to, _| dropped.insert((from, to))
        });
        net.invoke(1, RegisterOp::Read);
        net.run_to_quiescence();
        for _ in 0..6 {
            net.fire_timers(1);
            net.run_to_quiescence();
        }
        assert_eq!(
            net.take_responses(),
            vec![(OpId(0), RegisterResp::ReadOk(0))]
        );
    }

    #[test]
    fn relay_restart_clears_round_state_and_read_still_completes() {
        let mut net = relay_cluster(5);
        net.invoke(0, RegisterOp::Write(6));
        net.run_to_quiescence();
        net.take_responses();
        // p4 crashes and rejoins mid-fleet; its relay bookkeeping is gone
        // but its persisted replica still answers rounds correctly.
        net.crash(4);
        net.restart(4);
        net.run_to_quiescence();
        net.invoke(2, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses(),
            vec![(OpId(1), RegisterResp::ReadOk(6))]
        );
    }

    #[test]
    fn relay_reader_restart_aborts_the_read() {
        let mut net = relay_cluster(5);
        net.set_drop_filter(|_, _, _| true); // strand the relay round
        net.invoke(2, RegisterOp::Read);
        assert!(net.node(2).is_busy());
        net.crash(2);
        net.clear_drop_filter();
        net.restart(2);
        net.run_to_quiescence();
        assert!(!net.node(2).is_busy());
        assert!(net.take_responses().is_empty(), "lost ops never respond");
        // The node still serves fresh reads afterwards.
        net.invoke(2, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses(),
            vec![(OpId(1), RegisterResp::ReadOk(0))]
        );
    }

    #[test]
    fn a_rolled_forward_write_is_not_rolled_forward_again() {
        let mut net = cluster(3, true);
        net.set_drop_filter(|_, _, _| true);
        net.invoke(0, RegisterOp::Write(4));
        net.crash(0);
        net.clear_drop_filter();
        net.restart(0);
        net.run_to_quiescence();
        assert_eq!(net.take_responses(), vec![(OpId(0), RegisterResp::WriteOk)]);
        // A second crash/restart must not replay the already-resolved
        // write: its update round ended with the WriteOk.
        net.crash(0);
        net.restart(0);
        net.run_to_quiescence();
        assert!(net.take_responses().is_empty(), "no double response");
    }

    #[test]
    fn an_interrupted_write_survives_repeated_crashes() {
        let mut net = cluster(5, true);
        net.set_drop_filter(|_, _, _| true);
        net.invoke(0, RegisterOp::Write(6));
        net.crash(0);
        // First restart still can't reach anyone: the resumed write
        // strands again, and a second crash finds it in its update round —
        // it rolls forward once more.
        net.restart(0);
        net.run_to_quiescence();
        assert!(net.take_responses().is_empty(), "still partitioned");
        net.crash(0);
        net.clear_drop_filter();
        net.restart(0);
        net.run_to_quiescence();
        assert_eq!(net.take_responses(), vec![(OpId(0), RegisterResp::WriteOk)]);
        let fresh = (0..5)
            .filter(|&i| net.node(i).replica_state() == (1, 6))
            .count();
        assert!(fresh >= 3, "a write quorum holds the resumed write");
    }

    #[test]
    fn config_validation_panics_on_mismatched_quorum() {
        let result = std::panic::catch_unwind(|| {
            let cfg = SwmrConfig::new(3, ProcessId(0), ProcessId(0))
                .with_quorum(Arc::new(Majority::new(5)));
            SwmrNode::new(cfg, 0u32)
        });
        assert!(result.is_err());
    }
}
