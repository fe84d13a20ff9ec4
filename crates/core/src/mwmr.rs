//! The multi-writer multi-reader (MWMR) extension of the emulation.
//!
//! The paper presents the single-writer protocol and notes the extension to
//! multiple writers; it became folklore immediately (and is spelled out in
//! the follow-up literature, e.g. Lynch–Shvartsman's RAMBO). Two changes:
//!
//! * labels become [`Tag`]s — `(sequence, writer-id)` pairs ordered
//!   lexicographically, so concurrent writers never produce equal labels;
//! * a **write** gains a query phase: the writer first asks a read quorum
//!   for their current tags, then writes with
//!   `(max_seq + 1, writer_id)` to a write quorum. Both reads and writes
//!   are therefore two round trips, `4(n−1)` messages with majorities.
//!
//! Reads are identical to the single-writer protocol, write-back included.
//!
//! This module is the multi-writer *instantiation*: the [`Tag`] label
//! policy, and the configuration under which every node may write. The
//! state machine itself — shared, line for line, with [`crate::swmr`] and
//! the key-value store — lives in [`crate::engine`], the register around
//! it in [`crate::register`].

use crate::msg::RegisterMsg;
use crate::register::{Label, RegisterConfig, RegisterNode};
use crate::types::{ProcessId, Tag};

/// Any node may issue labels, so a write first asks a read quorum for the
/// largest tag in use and then outbids it, with its own id as tie-break.
impl Label for Tag {
    const WRITE_QUERIES: bool = true;

    fn initial() -> Self {
        Tag::initial()
    }

    fn next(self, me: ProcessId) -> Self {
        Tag::next(self, me)
    }
}

/// Wire message of the MWMR protocol.
pub type MwmrMsg<V> = RegisterMsg<Tag, V>;

/// Configuration of one MWMR node.
pub type MwmrConfig = RegisterConfig<Tag>;

impl MwmrConfig {
    /// Majority quorums, write-back on, no retransmission; every node is
    /// its own writer.
    pub fn new(n: usize, me: ProcessId) -> Self {
        Self::base(n, me, me)
    }
}

/// One processor of the MWMR emulation. Every processor may read and write.
///
/// # Examples
///
/// ```
/// use abd_core::context::{Effects, Protocol};
/// use abd_core::msg::{RegisterOp, RegisterResp};
/// use abd_core::mwmr::{MwmrConfig, MwmrNode};
/// use abd_core::types::{OpId, ProcessId};
///
/// // n = 1: the node is its own quorum, operations complete locally.
/// let mut node = MwmrNode::new(MwmrConfig::new(1, ProcessId(0)), String::new());
/// let mut fx = Effects::new();
/// node.on_invoke(OpId(0), RegisterOp::Write("hi".to_string()), &mut fx);
/// node.on_invoke(OpId(1), RegisterOp::Read, &mut fx);
/// assert_eq!(fx.responses[1].1, RegisterResp::ReadOk("hi".to_string()));
/// ```
pub type MwmrNode<V> = RegisterNode<Tag, V>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Effects, Protocol, ReadPathStats};
    use crate::msg::{RegisterOp, RegisterResp};
    use crate::testutil::MiniNet;
    use crate::types::{Consistency, OpId, ReadMode};

    fn cluster(n: usize) -> MiniNet<MwmrNode<u32>> {
        let nodes = (0..n)
            .map(|i| MwmrNode::new(MwmrConfig::new(n, ProcessId(i)), 0u32))
            .collect();
        MiniNet::new(nodes)
    }

    #[test]
    fn any_node_can_write() {
        let mut net = cluster(3);
        for writer in 0..3 {
            net.invoke(writer, RegisterOp::Write(writer as u32 + 10));
            net.run_to_quiescence();
        }
        let resp = net.take_responses();
        assert!(resp.iter().all(|(_, r)| *r == RegisterResp::WriteOk));
        net.invoke(0, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(net.take_responses()[0].1, RegisterResp::ReadOk(12));
    }

    #[test]
    fn sequential_writes_get_increasing_tags() {
        let mut net = cluster(3);
        net.invoke(1, RegisterOp::Write(1));
        net.run_to_quiescence();
        let t1 = net.node(1).replica_state().0;
        net.invoke(2, RegisterOp::Write(2));
        net.run_to_quiescence();
        let t2 = net.node(2).replica_state().0;
        assert!(t2 > t1, "{t2:?} must exceed {t1:?}");
        assert_eq!(t1, Tag::new(1, ProcessId(1)));
        assert_eq!(t2, Tag::new(2, ProcessId(2)));
    }

    #[test]
    fn concurrent_writers_produce_distinct_tags() {
        let mut net = cluster(5);
        // Both writers pass their query phase before either update lands.
        net.invoke(1, RegisterOp::Write(100));
        net.invoke(2, RegisterOp::Write(200));
        net.run_to_quiescence();
        let resp = net.take_responses();
        assert_eq!(resp.len(), 2);
        // Tags differ at least in the writer component; all replicas agree
        // on the winner.
        let winner = net.node(0).replica_state();
        for i in 1..5 {
            assert_eq!(net.node(i).replica_state(), winner);
        }
        assert!(winner.0.writer == ProcessId(1) || winner.0.writer == ProcessId(2));
    }

    #[test]
    fn write_costs_two_round_trips() {
        let mut net = cluster(5);
        net.invoke(3, RegisterOp::Write(7));
        net.run_to_quiescence();
        // query + replies + update + acks = 4(n-1).
        assert_eq!(net.messages_sent(), 4 * (5 - 1));
    }

    #[test]
    fn read_costs_two_round_trips() {
        let mut net = cluster(5);
        net.invoke(3, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(net.messages_sent(), 4 * (5 - 1));
        assert_eq!(net.take_responses()[0].1, RegisterResp::ReadOk(0));
    }

    #[test]
    fn sequential_read_is_local_and_free() {
        let mut net = cluster(5);
        net.invoke(1, RegisterOp::Write(7));
        net.run_to_quiescence();
        net.take_responses();
        let before = net.messages_sent();
        net.invoke(3, RegisterOp::ReadAt(Consistency::Sequential));
        net.run_to_quiescence();
        assert_eq!(net.messages_sent() - before, 0, "SC read sends nothing");
        assert_eq!(net.take_responses()[0].1, RegisterResp::ReadOk(7));
        assert_eq!(net.node(3).counters().sc_reads, 1);
        assert_eq!(net.node(3).counters().write_backs, 0);
    }

    #[test]
    fn regular_tier_read_skips_write_back() {
        let mut net = cluster(5);
        net.invoke(2, RegisterOp::Write(4));
        net.run_to_quiescence();
        net.take_responses();
        let before = net.messages_sent();
        net.invoke(3, RegisterOp::ReadAt(Consistency::Regular));
        net.run_to_quiescence();
        // Query + replies only = 2(n-1); no write-back round.
        assert_eq!(net.messages_sent() - before, 2 * (5 - 1));
        assert_eq!(net.take_responses()[0].1, RegisterResp::ReadOk(4));
        assert_eq!(net.node(3).counters().regular_reads, 1);
        assert_eq!(net.node(3).counters().write_backs, 0);
    }

    #[test]
    fn tolerates_minority_crashes() {
        let mut net = cluster(5);
        net.crash(0);
        net.crash(4);
        net.invoke(2, RegisterOp::Write(9));
        net.run_to_quiescence();
        assert_eq!(net.take_responses(), vec![(OpId(0), RegisterResp::WriteOk)]);
        net.invoke(1, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(net.take_responses()[0].1, RegisterResp::ReadOk(9));
    }

    #[test]
    fn blocks_under_majority_crashes() {
        let mut net = cluster(4);
        net.crash(2);
        net.crash(3);
        net.invoke(0, RegisterOp::Write(1));
        net.run_to_quiescence();
        assert!(net.take_responses().is_empty());
        assert!(net.node(0).is_busy());
    }

    #[test]
    fn writer_query_prevents_lost_update() {
        // Writer 2 must observe writer 1's completed write in its query
        // phase and pick a strictly larger tag.
        let mut net = cluster(3);
        net.invoke(1, RegisterOp::Write(100));
        net.run_to_quiescence();
        net.invoke(2, RegisterOp::Write(200));
        net.run_to_quiescence();
        net.take_responses();
        net.invoke(0, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(net.take_responses()[0].1, RegisterResp::ReadOk(200));
    }

    #[test]
    fn stale_messages_ignored() {
        let mut node = MwmrNode::new(MwmrConfig::new(3, ProcessId(0)), 0u32);
        let mut fx = Effects::new();
        node.on_message(
            ProcessId(1),
            RegisterMsg::QueryReply {
                uid: 42,
                label: Tag::new(9, ProcessId(1)),
                value: 5,
            },
            &mut fx,
        );
        node.on_message(ProcessId(1), RegisterMsg::UpdateAck { uid: 42 }, &mut fx);
        assert!(fx.is_empty());
        assert_eq!(node.replica_state().0, Tag::initial());
    }

    #[test]
    fn restart_catches_up_and_keeps_tags_monotone() {
        let mut net = cluster(3);
        net.invoke(1, RegisterOp::Write(100));
        net.run_to_quiescence();
        net.crash(2);
        net.invoke(1, RegisterOp::Write(200));
        net.run_to_quiescence();
        net.take_responses();
        net.restart(2);
        assert!(net.node(2).is_recovering());
        net.run_to_quiescence();
        assert!(!net.node(2).is_recovering());
        assert_eq!(net.node(2).replica_state().1, 200, "caught up");
        // A post-restart write from the rejoined node dominates.
        net.invoke(2, RegisterOp::Write(300));
        net.run_to_quiescence();
        net.invoke(0, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses().last().unwrap().1,
            RegisterResp::ReadOk(300)
        );
    }

    fn fast_cluster(n: usize) -> MiniNet<MwmrNode<u32>> {
        let nodes = (0..n)
            .map(|i| {
                let cfg = MwmrConfig::new(n, ProcessId(i)).with_read_mode(ReadMode::FastUnanimous);
                MwmrNode::new(cfg, 0u32)
            })
            .collect();
        MiniNet::new(nodes)
    }

    #[test]
    fn uncontended_fast_read_costs_one_round_trip() {
        let mut net = fast_cluster(5);
        net.invoke(1, RegisterOp::Write(8));
        net.run_to_quiescence();
        net.take_responses();
        let before = net.messages_sent();
        net.invoke(3, RegisterOp::Read);
        net.run_to_quiescence();
        // Unanimous quorum: query + replies only = 2(n-1).
        assert_eq!(net.messages_sent() - before, 2 * (5 - 1));
        assert_eq!(net.take_responses()[0].1, RegisterResp::ReadOk(8));
        assert_eq!(net.node(3).counters().fast_reads, 1);
        assert_eq!(net.node(3).counters().write_backs, 0);
        // Writes keep their two phases even with the flag on.
        let before = net.messages_sent();
        net.invoke(2, RegisterOp::Write(9));
        net.run_to_quiescence();
        assert_eq!(net.messages_sent() - before, 4 * (5 - 1));
    }

    #[test]
    fn disagreeing_quorum_forces_mwmr_slow_path() {
        let mut net = fast_cluster(5);
        // Confine the write's update phase to {1,2,3} (writer 1 plus two).
        net.set_drop_filter(|_, to, m: &MwmrMsg<u32>| {
            matches!(m, RegisterMsg::Update { .. }) && to.index() != 2 && to.index() != 3
        });
        net.invoke(1, RegisterOp::Write(5));
        net.run_to_quiescence();
        net.take_responses();
        net.clear_drop_filter();
        // Stale reader 0's quorum mixes fresh and stale tags.
        net.invoke(0, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(net.take_responses()[0].1, RegisterResp::ReadOk(5));
        assert_eq!(
            net.node(0).counters().fast_reads,
            0,
            "disagreement must not elide"
        );
        assert_eq!(net.node(0).counters().write_backs, 1);
    }

    fn relay_cluster(n: usize) -> MiniNet<MwmrNode<u32>> {
        let nodes = (0..n)
            .map(|i| {
                MwmrNode::new(
                    MwmrConfig::new(n, ProcessId(i)).with_read_mode(ReadMode::Relay),
                    0u32,
                )
            })
            .collect();
        MiniNet::new(nodes)
    }

    #[test]
    fn relay_read_returns_latest_write_across_writers() {
        let mut net = relay_cluster(5);
        net.invoke(1, RegisterOp::Write(10));
        net.run_to_quiescence();
        net.invoke(2, RegisterOp::Write(20));
        net.run_to_quiescence();
        net.take_responses();
        net.invoke(4, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses(),
            vec![(OpId(2), RegisterResp::ReadOk(20))]
        );
        assert_eq!(net.node(4).counters().relay_reads, 1);
        assert_eq!(net.node(4).counters().write_backs, 0);
    }

    #[test]
    fn relay_read_costs_n_squared_minus_one_messages() {
        let mut net = relay_cluster(5);
        net.invoke(3, RegisterOp::Read);
        net.run_to_quiescence();
        // query (n-1) + forwards (n-1)² + replies (n-1) = n² - 1.
        assert_eq!(net.messages_sent(), 5 * 5 - 1);
        assert_eq!(net.take_responses()[0].1, RegisterResp::ReadOk(0));
    }

    #[test]
    fn relay_read_spreads_a_partially_propagated_write() {
        let mut net = relay_cluster(5);
        // Writer 1's update reaches only {1,2} plus its query round;
        // replicas 3 and 4 stay stale.
        net.set_drop_filter(|_, to, m: &MwmrMsg<u32>| {
            matches!(m, RegisterMsg::Update { .. }) && to.index() >= 3
        });
        net.invoke(1, RegisterOp::Write(7));
        net.run_to_quiescence();
        net.take_responses();
        net.clear_drop_filter();
        // A stale node's relay read must still return the completed write.
        net.invoke(4, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(net.take_responses()[0].1, RegisterResp::ReadOk(7));
    }

    #[test]
    fn relay_read_completes_with_minority_crashed() {
        let mut net = relay_cluster(5);
        net.invoke(1, RegisterOp::Write(3));
        net.run_to_quiescence();
        net.take_responses();
        net.crash(0);
        net.crash(2);
        net.invoke(3, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(net.take_responses()[0].1, RegisterResp::ReadOk(3));
    }

    #[test]
    fn retransmission_recovers_lost_update_phase() {
        let nodes: Vec<MwmrNode<u32>> = (0..3)
            .map(|i| MwmrNode::new(MwmrConfig::new(3, ProcessId(i)).with_retransmit(500), 0))
            .collect();
        let mut net = MiniNet::new(nodes);
        // Lose each (from, to, is_update) combination once.
        net.set_drop_filter({
            let mut seen = std::collections::BTreeSet::new();
            move |from, to, m: &MwmrMsg<u32>| {
                matches!(m, RegisterMsg::Update { .. }) && seen.insert((from, to))
            }
        });
        net.invoke(0, RegisterOp::Write(77));
        net.run_to_quiescence();
        assert!(net.take_responses().is_empty());
        net.fire_timers(0);
        net.run_to_quiescence();
        assert_eq!(net.take_responses(), vec![(OpId(0), RegisterResp::WriteOk)]);
    }
}
