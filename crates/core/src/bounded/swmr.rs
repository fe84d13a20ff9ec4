//! The bounded-timestamp single-writer emulation.
//!
//! The protocol *is* the unbounded one — [`RegisterNode`] over the
//! quorum-operation engine ([`crate::engine`]): write = update round, read =
//! query round + write-back round, the same catch-up, queue, tiers and
//! retransmission — instantiated at a store whose labels are
//! [`SerialLabel`]s of `log2(modulus)` bits instead of growing integers.
//! Bounding the label space changes how labels are issued, compared and
//! folded, nothing else, and those three are the store's
//! ([`BoundedReplica`]): the writer's next label is the successor on the
//! cycle, a pair is adopted when it is newer *through the window*, and a
//! read quorum folds to its windowed maximum ([`Windowed`]).
//!
//! ## Soundness window
//!
//! Serial labels compare correctly only when the two labels were issued
//! within the comparison window ([`LabelSpace::new`]) of each other. Every
//! comparison therefore *checks* `LabelSpace::comparable` first and counts
//! failures in [`window_violations`](BoundedSwmrNode::window_violations) — a
//! nonzero count means the network violated the bounded-staleness assumption
//! (a message survived more than `window` subsequent writes) and the run
//! must be discarded. The deterministic simulator's bounded-delay mode keeps
//! the assumption true by construction; experiments report the counter
//! alongside their results. See [`crate::bounded`] for how this relates to the
//! paper's fully-asynchronous handshake construction.
//!
//! [`BoundedSwmrConfig`] has no read mode: reads take two rounds. The
//! unanimity fast path would trust that equal labels mean equal writes,
//! which a lapped label breaks; relay reads need a total order for their
//! minimum-of-maxima, which the cycle lacks. The weaker tiers are sound as
//! they stand: a `Regular` read adopts the windowed maximum, a `Sequential`
//! read returns a replica only updates and folded reads ever moved
//! (DESIGN.md §13).

use crate::bounded::label::{LabelSpace, SerialLabel};
use crate::engine::Store;
use crate::msg::{RegisterMsg, RegisterResp};
use crate::phase::Fold;
use crate::quorum::{Majority, QuorumSystem};
use crate::register::{RegisterConfig, RegisterNode};
use crate::retransmit::BackoffPolicy;
use crate::types::{Nanos, ProcessId};
use std::sync::Arc;

/// Wire message of the bounded SWMR protocol.
pub type BoundedSwmrMsg<V> = RegisterMsg<SerialLabel, V>;

/// Configuration of one bounded SWMR node.
#[derive(Clone, Debug)]
pub struct BoundedSwmrConfig {
    /// Cluster size.
    pub n: usize,
    /// This node's id.
    pub me: ProcessId,
    /// The designated writer.
    pub writer: ProcessId,
    /// The finite label cycle.
    pub space: LabelSpace,
    /// Retransmission policy (`None` = reliable links).
    pub retransmit: Option<BackoffPolicy>,
}

impl BoundedSwmrConfig {
    /// A label cycle of `max(64, 16 * n)` values — comfortably larger than
    /// the staleness any quorum-synchronized run exhibits, while staying a
    /// few bits wide. Both phases use majorities of `n`.
    pub fn new(n: usize, me: ProcessId, writer: ProcessId) -> Self {
        BoundedSwmrConfig {
            n,
            me,
            writer,
            space: LabelSpace::new((16 * n as u32).max(64)),
            retransmit: None,
        }
    }

    /// Replaces the label space (e.g. to stress small moduli in tests).
    pub fn with_space(mut self, space: LabelSpace) -> Self {
        self.space = space;
        self
    }

    /// Enables adaptive retransmission for lossy links (exponential
    /// backoff from `every`, capped, jittered; see [`BackoffPolicy::new`]).
    pub fn with_retransmit(mut self, every: Nanos) -> Self {
        self.retransmit = Some(BackoffPolicy::new(every));
        self
    }
}

/// A `(label, value)` pair that moves only forward *through the window*: an
/// offered pair replaces it when its label is newer within the comparison
/// window ([`LabelSpace::new`]), and an offer whose label is not comparable
/// with the held one is counted, not guessed at. The replica's stored pair is
/// one, and so is the [`Fold`] of a read quorum's replies.
#[derive(Clone, Debug)]
pub struct Windowed<V> {
    space: LabelSpace,
    label: SerialLabel,
    value: V,
    /// Offers that fell outside the window.
    escapes: u64,
}

impl<V> Fold<SerialLabel, V> for Windowed<V> {
    fn observe(&mut self, label: SerialLabel, value: V) {
        if !self.space.comparable(label, self.label) {
            self.escapes += 1;
        } else if self.space.newer(label, self.label) {
            self.label = label;
            self.value = value;
        }
    }
}

/// The bounded replica — the engine's store: the windowed pair, which also
/// carries the violation count, and the writer's issue count. All of it
/// stable storage.
#[derive(Clone, Debug)]
pub struct BoundedReplica<V> {
    pair: Windowed<V>,
    labels_issued: u64,
}

impl<V: Clone> Store<(), SerialLabel, V, V> for BoundedReplica<V> {
    type Msg = BoundedSwmrMsg<V>;
    type Resp = RegisterResp<V>;
    type Fold = Windowed<V>;
    /// One writer: its own label is the newest there is.
    const WRITE_QUERIES: bool = false;

    fn snapshot(&self, _: &()) -> (SerialLabel, V) {
        (self.pair.label, self.pair.value.clone())
    }

    fn adopt(&mut self, _: &(), label: SerialLabel, value: V) {
        self.pair.observe(label, value);
    }

    fn fold(&self, _: &()) -> Windowed<V> {
        let mut fold = self.pair.clone();
        fold.escapes = 0;
        fold
    }

    /// The windowed maximum; what the fold could not compare is added to
    /// the persisted count.
    fn choose(&mut self, fold: Windowed<V>) -> (SerialLabel, V) {
        self.pair.escapes += fold.escapes;
        (fold.label, fold.value)
    }

    /// The successor of the writer's stored label, newer by construction.
    fn issue(&mut self, _: &(), seen: SerialLabel, _: ProcessId) -> SerialLabel {
        self.labels_issued += 1;
        self.pair.space.successor(seen)
    }
}

/// One processor of the bounded single-writer emulation.
///
/// # Examples
///
/// ```
/// use abd_core::bounded::{BoundedSwmrConfig, BoundedSwmrNode};
/// use abd_core::context::{Effects, Protocol};
/// use abd_core::msg::{RegisterOp, RegisterResp};
/// use abd_core::types::{OpId, ProcessId};
///
/// let mut node =
///     BoundedSwmrNode::new(BoundedSwmrConfig::new(1, ProcessId(0), ProcessId(0)), 0u8);
/// let mut fx = Effects::new();
/// node.on_invoke(OpId(0), RegisterOp::Write(3), &mut fx);
/// node.on_invoke(OpId(1), RegisterOp::Read, &mut fx);
/// assert_eq!(fx.responses[1].1, RegisterResp::ReadOk(3));
/// assert_eq!(node.window_violations(), 0);
/// ```
pub type BoundedSwmrNode<V> = RegisterNode<SerialLabel, V, BoundedReplica<V>, Windowed<V>>;

impl<V: Clone + std::fmt::Debug + Send + 'static> BoundedSwmrNode<V> {
    /// Creates a node holding `initial` under the origin label.
    pub fn new(cfg: BoundedSwmrConfig, initial: V) -> Self {
        let majority = Arc::new(Majority::new(cfg.n));
        Self::with_quorum(cfg, majority, initial)
    }

    /// [`BoundedSwmrNode::new`] over another quorum system.
    fn with_quorum(cfg: BoundedSwmrConfig, quorum: Arc<dyn QuorumSystem>, initial: V) -> Self {
        let mut base = RegisterConfig::base(cfg.n, cfg.me, cfg.writer).with_quorum(quorum);
        base.retransmit = cfg.retransmit;
        let pair = Windowed {
            space: cfg.space,
            label: cfg.space.origin(),
            value: initial,
            escapes: 0,
        };
        let store = BoundedReplica {
            pair,
            labels_issued: 0,
        };
        Self::over(base, store)
    }

    /// How many labels the writer has issued (host-side metric; never on
    /// the wire).
    pub fn labels_issued(&self) -> u64 {
        self.store().labels_issued
    }

    /// How many label comparisons fell outside the soundness window.
    /// Nonzero means the bounded-staleness assumption was violated and the
    /// run's results must be discarded.
    pub fn window_violations(&self) -> u64 {
        self.store().pair.escapes
    }

    /// Bits per label on the wire — constant for the whole execution.
    pub fn label_bits(&self) -> u32 {
        self.store().pair.space.label_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Effects, Protocol};
    use crate::msg::RegisterOp;
    use crate::testutil::{
        instant_write_quorum_keeps_draining, interrupted_write_is_answered_before_a_later_one,
        lost_catch_up_is_retransmitted_to_the_missing_only,
        read_at_the_restart_instant_is_answered_before_the_catch_up, MiniNet,
    };

    fn cluster(n: usize, modulus: u32) -> MiniNet<BoundedSwmrNode<u32>> {
        let nodes = (0..n)
            .map(|i| {
                let cfg = BoundedSwmrConfig::new(n, ProcessId(i), ProcessId(0))
                    .with_space(LabelSpace::new(modulus));
                BoundedSwmrNode::new(cfg, 0u32)
            })
            .collect();
        MiniNet::new(nodes)
    }

    #[test]
    fn basic_write_read() {
        let mut net = cluster(3, 64);
        net.invoke(0, RegisterOp::Write(5));
        net.run_to_quiescence();
        net.invoke(2, RegisterOp::Read);
        net.run_to_quiescence();
        let r = net.take_responses();
        assert_eq!(r[1].1, RegisterResp::ReadOk(5));
        for i in 0..3 {
            assert_eq!(net.node(i).window_violations(), 0);
        }
    }

    #[test]
    fn labels_wrap_without_violations_under_synchrony() {
        // 200 writes on a cycle of 16 labels: the writer laps the cycle a
        // dozen times, yet with prompt delivery no comparison ever escapes
        // the window.
        let mut net = cluster(3, 16);
        for v in 0..200u32 {
            net.invoke(0, RegisterOp::Write(v));
            net.run_to_quiescence();
        }
        net.invoke(1, RegisterOp::Read);
        net.run_to_quiescence();
        let r = net.take_responses();
        assert_eq!(r.last().unwrap().1, RegisterResp::ReadOk(199));
        for i in 0..3 {
            assert_eq!(net.node(i).window_violations(), 0, "node {i}");
        }
        assert_eq!(net.node(0).labels_issued(), 200);
        // Metadata stayed at log2(16) = 4 bits per label throughout.
        assert_eq!(net.node(0).label_bits(), 4);
    }

    #[test]
    fn stale_message_beyond_window_is_detected_not_adopted() {
        let space = LabelSpace::new(16); // window 7
        let cfg = BoundedSwmrConfig::new(3, ProcessId(1), ProcessId(0)).with_space(space);
        let mut node = BoundedSwmrNode::new(cfg, 0u32);
        // Fast-forward the replica to label 10 via in-window updates.
        let mut fx = Effects::new();
        let mut l = space.origin();
        for step in 1..=10u32 {
            l = space.successor(l);
            node.on_message(
                ProcessId(0),
                RegisterMsg::Update {
                    uid: u64::from(step),
                    key: (),
                    label: l,
                    value: step,
                },
                &mut fx,
            );
        }
        assert_eq!(node.replica_state().0.raw(), 10);
        assert_eq!(node.window_violations(), 0);
        // A zombie update with the origin label: forward distance 10 → 0 is
        // 6 (within window 7 going forward? distance from stored 10 to 0 is
        // (0 - 10) mod 16 = 6 ≤ 7, so it is *ambiguous-new*!). Use label 2
        // instead: distance (2 - 10) mod 16 = 8, outside both windows.
        let zombie = {
            let mut z = space.origin();
            z = space.successor(z); // 1
            space.successor(z) // 2
        };
        node.on_message(
            ProcessId(2),
            RegisterMsg::Update {
                uid: 99,
                key: (),
                label: zombie,
                value: 777,
            },
            &mut fx,
        );
        assert_eq!(node.window_violations(), 1, "escape must be counted");
        assert_eq!(node.replica_state(), (l, 10), "zombie must not be adopted");
    }

    #[test]
    fn tolerates_minority_crash() {
        let mut net = cluster(5, 64);
        net.crash(3);
        net.crash(4);
        net.invoke(0, RegisterOp::Write(8));
        net.run_to_quiescence();
        net.invoke(1, RegisterOp::Read);
        net.run_to_quiescence();
        let r = net.take_responses();
        assert_eq!(r[1].1, RegisterResp::ReadOk(8));
    }

    #[test]
    fn non_writer_rejected() {
        let mut net = cluster(3, 64);
        net.invoke(2, RegisterOp::Write(1));
        net.run_to_quiescence();
        assert!(matches!(net.take_responses()[0].1, RegisterResp::Err(_)));
    }

    #[test]
    fn restart_catches_up_within_the_window() {
        let mut net = cluster(3, 16);
        net.invoke(0, RegisterOp::Write(7));
        net.run_to_quiescence();
        net.crash(2);
        // A few more writes while node 2 is down — stays inside the window.
        for v in 8..11u32 {
            net.invoke(0, RegisterOp::Write(v));
            net.run_to_quiescence();
        }
        net.restart(2);
        net.run_to_quiescence();
        assert!(!net.node(2).is_recovering());
        assert_eq!(net.node(2).replica_state().1, 10);
        assert_eq!(net.node(2).window_violations(), 0);
        // The recovered replica serves reads normally.
        net.invoke(2, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses().last().unwrap().1,
            RegisterResp::ReadOk(10)
        );
    }

    #[test]
    fn message_complexity_matches_unbounded_protocol() {
        let mut net = cluster(5, 64);
        net.invoke(0, RegisterOp::Write(1));
        net.run_to_quiescence();
        assert_eq!(net.messages_sent(), 2 * 4, "write: one round");
        net.invoke(2, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(net.messages_sent(), 2 * 4 + 4 * 4, "read: two rounds");
    }

    #[test]
    fn instant_write_quorum_keeps_draining_the_queue() {
        let net = instant_write_quorum_keeps_draining(|i, quorum| {
            let cfg = BoundedSwmrConfig::new(3, ProcessId(i), ProcessId(0));
            BoundedSwmrNode::with_quorum(cfg, quorum, 0u32)
        });
        assert!(!net.node(0).is_busy());
        assert_eq!(net.node(0).labels_issued(), 1);
    }

    #[test]
    fn lost_catch_up_is_retransmitted_to_the_missing_only_here_too() {
        let net = lost_catch_up_is_retransmitted_to_the_missing_only(|i| {
            let cfg = BoundedSwmrConfig::new(5, ProcessId(i), ProcessId(0)).with_retransmit(1_000);
            BoundedSwmrNode::new(cfg, 0u32)
        });
        assert!(!net.node(2).is_recovering());
        assert_eq!(net.node(2).window_violations(), 0);
    }

    #[test]
    fn read_at_the_restart_instant_is_answered_before_the_catch_up_in_every_tier() {
        // Two rounds only: `BoundedSwmrConfig` has no read mode.
        read_at_the_restart_instant_is_answered_before_the_catch_up(
            |i| BoundedSwmrNode::new(BoundedSwmrConfig::new(5, ProcessId(i), ProcessId(0)), 0u32),
            BoundedSwmrNode::is_recovering,
        );
    }

    #[test]
    fn interrupted_write_is_answered_before_a_later_one_here_too() {
        interrupted_write_is_answered_before_a_later_one(|i| {
            BoundedSwmrNode::new(BoundedSwmrConfig::new(5, ProcessId(i), ProcessId(0)), 0u32)
        });
    }
}
