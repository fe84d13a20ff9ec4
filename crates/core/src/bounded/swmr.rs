//! The bounded-timestamp single-writer emulation.
//!
//! Structurally identical to the unbounded protocol in [`crate::swmr`] —
//! write = update round, read = query round + write-back round — but every
//! label on the wire and in a replica is a [`SerialLabel`] of
//! `log2(modulus)` bits instead of a growing integer.
//!
//! ## Soundness window
//!
//! Serial labels compare correctly only when the two labels were issued
//! within [`LabelSpace::window`] writes of each other. The protocol
//! therefore *checks* [`LabelSpace::comparable`] before every comparison
//! and counts failures in
//! [`window_violations`](BoundedSwmrNode::window_violations) — a nonzero
//! count means the network violated the bounded-staleness assumption (a
//! message survived more than `window` subsequent writes) and the run must
//! be discarded. The deterministic simulator's bounded-delay mode keeps the
//! assumption true by construction; experiments report the counter alongside
//! their results. See [`crate::bounded`] for how this relates to the
//! paper's fully-asynchronous handshake construction.

// The declared phase graph (see the `phase-graph` lint rule) — the same
// shape as the unbounded SWMR protocol: bounding the label space changes
// comparisons, not phase structure.
// abd-lint: phase-spec(bounded-swmr):
//   Invoke -> Query, Invoke -> Write, Invoke -> WriteBack, Invoke -> Done,
//   Query -> WriteBack, Query -> Done,
//   Write -> Done, WriteBack -> Done,
//   Restart -> Recovery, Recovery -> Idle

use crate::bounded::label::{LabelSpace, SerialLabel};
use crate::context::{Effects, Protocol, TimerKey};
use crate::msg::{RegisterMsg, RegisterOp, RegisterResp};
use crate::phase::PhaseTracker;
use crate::quorum::{Majority, QuorumSystem};
use crate::retransmit::{BackoffPolicy, Retransmitter};
use crate::types::{Nanos, OpId, ProcessId, RegisterError};
use std::collections::VecDeque;
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
    /// Quorum system for both phases.
    pub quorum: Arc<dyn QuorumSystem>,
    /// The finite label cycle.
    pub space: LabelSpace,
    /// Retransmission policy (`None` = reliable links).
    pub retransmit: Option<BackoffPolicy>,
}

impl BoundedSwmrConfig {
    /// Majority quorums and a label cycle of `max(64, 16 * n)` values —
    /// comfortably larger than the staleness any quorum-synchronized run
    /// exhibits, while staying a few bits wide.
    pub fn new(n: usize, me: ProcessId, writer: ProcessId) -> Self {
        BoundedSwmrConfig {
            n,
            me,
            writer,
            quorum: Arc::new(Majority::new(n)),
            space: LabelSpace::new((16 * n as u32).max(64)),
            retransmit: None,
        }
    }

    /// Replaces the label space (e.g. to stress small moduli in tests).
    pub fn with_space(mut self, space: LabelSpace) -> Self {
        self.space = space;
        self
    }

    /// Replaces the quorum system.
    pub fn with_quorum(mut self, q: Arc<dyn QuorumSystem>) -> Self {
        self.quorum = q;
        self
    }

    /// Enables adaptive retransmission for lossy links (exponential
    /// backoff from `every`, capped, jittered; see [`BackoffPolicy::new`]).
    pub fn with_retransmit(mut self, every: Nanos) -> Self {
        self.retransmit = Some(BackoffPolicy::new(every));
        self
    }

    /// Sets an explicit retransmission policy.
    pub fn with_backoff(mut self, policy: BackoffPolicy) -> Self {
        self.retransmit = Some(policy);
        self
    }
}

#[derive(Clone, Debug)]
enum Pending<V> {
    Write {
        op: OpId,
        ph: PhaseTracker,
        label: SerialLabel,
        value: V,
    },
    Query {
        op: OpId,
        ph: PhaseTracker,
        best_label: SerialLabel,
        best_value: V,
    },
    WriteBack {
        op: OpId,
        ph: PhaseTracker,
        label: SerialLabel,
        value: V,
    },
}

impl<V> Pending<V> {
    fn phase(&self) -> &PhaseTracker {
        match self {
            Pending::Write { ph, .. }
            | Pending::Query { ph, .. }
            | Pending::WriteBack { ph, .. } => ph,
        }
    }
}

/// Post-restart catch-up query phase (stable-storage model; see
/// [`crate::register`] module docs).
#[derive(Clone, Debug)]
struct Recovery<V> {
    ph: PhaseTracker,
    best_label: SerialLabel,
    best_value: V,
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
#[derive(Clone, Debug)]
pub struct BoundedSwmrNode<V> {
    cfg: BoundedSwmrConfig,
    stored_label: SerialLabel,
    stored_value: V,
    next_uid: u64,
    pending: Option<Pending<V>>,
    queue: VecDeque<(OpId, RegisterOp<V>)>,
    labels_issued: u64,
    window_violations: u64,
    rtx: Retransmitter,
    recovering: Option<Recovery<V>>,
}

impl<V: Clone + std::fmt::Debug + Send + 'static> BoundedSwmrNode<V> {
    /// Creates a node holding `initial` under the origin label.
    pub fn new(cfg: BoundedSwmrConfig, initial: V) -> Self {
        assert!(cfg.me.index() < cfg.n, "node id out of range");
        assert!(cfg.writer.index() < cfg.n, "writer id out of range");
        assert_eq!(
            cfg.quorum.n(),
            cfg.n,
            "quorum system sized for a different cluster"
        );
        let origin = cfg.space.origin();
        let rtx = Retransmitter::new(cfg.retransmit, cfg.me);
        BoundedSwmrNode {
            cfg,
            stored_label: origin,
            stored_value: initial,
            next_uid: 0,
            pending: None,
            queue: VecDeque::new(),
            labels_issued: 0,
            window_violations: 0,
            rtx,
            recovering: None,
        }
    }

    /// Current replica state `(label, value)`.
    pub fn replica_state(&self) -> (SerialLabel, V) {
        (self.stored_label, self.stored_value.clone())
    }

    /// How many labels the writer has issued (host-side metric; never on
    /// the wire).
    pub fn labels_issued(&self) -> u64 {
        self.labels_issued
    }

    /// How many label comparisons fell outside the soundness window.
    /// Nonzero means the bounded-staleness assumption was violated and the
    /// run's results must be discarded.
    pub fn window_violations(&self) -> u64 {
        self.window_violations
    }

    /// Bits per label on the wire — constant for the whole execution.
    pub fn label_bits(&self) -> u32 {
        self.cfg.space.label_bits()
    }

    /// Whether an operation is in flight.
    pub fn is_busy(&self) -> bool {
        self.pending.is_some()
    }

    /// Whether the node is catching up after a restart.
    pub fn is_recovering(&self) -> bool {
        self.recovering.is_some()
    }

    /// Messages this node has retransmitted over its lifetime.
    pub fn retransmissions(&self) -> u64 {
        self.rtx.retransmissions()
    }

    fn fresh_uid(&mut self) -> u64 {
        self.next_uid += 1;
        self.next_uid
    }

    fn broadcast(
        &self,
        msg: BoundedSwmrMsg<V>,
        fx: &mut Effects<BoundedSwmrMsg<V>, RegisterResp<V>>,
    ) {
        for i in 0..self.cfg.n {
            let p = ProcessId(i);
            if p != self.cfg.me {
                fx.send(p, msg.clone());
            }
        }
    }

    fn arm_timer(&mut self, uid: u64, fx: &mut Effects<BoundedSwmrMsg<V>, RegisterResp<V>>) {
        self.rtx.arm(uid, fx);
    }

    /// Completes the post-restart catch-up (adopt obeys the comparability
    /// window, counting violations exactly like any other adoption).
    fn finish_recovery(
        &mut self,
        label: SerialLabel,
        value: V,
        fx: &mut Effects<BoundedSwmrMsg<V>, RegisterResp<V>>,
    ) {
        self.recovering = None;
        // The writer needs no extra sequence catch-up: it issues labels as
        // successors of its stored label, which persisted across the crash
        // and (being part of the query quorum) dominates all issued labels.
        self.adopt(label, value);
        if self.pending.is_none() {
            if let Some((next_op, next_input)) = self.queue.pop_front() {
                self.begin(next_op, next_input, fx);
            }
        }
    }

    /// Adopts `(label, value)` if it is newer than the stored pair; counts a
    /// window violation (and rejects) when the labels are not comparable.
    fn adopt(&mut self, label: SerialLabel, value: V) {
        if !self.cfg.space.comparable(label, self.stored_label) {
            self.window_violations += 1;
            return;
        }
        if self.cfg.space.newer(label, self.stored_label) {
            self.stored_label = label;
            self.stored_value = value;
        }
    }

    fn finish(
        &mut self,
        op: OpId,
        resp: RegisterResp<V>,
        fx: &mut Effects<BoundedSwmrMsg<V>, RegisterResp<V>>,
    ) {
        self.pending = None;
        fx.respond(op, resp);
        if let Some((next_op, next_input)) = self.queue.pop_front() {
            self.begin(next_op, next_input, fx);
        }
    }

    fn begin(
        &mut self,
        op: OpId,
        input: RegisterOp<V>,
        fx: &mut Effects<BoundedSwmrMsg<V>, RegisterResp<V>>,
    ) {
        debug_assert!(self.pending.is_none());
        match input {
            RegisterOp::Write(v) => {
                if self.cfg.me != self.cfg.writer {
                    fx.respond(
                        op,
                        RegisterResp::Err(RegisterError::NotWriter {
                            invoked_on: self.cfg.me,
                            writer: self.cfg.writer,
                        }),
                    );
                    if self.pending.is_none() {
                        if let Some((next_op, next_input)) = self.queue.pop_front() {
                            self.begin(next_op, next_input, fx);
                        }
                    }
                    return;
                }
                let label = self.cfg.space.successor(self.stored_label);
                self.labels_issued += 1;
                // abd-lint: allow(tag-monotonicity): `label` is `successor(stored_label)`, strictly newer by construction of the serial label space — there is no incoming value to compare against.
                self.stored_label = label;
                self.stored_value = v.clone();
                let uid = self.fresh_uid();
                let ph = PhaseTracker::new(uid, self.cfg.n, self.cfg.me);
                if self.cfg.quorum.is_write_quorum(ph.responders()) {
                    self.finish(op, RegisterResp::WriteOk, fx);
                    return;
                }
                self.pending = Some(Pending::Write {
                    op,
                    ph,
                    label,
                    value: v.clone(),
                });
                self.broadcast(
                    RegisterMsg::Update {
                        uid,
                        key: (),
                        label,
                        value: v,
                    },
                    fx,
                );
                self.arm_timer(uid, fx);
            }
            // The bounded protocol has no weaker tiers: a `ReadAt` at any
            // level is served atomically (stronger than requested is safe).
            RegisterOp::Read | RegisterOp::ReadAt(_) => {
                let uid = self.fresh_uid();
                let ph = PhaseTracker::new(uid, self.cfg.n, self.cfg.me);
                let (best_label, best_value) = (self.stored_label, self.stored_value.clone());
                if self.cfg.quorum.is_read_quorum(ph.responders()) {
                    self.enter_write_back(op, best_label, best_value, fx);
                    return;
                }
                self.pending = Some(Pending::Query {
                    op,
                    ph,
                    best_label,
                    best_value,
                });
                self.broadcast(RegisterMsg::Query { uid, key: () }, fx);
                self.arm_timer(uid, fx);
            }
        }
    }

    fn enter_write_back(
        &mut self,
        op: OpId,
        label: SerialLabel,
        value: V,
        fx: &mut Effects<BoundedSwmrMsg<V>, RegisterResp<V>>,
    ) {
        self.adopt(label, value.clone());
        let uid = self.fresh_uid();
        let ph = PhaseTracker::new(uid, self.cfg.n, self.cfg.me);
        if self.cfg.quorum.is_write_quorum(ph.responders()) {
            self.finish(op, RegisterResp::ReadOk(value), fx);
            return;
        }
        self.pending = Some(Pending::WriteBack {
            op,
            ph,
            label,
            value: value.clone(),
        });
        self.broadcast(
            RegisterMsg::Update {
                uid,
                key: (),
                label,
                value,
            },
            fx,
        );
        self.arm_timer(uid, fx);
    }

    fn phase_message(&self) -> Option<BoundedSwmrMsg<V>> {
        match self.pending.as_ref()? {
            Pending::Write {
                ph, label, value, ..
            }
            | Pending::WriteBack {
                ph, label, value, ..
            } => Some(RegisterMsg::Update {
                uid: ph.uid(),
                key: (),
                label: *label,
                value: value.clone(),
            }),
            Pending::Query { ph, .. } => Some(RegisterMsg::Query {
                uid: ph.uid(),
                key: (),
            }),
        }
    }
}

impl<V: Clone + std::fmt::Debug + Send + 'static> Protocol for BoundedSwmrNode<V> {
    type Msg = BoundedSwmrMsg<V>;
    type Op = RegisterOp<V>;
    type Resp = RegisterResp<V>;

    fn id(&self) -> ProcessId {
        self.cfg.me
    }

    fn on_invoke(
        &mut self,
        op: OpId,
        input: RegisterOp<V>,
        fx: &mut Effects<Self::Msg, Self::Resp>,
    ) {
        if self.pending.is_some() || self.recovering.is_some() {
            self.queue.push_back((op, input));
        } else {
            self.begin(op, input, fx);
        }
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: BoundedSwmrMsg<V>,
        fx: &mut Effects<Self::Msg, Self::Resp>,
    ) {
        match msg {
            RegisterMsg::Query { uid, .. } => {
                let (label, value) = (self.stored_label, self.stored_value.clone());
                fx.send(from, RegisterMsg::QueryReply { uid, label, value });
            }
            RegisterMsg::Update {
                uid, label, value, ..
            } => {
                self.adopt(label, value);
                fx.send(from, RegisterMsg::UpdateAck { uid });
            }
            RegisterMsg::QueryReply { uid, label, value } => {
                let space = self.cfg.space;
                if let Some(rec) = self.recovering.as_mut() {
                    if !rec.ph.record(from, uid) {
                        return;
                    }
                    if !space.comparable(label, rec.best_label) {
                        self.window_violations += 1;
                    } else if space.newer(label, rec.best_label) {
                        rec.best_label = label;
                        rec.best_value = value;
                    }
                    let quorum_met = self
                        .recovering
                        .as_ref()
                        .is_some_and(|rec| self.cfg.quorum.is_read_quorum(rec.ph.responders()));
                    if quorum_met {
                        if let Some(rec) = self.recovering.take() {
                            self.rtx.disarm(uid, fx);
                            self.finish_recovery(rec.best_label, rec.best_value, fx);
                        }
                    }
                    return;
                }
                let mut violation = false;
                let next = match self.pending.as_mut() {
                    Some(Pending::Query {
                        op,
                        ph,
                        best_label,
                        best_value,
                    }) => {
                        if !ph.record(from, uid) {
                            return;
                        }
                        if !space.comparable(label, *best_label) {
                            violation = true;
                        } else if space.newer(label, *best_label) {
                            *best_label = label;
                            *best_value = value;
                        }
                        if self.cfg.quorum.is_read_quorum(ph.responders()) {
                            Some((*op, *best_label, best_value.clone()))
                        } else {
                            None
                        }
                    }
                    _ => None,
                };
                if violation {
                    self.window_violations += 1;
                }
                if let Some((op, label, value)) = next {
                    self.pending = None;
                    self.rtx.disarm(uid, fx);
                    self.enter_write_back(op, label, value, fx);
                }
            }
            RegisterMsg::UpdateAck { uid } => {
                let done = match self.pending.as_mut() {
                    Some(Pending::Write { op, ph, .. }) => {
                        if ph.record(from, uid) && self.cfg.quorum.is_write_quorum(ph.responders())
                        {
                            Some((*op, RegisterResp::WriteOk))
                        } else {
                            None
                        }
                    }
                    Some(Pending::WriteBack { op, ph, value, .. }) => {
                        if ph.record(from, uid) && self.cfg.quorum.is_write_quorum(ph.responders())
                        {
                            Some((*op, RegisterResp::ReadOk(value.clone())))
                        } else {
                            None
                        }
                    }
                    _ => None,
                };
                if let Some((op, resp)) = done {
                    self.rtx.disarm(uid, fx);
                    self.finish(op, resp, fx);
                }
            }
            // The bounded protocol has no relay read mode: a relay round
            // would need the total order on labels the sequential space
            // deliberately lacks. Ignore strays rather than corrupt state.
            RegisterMsg::RelayQuery { .. }
            | RegisterMsg::RelayFwd { .. }
            | RegisterMsg::RelayReply { .. } => {}
        }
    }

    fn on_timer(&mut self, key: TimerKey, fx: &mut Effects<Self::Msg, Self::Resp>) {
        if let Some(rec) = self.recovering.as_ref() {
            if rec.ph.uid() != key.0 {
                return;
            }
            let (uid, missing) = (rec.ph.uid(), rec.ph.missing());
            self.rtx
                .fire(key.0, &missing, RegisterMsg::Query { uid, key: () }, fx);
            return;
        }
        let Some(pending) = self.pending.as_ref() else {
            return;
        };
        if pending.phase().uid() != key.0 {
            return;
        }
        let missing = pending.phase().missing();
        if let Some(msg) = self.phase_message() {
            self.rtx.fire(key.0, &missing, msg, fx);
        }
    }

    fn on_restart(&mut self, fx: &mut Effects<Self::Msg, Self::Resp>) {
        // Stable storage: the stored pair, the uid counter and the anomaly
        // counters survive; in-flight operation state does not (see the
        // crate::register module docs for the soundness argument).
        self.pending = None;
        self.queue.clear();
        self.rtx.reset();
        let uid = self.fresh_uid();
        let ph = PhaseTracker::new(uid, self.cfg.n, self.cfg.me);
        let (best_label, best_value) = (self.stored_label, self.stored_value.clone());
        if self.cfg.quorum.is_read_quorum(ph.responders()) {
            return; // Single-node cluster: nothing to catch up from.
        }
        self.recovering = Some(Recovery {
            ph,
            best_label,
            best_value,
        });
        self.broadcast(RegisterMsg::Query { uid, key: () }, fx);
        self.arm_timer(uid, fx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MiniNet;

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
}
