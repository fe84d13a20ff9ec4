//! Byzantine fault tolerance via masking quorums (Malkhi & Reiter,
//! *Byzantine Quorum Systems*, 1997/98 — the follow-up line of work the
//! Dijkstra Prize account singles out: "One key step was phrasing the
//! construction in terms of general quorums … and to consider Byzantine
//! failures").
//!
//! The crash-tolerant emulation trusts every reply; a Byzantine replica can
//! lie. The *threshold masking quorum* fix, for `b` Byzantine replicas out
//! of `n ≥ 4b + 1`:
//!
//! * quorums have size `q = ⌈(n + 2b + 1) / 2⌉` (with `n = 4b + 1`,
//!   `q = 3b + 1 = n − b`, so waiting for `q` replies stays live even if
//!   all `b` liars stay silent);
//! * two quorums intersect in `≥ 2b + 1` replicas, of which `≥ b + 1` are
//!   honest — so among any read quorum's replies, the latest completed
//!   write is *vouched for* by at least `b + 1` identical `(label, value)`
//!   pairs, while any fabricated pair has at most `b` vouchers;
//! * a reader therefore returns the **highest-labelled pair reported
//!   identically by at least `b + 1` replicas**, write-backs it, done.
//!
//! The writer is assumed correct (single-writer model, as in Malkhi–Reiter's
//! basic construction); replicas may lie arbitrarily. For experiments, a
//! node can be constructed with a [`LieStrategy`] that corrupts its replica
//! role — the "Byzantine replica" is the same state machine with its
//! honesty knob turned off, so the simulator needs no special support.
//!
//! The companion experiment (see `tests/byzantine.rs` and the `fig_quorum`
//! notes) shows the crash-tolerant majority protocol returning fabricated
//! values under the same liars that the masking protocol shrugs off.

// The declared phase graph (see the `phase-graph` lint rule) — masking
// quorums change thresholds and reply filtering, not phase structure, so
// the graph matches the crash-tolerant SWMR protocol.
// abd-lint: phase-spec(byzantine):
//   Invoke -> Query, Invoke -> Write, Invoke -> WriteBack, Invoke -> Done,
//   Query -> WriteBack, Query -> Done,
//   Write -> Done, WriteBack -> Done,
//   Restart -> Recovery, Recovery -> Idle

use crate::context::{Effects, Protocol, TimerKey};
use crate::msg::{RegisterMsg, RegisterOp, RegisterResp};
use crate::phase::PhaseTracker;
use crate::retransmit::{BackoffPolicy, Retransmitter};
use crate::types::{Nanos, OpId, ProcessId, RegisterError, SeqNo};
use std::collections::VecDeque;

/// Wire message of the Byzantine-tolerant SWMR protocol (same shapes as the
/// crash-tolerant one).
pub type ByzMsg<V> = RegisterMsg<SeqNo, V>;

/// How a Byzantine replica lies in its replica role.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LieStrategy {
    /// Always report the initial state (label 0), hiding every write.
    ReportStale,
    /// Report a fabricated sky-high label with a bogus value — the attack
    /// that poisons max-label selection without vouching.
    ForgeLabel,
    /// Never answer queries or acknowledge updates (Byzantine silence).
    Silent,
}

/// Configuration of one Byzantine-tolerant node.
#[derive(Clone, Debug)]
pub struct ByzConfig {
    /// Cluster size (must satisfy `n >= 4b + 1`).
    pub n: usize,
    /// This node's id.
    pub me: ProcessId,
    /// The (trusted) writer's id.
    pub writer: ProcessId,
    /// Maximum number of Byzantine replicas tolerated.
    pub b: usize,
    /// Retransmission policy (`None` = reliable links).
    pub retransmit: Option<BackoffPolicy>,
    /// When `Some`, this node's replica role lies per the strategy.
    pub lie: Option<LieStrategy>,
}

impl ByzConfig {
    /// An honest node in a cluster tolerating `b` Byzantine replicas.
    ///
    /// # Panics
    ///
    /// Panics unless `n >= 4b + 1`.
    pub fn new(n: usize, me: ProcessId, writer: ProcessId, b: usize) -> Self {
        assert!(n > 4 * b, "masking quorums need n >= 4b+1 (n={n}, b={b})");
        ByzConfig {
            n,
            me,
            writer,
            b,
            retransmit: None,
            lie: None,
        }
    }

    /// Turns this node Byzantine with the given strategy.
    pub fn with_lie(mut self, lie: LieStrategy) -> Self {
        self.lie = Some(lie);
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

    /// Quorum size `⌈(n + 2b + 1) / 2⌉`.
    pub fn quorum_size(&self) -> usize {
        crate::quorum::masking_threshold(self.n, self.b)
    }
}

#[derive(Clone, Debug)]
enum Pending<V> {
    Write {
        op: OpId,
        ph: PhaseTracker,
        seq: SeqNo,
        value: V,
    },
    /// Read query: collect *identical pair* votes, keyed by `(label, value)`.
    Query {
        op: OpId,
        ph: PhaseTracker,
        votes: Vec<(SeqNo, V, usize)>,
    },
    WriteBack {
        op: OpId,
        ph: PhaseTracker,
        label: SeqNo,
        value: V,
    },
}

/// Post-restart catch-up query phase. Recovery collects *votes* and picks
/// the masked choice, exactly like a read's query round — catching up from
/// raw max-label replies would let `b` liars poison the rebooted replica
/// (stable-storage model; see [`crate::register`] module docs).
#[derive(Clone, Debug)]
struct Recovery<V> {
    ph: PhaseTracker,
    votes: Vec<(SeqNo, V, usize)>,
}

/// One node of the Byzantine-tolerant single-writer emulation.
///
/// # Examples
///
/// ```
/// use abd_core::byzantine::{ByzConfig, ByzNode};
/// use abd_core::context::{Effects, Protocol};
/// use abd_core::msg::{RegisterOp, RegisterResp};
/// use abd_core::types::{OpId, ProcessId};
///
/// // b = 0 degenerates to the crash-tolerant protocol; n = 1 completes locally.
/// let mut node = ByzNode::new(ByzConfig::new(1, ProcessId(0), ProcessId(0), 0), 0u8);
/// let mut fx = Effects::new();
/// node.on_invoke(OpId(0), RegisterOp::Write(9), &mut fx);
/// node.on_invoke(OpId(1), RegisterOp::Read, &mut fx);
/// assert_eq!(fx.responses[1].1, RegisterResp::ReadOk(9));
/// ```
#[derive(Clone, Debug)]
pub struct ByzNode<V> {
    cfg: ByzConfig,
    label: SeqNo,
    value: V,
    seq: SeqNo,
    next_uid: u64,
    pending: Option<Pending<V>>,
    queue: VecDeque<(OpId, RegisterOp<V>)>,
    /// Fabrication counter for the `ForgeLabel` strategy.
    forged: u64,
    rtx: Retransmitter,
    recovering: Option<Recovery<V>>,
}

impl<V: Clone + std::fmt::Debug + Eq + Send + 'static> ByzNode<V> {
    /// Creates a node holding `initial` under label 0.
    pub fn new(cfg: ByzConfig, initial: V) -> Self {
        assert!(cfg.me.index() < cfg.n, "node id out of range");
        assert!(cfg.writer.index() < cfg.n, "writer id out of range");
        let rtx = Retransmitter::new(cfg.retransmit, cfg.me);
        ByzNode {
            cfg,
            label: 0,
            value: initial,
            seq: 0,
            next_uid: 0,
            pending: None,
            queue: VecDeque::new(),
            forged: 0,
            rtx,
            recovering: None,
        }
    }

    /// Replica state (honest view).
    pub fn replica_state(&self) -> (SeqNo, V) {
        (self.label, self.value.clone())
    }

    /// Whether this node is configured to lie.
    pub fn is_byzantine(&self) -> bool {
        self.cfg.lie.is_some()
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

    fn quorum_met(&self, ph: &PhaseTracker) -> bool {
        ph.responders().len() >= self.cfg.quorum_size()
    }

    fn broadcast(&self, msg: ByzMsg<V>, fx: &mut Effects<ByzMsg<V>, RegisterResp<V>>) {
        for i in 0..self.cfg.n {
            let p = ProcessId(i);
            if p != self.cfg.me {
                fx.send(p, msg.clone());
            }
        }
    }

    fn arm_timer(&mut self, uid: u64, fx: &mut Effects<ByzMsg<V>, RegisterResp<V>>) {
        self.rtx.arm(uid, fx);
    }

    /// Completes the post-restart catch-up: adopt the masked choice (never
    /// a raw max — `b` liars answered too) and, on the writer, re-anchor
    /// the sequence counter so no label is ever reused.
    fn finish_recovery(
        &mut self,
        votes: &[(SeqNo, V, usize)],
        fx: &mut Effects<ByzMsg<V>, RegisterResp<V>>,
    ) {
        self.recovering = None;
        let (label, value) = self.masked_choice(votes);
        if label > self.label {
            self.label = label;
            self.value = value;
        }
        if self.cfg.me == self.cfg.writer {
            self.seq = self.seq.max(self.label);
        }
        if self.pending.is_none() {
            if let Some((next_op, next_input)) = self.queue.pop_front() {
                self.begin(next_op, next_input, fx);
            }
        }
    }

    fn finish(
        &mut self,
        op: OpId,
        resp: RegisterResp<V>,
        fx: &mut Effects<ByzMsg<V>, RegisterResp<V>>,
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
        fx: &mut Effects<ByzMsg<V>, RegisterResp<V>>,
    ) {
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
                self.seq += 1;
                let seq = self.seq;
                // abd-lint: allow(tag-monotonicity): the single writer mints `seq` by incrementing its own counter on the line above, so the new label is strictly larger by construction.
                self.label = seq;
                self.value = v.clone();
                let uid = self.fresh_uid();
                let ph = PhaseTracker::new(uid, self.cfg.n, self.cfg.me);
                if self.quorum_met(&ph) {
                    self.finish(op, RegisterResp::WriteOk, fx);
                    return;
                }
                self.pending = Some(Pending::Write {
                    op,
                    ph,
                    seq,
                    value: v.clone(),
                });
                self.broadcast(
                    RegisterMsg::Update {
                        uid,
                        key: (),
                        label: seq,
                        value: v,
                    },
                    fx,
                );
                self.arm_timer(uid, fx);
            }
            // The Byzantine protocol has no weaker tiers: a `ReadAt` at any
            // level is served atomically (stronger than requested is safe).
            RegisterOp::Read | RegisterOp::ReadAt(_) => {
                let uid = self.fresh_uid();
                let ph = PhaseTracker::new(uid, self.cfg.n, self.cfg.me);
                // Our own (honest) replica votes for its pair.
                let votes = vec![(self.label, self.value.clone(), 1usize)];
                if self.quorum_met(&ph) {
                    let (label, value) = (self.label, self.value.clone());
                    self.enter_write_back(op, label, value, fx);
                    return;
                }
                self.pending = Some(Pending::Query { op, ph, votes });
                self.broadcast(RegisterMsg::Query { uid, key: () }, fx);
                self.arm_timer(uid, fx);
            }
        }
    }

    /// Highest-labelled pair with at least `b + 1` identical votes. Falls
    /// back to the highest pair with *any* honest-possible support if no
    /// pair reaches the threshold — with a correct writer and `q` replies
    /// this cannot happen (the latest completed write always has `b + 1`
    /// honest vouchers in the quorum), so the fallback also counts as a
    /// detected anomaly.
    fn masked_choice(&self, votes: &[(SeqNo, V, usize)]) -> (SeqNo, V) {
        votes
            .iter()
            .filter(|(_, _, support)| *support > self.cfg.b)
            .max_by_key(|(label, _, _)| *label)
            .map(|(l, v, _)| (*l, v.clone()))
            .unwrap_or_else(|| (self.label, self.value.clone()))
    }

    fn enter_write_back(
        &mut self,
        op: OpId,
        label: SeqNo,
        value: V,
        fx: &mut Effects<ByzMsg<V>, RegisterResp<V>>,
    ) {
        if label > self.label {
            self.label = label;
            self.value = value.clone();
        }
        let uid = self.fresh_uid();
        let ph = PhaseTracker::new(uid, self.cfg.n, self.cfg.me);
        if self.quorum_met(&ph) {
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

    /// The replica-role reply, honest or lying.
    fn replica_reply(&mut self, uid: u64) -> Option<ByzMsg<V>> {
        match self.cfg.lie {
            None => Some(RegisterMsg::QueryReply {
                uid,
                label: self.label,
                value: self.value.clone(),
            }),
            Some(LieStrategy::ReportStale) => {
                // Report label 0 with whatever we were initialized to —
                // pretend no write ever happened. (We keep the current
                // value but label 0: an *inconsistent* fabrication.)
                Some(RegisterMsg::QueryReply {
                    uid,
                    label: 0,
                    value: self.value.clone(),
                })
            }
            Some(LieStrategy::ForgeLabel) => {
                self.forged += 1;
                Some(RegisterMsg::QueryReply {
                    uid,
                    label: u64::MAX - self.forged, // absurdly new, never vouched
                    value: self.value.clone(),     // bogus payload
                })
            }
            Some(LieStrategy::Silent) => None,
        }
    }

    fn phase_message(&self) -> Option<ByzMsg<V>> {
        match self.pending.as_ref()? {
            Pending::Write { ph, seq, value, .. } => Some(RegisterMsg::Update {
                uid: ph.uid(),
                key: (),
                label: *seq,
                value: value.clone(),
            }),
            Pending::Query { ph, .. } => Some(RegisterMsg::Query {
                uid: ph.uid(),
                key: (),
            }),
            Pending::WriteBack {
                ph, label, value, ..
            } => Some(RegisterMsg::Update {
                uid: ph.uid(),
                key: (),
                label: *label,
                value: value.clone(),
            }),
        }
    }
}

impl<V: Clone + std::fmt::Debug + Eq + Send + 'static> Protocol for ByzNode<V> {
    type Msg = ByzMsg<V>;
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
        msg: ByzMsg<V>,
        fx: &mut Effects<Self::Msg, Self::Resp>,
    ) {
        match msg {
            RegisterMsg::Query { uid, .. } => {
                if let Some(reply) = self.replica_reply(uid) {
                    fx.send(from, reply);
                }
            }
            RegisterMsg::Update {
                uid, label, value, ..
            } => {
                match self.cfg.lie {
                    Some(LieStrategy::Silent) => {} // no ack
                    Some(_) => {
                        // Liars ack but do not faithfully store.
                        // abd-lint: allow(persist-before-ack): this is the *fault model*, not the protocol — a Byzantine replica acknowledging state it never stored is exactly the behavior masking quorums are sized to tolerate.
                        fx.send(from, RegisterMsg::UpdateAck { uid });
                    }
                    None => {
                        if label > self.label {
                            self.label = label;
                            self.value = value;
                        }
                        fx.send(from, RegisterMsg::UpdateAck { uid });
                    }
                }
            }
            RegisterMsg::QueryReply { uid, label, value } => {
                let q = self.cfg.quorum_size();
                if let Some(rec) = self.recovering.as_mut() {
                    if !rec.ph.record(from, uid) {
                        return;
                    }
                    match rec
                        .votes
                        .iter_mut()
                        .find(|(l, v, _)| *l == label && *v == value)
                    {
                        Some(entry) => entry.2 += 1,
                        None => rec.votes.push((label, value, 1)),
                    }
                    if rec.ph.responders().len() >= q {
                        if let Some(rec) = self.recovering.take() {
                            self.rtx.disarm(uid, fx);
                            self.finish_recovery(&rec.votes, fx);
                        }
                    }
                    return;
                }
                let done = match self.pending.as_mut() {
                    Some(Pending::Query { op, ph, votes }) => {
                        if !ph.record(from, uid) {
                            return;
                        }
                        match votes
                            .iter_mut()
                            .find(|(l, v, _)| *l == label && *v == value)
                        {
                            Some(entry) => entry.2 += 1,
                            None => votes.push((label, value, 1)),
                        }
                        if ph.responders().len() >= q {
                            Some(*op)
                        } else {
                            None
                        }
                    }
                    _ => None,
                };
                if let Some(op) = done {
                    if let Some(Pending::Query { votes, .. }) = self.pending.take() {
                        self.rtx.disarm(uid, fx);
                        let (label, value) = self.masked_choice(&votes);
                        self.enter_write_back(op, label, value, fx);
                    }
                }
            }
            RegisterMsg::UpdateAck { uid } => {
                let q = self.cfg.quorum_size();
                let done = match self.pending.as_mut() {
                    Some(Pending::Write { op, ph, .. }) => {
                        if ph.record(from, uid) && ph.responders().len() >= q {
                            Some((*op, RegisterResp::WriteOk))
                        } else {
                            None
                        }
                    }
                    Some(Pending::WriteBack { op, ph, value, .. }) => {
                        if ph.record(from, uid) && ph.responders().len() >= q {
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
            // No relay read mode under Byzantine faults: a liar's forward
            // could poison every reply in the round. Ignore strays.
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
        let ph = match pending {
            Pending::Write { ph, .. }
            | Pending::Query { ph, .. }
            | Pending::WriteBack { ph, .. } => ph,
        };
        if ph.uid() != key.0 {
            return;
        }
        let missing = ph.missing();
        if let Some(msg) = self.phase_message() {
            self.rtx.fire(key.0, &missing, msg, fx);
        }
    }

    fn on_restart(&mut self, fx: &mut Effects<Self::Msg, Self::Resp>) {
        // Stable storage: the replica pair, the writer's sequence counter
        // and the uid counter survive; in-flight operation state does not
        // (see the crate::register module docs for the soundness argument).
        // Liars restart too — their recovery is harmless noise since they
        // answer from the lie strategy, not from adopted state.
        self.pending = None;
        self.queue.clear();
        self.rtx.reset();
        let uid = self.fresh_uid();
        let ph = PhaseTracker::new(uid, self.cfg.n, self.cfg.me);
        let votes = vec![(self.label, self.value.clone(), 1usize)];
        if self.quorum_met(&ph) {
            return; // Single-node cluster: nothing to catch up from.
        }
        self.recovering = Some(Recovery { ph, votes });
        self.broadcast(RegisterMsg::Query { uid, key: () }, fx);
        self.arm_timer(uid, fx);
    }
}

/// Quick sanity map from `b` to the minimum cluster and quorum sizes.
pub fn masking_parameters(b: usize) -> (usize, usize) {
    let n = 4 * b + 1;
    (n, crate::quorum::masking_threshold(n, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::MiniNet;

    fn cluster(b: usize, liars: &[(usize, LieStrategy)]) -> MiniNet<ByzNode<u64>> {
        let n = 4 * b + 1;
        let nodes = (0..n)
            .map(|i| {
                let mut cfg = ByzConfig::new(n, ProcessId(i), ProcessId(0), b);
                if let Some((_, lie)) = liars.iter().find(|(id, _)| *id == i) {
                    cfg = cfg.with_lie(*lie);
                }
                ByzNode::new(cfg, 0u64)
            })
            .collect();
        MiniNet::new(nodes)
    }

    #[test]
    fn parameters() {
        assert_eq!(masking_parameters(0), (1, 1));
        assert_eq!(masking_parameters(1), (5, 4));
        assert_eq!(masking_parameters(2), (9, 7));
    }

    #[test]
    fn honest_cluster_behaves_like_abd() {
        let mut net = cluster(1, &[]);
        net.invoke(0, RegisterOp::Write(5));
        net.run_to_quiescence();
        net.invoke(3, RegisterOp::Read);
        net.run_to_quiescence();
        let r = net.take_responses();
        assert_eq!(r[1].1, RegisterResp::ReadOk(5));
    }

    #[test]
    fn stale_liar_cannot_hide_a_write() {
        // b = 1, n = 5, q = 4: replica 1 always claims nothing was written.
        // (Low id so the FIFO executor always includes it in read quorums.)
        let mut net = cluster(1, &[(1, LieStrategy::ReportStale)]);
        net.invoke(0, RegisterOp::Write(42));
        net.run_to_quiescence();
        net.invoke(2, RegisterOp::Read);
        net.run_to_quiescence();
        let r = net.take_responses();
        assert_eq!(r[1].1, RegisterResp::ReadOk(42), "the lie must be masked");
    }

    #[test]
    fn forged_label_cannot_poison_a_read() {
        // Replica 1 reports label u64::MAX with a bogus value; it gets at
        // most its own vote, below the b+1 threshold.
        let mut net = cluster(1, &[(1, LieStrategy::ForgeLabel)]);
        net.invoke(0, RegisterOp::Write(7));
        net.run_to_quiescence();
        net.invoke(2, RegisterOp::Read);
        net.run_to_quiescence();
        let r = net.take_responses();
        assert_eq!(
            r[1].1,
            RegisterResp::ReadOk(7),
            "forged label must be filtered"
        );
    }

    #[test]
    fn silent_liar_does_not_block_liveness() {
        // q = n - b, so a silent Byzantine replica cannot stall quorums.
        let mut net = cluster(1, &[(3, LieStrategy::Silent)]);
        net.invoke(0, RegisterOp::Write(9));
        net.run_to_quiescence();
        net.invoke(2, RegisterOp::Read);
        net.run_to_quiescence();
        let r = net.take_responses();
        assert_eq!(r[0].1, RegisterResp::WriteOk);
        assert_eq!(r[1].1, RegisterResp::ReadOk(9));
    }

    #[test]
    fn b2_tolerates_two_coordinated_liars() {
        let mut net = cluster(
            2,
            &[(1, LieStrategy::ForgeLabel), (2, LieStrategy::ForgeLabel)],
        );
        net.invoke(0, RegisterOp::Write(11));
        net.run_to_quiescence();
        net.invoke(4, RegisterOp::Read);
        net.run_to_quiescence();
        let r = net.take_responses();
        assert_eq!(r[1].1, RegisterResp::ReadOk(11));
    }

    #[test]
    fn crash_tolerant_majority_is_poisoned_by_the_same_liar() {
        // The contrast experiment: the plain ABD read (majority + raw max)
        // believes the forged label. We emulate it by setting b = 0 in the
        // masked choice (threshold 1) on a 5-node cluster with a liar.
        let n = 5;
        let nodes = (0..n)
            .map(|i| {
                // b = 0: quorum 3, votes threshold 1 — i.e. plain ABD.
                let mut cfg = ByzConfig::new(n, ProcessId(i), ProcessId(0), 0);
                if i == 1 {
                    cfg = cfg.with_lie(LieStrategy::ForgeLabel);
                }
                ByzNode::new(cfg, 0u64)
            })
            .collect();
        let mut net = MiniNet::new(nodes);
        net.invoke(0, RegisterOp::Write(7));
        net.run_to_quiescence();
        // Keep reading until a quorum includes the liar (deterministic
        // FIFO delivery: first 2 repliers + self make the quorum, so make
        // the liar adjacent by reading from node 3).
        let mut poisoned = false;
        for reader in [3usize, 2, 1] {
            net.invoke(reader, RegisterOp::Read);
            net.run_to_quiescence();
            let r = net.take_responses();
            if let Some((_, RegisterResp::ReadOk(v))) = r.last() {
                if *v != 7 {
                    poisoned = true;
                }
            }
        }
        assert!(
            poisoned,
            "without masking quorums a single forged label should poison some read"
        );
    }

    #[test]
    #[should_panic(expected = "n >= 4b+1")]
    fn undersized_cluster_rejected() {
        ByzConfig::new(4, ProcessId(0), ProcessId(0), 1);
    }

    #[test]
    #[should_panic(expected = "writer id out of range")]
    fn writer_outside_the_cluster_rejected() {
        ByzNode::new(ByzConfig::new(5, ProcessId(0), ProcessId(5), 1), 0u32);
    }

    #[test]
    fn restart_recovery_is_not_poisoned_by_a_liar() {
        // Node 2 crashes, misses a write, and restarts while replica 1
        // forges sky-high labels. The catch-up query phase must adopt the
        // masked choice — the real write — not the forgery.
        let mut net = cluster(1, &[(1, LieStrategy::ForgeLabel)]);
        net.invoke(0, RegisterOp::Write(42));
        net.run_to_quiescence();
        net.crash(2);
        net.invoke(0, RegisterOp::Write(43));
        net.run_to_quiescence();
        net.restart(2);
        net.run_to_quiescence();
        assert!(!net.node(2).is_recovering());
        assert_eq!(net.node(2).replica_state(), (2, 43));
        net.invoke(2, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses().last().unwrap().1,
            RegisterResp::ReadOk(43)
        );
    }

    #[test]
    fn writer_restart_does_not_reuse_labels() {
        let mut net = cluster(1, &[]);
        net.invoke(0, RegisterOp::Write(5));
        net.run_to_quiescence();
        net.crash(0);
        net.restart(0);
        net.run_to_quiescence();
        net.invoke(0, RegisterOp::Write(6));
        net.run_to_quiescence();
        // Label 1 was consumed pre-crash; the new write must use label 2.
        assert_eq!(net.node(3).replica_state(), (2, 6));
        net.invoke(2, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses().last().unwrap().1,
            RegisterResp::ReadOk(6)
        );
    }
}
