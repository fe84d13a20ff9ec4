//! The register shell: what a *register* adds to the quorum-operation
//! engine, behind both the single-writer ([`crate::swmr`]) and the
//! multi-writer ([`crate::mwmr`]) emulation.
//!
//! The paper presents one protocol and notes that multiple writers need
//! only `(sequence, writer)` labels and a query round in front of the
//! write. That protocol — query a read quorum, take the largest label,
//! update a write quorum, with its read modes, relay reads, consistency
//! tiers and retransmission — lives in [`crate::engine`], shared with the
//! key-value store. [`RegisterNode<L, V>`] is the engine over one
//! [`Replica`] under the unit key, generic over the [`Label`] policy that
//! captures exactly those two differences, plus the three things only a
//! register has: **one operation at a time** (a processor of the paper is a
//! sequential client, so further invocations wait in a FIFO queue), the
//! **`NotWriter` check** and the **roll-forward of an interrupted write**.
//! All of that is this file's state; none of it is in the engine. The
//! post-restart catch-up is not a fourth: it is a `Regular` read of the
//! engine under an operation id no host issues, which runs beside the
//! client operations and answers nobody.
//!
//! The shell is generic over its store too. A [`Replica`] orders labels by
//! `Ord` and folds a read quorum to its maximum; the Byzantine-tolerant
//! register ([`crate::byzantine`]) and the bounded-label register
//! ([`crate::bounded`]) are this same node over a store that folds by
//! vouching, or orders through a window — queue, `NotWriter`, roll-forward
//! and retransmission are not written again. The catch-up, being a read,
//! folds its replies with the store's [`Fold`], which is what keeps a liar
//! (or a lapped label) out of a rebooted replica.
//!
//! * **Write(v)** — (multi-writer only: broadcast `Query`, wait for a
//!   *read quorum* of labels, keep the largest;) take the next label, adopt
//!   `(label, v)` locally, broadcast `Update(label, v)` and return once a
//!   *write quorum* has acknowledged.
//! * **Read()** — broadcast `Query`, wait for a read quorum of
//!   `(label, value)` replies (counting the local replica), select the pair
//!   with the **largest label**, then **write it back**: propagate the pair
//!   with `Update` and wait for a write quorum of acknowledgements *before*
//!   returning the value. [`ReadMode::NoWriteBack`] drops that second
//!   round and yields exactly the regular-register baseline whose
//!   violations experiment **T5** exhibits.
//!
//! The state machine is sans-io (see [`crate::context`]): hosts deliver
//! messages and timer ticks, and carry out the recorded effects. With a
//! retransmission policy configured, an unfinished phase resends — with
//! exponential backoff and deterministic jitter, only to the processors
//! that have not yet responded ([`crate::retransmit`]) — which makes the
//! emulation live over fair-lossy links (experiment **F3**).
//!
//! ## Crash recovery
//!
//! A restarted node ([`Protocol::on_restart`]) loses its volatile state —
//! an in-flight read, queued invocations, retry schedule, relay rounds —
//! but its replica pair `(label, value)`, the update round of a write in
//! flight and the phase-uid counter model **stable storage** and survive.
//! This is not an optimization but a
//! soundness requirement: if an acknowledgement could outlive the replica
//! state it acknowledged, a write quorum would no longer guarantee that its
//! labels persist. Concretely, with full amnesia: the writer collects `p`'s
//! ack for label 5, `p` crashes and rejoins having caught up from a stale
//! majority at label 4, and a later read whose quorum intersects the write
//! quorum only at `p` returns the old value — a new/old inversion.
//! Persisting the pair (as a real deployment would, via an fsync before the
//! ack) restores the quorum-intersection argument. A rebooted replica is
//! then merely stale, like one that missed some messages, and no operation
//! trusts the local replica to be fresh: reads and multi-writer writes take
//! the largest label of a read quorum, and the single writer's own label is
//! its persisted counter (below). So the node serves at once, and the
//! catch-up **read** it runs beside its clients is purely a freshness
//! optimization (a `Sequential` read, which serves the local replica, was
//! never promised freshness). A
//! writer needs no separate counter: the single writer adopts every label
//! it issues before broadcasting it, so its persisted replica label *is*
//! its sequence number, and a multi-writer write queries a read quorum for
//! the labels in use anyway.
//!
//! ### Rolling an interrupted write forward
//!
//! A writer that crashes in a write's update round has a label out: the
//! update may sit at any subset of replicas. The writer persists that round
//! — `(op, label, value)` — as it persists its pair, and on restart
//! re-issues it at once as the node's operation in flight: it
//! re-broadcasts `Update(label, value)` with a fresh phase uid and
//! acknowledges the client once a write quorum holds the label. Roll-forward
//! (rather than abort) is the only sound resolution, for every label
//! policy: the label was fixed, and adopted by the writer's own replica,
//! *before* the broadcast, and re-propagating it is an idempotent max-merge
//! at every replica — the same write, only slower. It needs nothing from
//! the catch-up. A write that crashes in its query round has no label yet
//! and stays aborted.

use crate::context::{Effects, Protocol, ReadPathCounters, ReadPathStats, TimerKey};
use crate::engine::{Engine, Op, Outcome, Store};
use crate::msg::{RegisterMsg, RegisterOp, RegisterResp};
use crate::phase::{Fold, NodeEdges, Phase, PhaseEdges, TagCensus};
use crate::quorum::{Majority, QuorumSystem};
use crate::replica::Replica;
use crate::retransmit::BackoffPolicy;
use crate::types::{Consistency, Nanos, OpId, ProcessId, ReadMode, RegisterError};
use std::collections::VecDeque;
use std::fmt::Debug;
use std::marker::PhantomData;
use std::sync::Arc;

/// The shell's share of the phase graph, as [`crate::engine::PHASE_GRAPH`]
/// is the engine's (the thirteen edges of a client operation — the
/// catch-up read's among them — are the engine's). `Invoke -> Done` is the
/// `NotWriter` rejection. `Restart -> WriteUpdate` is the roll-forward: a
/// crash-interrupted write resumes at the restart as a fresh `WriteUpdate`
/// round of the engine.
pub const PHASE_GRAPH: &[(Phase, Phase)] = &[
    (Phase::Invoke, Phase::Done),
    (Phase::Restart, Phase::WriteUpdate),
];

/// How labels are issued where they are totally ordered and need no context
/// — what distinguishes one writer from many.
///
/// Implemented by [`SeqNo`](crate::types::SeqNo) (single writer, see
/// [`crate::swmr`]) and [`Tag`](crate::types::Tag) (multiple writers, see
/// [`crate::mwmr`]); a [`Replica`] of either is the engine's store. The
/// node is monomorphised over it, so the policy costs nothing at run time.
pub trait Label: Copy + Ord + Debug + Send + 'static {
    /// Whether a write must first learn the largest label in use from a
    /// read quorum. `false` when the writer's own label is by construction
    /// the largest (it is the only issuer).
    const WRITE_QUERIES: bool;

    /// The label of the register's initial value — below every label a
    /// write produces.
    fn initial() -> Self;

    /// The label for a write by `me` that saw `self` as the largest label.
    fn next(self, me: ProcessId) -> Self;
}

/// Effects of a register node.
type Fx<L, V> = Effects<RegisterMsg<L, V>, RegisterResp<V>>;

/// Configuration of one register node; see
/// [`SwmrConfig`](crate::swmr::SwmrConfig) and
/// [`MwmrConfig`](crate::mwmr::MwmrConfig) for the two constructors.
#[derive(Clone, Debug)]
pub struct RegisterConfig<L> {
    /// Cluster size.
    pub n: usize,
    /// This node's id.
    pub me: ProcessId,
    /// The node allowed to write here: the designated writer's id under a
    /// single writer (the same on every node), this node's own id when
    /// every node may write.
    pub writer: ProcessId,
    /// Quorum system consulted by all phases. With multiple writers it
    /// must satisfy write/write intersection too
    /// ([`QuorumSystem::validate`] with `multi_writer = true`).
    pub quorum: Arc<dyn QuorumSystem>,
    /// How reads complete: the two-round baseline, the unanimity fast path,
    /// server-to-server relay, or the query round alone of the regular
    /// register (see [`crate::engine`]). `TwoRound` by default: the
    /// baseline protocol always pays `2` rounds per read.
    pub read_mode: ReadMode,
    /// Retransmission policy for unfinished phases; `None` disables
    /// retransmission (appropriate for reliable links).
    pub retransmit: Option<BackoffPolicy>,
    label: PhantomData<L>,
}

impl<L> RegisterConfig<L> {
    /// The paper's configuration: majority quorums, write-back on reads, no
    /// retransmission (reliable links).
    pub(crate) fn base(n: usize, me: ProcessId, writer: ProcessId) -> Self {
        RegisterConfig {
            n,
            me,
            writer,
            quorum: Arc::new(Majority::new(n)),
            read_mode: ReadMode::TwoRound,
            retransmit: None,
            label: PhantomData,
        }
    }

    /// Replaces the quorum system.
    pub fn with_quorum(mut self, q: Arc<dyn QuorumSystem>) -> Self {
        self.quorum = q;
        self
    }

    /// Selects how reads complete (see [`ReadMode`]).
    pub fn with_read_mode(mut self, mode: ReadMode) -> Self {
        self.read_mode = mode;
        self
    }

    /// Enables adaptive retransmission for lossy links: exponential backoff
    /// starting at `every`, capped at `16 * every`, with deterministic
    /// jitter (see [`BackoffPolicy::new`]).
    pub fn with_retransmit(mut self, every: Nanos) -> Self {
        self.retransmit = Some(BackoffPolicy::new(every));
        self
    }
}

/// A register's replica is the engine's store under the unit key, and a
/// register always has something written: it reads what it stores. Labels
/// compare by `Ord`, a read quorum folds to its maximum, and [`Label`] says
/// how the next one is issued.
impl<L: Label, V: Clone> Store<(), L, V, V> for Replica<L, V> {
    type Msg = RegisterMsg<L, V>;
    type Resp = RegisterResp<V>;
    type Fold = TagCensus<L, V>;
    const WRITE_QUERIES: bool = L::WRITE_QUERIES;

    fn snapshot(&self, _: &()) -> (L, V) {
        Replica::snapshot(self)
    }

    fn adopt(&mut self, _: &(), label: L, value: V) {
        Replica::adopt(self, label, value);
    }

    fn fold(&self, _: &()) -> TagCensus<L, V> {
        let (label, value) = Replica::snapshot(self);
        TagCensus::new(label, value)
    }

    fn choose(&mut self, fold: TagCensus<L, V>) -> (L, V) {
        fold.into_best()
    }

    fn issue(&mut self, _: &(), seen: L, me: ProcessId) -> L {
        seen.next(me)
    }
}

impl<V> From<Outcome<V>> for RegisterResp<V> {
    fn from(outcome: Outcome<V>) -> Self {
        match outcome {
            Outcome::Read(value) => RegisterResp::ReadOk(value),
            Outcome::Written => RegisterResp::WriteOk,
        }
    }
}

/// The operation id of the post-restart catch-up: a `Regular` read the node
/// invokes on itself, beside its clients' operations, to adopt the latest
/// completed write it missed, and whose answer nobody receives. Hosts count
/// their ids up from zero.
const CATCH_UP: OpId = OpId(u64::MAX);

/// One processor of the emulation: replica role, reader role and — where
/// [`RegisterConfig::writer`] allows — writer role. Use it through
/// [`SwmrNode`](crate::swmr::SwmrNode) or
/// [`MwmrNode`](crate::mwmr::MwmrNode), where the store `S` is a
/// [`Replica`] and its fold `C` the maximum label; the Byzantine-tolerant
/// ([`crate::byzantine`]) and bounded-label ([`crate::bounded`]) variants
/// are the same node over a store with another fold and another label
/// order. `C` is always `S::Fold`; it is a parameter of its own so that the
/// struct needs no `S: Store` bound, which every type embedding a node
/// would have to repeat.
#[derive(Clone, Debug)]
pub struct RegisterNode<L, V, S = Replica<L, V>, C = TagCensus<L, V>> {
    cfg: RegisterConfig<L>,
    store: S,
    /// The client operation in flight, the catch-up, the replica role and
    /// the relay rounds. A write's update round is stable storage, like the
    /// store: it is what a crash leaves for [`Protocol::on_restart`] to roll
    /// forward.
    engine: Engine<(), L, V, V, C>,
    /// Invocations waiting behind the client operation in flight.
    queue: VecDeque<(OpId, RegisterOp<V>)>,
    /// Catch-ups completed. Each was a `Regular` read to the engine's
    /// counters, which [`ReadPathStats`] reports for *client* reads only.
    catch_ups: u64,
    /// The [`PHASE_GRAPH`] edges this node took.
    walked: PhaseEdges,
}

impl<L: Label, V: Clone + Debug + Send + 'static> RegisterNode<L, V> {
    /// Creates a node holding `initial` as the register's initial value
    /// (under [`Label::initial`], conceptually written before the execution
    /// starts).
    pub fn new(cfg: RegisterConfig<L>, initial: V) -> Self {
        Self::over(cfg, Replica::new(L::initial(), initial))
    }
}

impl<L, V, S, C> RegisterNode<L, V, S, C>
where
    L: Copy + PartialOrd + Debug + Send + 'static,
    V: Clone + Debug + Send + 'static,
    S: Store<(), L, V, V, Msg = RegisterMsg<L, V>, Resp = RegisterResp<V>, Fold = C>,
    C: Fold<L, V>,
{
    /// A node over `store`, which already holds the register's initial
    /// value.
    pub(crate) fn over(cfg: RegisterConfig<L>, store: S) -> Self {
        assert!(cfg.writer.index() < cfg.n, "writer id out of range");
        let engine = Engine::new(
            cfg.n,
            cfg.me,
            cfg.quorum.clone(),
            cfg.read_mode,
            cfg.retransmit,
        );
        RegisterNode {
            cfg,
            store,
            engine,
            queue: VecDeque::new(),
            catch_ups: 0,
            walked: PhaseEdges::default(),
        }
    }

    /// This node's replica state `(label, value)` — for inspection in tests
    /// and metrics.
    pub fn replica_state(&self) -> (L, V) {
        self.store.snapshot(&())
    }

    /// The replica store, with whatever it counts beside the pair.
    pub(crate) fn store(&self) -> &S {
        &self.store
    }

    /// Whether a client operation is in flight, so that an invocation would
    /// queue. The catch-up does not count: nothing waits for it.
    pub(crate) fn is_busy(&self) -> bool {
        self.engine.in_flight() > usize::from(self.is_recovering())
    }

    /// Whether the node's post-restart catch-up read is still short of a
    /// read quorum. The node serves meanwhile; the catch-up only refreshes
    /// its replica.
    pub fn is_recovering(&self) -> bool {
        self.engine.is_pending(CATCH_UP)
    }

    /// Number of invocations waiting behind the client operation in flight.
    #[cfg(test)]
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Hands one admitted invocation to the engine — unless it is a write
    /// on a node that may not write, which is answered here.
    fn begin(&mut self, op: OpId, input: RegisterOp<V>, fx: &mut Fx<L, V>) {
        let input = match input {
            RegisterOp::Write(_) if self.cfg.me != self.cfg.writer => {
                let (invoked_on, writer) = (self.cfg.me, self.cfg.writer);
                let err = RegisterError::NotWriter { invoked_on, writer };
                self.walked.record(Phase::Invoke, Phase::Done);
                fx.respond(op, RegisterResp::Err(err));
                return;
            }
            RegisterOp::Write(v) => Op::Write((), v),
            RegisterOp::Read => Op::Read((), Consistency::Atomic),
            RegisterOp::ReadAt(cons) => Op::Read((), cons),
        };
        self.engine.on_invoke(op, input, &mut self.store, fx);
    }

    /// Runs after every step of the engine: while no client operation is in
    /// flight (the step completed it, or answered one in place), start the
    /// next queued invocation.
    fn settle(&mut self, fx: &mut Fx<L, V>) {
        while !self.is_busy() && !self.queue.is_empty() {
            if let Some((op, input)) = self.queue.pop_front() {
                self.begin(op, input, fx);
            }
        }
    }

    /// Runs where the catch-up can complete — at the restart and after a
    /// delivery. Its answer is then the engine's latest response: take it
    /// back before it leaves the node (the read adopted what it found).
    fn caught_up(&mut self, fx: &mut Fx<L, V>) {
        if fx.responses.pop_if(|(op, _)| *op == CATCH_UP).is_some() {
            self.catch_ups += 1;
        }
    }
}

#[deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::wildcard_enum_match_arm,
    clippy::match_wildcard_for_single_variants
)]
impl<L, V, S, C> Protocol for RegisterNode<L, V, S, C>
where
    L: Copy + PartialOrd + Debug + Send + 'static,
    V: Clone + Debug + Send + 'static,
    S: Store<(), L, V, V, Msg = RegisterMsg<L, V>, Resp = RegisterResp<V>, Fold = C>,
    C: Fold<L, V>,
{
    type Msg = RegisterMsg<L, V>;
    type Op = RegisterOp<V>;
    type Resp = RegisterResp<V>;

    fn id(&self) -> ProcessId {
        self.cfg.me
    }

    fn on_invoke(&mut self, op: OpId, input: RegisterOp<V>, fx: &mut Fx<L, V>) {
        debug_assert!(op != CATCH_UP, "{op:?} is reserved for the catch-up");
        if self.is_busy() {
            self.queue.push_back((op, input));
        } else {
            self.begin(op, input, fx);
            self.settle(fx);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: RegisterMsg<L, V>, fx: &mut Fx<L, V>) {
        self.engine.on_message(from, msg, &mut self.store, fx);
        self.caught_up(fx);
        self.settle(fx);
    }

    fn on_timer(&mut self, key: TimerKey, fx: &mut Fx<L, V>) {
        self.engine.on_timer(key, &self.store, fx);
    }

    fn on_restart(&mut self, fx: &mut Fx<L, V>) {
        // Volatile state is gone: an in-flight read or query round (its
        // client sees an aborted op), the invocation queue, the relay rounds
        // and any retry schedule. The store, a write's update round and the
        // phase-uid counter model stable storage and survive — see the
        // module docs for why a fully amnesiac replica would break
        // atomicity. The interrupted write resumes first, as the operation
        // in flight; the catch-up starts beside it.
        self.queue.clear();
        if let Some((op, label, value)) = self.engine.on_restart() {
            self.walked.record(Phase::Restart, Phase::WriteUpdate);
            self.engine
                .resume_write(op, (), label, value, &mut self.store, fx);
        }
        let read = Op::Read((), Consistency::Regular);
        self.engine.on_invoke(CATCH_UP, read, &mut self.store, fx);
        // Alone a read quorum (an R=1 threshold system), the node has
        // nothing to catch up from.
        self.caught_up(fx);
    }
}

impl<L: Copy + PartialOrd, V: Clone, S, C: Fold<L, V>> ReadPathStats for RegisterNode<L, V, S, C> {
    fn counters(&self) -> ReadPathCounters {
        let mut counters = self.engine.counters();
        counters.regular_reads -= self.catch_ups;
        counters
    }

    fn phase_edges(&self) -> NodeEdges {
        NodeEdges {
            engine: self.engine.phase_edges(),
            shell: self.walked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mwmr::{MwmrConfig, MwmrNode};
    use crate::swmr::{SwmrConfig, SwmrNode};
    use crate::testutil::{
        instant_write_quorum_keeps_draining, interrupted_write_is_answered_before_a_later_one,
        lost_catch_up_is_retransmitted_to_the_missing_only,
        read_at_the_restart_instant_is_answered_before_the_catch_up,
    };

    /// The regression of [`instant_write_quorum_keeps_draining`] on a plain
    /// register, which also shows its queue and engine idle afterwards.
    fn keeps_draining<L: Label>(cfg: impl Fn(usize) -> RegisterConfig<L>) {
        let net = instant_write_quorum_keeps_draining(|i, quorum| {
            RegisterNode::<L, u32>::new(cfg(i).with_quorum(quorum), 0)
        });
        assert!(!net.node(0).is_busy());
        assert_eq!(net.node(0).queue_len(), 0);
    }

    #[test]
    fn instant_write_quorum_keeps_draining_the_queue_swmr() {
        keeps_draining(|i| SwmrConfig::new(3, ProcessId(i), ProcessId(0)));
    }

    #[test]
    fn instant_write_quorum_keeps_draining_the_queue_mwmr() {
        // Queue mechanics only: W = 1 has no write/write intersection, so
        // this is not a sound multi-writer system.
        keeps_draining(|i| MwmrConfig::new(3, ProcessId(i)));
    }

    /// [`lost_catch_up_is_retransmitted_to_the_missing_only`] on a plain
    /// register: three firings resent seven queries, through the engine.
    fn lost_catch_up<L: Label>(cfg: impl Fn(usize) -> RegisterConfig<L>) {
        let net = lost_catch_up_is_retransmitted_to_the_missing_only(|i| {
            RegisterNode::<L, u32>::new(cfg(i).with_retransmit(1_000), 0)
        });
        assert!(!net.node(2).is_recovering() && !net.node(2).is_busy());
    }

    #[test]
    fn lost_catch_up_is_retransmitted_to_the_missing_only_swmr() {
        lost_catch_up(|i| SwmrConfig::new(5, ProcessId(i), ProcessId(0)));
    }

    #[test]
    fn lost_catch_up_is_retransmitted_to_the_missing_only_mwmr() {
        lost_catch_up(|i| MwmrConfig::new(5, ProcessId(i)));
    }

    /// [`read_at_the_restart_instant_is_answered_before_the_catch_up`] on a
    /// plain register, in each of its three read modes.
    fn served_at_once<L: Label>(cfg: impl Fn(usize) -> RegisterConfig<L>) {
        for mode in [ReadMode::TwoRound, ReadMode::FastUnanimous, ReadMode::Relay] {
            read_at_the_restart_instant_is_answered_before_the_catch_up(
                |i| RegisterNode::<L, u32>::new(cfg(i).with_read_mode(mode), 0),
                RegisterNode::is_recovering,
            );
        }
    }

    #[test]
    fn read_at_the_restart_instant_is_answered_before_the_catch_up_in_every_mode_and_tier_swmr() {
        served_at_once(|i| SwmrConfig::new(5, ProcessId(i), ProcessId(0)));
    }

    #[test]
    fn read_at_the_restart_instant_is_answered_before_the_catch_up_in_every_mode_and_tier_mwmr() {
        served_at_once(|i| MwmrConfig::new(5, ProcessId(i)));
    }

    #[test]
    fn interrupted_write_is_answered_before_a_later_one_swmr() {
        interrupted_write_is_answered_before_a_later_one(|i| {
            SwmrNode::new(SwmrConfig::new(5, ProcessId(i), ProcessId(0)), 0u32)
        });
    }

    #[test]
    fn interrupted_write_is_answered_before_a_later_one_mwmr() {
        interrupted_write_is_answered_before_a_later_one(|i| {
            MwmrNode::new(MwmrConfig::new(5, ProcessId(i)), 0u32)
        });
    }
}
