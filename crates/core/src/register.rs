//! The register engine: one quorum-phase state machine behind both the
//! single-writer ([`crate::swmr`]) and the multi-writer ([`crate::mwmr`])
//! emulation.
//!
//! The paper presents one protocol and notes that multiple writers need
//! only `(sequence, writer)` labels and a query round in front of the
//! write. [`RegisterNode<L, V>`] is that one protocol, generic over the
//! [`Label`] policy that captures exactly those two differences; a
//! single-writer write is the engine's write with the query phase skipped.
//! Every node also plays the replica role for the register.
//!
//! * **Write(v)** — (multi-writer only: broadcast `Query`, wait for a
//!   *read quorum* of labels, keep the largest;) take the next label, adopt
//!   `(label, v)` locally, broadcast `Update(label, v)` and return once a
//!   *write quorum* has acknowledged.
//! * **Read()** — broadcast `Query`, wait for a read quorum of
//!   `(label, value)` replies (counting the local replica), select the pair
//!   with the **largest label**, then **write it back**: propagate the pair
//!   with `Update` and wait for a write quorum of acknowledgements *before*
//!   returning the value. Setting
//!   [`read_write_back`](RegisterConfig::read_write_back) to `false` yields
//!   exactly the regular-register baseline whose violations experiment
//!   **T5** exhibits.
//!
//! With [`ReadMode::FastUnanimous`] selected, a read whose query quorum was
//! **unanimous** about the maximum label *and* itself forms a write quorum
//! skips the write-back — it would only re-install a label already held by
//! a write quorum (see [`fast_read_allowed`]). On the uncontended common
//! path this halves the read to one round, `2(n−1)` messages; any
//! disagreement falls back to the two-phase path, so atomicity is
//! unaffected (experiment **F6**). Writes always keep their phases: the
//! multi-writer query round is what orders concurrent writers.
//!
//! ## Relay reads
//!
//! With [`ReadMode::Relay`] the read path changes shape entirely (after
//! "Oh-RAM! One and a Half Round Atomic Memory",
//! Hadjistasi–Nicolaou–Schwarzmann): the reader broadcasts `RelayQuery`
//! carrying its own replica snapshot; every server forwards its snapshot to
//! every other server (`RelayFwd`, adopting the maxima it sees along the
//! way); once a server's forwards cover a **read quorum** it sends its
//! replica directly to the reader (`RelayReply`); the reader completes when
//! a **write quorum** of servers has replied, returning the value of the
//! **minimum** reply label — no write-back. Three one-way message delays
//! (query → forward → reply) instead of four, for every read, contended or
//! not, at a cost of `n² − 1` messages per read.
//!
//! Why the *minimum* is the safe choice: a replier adopts the maximum of a
//! read quorum of forwards — all sent after the read began — before
//! replying, so every reply label is ≥ every previously completed write's
//! label; and unlike the maximum, the minimum is *persisted at every
//! replier* (a write quorum) before any reply is sent, so a later read's
//! forward quorums intersect it and can only report labels ≥ it. Returning
//! the maximum instead would be unsound: that label may sit on a single
//! server, and a later read could miss it — a new/old inversion.
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
//! the in-flight operation, queued invocations, retry schedule, relay
//! rounds — but its replica pair `(label, value)` and the phase-uid counter
//! model **stable storage** and survive. This is not an optimization but a
//! soundness requirement: if an acknowledgement could outlive the replica
//! state it acknowledged, a write quorum would no longer guarantee that its
//! labels persist. Concretely, with full amnesia: the writer collects `p`'s
//! ack for label 5, `p` crashes and rejoins having caught up from a stale
//! majority at label 4, and a later read whose quorum intersects the write
//! quorum only at `p` returns the old value — a new/old inversion.
//! Persisting the pair (as a real deployment would, via an fsync before the
//! ack) restores the quorum-intersection argument; the catch-up **query
//! phase** the node runs before serving again is then purely a freshness
//! optimization that lets it answer with recent labels immediately. A
//! writer needs no separate counter: the single writer adopts every label
//! it issues before broadcasting it, so its persisted replica label *is*
//! its sequence number, and a multi-writer write queries a read quorum for
//! the labels in use anyway.
//!
//! ### The aborted-write epilogue
//!
//! A writer that crashes mid-write leaves its client's operation aborted:
//! the update may sit at any subset of replicas, an open-ended interval a
//! checker must treat as "possibly took effect". With
//! [`write_epilogue`](RegisterConfig::write_epilogue) enabled (single-writer
//! only), the writer also persists its *write intent* `(op, label, value)`
//! alongside the replica pair, and on restart — after the catch-up query
//! completes — rolls the interrupted write forward: it re-broadcasts
//! `Update(label, value)` with a fresh phase uid and acknowledges the
//! client once a write quorum holds the label. Roll-forward (rather than
//! abort) is the only sound resolution: the writer's own replica adopted
//! `(label, value)` *before* the broadcast, so the persisted pair already
//! carries the label — the catch-up query can only confirm it, never exceed
//! it, and re-propagating it is idempotent. The flag is off by default so
//! the baseline abort semantics (and pinned simulation traces) are
//! unchanged.

// The declared phase graph, checked by abd-lint's `phase-graph` rule
// against the graph extracted from the handler bodies below. Both reads and
// writes query first — `WriteQuery -> WriteUpdate` and `ReadQuery ->
// ReadWriteBack`, never the reverse, and the two kinds never cross — except
// that a single-writer write enters `WriteUpdate` straight from `Invoke`.
// The other `Invoke -> *` edges are the instant-quorum short-circuits
// (single-node clusters complete in place). `Restart -> Recovery -> Idle`
// encodes "a restarted node re-enters the catch-up query before serving".
// `Idle -> WriteUpdate` and `Restart -> WriteUpdate` are the aborted-write
// epilogue: once catch-up completes (or is unnecessary because the node
// alone forms a read quorum), a crash-interrupted write resumes as a fresh
// WriteUpdate phase. `Invoke -> RelayRead -> Done` is the relay read mode:
// the reader parks in a single RelayRead phase and completes on a write
// quorum of direct server replies.
// abd-lint: phase-spec(register):
//   Invoke -> WriteQuery, Invoke -> ReadQuery, Invoke -> WriteUpdate,
//   Invoke -> ReadWriteBack, Invoke -> Done,
//   Invoke -> RelayRead, RelayRead -> Done,
//   WriteQuery -> WriteUpdate, WriteQuery -> Done,
//   ReadQuery -> ReadWriteBack, ReadQuery -> Done,
//   WriteUpdate -> Done, ReadWriteBack -> Done,
//   Restart -> Recovery, Recovery -> Idle,
//   Idle -> WriteUpdate, Restart -> WriteUpdate

use crate::context::{Effects, Protocol, ReadPathCounters, ReadPathStats, TimerKey};
use crate::msg::{RegisterMsg, RegisterOp, RegisterResp};
use crate::phase::{PhaseTracker, RelayCensus, TagCensus};
use crate::procset::ProcSet;
use crate::quorum::{fast_read_allowed, Majority, QuorumSystem};
use crate::replica::Replica;
use crate::retransmit::{BackoffPolicy, Retransmitter};
use crate::types::{Consistency, Nanos, OpId, ProcessId, ReadMode, RegisterError};
use std::collections::{BTreeMap, VecDeque};
use std::marker::PhantomData;
use std::sync::Arc;

/// What distinguishes the register variants: how labels are issued.
///
/// Implemented by [`SeqNo`](crate::types::SeqNo) (single writer, see
/// [`crate::swmr`]) and [`Tag`](crate::types::Tag) (multiple writers, see
/// [`crate::mwmr`]). The engine is monomorphised over it, so the policy
/// costs nothing at run time.
pub trait Label: Copy + Ord + std::fmt::Debug + Send + 'static {
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
    /// Whether reads perform the write-back phase (`true` = atomic ABD,
    /// `false` = regular-register baseline).
    pub read_write_back: bool,
    /// How reads complete: the two-round baseline, the unanimity fast path
    /// (see [`fast_read_allowed`]), or server-to-server relay. `TwoRound`
    /// by default: the baseline protocol always pays `2` rounds per read.
    /// `FastUnanimous` is only meaningful with
    /// [`read_write_back`](RegisterConfig::read_write_back) on — the
    /// regular baseline has no write-back to elide; `Relay` replaces the
    /// write-back entirely and ignores that flag.
    pub read_mode: ReadMode,
    /// Retransmission policy for unfinished phases; `None` disables
    /// retransmission (appropriate for reliable links).
    pub retransmit: Option<BackoffPolicy>,
    /// Single-writer only: whether the writer persists its in-flight write
    /// intent and, after a crash and recovery, rolls the interrupted write
    /// forward instead of leaving it aborted (see the module docs). Off by
    /// default: the baseline drops in-flight operations on restart.
    pub write_epilogue: bool,
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
            read_write_back: true,
            read_mode: ReadMode::TwoRound,
            retransmit: None,
            write_epilogue: false,
            label: PhantomData,
        }
    }

    /// Replaces the quorum system.
    pub fn with_quorum(mut self, q: Arc<dyn QuorumSystem>) -> Self {
        self.quorum = q;
        self
    }

    /// Enables or disables the read write-back phase.
    pub fn with_read_write_back(mut self, yes: bool) -> Self {
        self.read_write_back = yes;
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

    /// Sets an explicit retransmission policy.
    pub fn with_backoff(mut self, policy: BackoffPolicy) -> Self {
        self.retransmit = Some(policy);
        self
    }
}

/// In-flight operation state.
#[derive(Clone, Debug)]
enum Pending<L, V> {
    /// Writer discovering the current maximum label (multi-writer only).
    WriteQuery {
        op: OpId,
        ph: PhaseTracker,
        best: L,
        value: V,
    },
    /// Writer waiting for update acknowledgements.
    WriteUpdate {
        op: OpId,
        ph: PhaseTracker,
        label: L,
        value: V,
    },
    /// Reader collecting query replies; the census tracks the max label
    /// *and* whether the responders were unanimous about it (fast path).
    /// `cons` is the read's requested tier: `Regular` completes without the
    /// write-back, `Atomic` runs the full second phase.
    ReadQuery {
        op: OpId,
        ph: PhaseTracker,
        census: TagCensus<L, V>,
        cons: Consistency,
    },
    /// Reader propagating the value it is about to return.
    ReadWriteBack {
        op: OpId,
        ph: PhaseTracker,
        label: L,
        value: V,
    },
    /// Relay-mode reader collecting direct server replies; completes on a
    /// write quorum of them, returning the census's minimum pair. The
    /// tracker starts empty: even this node's own reply only counts once
    /// its server-side round completes.
    RelayRead {
        op: OpId,
        ph: PhaseTracker,
        census: RelayCensus<L, V>,
    },
}

impl<L: Label, V: Clone> Pending<L, V> {
    fn phase(&self) -> &PhaseTracker {
        match self {
            Pending::WriteQuery { ph, .. }
            | Pending::WriteUpdate { ph, .. }
            | Pending::ReadQuery { ph, .. }
            | Pending::ReadWriteBack { ph, .. }
            | Pending::RelayRead { ph, .. } => ph,
        }
    }

    /// The request this phase (re)transmits to processors that have not
    /// responded.
    fn request(&self, replica: &Replica<L, V>) -> RegisterMsg<L, V> {
        let uid = self.phase().uid();
        match self {
            Pending::WriteQuery { .. } | Pending::ReadQuery { .. } => RegisterMsg::Query { uid },
            Pending::WriteUpdate { label, value, .. }
            | Pending::ReadWriteBack { label, value, .. } => RegisterMsg::Update {
                uid,
                label: *label,
                value: value.clone(),
            },
            Pending::RelayRead { .. } => {
                // Always the *current* snapshot — on a retransmission it is
                // monotone above the original, so receivers only move
                // forward.
                let (label, value) = replica.snapshot();
                RegisterMsg::RelayQuery { uid, label, value }
            }
        }
    }
}

/// One server-side relay round: which peers' forwards we have seen for
/// `(reader, uid)`, and whether we already replied. Completion is tracked
/// per round, not as a per-reader uid floor: a floor is sound only for a
/// reader with one round open, the flag for any reader.
#[derive(Clone, Debug)]
struct RelayRound {
    ph: PhaseTracker,
    done: bool,
}

/// Post-restart catch-up: a query phase run before serving clients, so the
/// rejoining replica adopts the latest completed write it missed.
#[derive(Clone, Debug)]
struct Recovery<L, V> {
    ph: PhaseTracker,
    census: TagCensus<L, V>,
}

/// One processor of the emulation: replica role, reader role and — where
/// [`RegisterConfig::writer`] allows — writer role. Use it through
/// [`SwmrNode`](crate::swmr::SwmrNode) or
/// [`MwmrNode`](crate::mwmr::MwmrNode).
#[derive(Clone, Debug)]
pub struct RegisterNode<L, V> {
    cfg: RegisterConfig<L>,
    replica: Replica<L, V>,
    next_uid: u64,
    pending: Option<Pending<L, V>>,
    queue: VecDeque<(OpId, RegisterOp<V>)>,
    rtx: Retransmitter,
    recovering: Option<Recovery<L, V>>,
    /// The writer's persisted in-flight write `(op, label, value)` — stable
    /// storage, like the replica pair. Set when a write goes pending (only
    /// with [`RegisterConfig::write_epilogue`] on), cleared when that
    /// write's `WriteOk` is issued; a crash in between leaves it for the
    /// post-recovery epilogue to roll forward.
    intent: Option<(OpId, L, V)>,
    /// Server-side relay rounds, keyed by `(reader, uid)`. Volatile —
    /// cleared on restart; completed rounds are pruned when the same reader
    /// opens a strictly newer round.
    relays: BTreeMap<(ProcessId, u64), RelayRound>,
    fast_reads: u64,
    write_backs: u64,
    relay_reads: u64,
    sc_reads: u64,
    regular_reads: u64,
}

impl<L: Label, V: Clone + std::fmt::Debug + Send + 'static> RegisterNode<L, V> {
    /// Creates a node holding `initial` as the register's initial value
    /// (under [`Label::initial`], conceptually written before the execution
    /// starts).
    pub fn new(cfg: RegisterConfig<L>, initial: V) -> Self {
        assert!(cfg.me.index() < cfg.n, "node id out of range");
        assert!(cfg.writer.index() < cfg.n, "writer id out of range");
        assert_eq!(
            cfg.quorum.n(),
            cfg.n,
            "quorum system sized for a different cluster"
        );
        let rtx = Retransmitter::new(cfg.retransmit, cfg.me);
        RegisterNode {
            cfg,
            replica: Replica::new(L::initial(), initial),
            next_uid: 0,
            pending: None,
            queue: VecDeque::new(),
            rtx,
            recovering: None,
            intent: None,
            relays: BTreeMap::new(),
            fast_reads: 0,
            write_backs: 0,
            relay_reads: 0,
            sc_reads: 0,
            regular_reads: 0,
        }
    }

    /// This node's replica state `(label, value)` — for inspection in tests
    /// and metrics.
    pub fn replica_state(&self) -> (L, V) {
        self.replica.snapshot()
    }

    /// Whether an operation is currently in flight on this node.
    pub fn is_busy(&self) -> bool {
        self.pending.is_some()
    }

    /// Whether the node is catching up after a restart (invocations queue
    /// until the catch-up read completes).
    pub fn is_recovering(&self) -> bool {
        self.recovering.is_some()
    }

    /// Messages this node has retransmitted over its lifetime.
    pub fn retransmissions(&self) -> u64 {
        self.rtx.retransmissions()
    }

    /// Number of invocations waiting behind the in-flight operation.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The node's configuration.
    pub fn config(&self) -> &RegisterConfig<L> {
        &self.cfg
    }

    fn fresh_uid(&mut self) -> u64 {
        self.next_uid += 1;
        self.next_uid
    }

    /// A fresh phase in which only this node has responded so far.
    fn fresh_phase(&mut self) -> PhaseTracker {
        let uid = self.fresh_uid();
        PhaseTracker::new(uid, self.cfg.n, self.cfg.me)
    }

    fn others(&self) -> impl Iterator<Item = ProcessId> + '_ {
        (0..self.cfg.n)
            .map(ProcessId)
            .filter(move |&p| p != self.cfg.me)
    }

    fn broadcast(&self, msg: RegisterMsg<L, V>, fx: &mut Fx<L, V>) {
        for p in self.others() {
            fx.send(p, msg.clone());
        }
    }

    /// Broadcasts `phase`'s request, arms its retransmission timer and
    /// parks the operation in it.
    fn enter(&mut self, phase: Pending<L, V>, fx: &mut Fx<L, V>) {
        self.broadcast(phase.request(&self.replica), fx);
        self.rtx.arm(phase.phase().uid(), fx);
        self.pending = Some(phase);
    }

    /// Starts the next queued invocation, if the node is idle.
    fn serve_next(&mut self, fx: &mut Fx<L, V>) {
        if self.pending.is_none() {
            if let Some((op, input)) = self.queue.pop_front() {
                self.begin(op, input, fx);
            }
        }
    }

    /// Completes the post-restart catch-up: adopt the freshest pair a read
    /// quorum reported, roll a crash-interrupted write forward (the
    /// epilogue), then serve anything that queued while recovering.
    fn finish_recovery(&mut self, label: L, value: V, fx: &mut Fx<L, V>) {
        self.recovering = None;
        // The writer's own persisted replica is part of the quorum, so
        // `label` already covers every label it issued before the crash.
        self.replica.adopt(label, value);
        // Nothing can be in flight here: invocations queue while recovering.
        if let Some((op, label, v)) = self.intent.clone() {
            self.resume_write(op, label, v, fx);
        }
        self.serve_next(fx);
    }

    /// The aborted-write epilogue: re-issue the crash-interrupted write as
    /// a fresh phase. The persisted replica adopted `(label, value)` before
    /// the original broadcast, so re-propagating the pair is idempotent;
    /// the client's `WriteOk` is issued once a write quorum holds it. The
    /// intent stays set until then — a second crash rolls forward again.
    fn resume_write(&mut self, op: OpId, label: L, value: V, fx: &mut Fx<L, V>) {
        let ph = self.fresh_phase();
        // Intent is only recorded when the writer alone is *not* a write
        // quorum (`enter_write_update` completes in place otherwise), so
        // the resumed phase always has peers to wait for.
        debug_assert!(!self.cfg.quorum.is_write_quorum(ph.responders()));
        self.enter(
            Pending::WriteUpdate {
                op,
                ph,
                label,
                value,
            },
            fx,
        );
    }

    fn finish(&mut self, op: OpId, resp: RegisterResp<V>, fx: &mut Fx<L, V>) {
        self.pending = None;
        if self.intent.as_ref().is_some_and(|(o, _, _)| *o == op) {
            self.intent = None;
        }
        fx.respond(op, resp);
        self.serve_next(fx);
    }

    fn begin(&mut self, op: OpId, input: RegisterOp<V>, fx: &mut Fx<L, V>) {
        debug_assert!(self.pending.is_none());
        match input {
            RegisterOp::Write(v) => self.begin_write(op, v, fx),
            RegisterOp::Read => self.begin_read(op, Consistency::Atomic, fx),
            RegisterOp::ReadAt(cons) => self.begin_read(op, cons, fx),
        }
    }

    fn begin_write(&mut self, op: OpId, v: V, fx: &mut Fx<L, V>) {
        if self.cfg.me != self.cfg.writer {
            fx.respond(
                op,
                RegisterResp::Err(RegisterError::NotWriter {
                    invoked_on: self.cfg.me,
                    writer: self.cfg.writer,
                }),
            );
            // Not an in-flight op: serve whatever is queued next.
            self.serve_next(fx);
            return;
        }
        let best = self.replica.label();
        if !L::WRITE_QUERIES {
            self.enter_write_update(op, best, v, fx);
            return;
        }
        let ph = self.fresh_phase();
        if self.cfg.quorum.is_read_quorum(ph.responders()) {
            self.enter_write_update(op, best, v, fx);
            return;
        }
        self.enter(
            Pending::WriteQuery {
                op,
                ph,
                best,
                value: v,
            },
            fx,
        );
    }

    /// The write proper: stamp the value with a label strictly larger than
    /// `max_seen` — every label in use — and propagate it.
    fn enter_write_update(&mut self, op: OpId, max_seen: L, v: V, fx: &mut Fx<L, V>) {
        let label = max_seen.next(self.cfg.me);
        self.replica.adopt(label, v.clone());
        let ph = self.fresh_phase();
        if self.cfg.quorum.is_write_quorum(ph.responders()) {
            self.finish(op, RegisterResp::WriteOk, fx);
            return;
        }
        if self.cfg.write_epilogue {
            self.intent = Some((op, label, v.clone()));
        }
        self.enter(
            Pending::WriteUpdate {
                op,
                ph,
                label,
                value: v,
            },
            fx,
        );
    }

    fn begin_read(&mut self, op: OpId, cons: Consistency, fx: &mut Fx<L, V>) {
        if cons == Consistency::Sequential {
            // SC-ABD: serve the local replica with no network round. The
            // replica pair is stable storage and `adopt` is monotone (and
            // recovery only raises the label), so each client's reads
            // observe a non-decreasing prefix of the write order — see
            // DESIGN.md's consistency-tier section for the full argument.
            self.sc_reads += 1;
            let (_, value) = self.replica.snapshot();
            self.finish(op, RegisterResp::ReadOk(value), fx);
            return;
        }
        if cons == Consistency::Atomic && self.cfg.read_mode == ReadMode::Relay {
            self.begin_relay_read(op, fx);
            return;
        }
        // Regular reads ignore `read_mode`: the relay round exists to
        // replace the write-back, which a regular read skips anyway, and
        // the fast path is an atomic-tier optimization.
        let ph = self.fresh_phase();
        let (label, value) = self.replica.snapshot();
        let census = TagCensus::new(label, value);
        if self.cfg.quorum.is_read_quorum(ph.responders()) {
            self.complete_read_query(op, ph.responders(), census, cons, fx);
            return;
        }
        self.enter(
            Pending::ReadQuery {
                op,
                ph,
                census,
                cons,
            },
            fx,
        );
    }

    /// The read's query phase holds a read quorum. A `Regular`-tier read
    /// completes here with the census maximum (write-back elided by
    /// definition); an atomic read either takes the one-round fast path
    /// (unanimous responders that form a write quorum — the max label is
    /// already durable, so the write-back is redundant) or falls through to
    /// the two-phase slow path.
    fn complete_read_query(
        &mut self,
        op: OpId,
        responders: &ProcSet,
        census: TagCensus<L, V>,
        cons: Consistency,
        fx: &mut Fx<L, V>,
    ) {
        if cons == Consistency::Regular {
            self.regular_reads += 1;
            let (label, value) = census.into_best();
            // Adopt locally even though the write-back is skipped: keeping
            // the local replica at least as fresh as any value this node
            // has returned is what lets Regular and Sequential reads from
            // the same client compose (DESIGN.md, consistency tiers).
            self.replica.adopt(label, value.clone());
            self.finish(op, RegisterResp::ReadOk(value), fx);
            return;
        }
        if self.cfg.read_mode == ReadMode::FastUnanimous
            && self.cfg.read_write_back
            && fast_read_allowed(self.cfg.quorum.as_ref(), responders, census.unanimous())
        {
            self.fast_reads += 1;
            let (_, value) = census.into_best();
            self.finish(op, RegisterResp::ReadOk(value), fx);
            return;
        }
        let (label, value) = census.into_best();
        // Counted here, where the write-back is decided, not in the round.
        self.write_backs += u64::from(self.cfg.read_write_back);
        self.enter_write_back(op, label, value, fx);
    }

    /// Second half of a read: either respond immediately (regular baseline)
    /// or propagate the chosen pair to a write quorum first (atomic ABD).
    fn enter_write_back(&mut self, op: OpId, label: L, value: V, fx: &mut Fx<L, V>) {
        if !self.cfg.read_write_back {
            self.finish(op, RegisterResp::ReadOk(value), fx);
            return;
        }
        self.replica.adopt(label, value.clone());
        let ph = self.fresh_phase();
        if self.cfg.quorum.is_write_quorum(ph.responders()) {
            self.finish(op, RegisterResp::ReadOk(value), fx);
            return;
        }
        self.enter(
            Pending::ReadWriteBack {
                op,
                ph,
                label,
                value,
            },
            fx,
        );
    }

    /// Opens a relay read: broadcast our replica snapshot as the round's
    /// query (it doubles as our server-role forward) and join our own
    /// server round. With a single-node cluster both the round and the read
    /// complete in place, without messages.
    fn begin_relay_read(&mut self, op: OpId, fx: &mut Fx<L, V>) {
        let uid = self.fresh_uid();
        self.enter(
            Pending::RelayRead {
                op,
                ph: PhaseTracker::new_empty(uid, self.cfg.n),
                census: RelayCensus::new(),
            },
            fx,
        );
        self.relay_observe(self.cfg.me, uid, self.cfg.me, fx);
    }

    /// Sends this server's forward for round `(reader, uid)` to `targets`.
    fn relay_fwd_to(
        &self,
        targets: &[ProcessId],
        reader: ProcessId,
        uid: u64,
        echo: bool,
        fx: &mut Fx<L, V>,
    ) {
        let (label, value) = self.replica.snapshot();
        for &p in targets {
            fx.send(
                p,
                RegisterMsg::RelayFwd {
                    uid,
                    reader,
                    label,
                    value: value.clone(),
                    echo,
                },
            );
        }
    }

    /// Records `from`'s forward (the reader's query doubles as its forward)
    /// in server round `(reader, uid)`, creating the round — and
    /// broadcasting our own forward — on first contact. Once the round's
    /// forwards cover a read quorum it is marked done and our replica
    /// snapshot goes to the reader as its direct reply (fed straight into
    /// our own pending read when we are the reader).
    fn relay_observe(&mut self, reader: ProcessId, uid: u64, from: ProcessId, fx: &mut Fx<L, V>) {
        let (n, me) = (self.cfg.n, self.cfg.me);
        let created = !self.relays.contains_key(&(reader, uid));
        if created {
            // GC: a strictly newer round from this reader retires its
            // *completed* older rounds. In-progress ones stay — a reader
            // may legitimately keep several rounds open at once.
            self.relays
                .retain(|&(r, u), round| r != reader || u >= uid || !round.done);
            self.relays.insert(
                (reader, uid),
                RelayRound {
                    ph: PhaseTracker::new(uid, n, me),
                    done: false,
                },
            );
        }
        let complete = match self.relays.get_mut(&(reader, uid)) {
            Some(round) => {
                round.ph.record(from, uid);
                !round.done && self.cfg.quorum.is_read_quorum(round.ph.responders())
            }
            None => false,
        };
        if !complete {
            if created && reader != me {
                // First contact: forward our snapshot to every other server
                // (the reader included — its own round needs ours too). The
                // reader's snapshot already travelled in its query.
                let targets: Vec<ProcessId> = self.others().collect();
                self.relay_fwd_to(&targets, reader, uid, false, fx);
            }
            return;
        }
        // The round stays behind, marked done (pruned when the reader's
        // next round arrives), so stragglers are told apart from duplicates.
        if let Some(round) = self.relays.get_mut(&(reader, uid)) {
            round.done = true;
        }
        let (label, value) = self.replica.snapshot();
        if reader == me {
            self.relay_reply_in(me, uid, label, value, fx);
        } else {
            fx.send(reader, RegisterMsg::RelayReply { uid, label, value });
        }
    }

    /// Reader-side processing of one direct server reply (our own arrives
    /// here straight from [`RegisterNode::relay_observe`] when our server
    /// round completes). Completes the read on a write quorum of replies
    /// with the census's minimum pair — see the module docs for why the
    /// minimum.
    fn relay_reply_in(&mut self, from: ProcessId, uid: u64, label: L, value: V, fx: &mut Fx<L, V>) {
        let Some(Pending::RelayRead { ph, census, .. }) = self.pending.as_mut() else {
            return;
        };
        if !ph.record(from, uid) {
            return;
        }
        census.observe(label, value);
        if !self.cfg.quorum.is_write_quorum(ph.responders()) {
            return;
        }
        if let Some(Pending::RelayRead { op, census, .. }) = self.pending.take() {
            self.rtx.disarm(uid, fx);
            self.relay_reads += 1;
            let (label, value) = match census.into_min() {
                Some(best) => best,
                // Unreachable — a write quorum is never empty — but total.
                None => self.replica.snapshot(),
            };
            self.replica.adopt(label, value.clone());
            self.finish(op, RegisterResp::ReadOk(value), fx);
        }
    }
}

impl<L: Label, V: Clone + std::fmt::Debug + Send + 'static> Protocol for RegisterNode<L, V> {
    type Msg = RegisterMsg<L, V>;
    type Op = RegisterOp<V>;
    type Resp = RegisterResp<V>;

    fn id(&self) -> ProcessId {
        self.cfg.me
    }

    fn on_invoke(&mut self, op: OpId, input: RegisterOp<V>, fx: &mut Fx<L, V>) {
        if self.pending.is_some() || self.recovering.is_some() {
            self.queue.push_back((op, input));
        } else {
            self.begin(op, input, fx);
        }
    }

    fn on_message(&mut self, from: ProcessId, msg: RegisterMsg<L, V>, fx: &mut Fx<L, V>) {
        match msg {
            // ---- replica role ----
            RegisterMsg::Query { uid } => {
                let (label, value) = self.replica.snapshot();
                fx.send(from, RegisterMsg::QueryReply { uid, label, value });
            }
            RegisterMsg::Update { uid, label, value } => {
                self.replica.adopt(label, value);
                fx.send(from, RegisterMsg::UpdateAck { uid });
            }
            // ---- client role ----
            RegisterMsg::QueryReply { uid, label, value } => {
                if let Some(rec) = self.recovering.as_mut() {
                    if !rec.ph.record(from, uid) {
                        return;
                    }
                    rec.census.observe(label, value);
                    if self.cfg.quorum.is_read_quorum(rec.ph.responders()) {
                        if let Some(rec) = self.recovering.take() {
                            self.rtx.disarm(uid, fx);
                            let (label, value) = rec.census.into_best();
                            self.finish_recovery(label, value, fx);
                        }
                    }
                    return;
                }
                // Completion takes the pending op inside its own arm so
                // each query kind advances only along its own phase edge.
                match self.pending.as_mut() {
                    Some(Pending::WriteQuery { ph, best, .. }) => {
                        if !ph.record(from, uid) {
                            return;
                        }
                        if label > *best {
                            *best = label;
                        }
                        if self.cfg.quorum.is_read_quorum(ph.responders()) {
                            if let Some(Pending::WriteQuery {
                                op, best, value: v, ..
                            }) = self.pending.take()
                            {
                                self.rtx.disarm(uid, fx);
                                self.enter_write_update(op, best, v, fx);
                            }
                        }
                    }
                    Some(Pending::ReadQuery { ph, census, .. }) => {
                        if !ph.record(from, uid) {
                            return;
                        }
                        census.observe(label, value);
                        if self.cfg.quorum.is_read_quorum(ph.responders()) {
                            if let Some(Pending::ReadQuery {
                                op,
                                ph,
                                census,
                                cons,
                            }) = self.pending.take()
                            {
                                self.rtx.disarm(uid, fx);
                                self.complete_read_query(op, ph.responders(), census, cons, fx);
                            }
                        }
                    }
                    _ => {}
                }
            }
            // ---- relay read: server and reader roles ----
            RegisterMsg::RelayQuery { uid, label, value } => {
                self.replica.adopt(label, value);
                let round = self.relays.get(&(from, uid));
                if round.is_some_and(|r| r.done) {
                    // Reader retransmission after our round completed: both
                    // our forward (for the reader's own round) and our
                    // reply may have been lost — re-send the current
                    // snapshot, which is monotone above the originals.
                    self.relay_fwd_to(&[from], from, uid, true, fx);
                    let (label, value) = self.replica.snapshot();
                    fx.send(from, RegisterMsg::RelayReply { uid, label, value });
                    return;
                }
                let repeat = round.is_some_and(|r| r.ph.responders().contains(from));
                if repeat {
                    // Duplicate query while we are still gathering: our
                    // forwards may have been lost — re-send to the peers we
                    // have not heard from (completed peers echo back) and
                    // to the stuck reader itself.
                    let mut targets = Vec::new();
                    if let Some(r) = self.relays.get(&(from, uid)) {
                        targets = r.ph.missing();
                    }
                    targets.push(from);
                    self.relay_fwd_to(&targets, from, uid, false, fx);
                    return;
                }
                self.relay_observe(from, uid, from, fx);
            }
            RegisterMsg::RelayFwd {
                uid,
                reader,
                label,
                value,
                echo,
            } => {
                self.replica.adopt(label, value);
                let round = self.relays.get(&(reader, uid));
                let repeat = round.is_some_and(|r| r.ph.responders().contains(from));
                if repeat {
                    if !echo {
                        // A re-sent forward means the sender is stuck and
                        // may have lost ours — echo our snapshot so its
                        // tracker can count us. Echoes are never answered,
                        // so healing can't ping-pong.
                        self.relay_fwd_to(&[from], reader, uid, true, fx);
                    }
                    return;
                }
                if round.is_some_and(|r| r.done) {
                    // Straggler forward for a round already completed here:
                    // record it so a later duplicate is recognized as such;
                    // nothing to send.
                    if let Some(r) = self.relays.get_mut(&(reader, uid)) {
                        r.ph.record(from, uid);
                    }
                    return;
                }
                self.relay_observe(reader, uid, from, fx);
            }
            RegisterMsg::RelayReply { uid, label, value } => {
                // Not adopted on receipt: only the census minimum is, when
                // the read completes.
                self.relay_reply_in(from, uid, label, value, fx);
            }
            RegisterMsg::UpdateAck { uid } => {
                let done = match self.pending.as_mut() {
                    Some(Pending::WriteUpdate { op, ph, .. }) => {
                        if ph.record(from, uid) && self.cfg.quorum.is_write_quorum(ph.responders())
                        {
                            Some((*op, RegisterResp::WriteOk))
                        } else {
                            None
                        }
                    }
                    Some(Pending::ReadWriteBack { op, ph, value, .. }) => {
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
        }
    }

    fn on_timer(&mut self, key: TimerKey, fx: &mut Fx<L, V>) {
        if let Some(rec) = self.recovering.as_ref() {
            if rec.ph.uid() != key.0 {
                return;
            }
            let (uid, missing) = (rec.ph.uid(), rec.ph.missing());
            self.rtx
                .fire(key.0, &missing, RegisterMsg::Query { uid }, fx);
            return;
        }
        let Some(pending) = self.pending.as_ref() else {
            return;
        };
        if pending.phase().uid() != key.0 {
            return; // Timer from a phase that already completed.
        }
        let mut missing = pending.phase().missing();
        if matches!(pending, Pending::RelayRead { .. }) {
            // A relay reader can be stuck on replies *or* on forwards for
            // its own server round; re-query both sets. The empty-seeded
            // reply tracker lists `me` as missing — never send to self.
            if let Some(round) = self.relays.get(&(self.cfg.me, key.0)) {
                for p in round.ph.missing() {
                    if !missing.contains(&p) {
                        missing.push(p);
                    }
                }
                missing.sort();
            }
            missing.retain(|&p| p != self.cfg.me);
        }
        let msg = pending.request(&self.replica);
        self.rtx.fire(key.0, &missing, msg, fx);
    }

    fn on_restart(&mut self, fx: &mut Fx<L, V>) {
        // Volatile state is gone: the in-flight operation (its client sees
        // an aborted op), the invocation queue, and any retry schedule. The
        // replica pair, the write intent and the phase-uid counter model
        // stable storage and survive — see the module docs for why a fully
        // amnesiac replica would break atomicity.
        self.pending = None;
        self.queue.clear();
        self.rtx.reset();
        // Relay bookkeeping is volatile too: the rounds this server was
        // gathering or had answered vanish with the crash. Safe, because
        // a post-restart reply still carries the *persisted* replica — the
        // quorum-intersection argument never depended on round state.
        self.relays.clear();
        let ph = self.fresh_phase();
        let (label, value) = self.replica.snapshot();
        if self.cfg.quorum.is_read_quorum(ph.responders()) {
            // Nothing to catch up from — but a crash-interrupted write
            // (possible when this node is a read quorum yet not a write
            // quorum, e.g. an R=1 threshold system) still rolls forward.
            if let Some((op, label, v)) = self.intent.clone() {
                self.resume_write(op, label, v, fx);
            }
            return;
        }
        let uid = ph.uid();
        self.recovering = Some(Recovery {
            ph,
            census: TagCensus::new(label, value),
        });
        self.broadcast(RegisterMsg::Query { uid }, fx);
        self.rtx.arm(uid, fx);
    }
}

impl<L, V> ReadPathStats for RegisterNode<L, V> {
    fn counters(&self) -> ReadPathCounters {
        ReadPathCounters {
            fast_reads: self.fast_reads,
            write_backs: self.write_backs,
            relay_reads: self.relay_reads,
            sc_reads: self.sc_reads,
            regular_reads: self.regular_reads,
            ..ReadPathCounters::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mwmr::MwmrConfig;
    use crate::quorum::Threshold;
    use crate::swmr::SwmrConfig;
    use crate::testutil::MiniNet;

    /// `Read, Write(7), Read` invoked back to back on node 0 of an
    /// `R = 3, W = 1` cluster: the write's quorum is instant (the writer
    /// alone), and completing it must still hand the node to the queued
    /// read. The hand-written single-writer node answered that write
    /// without popping the queue, stranding the read forever.
    fn instant_write_quorum_keeps_draining<L: Label>(cfg: impl Fn(usize) -> RegisterConfig<L>) {
        let nodes = (0..3)
            .map(|i| {
                let quorum = Arc::new(Threshold::new(3, 3, 1));
                RegisterNode::new(cfg(i).with_quorum(quorum), 0u32)
            })
            .collect();
        let mut net = MiniNet::new(nodes);
        net.invoke(0, RegisterOp::Read);
        net.invoke(0, RegisterOp::Write(7));
        net.invoke(0, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses(),
            vec![
                (OpId(0), RegisterResp::ReadOk(0)),
                (OpId(1), RegisterResp::WriteOk),
                (OpId(2), RegisterResp::ReadOk(7)),
            ]
        );
        assert!(!net.node(0).is_busy());
        assert_eq!(net.node(0).queue_len(), 0);
    }

    #[test]
    fn instant_write_quorum_keeps_draining_the_queue_swmr() {
        instant_write_quorum_keeps_draining(|i| SwmrConfig::new(3, ProcessId(i), ProcessId(0)));
    }

    #[test]
    fn instant_write_quorum_keeps_draining_the_queue_mwmr() {
        // Queue mechanics only: W = 1 has no write/write intersection, so
        // this is not a sound multi-writer system.
        instant_write_quorum_keeps_draining(|i| MwmrConfig::new(3, ProcessId(i)));
    }
}
