//! The quorum-operation engine: the paper's emulation, once.
//!
//! Query a read quorum, take the largest label, update a write quorum —
//! that one protocol is behind the single-writer register, the multi-writer
//! register and every key of the replicated store. [`Engine`] is its state
//! machine, written once: the five phases of a client operation
//! ([`Pending`]), the replica role that answers them, the server-side
//! rounds of relay reads, `requorum`'s "restart the round, not the
//! operation", phase ids, the read-path counters and the
//! [`Retransmitter`] that keeps unfinished rounds alive over lossy links.
//! Any number of rounds may be in flight, each found by its phase id.
//!
//! What the engine does **not** own is the replica state, the label policy
//! and the admission policy. The state is a [`Store`] handed to every call
//! — one `(label, value)` pair under the unit key for a register
//! ([`crate::register`]), a keyed map with its Merkle index for the store
//! (`abd-kv`). The store also owns everything that depends on *what a label
//! is*: it issues the label of a write, decides which pair is newer when it
//! adopts, and chooses how a read quorum's replies fold to one pair
//! ([`Fold`]) — the maximum label, the highest pair `b + 1` replicas vouch
//! for identically ([`crate::byzantine`]), or the maximum through a
//! comparison window ([`crate::bounded`]). The engine itself compares
//! labels only where the protocol does so between replies — a multi-writer
//! write's query, a relay read's minimum — which is all the order it asks
//! of a label type. [`Msg`] is the wire format of the operation path: a
//! register's message type *is* `Msg` under the unit key, the store's
//! carries it whole beside its sync protocol (the same trait names which),
//! and a host's responses convert from [`Outcome`]. Which invocations reach
//! [`Engine::on_invoke`], and when, is the host's business: a register
//! admits one operation at a time behind a FIFO queue — its post-restart
//! catch-up is one, a `Regular` read it invokes on itself — the store
//! admits everything at once.
//!
//! ## Two value types
//!
//! A keyed replica may have to say "never written": its snapshot, its query
//! replies and the answer to a read carry an `R` (`Option<V>` for the
//! store), while a write, an update and a write-back carry a `V`. The two
//! are tied by `R: From<V> + Into<Option<V>>` — both conversions `std`'s
//! own — which gives one rule, *a read that finds nothing written has
//! nothing to write back*, under which a register (`R = V`, always
//! something written: the initial value) always writes back, as the
//! paper's does.
//!
//! ## A write-back answers with what it propagated
//!
//! A completed [`Pending::ReadWriteBack`] responds with the value of *its
//! round*, never with a fresh snapshot: while the round was out, the store
//! may have adopted a newer label that no write quorum holds yet, and
//! returning that one would be a read of a value the write-back did not
//! make durable.
//!
//! ## Read modes
//!
//! With [`ReadMode::FastUnanimous`] a read whose query quorum was
//! **unanimous** about the maximum label *and* itself forms a write quorum
//! skips the write-back — it would only re-install a label a write quorum
//! already holds (see [`fast_read_allowed`]); any disagreement falls back to
//! the two-phase path, so atomicity is unaffected (experiment **F6**).
//! Writes always keep their phases: the multi-writer query round is what
//! orders concurrent writers.
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
//! server, and a later read could miss it — a new/old inversion. A reply is
//! therefore not adopted on receipt; only the census minimum is, when the
//! read completes.
//!
//! Servers track each relay round's completion individually: a reader may
//! have several rounds open at once and they can complete out of id order,
//! so a per-reader floor of completed ids would not do. Everything about a
//! relay round is volatile — a post-restart reply still carries the
//! *persisted* store, which is all the argument above needs.

// The declared phase graph of a client operation, checked by abd-lint's
// `phase-graph` rule against the graph extracted from the handler bodies
// below. Both reads and writes query first — `WriteQuery -> WriteUpdate`
// and `ReadQuery -> ReadWriteBack`, never the reverse, and the two kinds
// never cross — except that a write under a label policy without a query
// round enters `WriteUpdate` straight from `Invoke`. The other `Invoke -> *`
// edges are the instant-quorum short-circuits (single-node clusters
// complete in place). `Invoke -> RelayRead -> Done` is the relay read mode:
// the reader parks in a single RelayRead phase and completes on a write
// quorum of direct server replies.
// abd-lint: phase-spec(engine):
//   Invoke -> WriteQuery, Invoke -> ReadQuery, Invoke -> WriteUpdate,
//   Invoke -> ReadWriteBack, Invoke -> Done,
//   Invoke -> RelayRead, RelayRead -> Done,
//   WriteQuery -> WriteUpdate, WriteQuery -> Done,
//   ReadQuery -> ReadWriteBack, ReadQuery -> Done,
//   WriteUpdate -> Done, ReadWriteBack -> Done

use crate::context::{Effects, ReadPathCounters, TimerKey};
use crate::phase::{Fold, PhaseTracker, RelayCensus, TagCensus};
use crate::procset::ProcSet;
use crate::quorum::{fast_read_allowed, QuorumSystem};
use crate::retransmit::{BackoffPolicy, Retransmitter};
use crate::types::{Consistency, OpId, ProcessId, ReadMode};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The replica state an [`Engine`] works on, and the wire format its host
/// speaks. `R` is what a replica reports for a key (it may be "never
/// written"), `V` what a write stores — see the module docs.
pub trait Store<K, L, R, V> {
    /// The host's wire message: [`Msg`] itself, or an enum with a variant
    /// that holds one.
    type Msg: From<Msg<K, L, R, V>> + Clone;
    /// The host's response type; every [`Outcome`] becomes one.
    type Resp: From<Outcome<R>>;
    /// How a read quorum's replies fold to one pair.
    type Fold: Fold<L, R>;

    /// Whether a write must first learn the largest label in use from a
    /// read quorum. `false` when the writer's own label is by construction
    /// the largest (it is the only issuer).
    const WRITE_QUERIES: bool;

    /// The replica's current `(label, value)` for `key`.
    fn snapshot(&self, key: &K) -> (L, R);

    /// Monotone adoption: `(label, value)` replaces the stored pair for
    /// `key` exactly when `label` is strictly newer in the store's order.
    /// Persisted before the engine acknowledges anything it covers.
    fn adopt(&mut self, key: &K, label: L, value: V);

    /// Starts the fold of a read quorum's replies for `key` from this
    /// replica's own pair.
    fn fold(&self, key: &K) -> Self::Fold;

    /// The pair a finished fold settles on — where a fold that met an
    /// anomaly (no pair vouched for, a label outside the window) counts it.
    fn choose(&mut self, fold: Self::Fold) -> (L, R);

    /// The label of a write by `me` that saw `seen` as the largest label
    /// in use for `key`: strictly newer than it.
    fn issue(&mut self, key: &K, seen: L, me: ProcessId) -> L;
}

/// The effects buffer of the host that owns store `S`.
type Fx<S, K, L, R, V> = Effects<<S as Store<K, L, R, V>>::Msg, <S as Store<K, L, R, V>>::Resp>;

/// The wire format of the operation path — the seven shapes every
/// instantiation exchanges, declared once. Every phase carries a node-local
/// unique id `uid`; replies echo it, so stragglers from completed phases
/// find no round and blind retransmission is safe.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Msg<K, L, R, V> {
    /// Ask the receiver for its `(label, value)` for `key`.
    Query {
        /// Phase id, echoed by the reply.
        uid: u64,
        /// Key being queried.
        key: K,
    },
    /// Reply to [`Msg::Query`] with the replica's snapshot.
    QueryReply {
        /// Phase id copied from the query.
        uid: u64,
        /// The replica's label for the key.
        label: L,
        /// The replica's value for the key.
        value: R,
    },
    /// Ask the receiver to adopt `(label, value)` for `key` if newer, and
    /// acknowledge — a write's second phase and a read's write-back alike.
    Update {
        /// Phase id, echoed by the ack.
        uid: u64,
        /// Key being updated.
        key: K,
        /// Label of the propagated value.
        label: L,
        /// The propagated value.
        value: V,
    },
    /// Acknowledge a [`Msg::Update`].
    UpdateAck {
        /// Phase id copied from the update.
        uid: u64,
    },
    /// Open a relay round: the reader broadcasts its own snapshot, which
    /// doubles as its server-role forward.
    RelayQuery {
        /// Relay round id, echoed in forwards and the final reply.
        uid: u64,
        /// Key being read.
        key: K,
        /// The reader's label for the key.
        label: L,
        /// The reader's value for the key.
        value: R,
    },
    /// Server-to-server forward of a snapshot for a relay round.
    RelayFwd {
        /// Relay round id copied from the query.
        uid: u64,
        /// The reader whose round this forward belongs to.
        reader: ProcessId,
        /// Key being read.
        key: K,
        /// The forwarding server's label for the key.
        label: L,
        /// The forwarding server's value for the key.
        value: R,
        /// `true` when this forward answers a duplicate (echoes are never
        /// answered, which keeps loss healing ping-pong-free).
        echo: bool,
    },
    /// A server's direct reply to the reader, sent once its relay round has
    /// collected forwards from a read quorum.
    RelayReply {
        /// Relay round id copied from the query.
        uid: u64,
        /// The replying server's label for the key at reply time.
        label: L,
        /// The replying server's value for the key at reply time.
        value: R,
    },
}

impl<K, L, R, V> Msg<K, L, R, V> {
    /// Whether this is a reply (consumes no replica state at the receiver).
    pub fn is_reply(&self) -> bool {
        matches!(
            self,
            Msg::QueryReply { .. } | Msg::UpdateAck { .. } | Msg::RelayReply { .. }
        )
    }
}

/// A client operation, as the engine sees it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Op<K, V> {
    /// Read `key` at the given consistency tier.
    Read(K, Consistency),
    /// Write the value under `key`.
    Write(K, V),
}

/// How an operation ended.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Outcome<R> {
    /// A read returned this.
    Read(R),
    /// A write completed.
    Written,
}

/// The phase a client operation's current round is in, with what that
/// round has gathered or is propagating.
#[derive(Clone, Debug)]
pub enum Pending<L, R, V, C = TagCensus<L, R>> {
    /// Writer discovering the current maximum label.
    WriteQuery {
        /// Largest label reported so far.
        best: L,
        /// The value to write.
        value: V,
    },
    /// Writer waiting for update acknowledgements.
    WriteUpdate {
        /// The label the write was stamped with — once per operation.
        label: L,
        /// The value being written.
        value: V,
    },
    /// Reader collecting query replies.
    ReadQuery {
        /// The store's fold of the replies so far: by default the maximum
        /// label *and* whether the responders were unanimous about it (the
        /// fast path).
        census: C,
        /// The read's tier: `Regular` completes without the write-back,
        /// `Atomic` runs the second phase.
        cons: Consistency,
    },
    /// Reader propagating the value it is about to return.
    ReadWriteBack {
        /// Label of the value being written back.
        label: L,
        /// The value being written back — and the one returned.
        value: V,
    },
    /// Relay-mode reader collecting direct server replies; completes on a
    /// write quorum of them with the census's minimum pair.
    RelayRead {
        /// The minimum reply so far.
        census: RelayCensus<L, R>,
    },
}

/// One round in flight: whose operation, on which key, who has responded.
/// A relay read's tracker starts empty — even this node's own reply only
/// counts once its server-side round completes.
#[derive(Clone, Debug)]
struct Round<K, L, R, V, C> {
    op: OpId,
    key: K,
    ph: PhaseTracker,
    phase: Pending<L, R, V, C>,
}

impl<K: Clone, L: Copy, R, V: Clone, C> Round<K, L, R, V, C> {
    /// The request this round (re)transmits to processors that have not
    /// responded.
    fn request<S: Store<K, L, R, V>>(&self, store: &S) -> S::Msg {
        let (uid, key) = (self.ph.uid(), self.key.clone());
        match &self.phase {
            Pending::WriteQuery { .. } | Pending::ReadQuery { .. } => Msg::Query { uid, key },
            Pending::WriteUpdate { label, value } | Pending::ReadWriteBack { label, value } => {
                let (label, value) = (*label, value.clone());
                Msg::Update {
                    uid,
                    key,
                    label,
                    value,
                }
            }
            Pending::RelayRead { .. } => {
                // Always the *current* snapshot — on a retransmission it is
                // monotone above the original, so receivers only move
                // forward.
                let (label, value) = store.snapshot(&self.key);
                Msg::RelayQuery {
                    uid,
                    key,
                    label,
                    value,
                }
            }
        }
        .into()
    }
}

/// One server-side relay round: which peers' forwards we have seen for
/// `(reader, uid)`, and whether we already replied. The round's key always
/// travels in the messages themselves, so it is not stored here.
#[derive(Clone, Debug)]
struct RelayRound {
    ph: PhaseTracker,
    done: bool,
}

/// The quorum-operation state machine of one node; see the module docs.
/// `C` is the [`Store::Fold`] of the stores it will be handed.
#[derive(Clone, Debug)]
pub struct Engine<K, L, R, V, C = TagCensus<L, R>> {
    n: usize,
    me: ProcessId,
    quorum: Arc<dyn QuorumSystem>,
    read_mode: ReadMode,
    /// `false` only for the regular-register baseline of experiment **T5**:
    /// an atomic read then returns its query's maximum without propagating
    /// (or adopting) it.
    read_write_back: bool,
    /// Source of phase ids. Models stable storage: it survives a restart,
    /// so a reply to a pre-crash phase never matches a post-crash one.
    next_uid: u64,
    /// Rounds in flight, found by a scan for their id: a register has one,
    /// a store a handful, and the vector keeps its capacity.
    rounds: Vec<Round<K, L, R, V, C>>,
    /// Server-side relay rounds, keyed by `(reader, uid)`. Volatile;
    /// completed rounds are retired when the same reader opens a strictly
    /// newer round.
    relays: BTreeMap<(ProcessId, u64), RelayRound>,
    /// Retry schedules of every armed phase — the engine's rounds and the
    /// host's own (the store's sync walk), which draw their ids from
    /// [`Engine::fresh_uid`] and share this driver's jitter and counter.
    pub rtx: Retransmitter,
    counters: ReadPathCounters,
}

/// Adopts a snapshot-shaped pair, in which the sender may never have
/// written the key (nothing to adopt).
fn adopt_read<K, L, R: Into<Option<V>>, V, S: Store<K, L, R, V>>(
    store: &mut S,
    key: &K,
    label: L,
    value: R,
) {
    if let Some(value) = value.into() {
        store.adopt(key, label, value);
    }
}

/// Sends this server's forward for round `(reader, uid)` to `targets`.
fn relay_fwd<K: Clone, L, R, V, S: Store<K, L, R, V>>(
    targets: impl IntoIterator<Item = ProcessId>,
    (reader, uid): (ProcessId, u64),
    key: &K,
    echo: bool,
    store: &S,
    fx: &mut Fx<S, K, L, R, V>,
) {
    let (key, (label, value)) = (key.clone(), store.snapshot(key));
    let fwd = Msg::RelayFwd {
        uid,
        reader,
        key,
        label,
        value,
        echo,
    };
    fx.send_each(targets, fwd.into());
}

impl<K, L, R, V, C> Engine<K, L, R, V, C>
where
    K: Clone,
    L: Copy + PartialOrd,
    R: Clone + From<V> + Into<Option<V>>,
    V: Clone,
    C: Fold<L, R>,
{
    /// An idle engine for node `me` of `n`. `read_write_back` is `true`
    /// everywhere but in the regular-register baseline; `retransmit`
    /// `None` means reliable links.
    pub fn new(
        n: usize,
        me: ProcessId,
        quorum: Arc<dyn QuorumSystem>,
        read_mode: ReadMode,
        read_write_back: bool,
        retransmit: Option<BackoffPolicy>,
    ) -> Self {
        assert!(me.index() < n, "node id out of range");
        assert_eq!(quorum.n(), n, "quorum system sized for a different cluster");
        Engine {
            n,
            me,
            quorum,
            read_mode,
            read_write_back,
            next_uid: 0,
            rounds: Vec::new(),
            relays: BTreeMap::new(),
            rtx: Retransmitter::new(retransmit, me),
            counters: ReadPathCounters::default(),
        }
    }

    /// Number of client rounds — one per operation — in flight.
    pub fn in_flight(&self) -> usize {
        self.rounds.len()
    }

    /// Whether operation `op` has a round in flight.
    pub fn is_pending(&self, op: OpId) -> bool {
        self.rounds.iter().any(|r| r.op == op)
    }

    /// The five read-path counters (the sync counters stay `0`).
    pub fn counters(&self) -> ReadPathCounters {
        self.counters
    }

    /// Every processor but this one, in id order.
    pub fn peers(&self) -> impl Iterator<Item = ProcessId> {
        let me = self.me;
        (0..self.n).map(ProcessId).filter(move |&p| p != me)
    }

    /// The next phase id.
    pub fn fresh_uid(&mut self) -> u64 {
        self.next_uid += 1;
        self.next_uid
    }

    /// The update round of a write in flight, as `(op, label, value)` —
    /// what a writer that persists its intent has to record.
    pub fn write_in_flight(&self) -> Option<(OpId, L, V)> {
        self.rounds.iter().find_map(|r| match &r.phase {
            Pending::WriteUpdate { label, value } => Some((r.op, *label, value.clone())),
            _ => None,
        })
    }

    /// A fresh phase in which only this node has responded so far.
    fn fresh_phase(&mut self) -> PhaseTracker {
        let uid = self.fresh_uid();
        PhaseTracker::new(uid, self.n, self.me)
    }

    fn find(&self, uid: u64) -> Option<usize> {
        self.rounds.iter().position(|r| r.ph.uid() == uid)
    }

    /// Broadcasts `round`'s request, arms its retransmission timer and
    /// parks the operation in it.
    fn enter<S: Store<K, L, R, V>>(
        &mut self,
        round: Round<K, L, R, V, C>,
        store: &S,
        fx: &mut Fx<S, K, L, R, V>,
    ) {
        fx.send_each(self.peers(), round.request(store));
        self.rtx.arm(round.ph.uid(), fx);
        self.rounds.push(round);
    }

    /// Starts a client operation. Admission — queueing, gating, rejecting —
    /// is the caller's; whatever arrives here runs at once.
    pub fn on_invoke<S: Store<K, L, R, V, Fold = C>>(
        &mut self,
        op: OpId,
        input: Op<K, V>,
        store: &mut S,
        fx: &mut Fx<S, K, L, R, V>,
    ) {
        match input {
            Op::Read(key, cons) => self.begin_read(op, key, cons, store, fx),
            Op::Write(key, value) => self.begin_write(op, key, value, store, fx),
        }
    }

    /// Phase 1 of a write: learn the largest label a read quorum holds —
    /// skipped when the label policy makes this node's own the largest.
    fn begin_write<S: Store<K, L, R, V>>(
        &mut self,
        op: OpId,
        key: K,
        value: V,
        store: &mut S,
        fx: &mut Fx<S, K, L, R, V>,
    ) {
        let best = store.snapshot(&key).0;
        if S::WRITE_QUERIES {
            let ph = self.fresh_phase();
            if !self.quorum.is_read_quorum(ph.responders()) {
                let phase = Pending::WriteQuery { best, value };
                self.enter(Round { op, key, ph, phase }, store, fx);
                return;
            }
        }
        let label = store.issue(&key, best, self.me);
        self.write_update(op, key, label, value, store, fx);
    }

    /// Phase 2 of a write, stamped `label` — strictly above every label in
    /// use, and chosen once per operation, so the write is one write
    /// however often this round is restarted: adopt and propagate.
    fn write_update<S: Store<K, L, R, V>>(
        &mut self,
        op: OpId,
        key: K,
        label: L,
        value: V,
        store: &mut S,
        fx: &mut Fx<S, K, L, R, V>,
    ) {
        store.adopt(&key, label, value.clone());
        let ph = self.fresh_phase();
        if self.quorum.is_write_quorum(ph.responders()) {
            fx.respond(op, Outcome::Written.into());
            return;
        }
        let phase = Pending::WriteUpdate { label, value };
        self.enter(Round { op, key, ph, phase }, store, fx);
    }

    /// Starts one read at tier `cons`. Sequential reads answer from the
    /// local replica in zero rounds: the store is stable storage and
    /// `adopt` is monotone, so each client's reads observe a non-decreasing
    /// prefix of the write order (DESIGN.md, consistency tiers). The other
    /// tiers run the query round, with only atomic reads eligible for the
    /// relay path — a weaker tier has no write-back for it to replace, and
    /// the fast path is an atomic-tier optimization too.
    fn begin_read<S: Store<K, L, R, V, Fold = C>>(
        &mut self,
        op: OpId,
        key: K,
        cons: Consistency,
        store: &mut S,
        fx: &mut Fx<S, K, L, R, V>,
    ) {
        if cons == Consistency::Sequential {
            self.counters.sc_reads += 1;
            fx.respond(op, Outcome::Read(store.snapshot(&key).1).into());
            return;
        }
        if cons == Consistency::Atomic && self.read_mode == ReadMode::Relay {
            self.begin_relay_read(op, key, store, fx);
            return;
        }
        let ph = self.fresh_phase();
        let census = store.fold(&key);
        if self.quorum.is_read_quorum(ph.responders()) {
            self.complete_read_query(op, key, ph.responders(), census, cons, store, fx);
            return;
        }
        let phase = Pending::ReadQuery { census, cons };
        self.enter(Round { op, key, ph, phase }, store, fx);
    }

    /// The read's query phase holds a read quorum. A `Regular`-tier read
    /// completes here with the pair the store's fold settles on (write-back
    /// elided by definition); an atomic read either takes the one-round fast path
    /// (unanimous responders that form a write quorum — the max label is
    /// already durable, so the write-back is redundant) or writes back what
    /// it is about to return — unless nothing was ever written.
    #[allow(clippy::too_many_arguments)]
    fn complete_read_query<S: Store<K, L, R, V, Fold = C>>(
        &mut self,
        op: OpId,
        key: K,
        responders: &ProcSet,
        census: C,
        cons: Consistency,
        store: &mut S,
        fx: &mut Fx<S, K, L, R, V>,
    ) {
        let fast = self.read_mode == ReadMode::FastUnanimous
            && self.read_write_back
            && fast_read_allowed(self.quorum.as_ref(), responders, census.unanimous());
        let (label, value) = store.choose(census);
        if cons == Consistency::Regular {
            // Adopt locally even though the write-back is skipped: keeping
            // the local replica at least as fresh as any value this node
            // has returned is what lets Regular and Sequential reads from
            // the same client compose (DESIGN.md, consistency tiers).
            self.counters.regular_reads += 1;
            adopt_read(store, &key, label, value.clone());
        } else if fast {
            self.counters.fast_reads += 1;
        } else if self.read_write_back {
            if let Some(written) = value.clone().into() {
                // Counted here, where the write-back is decided, not in the
                // round: `requorum` may run that twice.
                self.counters.write_backs += 1;
                self.write_back(op, key, label, written, store, fx);
                return;
            }
        }
        fx.respond(op, Outcome::Read(value).into());
    }

    /// Phase 2 of a read: propagate the chosen pair to a write quorum
    /// before returning its value.
    fn write_back<S: Store<K, L, R, V>>(
        &mut self,
        op: OpId,
        key: K,
        label: L,
        value: V,
        store: &mut S,
        fx: &mut Fx<S, K, L, R, V>,
    ) {
        store.adopt(&key, label, value.clone());
        let ph = self.fresh_phase();
        if self.quorum.is_write_quorum(ph.responders()) {
            fx.respond(op, Outcome::Read(value.into()).into());
            return;
        }
        let phase = Pending::ReadWriteBack { label, value };
        self.enter(Round { op, key, ph, phase }, store, fx);
    }

    /// Opens a relay read: broadcast our snapshot as the round's query (it
    /// doubles as our server-role forward) and join our own server round.
    /// With a single-node cluster both the round and the read complete in
    /// place, without messages.
    fn begin_relay_read<S: Store<K, L, R, V>>(
        &mut self,
        op: OpId,
        key: K,
        store: &mut S,
        fx: &mut Fx<S, K, L, R, V>,
    ) {
        let uid = self.fresh_uid();
        let ph = PhaseTracker::new_empty(uid, self.n);
        let census = RelayCensus::new();
        let phase = Pending::RelayRead { census };
        let round = Round {
            op,
            key: key.clone(),
            ph,
            phase,
        };
        self.enter(round, store, fx);
        self.relay_observe((self.me, uid), &key, self.me, store, fx);
    }

    /// Records `from`'s forward (the reader's query doubles as its forward)
    /// in server round `(reader, uid)`, creating the round — and
    /// broadcasting our own forward — on first contact. Once the forwards
    /// cover a read quorum the round is marked done and our snapshot goes to
    /// the reader as its direct reply (fed straight into our own pending
    /// read when we are the reader).
    fn relay_observe<S: Store<K, L, R, V>>(
        &mut self,
        id: (ProcessId, u64),
        key: &K,
        from: ProcessId,
        store: &mut S,
        fx: &mut Fx<S, K, L, R, V>,
    ) {
        let (reader, uid) = id;
        let created = !self.relays.contains_key(&id);
        if created {
            // A strictly newer round from this reader retires its
            // *completed* older rounds. In-progress ones stay — a reader
            // may legitimately keep several rounds open at once.
            self.relays
                .retain(|&(r, u), round| r != reader || u >= uid || !round.done);
            let ph = PhaseTracker::new(uid, self.n, self.me);
            self.relays.insert(id, RelayRound { ph, done: false });
        }
        let Some(round) = self.relays.get_mut(&id) else {
            return;
        };
        round.ph.record(from, uid);
        if round.done || !self.quorum.is_read_quorum(round.ph.responders()) {
            if created && reader != self.me {
                // First contact: forward our snapshot to every other server
                // (the reader included — its own round needs ours too). The
                // reader's snapshot already travelled in its query.
                relay_fwd(self.peers(), id, key, false, store, fx);
            }
            return;
        }
        // The round stays behind, marked done, so stragglers are told apart
        // from duplicates.
        round.done = true;
        let (label, value) = store.snapshot(key);
        if reader == self.me {
            self.relay_reply_in(reader, uid, label, value, store, fx);
        } else {
            fx.send(reader, Msg::RelayReply { uid, label, value }.into());
        }
    }

    /// Reader-side processing of one direct server reply (our own arrives
    /// here straight from [`Engine::relay_observe`] when our server round
    /// completes). Completes the read on a write quorum of replies with the
    /// census's minimum pair — see the module docs for why the minimum.
    fn relay_reply_in<S: Store<K, L, R, V>>(
        &mut self,
        from: ProcessId,
        uid: u64,
        label: L,
        value: R,
        store: &mut S,
        fx: &mut Fx<S, K, L, R, V>,
    ) {
        let Some(i) = self.find(uid) else {
            return;
        };
        let round = &mut self.rounds[i];
        let Pending::RelayRead { census } = &mut round.phase else {
            return;
        };
        if !round.ph.record(from, uid) {
            return;
        }
        census.observe(label, value);
        if !self.quorum.is_write_quorum(round.ph.responders()) {
            return;
        }
        let Round { op, key, phase, .. } = self.rounds.swap_remove(i);
        if let Pending::RelayRead { census } = phase {
            self.rtx.disarm(uid, fx);
            self.counters.relay_reads += 1;
            // `None` is unreachable — a write quorum is never empty — but
            // total.
            let (label, value) = census.into_min().unwrap_or_else(|| store.snapshot(&key));
            adopt_read(store, &key, label, value.clone());
            fx.respond(op, Outcome::Read(value).into());
        }
    }

    /// A message of the operation path arrived: the replica role answers
    /// queries and updates, the client role advances the round the reply
    /// belongs to — a reply whose round is gone is a straggler and ignored.
    ///
    /// `#[inline]`: a host has one call site, its own `on_message`, and the
    /// message arrives by value — out of line that is a call and a 40- to
    /// 64-byte move per delivery, ≈ 0.7 ns on every handler call (a
    /// hand-driven n = 5 put: 271 → 282 ns). Too small for a simulated
    /// campaign to resolve; the function is too large to be inlined unasked.
    #[inline]
    pub fn on_message<S: Store<K, L, R, V, Fold = C>>(
        &mut self,
        from: ProcessId,
        msg: Msg<K, L, R, V>,
        store: &mut S,
        fx: &mut Fx<S, K, L, R, V>,
    ) {
        match msg {
            // ---- replica role ----
            Msg::Query { uid, key } => {
                let (label, value) = store.snapshot(&key);
                fx.send(from, Msg::QueryReply { uid, label, value }.into());
            }
            Msg::Update {
                uid,
                key,
                label,
                value,
            } => {
                store.adopt(&key, label, value);
                fx.send(from, Msg::UpdateAck { uid }.into());
            }
            // ---- client role ----
            Msg::QueryReply { uid, label, value } => {
                let Some(i) = self.find(uid) else {
                    return;
                };
                let round = &mut self.rounds[i];
                // Each query kind folds the reply its own way and, below,
                // advances only along its own phase edge.
                match &mut round.phase {
                    Pending::WriteQuery { best, .. } => {
                        if !round.ph.record(from, uid) {
                            return;
                        }
                        if label > *best {
                            *best = label;
                        }
                    }
                    Pending::ReadQuery { census, .. } => {
                        if !round.ph.record(from, uid) {
                            return;
                        }
                        census.observe(label, value);
                    }
                    _ => return,
                }
                if !self.quorum.is_read_quorum(round.ph.responders()) {
                    return;
                }
                let Round { op, key, ph, phase } = self.rounds.swap_remove(i);
                self.rtx.disarm(uid, fx);
                match phase {
                    Pending::WriteQuery { best, value } => {
                        let label = store.issue(&key, best, self.me);
                        self.write_update(op, key, label, value, store, fx);
                    }
                    Pending::ReadQuery { census, cons } => {
                        self.complete_read_query(op, key, ph.responders(), census, cons, store, fx);
                    }
                    _ => {}
                }
            }
            Msg::UpdateAck { uid } => {
                let Some(i) = self.find(uid) else {
                    return;
                };
                let round = &mut self.rounds[i];
                match round.phase {
                    Pending::WriteUpdate { .. } | Pending::ReadWriteBack { .. } => {}
                    _ => return,
                }
                if !round.ph.record(from, uid)
                    || !self.quorum.is_write_quorum(round.ph.responders())
                {
                    return;
                }
                let Round { op, phase, .. } = self.rounds.swap_remove(i);
                self.rtx.disarm(uid, fx);
                match phase {
                    Pending::WriteUpdate { .. } => fx.respond(op, Outcome::Written.into()),
                    // The value this round propagated — see the module docs.
                    Pending::ReadWriteBack { value, .. } => {
                        fx.respond(op, Outcome::Read(value.into()).into());
                    }
                    _ => {}
                }
            }
            // ---- relay read: server and reader roles ----
            Msg::RelayQuery {
                uid,
                key,
                label,
                value,
            } => {
                adopt_read(store, &key, label, value);
                let id = (from, uid);
                let round = self.relays.get(&id);
                if round.is_some_and(|r| r.done) {
                    // Reader retransmission after our round completed: both
                    // our forward (for the reader's own round) and our
                    // reply may have been lost — re-send the current
                    // snapshot, which is monotone above the originals.
                    relay_fwd([from], id, &key, true, store, fx);
                    let (label, value) = store.snapshot(&key);
                    fx.send(from, Msg::RelayReply { uid, label, value }.into());
                } else if let Some(r) = round.filter(|r| r.ph.responders().contains(from)) {
                    // Duplicate query while we are still gathering: our
                    // forwards may have been lost — re-send to the peers we
                    // have not heard from (completed peers echo back) and
                    // to the stuck reader itself.
                    let targets = r.ph.missing().into_iter().chain([from]);
                    relay_fwd(targets, id, &key, false, store, fx);
                } else {
                    self.relay_observe(id, &key, from, store, fx);
                }
            }
            Msg::RelayFwd {
                uid,
                reader,
                key,
                label,
                value,
                echo,
            } => {
                adopt_read(store, &key, label, value);
                let id = (reader, uid);
                match self.relays.get_mut(&id) {
                    Some(r) if r.ph.responders().contains(from) => {
                        // A re-sent forward means the sender is stuck and
                        // may have lost ours — echo our snapshot so its
                        // tracker can count us. Echoes are never answered,
                        // so healing can't ping-pong.
                        if !echo {
                            relay_fwd([from], id, &key, true, store, fx);
                        }
                    }
                    // Straggler forward for a round already completed here:
                    // record it so a later duplicate is recognized as such.
                    Some(r) if r.done => {
                        r.ph.record(from, uid);
                    }
                    _ => self.relay_observe(id, &key, from, store, fx),
                }
            }
            Msg::RelayReply { uid, label, value } => {
                self.relay_reply_in(from, uid, label, value, store, fx);
            }
        }
    }

    /// Timer `key` fired: if it protects one of the engine's rounds, resend
    /// the round's request to the processors still missing and back off. A
    /// timer of a round that already completed finds nothing.
    pub fn on_timer<S: Store<K, L, R, V>>(
        &mut self,
        key: TimerKey,
        store: &S,
        fx: &mut Fx<S, K, L, R, V>,
    ) {
        let Some(round) = self.rounds.iter().find(|r| r.ph.uid() == key.0) else {
            return;
        };
        let mut missing = round.ph.missing();
        if let Pending::RelayRead { .. } = round.phase {
            // A relay reader can be stuck on replies *or* on forwards for
            // its own server round; re-query both sets. The empty-seeded
            // reply tracker lists `me` as missing — never send to self.
            if let Some(server) = self.relays.get(&(self.me, key.0)) {
                for p in server.ph.missing() {
                    if !missing.contains(&p) {
                        missing.push(p);
                    }
                }
                missing.sort();
            }
            missing.retain(|&p| p != self.me);
        }
        self.rtx.fire(key.0, &missing, round.request(store), fx);
    }

    /// The node rebooted: rounds in flight (their clients see aborted
    /// operations), relay rounds and retry schedules are volatile and gone;
    /// the phase-id counter, like the store, is stable storage.
    pub fn on_restart(&mut self) {
        self.rounds.clear();
        self.relays.clear();
        self.rtx.reset();
    }

    /// Starts the round `phase` of operation `op` over: fresh phase id,
    /// responders back to `me`, request re-broadcast. A query round starts
    /// from this replica's snapshot (it has chosen nothing yet); an update
    /// or write-back round keeps the label it already chose, so a restarted
    /// write is still one write.
    pub fn restart_round<S: Store<K, L, R, V, Fold = C>>(
        &mut self,
        op: OpId,
        key: K,
        phase: Pending<L, R, V, C>,
        store: &mut S,
        fx: &mut Fx<S, K, L, R, V>,
    ) {
        match phase {
            Pending::WriteQuery { value, .. } => self.begin_write(op, key, value, store, fx),
            Pending::WriteUpdate { label, value } => {
                self.write_update(op, key, label, value, store, fx);
            }
            Pending::ReadQuery { cons, .. } => self.begin_read(op, key, cons, store, fx),
            Pending::ReadWriteBack { label, value } => {
                self.write_back(op, key, label, value, store, fx);
            }
            Pending::RelayRead { .. } => self.begin_relay_read(op, key, store, fx),
        }
    }

    /// Swaps the quorum system under everything in flight and restarts the
    /// current *round* — not the operation — of each pending phase
    /// ([`Engine::restart_round`]), in phase-id order. Replies to the old
    /// phase ids find no round and are ignored. Server-side relay rounds
    /// counted responders of the old system, carry no client's operation,
    /// and are dropped.
    pub fn requorum<S: Store<K, L, R, V, Fold = C>>(
        &mut self,
        quorum: Arc<dyn QuorumSystem>,
        store: &mut S,
        fx: &mut Fx<S, K, L, R, V>,
    ) {
        assert_eq!(
            quorum.n(),
            self.n,
            "quorum system sized for a different cluster"
        );
        self.quorum = quorum;
        self.relays.clear();
        let mut rounds = std::mem::take(&mut self.rounds);
        rounds.sort_unstable_by_key(|r| r.ph.uid());
        for Round { op, key, ph, phase } in rounds {
            self.rtx.disarm(ph.uid(), fx);
            self.restart_round(op, key, phase, store, fx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quorum::Majority;

    /// The smallest instantiation: one `(label, value)` pair under the unit
    /// key, speaking the engine's own vocabulary.
    struct Cell(u64, u64);

    impl Store<(), u64, u64, u64> for Cell {
        type Msg = Msg<(), u64, u64, u64>;
        type Resp = Outcome<u64>;
        type Fold = TagCensus<u64, u64>;
        const WRITE_QUERIES: bool = true;

        fn snapshot(&self, _: &()) -> (u64, u64) {
            (self.0, self.1)
        }

        fn fold(&self, _: &()) -> TagCensus<u64, u64> {
            TagCensus::new(self.0, self.1)
        }

        fn choose(&mut self, fold: TagCensus<u64, u64>) -> (u64, u64) {
            fold.into_best()
        }

        fn issue(&mut self, _: &(), seen: u64, _: ProcessId) -> u64 {
            seen + 1
        }

        fn adopt(&mut self, _: &(), label: u64, value: u64) {
            if label > self.0 {
                *self = Cell(label, value);
            }
        }
    }

    #[test]
    fn reply_classification() {
        let q: Msg<(), u64, u8, u8> = Msg::Query { uid: 0, key: () };
        let qr: Msg<(), u64, u8, u8> = Msg::QueryReply {
            uid: 0,
            label: 0,
            value: 0,
        };
        let u: Msg<(), u64, u8, u8> = Msg::Update {
            uid: 0,
            key: (),
            label: 0,
            value: 0,
        };
        let ua: Msg<(), u64, u8, u8> = Msg::UpdateAck { uid: 0 };
        assert!(!q.is_reply());
        assert!(qr.is_reply());
        assert!(!u.is_reply());
        assert!(ua.is_reply());
        let rq: Msg<(), u64, u8, u8> = Msg::RelayQuery {
            uid: 0,
            key: (),
            label: 0,
            value: 0,
        };
        let rf: Msg<(), u64, u8, u8> = Msg::RelayFwd {
            uid: 0,
            reader: ProcessId(0),
            key: (),
            label: 0,
            value: 0,
            echo: false,
        };
        let rr: Msg<(), u64, u8, u8> = Msg::RelayReply {
            uid: 0,
            label: 0,
            value: 0,
        };
        assert!(!rq.is_reply());
        assert!(!rf.is_reply());
        assert!(rr.is_reply());
    }

    /// What one delivery to the server made it send: `(forwards, echoes,
    /// replies)`.
    fn deliver(
        server: &mut Engine<(), u64, u64, u64>,
        from: usize,
        msg: Msg<(), u64, u64, u64>,
    ) -> (usize, usize, usize) {
        let mut fx = Effects::new();
        server.on_message(ProcessId(from), msg, &mut Cell(0, 0), &mut fx);
        let count =
            |f: fn(&Msg<(), u64, u64, u64>) -> bool| fx.sends.iter().filter(|(_, m)| f(m)).count();
        (
            count(|m| matches!(m, Msg::RelayFwd { echo: false, .. })),
            count(|m| matches!(m, Msg::RelayFwd { echo: true, .. })),
            count(|m| matches!(m, Msg::RelayReply { .. })),
        )
    }

    /// What both instantiations share since relay completion went per round:
    /// a duplicate `RelayQuery` for a done-but-kept round replays forward
    /// and reply, for a retired round it re-opens the round.
    #[test]
    fn duplicate_relay_query_replays_a_kept_round_and_reopens_a_retired_one() {
        const N: usize = 5;
        let quorum = Arc::new(Majority::new(N));
        let mut server = Engine::new(N, ProcessId(1), quorum, ReadMode::Relay, true, None);
        let query = |uid| Msg::RelayQuery {
            uid,
            key: (),
            label: 0,
            value: 0,
        };
        let fwd = |uid| Msg::RelayFwd {
            uid,
            reader: ProcessId(0),
            key: (),
            label: 0,
            value: 0,
            echo: false,
        };
        // Reader 0 opens round 1: first contact forwards to everyone else.
        assert_eq!(deliver(&mut server, 0, query(1)), (N - 1, 0, 0));
        // Still gathering: a duplicate query re-forwards to the three peers
        // unheard from and to the reader.
        assert_eq!(deliver(&mut server, 0, query(1)), (N - 2 + 1, 0, 0));
        // A third forward makes a read quorum: the direct reply goes out.
        assert_eq!(deliver(&mut server, 2, fwd(1)), (0, 0, 1));
        // Done but kept: a duplicate query replays forward (as an echo) and
        // reply; a straggler forward is recorded silently, its duplicate
        // echoed.
        assert_eq!(deliver(&mut server, 0, query(1)), (0, 1, 1));
        assert_eq!(deliver(&mut server, 3, fwd(1)), (0, 0, 0));
        assert_eq!(deliver(&mut server, 3, fwd(1)), (0, 1, 0));
        // Round 2 of the same reader retires the completed round 1 …
        assert_eq!(deliver(&mut server, 0, query(2)), (N - 1, 0, 0));
        assert_eq!(server.relays.len(), 1);
        // … so a late duplicate of query 1 finds nothing and opens it again,
        // beside round 2, which an older id does not retire.
        assert_eq!(deliver(&mut server, 0, query(1)), (N - 1, 0, 0));
        assert_eq!(server.relays.len(), 2);
        // Rounds complete in any order: 1 again before 2.
        assert_eq!(deliver(&mut server, 4, fwd(1)), (0, 0, 1));
        assert_eq!(deliver(&mut server, 4, fwd(2)), (0, 0, 1));
    }
}
