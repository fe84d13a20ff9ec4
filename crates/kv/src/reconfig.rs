//! Reconfigurable replicated storage — a deliberately simplified cousin of
//! RAMBO (Lynch & Shvartsman, DISC 2002), the follow-up the Dijkstra Prize
//! account cites for "systems with dynamic failures".
//!
//! The static emulation dies once a majority of the *original* cluster has
//! crashed. Reconfiguration fixes that: an administrator installs a new
//! member set, the store's state migrates, and the resilience clock
//! restarts against the new membership.
//!
//! ## One protocol, fenced
//!
//! [`RcNode`] contains no read or write protocol of its own. It is an
//! **epoch fence around a [`KvNode`]**: the inner node runs every `Get` and
//! `Put` — read modes, per-phase backoff, Merkle sync and restart included —
//! under the quorum system of the current [`Config`]
//! ([`Config::quorums`]: one vote per member, none for anyone else), and
//! every message it emits travels as [`RcMsg::Op`], stamped with the epoch
//! it was sent in. The wrapper adds only what reconfiguration needs, and
//! holds these invariants:
//!
//! * **Epochs do not mix.** An `Op` reaches the inner node only if it
//!   carries the receiver's own epoch. One from an older epoch is answered
//!   with where the system is now (see *Stragglers*); on one from a newer
//!   epoch the receiver asks the sender for the same.
//! * **A sealed replica is out of its epoch.** Answering a collect *seals* a
//!   replica for its current epoch: from then until its epoch moves it
//!   hands the inner node **nothing** — no request, no reply to a round it
//!   opened itself, no invocation (they park, and start when the epoch
//!   moves). So no round of the closing epoch can count a sealed replica,
//!   the replica's own rounds included, and whatever a sealed replica
//!   acknowledged, it acknowledged before its [`RcMsg::StateReply`].
//! * **Only members answer requests**; anyone may open rounds as a client
//!   and hear the replies.
//! * **Whoever serves an epoch as a member holds that epoch's merged
//!   state**: it received an [`RcMsg::Install`] (or coordinated it). A
//!   bare [`RcMsg::Announce`] moves non-members only.
//! * **When the epoch moves, rounds restart, operations do not**
//!   ([`KvNode::requorum`]): a put that had already chosen its tag
//!   propagates *that* tag in the new epoch, so it stays one write.
//!
//! ## `Reconfig(new_members)`
//!
//! 1. **Collect & seal** — `StateRequest` to the old members; each seals
//!    itself and replies with its store, which the coordinator max-merges
//!    into its own (a monotone merge of pairs some writer really stamped is
//!    safe on any node, member or not). Once a majority of the old
//!    configuration has answered, every write that ever completed in the
//!    old epoch is in the coordinator's store: a completed write has a
//!    majority of old-epoch acks, that majority intersects the sealed one,
//!    and the common replica acknowledged *before* it was sealed. A query
//!    round that completed in the old epoch likewise got an answer from a
//!    replica not yet sealed, so it happened before any operation of the
//!    new epoch completed.
//! 2. **Install** — the coordinator's store (a superset of the merge, on the
//!    first transmission and on every retransmission) and the new config go
//!    to the new members, the new config alone to the old ones, until a
//!    majority of each has acknowledged. The first makes the new epoch
//!    live; the second closes the old one for good: sealed replicas answer
//!    a collect again, so an administrator who missed all this could
//!    otherwise seal the same majority again and install a *second*
//!    successor — now most of them answer with the successor they know.
//! 3. **Announce** — best-effort broadcast of the new config to everyone.
//!
//! ## Stragglers
//!
//! Missing the announcement costs a retry, not liveness. Any node that
//! hears an older epoch — in an `Op`, a `StateRequest`, or an `Announce`
//! carrying an older config — answers with its own: as an `Install` with
//! its store when both are members of it, as an `Announce` otherwise. A
//! node that hears a newer epoch sends its own (older) `Announce` back,
//! which asks for exactly that; a sealed node with parked invocations asks
//! everyone on its retry timer. A node announced a config it is a *member*
//! of asks that config's members, since only an `Install` may make it serve.
//!
//! ## Scope cuts
//!
//! * Competing concurrent reconfigurations are **not** arbitrated: epochs
//!   are chosen as `current + 1`, so two simultaneous administrators could
//!   fork the configuration. RAMBO orders configurations with consensus
//!   (and the paper lineage suggests exactly disk Paxos for it); here
//!   reconfiguration is assumed externally serialized — one administrator
//!   at a time. A coordinator that sees its epoch move under it answers
//!   `Rejected`.
//! * A collect whose coordinator dies leaves the majority it sealed sealed
//!   (invocations on them park) until someone — the restarted administrator
//!   included — reconfigures that epoch again.
//! * A straggling member is sent the whole store by every member it asks,
//!   and the inner node still broadcasts to the whole universe, so a sync
//!   walk opened against a non-member or a sealed peer retransmits (with
//!   backoff) until the next epoch drops it.

use crate::node::{KvConfig, KvMsg, KvNode, KvOp, KvResp};
use abd_core::context::{Effects, Protocol, TimerKey};
use abd_core::phase::PhaseTracker;
use abd_core::procset::ProcSet;
use abd_core::quorum::{majority_threshold, QuorumSystem, Weighted};
use abd_core::types::{OpId, ProcessId, Tag};
use std::cmp::Ordering;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;

/// A configuration: an epoch number and the member set acting as replicas.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Config {
    /// Monotonically increasing configuration number.
    pub epoch: u64,
    /// The replicas of this epoch (majority quorums within this set).
    pub members: Vec<ProcessId>,
}

impl Config {
    /// Creates the initial configuration (epoch 0).
    pub fn initial(members: Vec<ProcessId>) -> Self {
        assert!(!members.is_empty(), "a configuration needs members");
        Config { epoch: 0, members }
    }

    /// Majority size of this configuration.
    pub fn quorum(&self) -> usize {
        majority_threshold(self.members.len())
    }

    /// Whether `p` is a member.
    pub fn has(&self, p: ProcessId) -> bool {
        self.members.contains(&p)
    }

    /// This configuration's quorum system over the universe `0..n`:
    /// weighted voting with one vote per member and none for anyone else,
    /// so a set is a (read or write) quorum exactly when it holds a
    /// majority of the members.
    pub fn quorums(&self, n: usize) -> Arc<dyn QuorumSystem> {
        let mut votes = vec![0; n];
        for m in &self.members {
            votes[m.index()] = 1;
        }
        let majority = self.quorum() as u64;
        Arc::new(Weighted::new(votes, majority, majority))
    }
}

/// Wire messages of the reconfigurable store.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RcMsg<K, V> {
    /// A message of the inner [`KvNode`], valid in `epoch` only.
    Op {
        /// The sender's epoch when it sent this.
        epoch: u64,
        /// The key-value protocol message.
        msg: KvMsg<K, V>,
    },
    /// Collect-and-seal request of the coordinator's phase 1.
    StateRequest {
        /// Phase id.
        uid: u64,
        /// The epoch being closed.
        epoch: u64,
    },
    /// A replica's entire store (it is now sealed for that epoch).
    StateReply {
        /// Phase id copied from the request.
        uid: u64,
        /// Full store contents `(key, tag, value)`.
        store: Vec<(K, Tag, V)>,
    },
    /// Install a configuration. To a member of it, with a store that holds
    /// everything completed before it; to anyone else, without.
    Install {
        /// Phase id (`0`, which no phase has, when a member brings a
        /// straggler up and nobody waits for the ack).
        uid: u64,
        /// The configuration.
        config: Config,
        /// Store to max-merge (by tag).
        store: Vec<(K, Tag, V)>,
    },
    /// Acknowledge an [`RcMsg::Install`].
    InstallAck {
        /// Phase id copied from the install.
        uid: u64,
    },
    /// The sender's configuration: news to a receiver that is behind, a
    /// request for news to one that is ahead.
    Announce {
        /// The sender's configuration.
        config: Config,
    },
}

/// Client operations of the reconfigurable store.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RcOp<K, V> {
    /// Read `key`.
    Get(K),
    /// Write `value` under `key`.
    Put(K, V),
    /// Install a new member set (administrator operation; externally
    /// serialized — see module docs).
    Reconfig(Vec<ProcessId>),
}

/// Responses of the reconfigurable store.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RcResp<V> {
    /// `Get` result.
    GetOk(Option<V>),
    /// `Put` completed.
    PutOk,
    /// Reconfiguration installed; the new epoch.
    ReconfigOk {
        /// Epoch of the installed configuration.
        epoch: u64,
    },
    /// The operation could not run (e.g. a second concurrent reconfig on
    /// this node).
    Rejected(String),
}

/// Configuration of one node of the reconfigurable store.
#[derive(Clone, Debug)]
pub struct RcNodeConfig {
    /// The inner key-value node's configuration: universe size (node ids
    /// are `0..n`; configurations choose subsets), this node's id, read
    /// mode, retransmission policy (the wrapper's own retries follow it
    /// too), sync parameters. Its quorum system is replaced by that of the
    /// configuration in force.
    pub kv: KvConfig,
    /// The initial configuration, shared by all nodes.
    pub initial: Config,
}

impl RcNodeConfig {
    /// Creates a node config: retransmission from 50 µs, and an initial
    /// configuration of all of `0..n`.
    pub fn new(n: usize, me: ProcessId) -> Self {
        RcNodeConfig {
            kv: KvConfig::new(n, me).with_retransmit(50_000),
            initial: Config::initial((0..n).map(ProcessId).collect()),
        }
    }

    /// Overrides the initial configuration.
    pub fn with_initial(mut self, cfg: Config) -> Self {
        self.initial = cfg;
        self
    }
}

/// Timer key of the wrapper's one retry timer (coordinator retransmission,
/// and a sealed node asking for news). Like the inner node's sweep key
/// (`u64::MAX - 1`) and `Batched`'s flush key (`u64::MAX`) it sits at the
/// top of the key space, which phase uids, counting up from 1, never reach;
/// every other key is a timer of the inner node and passes through.
const FENCE_KEY: TimerKey = TimerKey(u64::MAX - 2);

/// The coordinator's side of a `Reconfig`. There is no merged state to
/// carry: collected stores are merged straight into the inner node's.
#[derive(Clone, Debug)]
enum Phase {
    /// Sealing a majority of the current epoch's members.
    Collect {
        op: OpId,
        ph: PhaseTracker,
        new_members: Vec<ProcessId>,
    },
    /// Shipping our store, which now holds the merge, to `config`'s
    /// members, and `config` alone to the members of `closing`.
    Install {
        op: OpId,
        ph: PhaseTracker,
        config: Config,
        closing: Config,
    },
}

/// Whether `msg` answers a round its receiver opened — as opposed to asking
/// the receiver to act as a replica, which only members do.
fn is_reply<K, V>(msg: &KvMsg<K, V>) -> bool {
    match msg {
        KvMsg::Op(m) => m.is_reply(),
        KvMsg::SyncEntries { .. } => true,
        KvMsg::SyncDiffReq { .. } => false,
    }
}

type Fx<K, V> = Effects<RcMsg<K, V>, RcResp<V>>;

/// One node of the reconfigurable replicated key-value store.
///
/// # Examples
///
/// ```
/// use abd_core::context::{Effects, Protocol};
/// use abd_core::types::{OpId, ProcessId};
/// use abd_kv::reconfig::{RcNode, RcNodeConfig, RcOp, RcResp};
///
/// // Single-node universe: everything completes locally.
/// let mut node: RcNode<&'static str, u32> = RcNode::new(RcNodeConfig::new(1, ProcessId(0)));
/// let mut fx = Effects::new();
/// node.on_invoke(OpId(0), RcOp::Put("x", 1), &mut fx);
/// node.on_invoke(OpId(1), RcOp::Get("x"), &mut fx);
/// assert_eq!(fx.responses[1].1, RcResp::GetOk(Some(1)));
/// ```
#[derive(Clone, Debug)]
pub struct RcNode<K, V> {
    /// Runs every `Get` and `Put`, and is the store. Stable storage.
    inner: KvNode<K, V>,
    /// Stable storage.
    config: Config,
    /// This replica answered a collect of `config.epoch` and is out of that
    /// epoch for good. Stable storage: a seal forgotten in a crash would
    /// let the replica acknowledge a write its `StateReply` never held.
    sealed: bool,
    /// Invocations that arrived while sealed; they start when the epoch
    /// moves. Volatile, like every operation in flight.
    parked: Vec<(OpId, KvOp<K, V>)>,
    /// Volatile: a crash aborts the administrator's operation with it.
    phase: Option<Phase>,
    /// Coordinator phase ids. Stable, so a late reply to a phase from
    /// before a crash never matches one from after it.
    next_uid: u64,
    /// Firings of [`FENCE_KEY`] since it was last armed afresh.
    retries: u32,
}

impl<K, V> RcNode<K, V>
where
    K: Clone + Eq + Hash + Debug + Send + 'static,
    V: Clone + Debug + Send + 'static,
{
    /// Creates a node with an empty store in the initial configuration.
    pub fn new(cfg: RcNodeConfig) -> Self {
        let quorum = cfg.initial.quorums(cfg.kv.n);
        RcNode {
            inner: KvNode::new(cfg.kv.with_quorum(quorum)),
            config: cfg.initial,
            sealed: false,
            parked: Vec::new(),
            phase: None,
            next_uid: 0,
            retries: 0,
        }
    }

    /// This node's current configuration.
    pub fn current_config(&self) -> &Config {
        &self.config
    }

    /// This node's local `(tag, value)` for `key`.
    pub fn local_entry(&self, key: &K) -> Option<(Tag, &V)> {
        self.inner.local_entry(key)
    }

    /// Operations currently in flight on this node, parked ones and a
    /// reconfiguration it coordinates included.
    pub fn in_flight(&self) -> usize {
        self.inner.in_flight() + self.parked.len() + usize::from(self.phase.is_some())
    }

    fn n(&self) -> usize {
        self.inner.config().n
    }

    fn others(&self) -> impl Iterator<Item = ProcessId> {
        let me = self.id();
        (0..self.n()).map(ProcessId).filter(move |&p| p != me)
    }

    fn announce(&self) -> RcMsg<K, V> {
        RcMsg::Announce {
            config: self.config.clone(),
        }
    }

    /// Runs one callback of the inner node and forwards what it emitted:
    /// messages stamped with the current epoch, timers as they are.
    fn with_inner(
        &mut self,
        fx: &mut Fx<K, V>,
        f: impl FnOnce(&mut KvNode<K, V>, &mut Effects<KvMsg<K, V>, KvResp<V>>),
    ) {
        let mut inner_fx = Effects::new();
        f(&mut self.inner, &mut inner_fx);
        let epoch = self.config.epoch;
        for (to, msg) in inner_fx.sends {
            fx.send(to, RcMsg::Op { epoch, msg });
        }
        fx.timers.extend(inner_fx.timers);
        for (op, resp) in inner_fx.responses {
            let resp = match resp {
                KvResp::GetOk(v) => RcResp::GetOk(v),
                KvResp::PutOk => RcResp::PutOk,
            };
            fx.respond(op, resp);
        }
    }

    /// (Re-)arms the wrapper's retry timer under the inner node's
    /// retransmission policy (none: links are reliable, nothing to retry).
    fn arm_fence(&self, fx: &mut Fx<K, V>) {
        if let Some(policy) = self.inner.config().retransmit {
            let salt = self.id().index() as u64 + 1;
            fx.set_timer(FENCE_KEY, policy.delay(self.retries, salt));
        }
    }

    /// Whether `epoch`, read off a message from `from`, is ours. If not,
    /// whichever of the two is behind gets to hear about it.
    fn same_epoch(&self, from: ProcessId, epoch: u64, fx: &mut Fx<K, V>) -> bool {
        match epoch.cmp(&self.config.epoch) {
            Ordering::Equal => return true,
            Ordering::Less => self.bring_up(from, fx),
            Ordering::Greater => fx.send(from, self.announce()),
        }
        false
    }

    /// Tells `to`, which showed an older epoch, where the system is. A
    /// fellow member gets the store with it: as a member we hold our
    /// epoch's merged state, and it may not serve without.
    fn bring_up(&self, to: ProcessId, fx: &mut Fx<K, V>) {
        if self.config.has(self.id()) && self.config.has(to) {
            let (config, store) = (self.config.clone(), self.inner.entries());
            let uid = 0;
            fx.send(to, RcMsg::Install { uid, config, store });
        } else {
            fx.send(to, self.announce());
        }
    }

    /// Enters `config`'s epoch: lifts the seal, fails a coordinator phase
    /// the move overtook, restarts the inner node's rounds under the new
    /// quorum system, and starts what was parked. The caller has made sure
    /// the store holds the new epoch's merged state if we are a member.
    fn move_to(&mut self, config: Config, fx: &mut Fx<K, V>) {
        // Any move overtakes a collect; our own install's epoch does not
        // overtake the install (a member coordinator enters it first).
        let overtaken = match &self.phase {
            Some(Phase::Collect { op, .. }) => Some(*op),
            Some(Phase::Install { op, config: c, .. }) if config.epoch > c.epoch => Some(*op),
            _ => None,
        };
        if let Some(op) = overtaken {
            self.phase = None;
            let why = "configuration changed during reconfiguration";
            fx.respond(op, RcResp::Rejected(why.into()));
        }
        self.config = config;
        self.sealed = false;
        let quorum = self.config.quorums(self.n());
        let parked = std::mem::take(&mut self.parked);
        self.with_inner(fx, |inner, inner_fx| {
            inner.requorum(quorum, inner_fx);
            for (op, input) in parked {
                inner.on_invoke(op, input, inner_fx);
            }
        });
        if self.phase.is_none() {
            fx.cancel_timer(FENCE_KEY);
        }
    }

    fn begin_reconfig(&mut self, op: OpId, new_members: Vec<ProcessId>, fx: &mut Fx<K, V>) {
        let n = self.n();
        let mut seen = ProcSet::new(n);
        let mut valid = |m: &ProcessId| m.index() < n && seen.insert(*m);
        if new_members.is_empty() || !new_members.iter().all(&mut valid) {
            fx.respond(op, RcResp::Rejected("invalid member set".into()));
            return;
        }
        if self.phase.is_some() {
            let why = "reconfiguration already in flight";
            fx.respond(op, RcResp::Rejected(why.into()));
            return;
        }
        // Our own answer to the collect: seal; our store is the merge so
        // far. (The tracker seeds `me`; a non-member's vote weighs nothing.)
        self.sealed |= self.config.has(self.id());
        self.start_phase(fx, |ph| Phase::Collect {
            op,
            ph,
            new_members,
        });
        self.collect_progress(fx);
    }

    /// Opens a coordinator phase: fresh id, first transmission, timer.
    fn start_phase(&mut self, fx: &mut Fx<K, V>, phase: impl FnOnce(PhaseTracker) -> Phase) {
        self.next_uid += 1;
        let ph = PhaseTracker::new(self.next_uid, self.n(), self.id());
        self.phase = Some(phase(ph));
        self.send_phase(fx);
        self.retries = 0;
        self.arm_fence(fx);
    }

    /// (Re-)sends the coordinator phase's request to everyone it addresses
    /// who has not answered yet.
    fn send_phase(&self, fx: &mut Fx<K, V>) {
        match &self.phase {
            Some(Phase::Collect { ph, .. }) => {
                let (uid, epoch) = (ph.uid(), self.config.epoch);
                let to = ph.missing().into_iter().filter(|&p| self.config.has(p));
                fx.send_each(to, RcMsg::StateRequest { uid, epoch });
            }
            Some(Phase::Install {
                ph,
                config,
                closing,
                ..
            }) => {
                // The store as it is *now*: whoever coordinates and however
                // often this is resent, it holds at least the merge. Old
                // members outside the new set only need to hear the config.
                let install = |store| RcMsg::Install {
                    uid: ph.uid(),
                    config: config.clone(),
                    store,
                };
                let (joining, leaving): (Vec<_>, Vec<_>) = ph
                    .missing()
                    .into_iter()
                    .filter(|&p| config.has(p) || closing.has(p))
                    .partition(|&p| config.has(p));
                if !joining.is_empty() {
                    fx.send_each(joining, install(self.inner.entries()));
                }
                fx.send_each(leaving, install(Vec::new()));
            }
            None => {}
        }
    }

    /// Collect → Install, once a majority of the closing epoch is sealed.
    fn collect_progress(&mut self, fx: &mut Fx<K, V>) {
        let closing = &self.inner.config().quorum;
        match self.phase.take() {
            Some(Phase::Collect {
                op,
                ph,
                new_members,
            }) if closing.is_read_quorum(ph.responders()) => {
                let config = Config {
                    epoch: self.config.epoch + 1,
                    members: new_members,
                };
                let member = config.has(self.id());
                let (target, closing) = (config.clone(), self.config.clone());
                self.start_phase(fx, |ph| Phase::Install {
                    op,
                    ph,
                    config,
                    closing,
                });
                if member {
                    // We hold the merge, so we install here first. (A
                    // coordinator outside the new set moves when done.)
                    self.move_to(target, fx);
                }
                self.install_progress(fx);
            }
            other => self.phase = other,
        }
    }

    /// Install → done, once a majority of the new members holds the state
    /// and a majority of the old ones has left the closed epoch — so that a
    /// later administrator who missed all this cannot seal a majority of the
    /// old epoch a second time and give it a second successor.
    fn install_progress(&mut self, fx: &mut Fx<K, V>) {
        let n = self.n();
        let done = |config: &Config, closing: &Config, ph: &PhaseTracker| {
            config.quorums(n).is_write_quorum(ph.responders())
                && closing.quorums(n).is_read_quorum(ph.responders())
        };
        match self.phase.take() {
            Some(Phase::Install {
                op,
                ph,
                config,
                closing,
            }) if done(&config, &closing, &ph) => {
                let epoch = config.epoch;
                if epoch > self.config.epoch {
                    self.move_to(config, fx);
                } else {
                    fx.cancel_timer(FENCE_KEY);
                }
                fx.send_each(self.others(), self.announce());
                fx.respond(op, RcResp::ReconfigOk { epoch });
            }
            other => self.phase = other,
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
impl<K, V> Protocol for RcNode<K, V>
where
    K: Clone + Eq + Hash + Debug + Send + 'static,
    V: Clone + Debug + Send + 'static,
{
    type Msg = RcMsg<K, V>;
    type Op = RcOp<K, V>;
    type Resp = RcResp<V>;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_start(&mut self, fx: &mut Fx<K, V>) {
        self.with_inner(fx, |inner, inner_fx| inner.on_start(inner_fx));
    }

    fn on_invoke(&mut self, op: OpId, input: RcOp<K, V>, fx: &mut Fx<K, V>) {
        let input = match input {
            RcOp::Reconfig(members) => return self.begin_reconfig(op, members, fx),
            RcOp::Get(key) => KvOp::Get(key),
            RcOp::Put(key, value) => KvOp::Put(key, value),
        };
        if !self.sealed {
            self.with_inner(fx, |inner, inner_fx| inner.on_invoke(op, input, inner_fx));
            return;
        }
        if self.parked.is_empty() && self.phase.is_none() {
            self.retries = 0;
            self.arm_fence(fx);
        }
        self.parked.push((op, input));
    }

    fn on_message(&mut self, from: ProcessId, msg: RcMsg<K, V>, fx: &mut Fx<K, V>) {
        let member = self.config.has(self.id());
        match msg {
            RcMsg::Op { epoch, msg } => {
                let serves = !self.sealed && (member || is_reply(&msg));
                if self.same_epoch(from, epoch, fx) && serves {
                    self.with_inner(fx, |inner, inner_fx| inner.on_message(from, msg, inner_fx));
                }
            }
            RcMsg::StateRequest { uid, epoch } => {
                // A sealed replica answers again (the reply may have been
                // lost, or a new administrator is closing the same epoch).
                if self.same_epoch(from, epoch, fx) && member {
                    self.sealed = true;
                    let store = self.inner.entries();
                    fx.send(from, RcMsg::StateReply { uid, store });
                }
            }
            RcMsg::StateReply { uid, store } => {
                if let Some(Phase::Collect { ph, .. }) = &mut self.phase {
                    if ph.record(from, uid) {
                        self.inner.merge(store);
                        self.collect_progress(fx);
                    }
                }
            }
            RcMsg::Install { uid, config, store } => {
                if config.epoch > self.config.epoch {
                    self.inner.merge(store);
                    self.move_to(config, fx);
                }
                // Idempotent ack, after the state is in (duplicates,
                // retransmissions whose first ack was lost).
                fx.send(from, RcMsg::InstallAck { uid });
            }
            RcMsg::InstallAck { uid } => {
                if let Some(Phase::Install { ph, .. }) = &mut self.phase {
                    if ph.record(from, uid) {
                        self.install_progress(fx);
                    }
                }
            }
            RcMsg::Announce { config } => match config.epoch.cmp(&self.config.epoch) {
                Ordering::Less => self.bring_up(from, fx),
                Ordering::Equal => {}
                Ordering::Greater if !config.has(self.id()) => self.move_to(config, fx),
                // A member-to-be must not serve the new epoch off a store
                // that may lack what the old ones completed: ask those who
                // hold it, and who will answer with an `Install`.
                Ordering::Greater => {
                    let me = self.id();
                    let to = config.members.into_iter().filter(|&m| m != me);
                    fx.send_each(to, self.announce());
                }
            },
        }
    }

    fn on_timer(&mut self, key: TimerKey, fx: &mut Fx<K, V>) {
        if key != FENCE_KEY {
            self.with_inner(fx, |inner, inner_fx| inner.on_timer(key, inner_fx));
            return;
        }
        let asking = self.sealed && !self.parked.is_empty();
        if asking {
            fx.send_each(self.others(), self.announce());
        }
        self.send_phase(fx);
        if asking || self.phase.is_some() {
            self.retries += 1;
            self.arm_fence(fx);
        }
    }

    fn on_restart(&mut self, fx: &mut Fx<K, V>) {
        // `config`, the seal, the store and the uid counter are stable
        // storage; what was in flight died with the crash.
        self.phase = None;
        self.parked.clear();
        self.with_inner(fx, |inner, inner_fx| inner.on_restart(inner_fx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abd_core::engine::Msg;

    // Pure state-machine tests of the fence, one node at a time. The
    // hand-driven multi-node schedules (the six defects of the old `RcNode`)
    // and the simulator campaigns live in `tests/reconfiguration.rs`.

    type Node = RcNode<&'static str, u32>;
    type Out = Effects<RcMsg<&'static str, u32>, RcResp<u32>>;

    fn ids(v: &[usize]) -> Vec<ProcessId> {
        v.iter().copied().map(ProcessId).collect()
    }

    /// Node `me` of a universe of `n`, initial configuration `initial`.
    fn node(n: usize, me: usize, initial: &[usize]) -> Node {
        let cfg = RcNodeConfig::new(n, ProcessId(me)).with_initial(Config::initial(ids(initial)));
        RcNode::new(cfg)
    }

    fn cfg(epoch: u64, members: &[usize]) -> Config {
        Config {
            epoch,
            members: ids(members),
        }
    }

    fn update(epoch: u64, uid: u64, value: u32) -> RcMsg<&'static str, u32> {
        let msg = KvMsg::Op(Msg::Update {
            uid,
            key: "k",
            label: Tag::new(1, ProcessId(0)),
            value,
        });
        RcMsg::Op { epoch, msg }
    }

    fn deliver(node: &mut Node, from: usize, msg: RcMsg<&'static str, u32>) -> Out {
        let mut fx = Effects::new();
        node.on_message(ProcessId(from), msg, &mut fx);
        fx
    }

    #[test]
    fn config_quorums_count_members_only() {
        let c = Config::initial(ids(&[0, 1, 2]));
        assert_eq!(c.quorum(), 2);
        assert!(c.has(ProcessId(1)));
        assert!(!c.has(ProcessId(3)));
        let q = c.quorums(5);
        let mut r = ProcSet::new(5);
        r.insert(ProcessId(0));
        assert!(!q.is_read_quorum(&r));
        r.insert(ProcessId(3)); // not a member: no vote
        assert!(!q.is_read_quorum(&r) && !q.is_write_quorum(&r));
        r.insert(ProcessId(2));
        assert!(q.is_read_quorum(&r) && q.is_write_quorum(&r));
        assert!(q.validate(true).is_ok());
    }

    #[test]
    #[should_panic(expected = "needs members")]
    fn empty_config_rejected() {
        Config::initial(vec![]);
    }

    #[test]
    fn rejects_invalid_member_set() {
        let mut node = node(3, 0, &[0, 1, 2]);
        for (i, bad) in [vec![], ids(&[9]), ids(&[1, 1])].into_iter().enumerate() {
            let mut fx = Effects::new();
            node.on_invoke(OpId(i as u64), RcOp::Reconfig(bad), &mut fx);
            assert!(matches!(fx.responses[0].1, RcResp::Rejected(_)));
            assert_eq!(node.in_flight(), 0);
        }
    }

    #[test]
    fn rejects_concurrent_local_reconfig() {
        let mut node = node(3, 0, &[0, 1, 2]);
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), RcOp::Reconfig(ids(&[0, 1])), &mut fx);
        // First reconfig is collecting; a second must be rejected.
        node.on_invoke(OpId(1), RcOp::Reconfig(ids(&[0])), &mut fx);
        assert!(fx
            .responses
            .iter()
            .any(|(op, r)| *op == OpId(1) && matches!(r, RcResp::Rejected(_))));
    }

    #[test]
    fn a_sealed_replica_hands_its_inner_node_nothing() {
        let mut node = node(3, 1, &[0, 1, 2]);
        // A round of its own, opened before the seal.
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), RcOp::Get("k"), &mut fx);
        let RcMsg::Op {
            msg: KvMsg::Op(Msg::Query { uid, .. }),
            ..
        } = fx.sends[0].1
        else {
            panic!("expected a query, got {:?}", fx.sends[0].1)
        };
        // Seal via a collect of epoch 0.
        let fx = deliver(&mut node, 0, RcMsg::StateRequest { uid: 1, epoch: 0 });
        assert!(matches!(fx.sends[0].1, RcMsg::StateReply { .. }));
        // Replica role: an update of the sealed epoch is neither adopted
        // nor acknowledged.
        let fx = deliver(&mut node, 0, update(0, 2, 9));
        assert!(fx.is_empty(), "sealed replica must stay silent");
        assert!(node.local_entry(&"k").is_none());
        // Client role: the reply that would complete its own round is not
        // counted either.
        let msg = KvMsg::Op(Msg::QueryReply {
            uid,
            label: Tag::initial(),
            value: None,
        });
        let fx = deliver(&mut node, 0, RcMsg::Op { epoch: 0, msg });
        assert!(
            fx.is_empty(),
            "a sealed replica's own round must not advance"
        );
        // Invocations park: nothing goes out but the wrapper's retry timer.
        let mut fx = Effects::new();
        node.on_invoke(OpId(1), RcOp::Put("k", 5), &mut fx);
        assert!(fx.sends.is_empty() && fx.responses.is_empty());
        assert_eq!(node.in_flight(), 2);
        // A second collect of the same epoch is answered again.
        let fx = deliver(&mut node, 2, RcMsg::StateRequest { uid: 7, epoch: 0 });
        assert!(matches!(fx.sends[0].1, RcMsg::StateReply { uid: 7, .. }));
        // The epoch moves: both operations start over in it.
        let install = RcMsg::Install {
            uid: 3,
            config: cfg(1, &[0, 1, 2]),
            store: vec![],
        };
        let fx = deliver(&mut node, 0, install);
        let query = |m: &RcMsg<_, _>| {
            matches!(
                m,
                RcMsg::Op {
                    epoch: 1,
                    msg: KvMsg::Op(Msg::Query { .. })
                }
            )
        };
        let queries = fx.sends.iter().filter(|(_, m)| query(m)).count();
        assert_eq!(queries, 4, "a get and a put, two peers each: {fx:?}");
        assert_eq!(node.in_flight(), 2);
    }

    #[test]
    fn only_members_answer_requests_and_anyone_hears_replies() {
        let mut outsider = node(4, 3, &[0, 1, 2]);
        let fx = deliver(&mut outsider, 0, update(0, 2, 9));
        assert!(fx.is_empty(), "a non-member is no replica");
        assert!(outsider.local_entry(&"k").is_none());
        // As a client it opens rounds and counts the members' replies.
        let mut fx = Effects::new();
        outsider.on_invoke(OpId(0), RcOp::Get("k"), &mut fx);
        let RcMsg::Op {
            msg: KvMsg::Op(Msg::Query { uid, .. }),
            ..
        } = fx.sends[0].1
        else {
            panic!("expected a query, got {:?}", fx.sends[0].1)
        };
        let reply = |value| {
            let tag = Tag::new(1, ProcessId(0));
            let msg = KvMsg::Op(Msg::QueryReply {
                uid,
                label: tag,
                value,
            });
            RcMsg::Op { epoch: 0, msg }
        };
        let fx = deliver(&mut outsider, 0, reply(Some(9)));
        assert!(
            fx.responses.is_empty(),
            "one member of three is no majority"
        );
        // Its own vote weighs nothing, the second member's decides; the
        // value then goes through the write-back like any other.
        let fx = deliver(&mut outsider, 1, reply(Some(9)));
        assert!(matches!(
            fx.sends[0].1,
            RcMsg::Op {
                msg: KvMsg::Op(Msg::Update { .. }),
                ..
            }
        ));
        // A member answers the same request.
        let mut member = node(4, 1, &[0, 1, 2]);
        let fx = deliver(&mut member, 3, update(0, 2, 9));
        assert_eq!(fx.sends.len(), 1);
        assert_eq!(member.local_entry(&"k").map(|(_, v)| *v), Some(9));
    }

    #[test]
    fn an_older_epoch_is_answered_with_the_current_config() {
        let mut node = node(4, 1, &[0, 1, 2, 3]);
        let now = cfg(1, &[0, 1, 2]);
        let install = RcMsg::Install {
            uid: 7,
            config: now.clone(),
            store: vec![("k", Tag::new(3, ProcessId(0)), 42)],
        };
        deliver(&mut node, 0, install);
        // A fellow member of the current config gets the state with it...
        let stale = || RcMsg::Announce {
            config: cfg(0, &[0, 1, 2, 3]),
        };
        for msg in [update(0, 9, 1), stale()] {
            let fx = deliver(&mut node, 2, msg);
            let [(to, RcMsg::Install { config, store, .. })] = &fx.sends[..] else {
                panic!("expected one install, got {fx:?}")
            };
            assert_eq!((*to, config, store.len()), (ProcessId(2), &now, 1));
        }
        // ...a non-member just the config, for a request, a reply, a
        // collect or an announcement alike; none reaches the store.
        let ack = RcMsg::Op {
            epoch: 0,
            msg: KvMsg::Op(Msg::UpdateAck { uid: 1 }),
        };
        let collect = RcMsg::StateRequest { uid: 1, epoch: 0 };
        for msg in [update(0, 9, 1), ack, collect, stale()] {
            let fx = deliver(&mut node, 3, msg);
            assert_eq!(fx.sends, vec![(ProcessId(3), node.announce())]);
        }
        assert_eq!(node.local_entry(&"k").map(|(_, v)| *v), Some(42));
        // A newer epoch: we are the one behind, and ask.
        let fx = deliver(&mut node, 3, update(2, 9, 1));
        assert_eq!(fx.sends, vec![(ProcessId(3), node.announce())]);
        assert_eq!(node.current_config(), &now);
    }

    #[test]
    fn install_adopts_config_and_state() {
        let mut node = node(3, 2, &[0, 1, 2]);
        let new_cfg = cfg(1, &[1, 2]);
        let install = |store| RcMsg::Install {
            uid: 7,
            config: new_cfg.clone(),
            store,
        };
        let fx = deliver(
            &mut node,
            0,
            install(vec![("k", Tag::new(3, ProcessId(0)), 42)]),
        );
        assert!(matches!(
            fx.sends.last(),
            Some((_, RcMsg::InstallAck { uid: 7 }))
        ));
        assert_eq!(node.current_config(), &new_cfg);
        assert_eq!(node.local_entry(&"k").map(|(_, v)| *v), Some(42));
        // Re-delivery is idempotent.
        let fx = deliver(&mut node, 0, install(vec![]));
        assert!(matches!(fx.sends[0].1, RcMsg::InstallAck { uid: 7 }));
        assert_eq!(node.local_entry(&"k").map(|(_, v)| *v), Some(42));
    }

    #[test]
    fn an_announcement_moves_non_members_only() {
        let mut node = node(3, 0, &[0, 1, 2]);
        // Announced a config we are a member of: only an install may make
        // us serve it, so we ask its members (with our own, older config).
        let joining = cfg(1, &[0, 1]);
        let fx = deliver(&mut node, 2, RcMsg::Announce { config: joining });
        assert_eq!(node.current_config().epoch, 0);
        assert_eq!(fx.sends, vec![(ProcessId(1), node.announce())]);
        // Announced one we are outside of: nothing to wait for.
        let newer = cfg(2, &[1]);
        let config = newer.clone();
        deliver(&mut node, 1, RcMsg::Announce { config });
        assert_eq!(node.current_config(), &newer);
        // Epochs only move forward.
        let config = cfg(1, &[1, 2]);
        deliver(&mut node, 1, RcMsg::Announce { config });
        assert_eq!(node.current_config(), &newer, "older announce ignored");
    }

    #[test]
    fn restart_keeps_config_seal_and_store_and_drops_what_was_in_flight() {
        let mut node = node(3, 1, &[0, 1, 2]);
        deliver(&mut node, 0, update(0, 2, 9));
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), RcOp::Reconfig(ids(&[0, 1])), &mut fx);
        node.on_invoke(OpId(1), RcOp::Put("k", 5), &mut fx);
        node.on_invoke(OpId(2), RcOp::Get("k"), &mut fx);
        assert_eq!(node.in_flight(), 3, "a collect and two parked invocations");
        let mut fx = Effects::new();
        node.on_restart(&mut fx);
        assert_eq!(node.in_flight(), 0);
        assert_eq!(node.current_config(), &cfg(0, &[0, 1, 2]));
        assert_eq!(node.local_entry(&"k").map(|(_, v)| *v), Some(9));
        // The inner node's own restart ran: it opens a walk against each peer.
        let walk = |m: &RcMsg<_, _>| {
            matches!(
                m,
                RcMsg::Op {
                    epoch: 0,
                    msg: KvMsg::SyncDiffReq { .. }
                }
            )
        };
        assert_eq!(fx.sends.iter().filter(|(_, m)| walk(m)).count(), 2);
        // Still sealed: an update of the closed epoch stays unanswered.
        assert!(deliver(&mut node, 0, update(0, 3, 11)).is_empty());
        // And the administrator may try again.
        let mut fx = Effects::new();
        node.on_invoke(OpId(3), RcOp::Reconfig(ids(&[0, 1])), &mut fx);
        assert!(fx.responses.is_empty());
        assert!(matches!(
            fx.sends[0].1,
            RcMsg::StateRequest { epoch: 0, .. }
        ));
    }

    #[test]
    fn wrapper_timer_sits_at_the_top_of_the_key_space_and_inner_timers_pass_through() {
        use abd_core::context::TimerCmd;
        assert_eq!(FENCE_KEY, TimerKey(u64::MAX - 2));
        assert_eq!(abd_core::batch::FLUSH_KEY, TimerKey(u64::MAX));
        let mut node = node(3, 0, &[0, 1, 2]);
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), RcOp::Get("k"), &mut fx);
        let TimerCmd::Set { key, .. } = fx.timers[0] else {
            panic!("the inner node armed no timer: {fx:?}")
        };
        assert_ne!(key, FENCE_KEY);
        let mut fx = Effects::new();
        node.on_timer(key, &mut fx);
        assert_eq!(fx.sends.len(), 2, "the inner round retransmits: {fx:?}");
        // The wrapper's timer: armed by a collect, retransmits it.
        let mut fx = Effects::new();
        node.on_invoke(OpId(1), RcOp::Reconfig(ids(&[1, 2])), &mut fx);
        assert!(fx.timers.iter().any(|t| matches!(t,
            TimerCmd::Set { key, .. } if *key == FENCE_KEY)));
        let mut fx = Effects::new();
        node.on_timer(FENCE_KEY, &mut fx);
        let collects = |fx: &Out| {
            let is = |m: &RcMsg<_, _>| matches!(m, RcMsg::StateRequest { .. });
            fx.sends.iter().filter(|(_, m)| is(m)).count()
        };
        assert_eq!(collects(&fx), 2);
        assert_eq!(fx.timers.len(), 1, "re-armed: {fx:?}");
        // Idle, it neither sends nor re-arms.
        node.on_restart(&mut Effects::new());
        let mut fx = Effects::new();
        node.on_timer(FENCE_KEY, &mut fx);
        assert!(fx.is_empty());
    }
}
