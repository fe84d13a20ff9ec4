//! Planted protocol bugs: deliberately broken wrappers that validate the
//! test fleet itself.
//!
//! A checker that never fires and a shrinker that never shrinks are
//! indistinguishable from broken ones. This module supplies known-bad
//! protocol mutants — **for tests and fixtures only, never production
//! configurations** — so the oracles and the campaign shrinker can be
//! exercised end to end against a failure whose root cause is known by
//! construction.
//!
//! [`MutantSwmr`] wraps a [`SwmrNode`] with one defect of the
//! [`MutantKind`] zoo. The first of them, [`MutantKind::DropWriteBack`],
//! *drops the write-back phase* of every `N`th read invoked at this node:
//! the outgoing `Update` broadcast is discarded and the wrapped node is fed
//! synthetic acknowledgements instead, so the read returns its value
//! without propagating the label to a write quorum. That is precisely the
//! step the paper adds to upgrade regularity to atomicity — removing it
//! intermittently yields a protocol whose histories exhibit **new/old
//! inversions** once a fault schedule leaves replicas disagreeing (a write
//! aborted mid-propagation by a writer crash is the canonical 1-fault
//! cause). The shrinker's acceptance test plants this bug under a 20+-fault
//! campaign and must recover a ≤2-fault schedule.
//!
//! **Why `abd-lint`'s `phase-graph` rule does not catch this statically:**
//! the mutant never changes the phase structure of the wrapped protocol —
//! `SwmrNode` still walks `ReadQuery -> ReadWriteBack -> Done`, and its
//! extracted graph still matches the `phase-spec(engine)` declaration. The
//! sabotage happens one layer up, in the *effects space*: the mutant filters
//! the already-emitted `Update` broadcast out of the effects buffer and
//! substitutes synthetic acks, which is data flow through runtime values
//! the phase extractor deliberately does not model. The structural analogue
//! the rule *does* catch — a handler whose code path responds straight out
//! of the query phase — is committed as the lint fixture
//! `crates/lint/fixtures/violations/crates/core/src/phase_drop.rs`, where
//! `phase-graph` reports the undeclared `Query -> Done` edge and the two lost
//! write-back edges.
//!
//! [`AmnesiacKv`] is the key-value store's counterpart of
//! [`MutantKind::Amnesiac`]: a [`KvNode`] whose store does not survive a
//! reboot. Both delete the one assumption a restarted node's serving at
//! once rests on (persist-before-ack), so the campaigns that exercise that
//! path must convict them.

use abd_core::context::{Effects, Protocol, TimerKey};
use abd_core::msg::{RegisterMsg, RegisterOp, RegisterResp};
use abd_core::swmr::{SwmrMsg, SwmrNode};
use abd_core::types::{OpId, ProcessId, SeqNo};
use abd_kv::{KvMsg, KvNode, KvOp, KvResp};
use std::collections::BTreeSet;
use std::fmt;
use std::hash::Hash;

/// Which deliberate defect a [`MutantSwmr`] carries. Each mutant breaks one
/// load-bearing step of the paper's argument; see the variant docs for the
/// invariant it attacks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum MutantKind {
    /// Every `N`th read invoked **on this node** loses its write-back: the
    /// `Update` broadcast is discarded and the node is fed the
    /// acknowledgements instead, so the read returns a label no write
    /// quorum holds. Only `RegisterOp::Read` counts, and an armed drop dies
    /// with the read it targeted on restart. Attacks "a reader writes back
    /// the label it returns" — the step that makes regularity atomicity.
    /// Use with the two-round read mode: an elided (or relayed-away)
    /// write-back has no broadcast to drop.
    DropWriteBack,
    /// Every `N`th received `Update` is acknowledged **without adopting**
    /// the label: the ack outlives the state it vouches for, so a later
    /// phase can count this replica in a quorum whose intersection member
    /// is stale. Attacks the "a write quorum *stores* the label" premise of
    /// quorum intersection.
    StaleTagAck,
    /// Every `N`th outgoing propagation phase (write or write-back) counts
    /// one voter that was never sent the `Update`: the phase completes one
    /// genuine ack early, modelling an off-by-one quorum threshold /
    /// miscounted vote. Attacks `r + w > n` intersection directly.
    OffByOneQuorum,
    /// After a restart the replica answers queries from its initial state
    /// until a fresh `Update` arrives (amnesia): what it acknowledged
    /// before the crash is gone, the assumption a rebooted register's
    /// serving at once rests on (the register twin of [`AmnesiacKv`]). The
    /// restart itself — roll-forward, catch-up, serving beside it — is the
    /// correct node's. `every` is ignored (always on).
    Amnesiac,
    /// When a genuinely reordered (stale) `Update` arrives, the replica
    /// serves *it* from then on instead of keeping its newer state:
    /// non-monotonic tag adoption. Fires only under real network
    /// reordering, so detection depends on the fault schedule. `every` is
    /// ignored (always armed).
    NonMonotonicTag,
    /// Every `N`th read **response** on this node re-serves the *first*
    /// value the node ever read instead of the fresh one. (Re-serving
    /// merely the previous read's value would lag the genuine sequence by
    /// one and stay per-client monotone — never an SC violation.) Once the
    /// register has advanced past the stash, the client observes
    /// new-then-old against its *own* program order — a
    /// sequential-consistency violation. If the newer value's write is
    /// still pending (writer crashed mid-propagation), the stale value is
    /// merely older than an incomplete write, so the history stays
    /// **regular**: this is the mutant only the
    /// [`SequentialConsistencyOracle`] tier (and above) can see.
    ///
    /// [`SequentialConsistencyOracle`]: abd_lincheck::SequentialConsistencyOracle
    ScStashRead,
    /// Every `N`th read response is replaced with a [forged](Forgeable)
    /// value the register never held — a *phantom* read. Violates even
    /// regularity, the weakest tier: every oracle must catch it.
    PhantomRead,
}

impl MutantKind {
    /// All mutants, in declaration order.
    pub const ALL: [MutantKind; 7] = [
        MutantKind::DropWriteBack,
        MutantKind::StaleTagAck,
        MutantKind::OffByOneQuorum,
        MutantKind::Amnesiac,
        MutantKind::NonMonotonicTag,
        MutantKind::ScStashRead,
        MutantKind::PhantomRead,
    ];

    /// Stable name used in `.ron` artifacts and bench reports.
    pub fn name(self) -> &'static str {
        match self {
            MutantKind::DropWriteBack => "DropWriteBack",
            MutantKind::StaleTagAck => "StaleTagAck",
            MutantKind::OffByOneQuorum => "OffByOneQuorum",
            MutantKind::Amnesiac => "Amnesiac",
            MutantKind::NonMonotonicTag => "NonMonotonicTag",
            MutantKind::ScStashRead => "ScStashRead",
            MutantKind::PhantomRead => "PhantomRead",
        }
    }

    /// Inverse of [`name`](MutantKind::name).
    pub fn from_name(s: &str) -> Option<MutantKind> {
        MutantKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl fmt::Display for MutantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Values a [`MutantKind::PhantomRead`] node can counterfeit.
///
/// `forge(k)` must return a value no legitimate workload ever writes, so
/// that a forged read is a *phantom* by construction. The workload
/// generators in [`crate::workload`] produce `u64` values below `2^63`
/// (single-writer sequence numbers, or `client * 2^32 + k` for a handful of
/// clients), so the `u64` impl sets the top bit.
pub trait Forgeable {
    /// The `k`th counterfeit value, distinct from every legitimate write.
    fn forge(k: u64) -> Self;
}

impl Forgeable for u64 {
    fn forge(k: u64) -> u64 {
        (1 << 63) | k
    }
}

/// A [`SwmrNode`] carrying one planted defect from the [`MutantKind`] zoo.
///
/// The sabotage lives in the *effects space* — the wrapped node's phase
/// structure is untouched, so `abd-lint`'s phase-graph rule cannot see it —
/// and is a deterministic function of the delivered event sequence, so
/// seeded campaigns replay bit-identically. **Test configurations only.**
#[derive(Clone, Debug)]
pub struct MutantSwmr<V> {
    inner: SwmrNode<V>,
    kind: MutantKind,
    every: u64,
    /// The node's initial value — what an amnesiac replica "remembers".
    initial: V,
    /// Occurrences so far of the event the counted mutants fire on every
    /// `every`th of: reads invoked here ([`MutantKind::DropWriteBack`]),
    /// updates received ([`MutantKind::StaleTagAck`]), propagation phases
    /// started ([`MutantKind::OffByOneQuorum`]), read responses produced
    /// ([`MutantKind::ScStashRead`] / [`MutantKind::PhantomRead`]).
    events: u64,
    /// [`MutantKind::DropWriteBack`]: the read in flight loses its
    /// write-back.
    drop_armed: bool,
    /// [`MutantKind::OffByOneQuorum`]: phase uids already counted, so
    /// retransmissions of the same phase are not double-counted.
    seen_uids: BTreeSet<u64>,
    /// [`MutantKind::NonMonotonicTag`]: highest label delivered so far.
    max_seen: SeqNo,
    /// [`MutantKind::NonMonotonicTag`]: the stale pair currently served.
    shadow: Option<(SeqNo, V)>,
    /// [`MutantKind::Amnesiac`]: replica answers from `initial`.
    amnesia: bool,
    /// [`MutantKind::ScStashRead`]: the first read's genuine value.
    first_read: Option<V>,
    sabotaged: u64,
}

impl<V: Clone + std::fmt::Debug + Send + Forgeable + 'static> MutantSwmr<V> {
    /// Wraps `inner` with defect `kind`. `every` tunes the trigger rate for
    /// the counted mutants ([`MutantKind::DropWriteBack`],
    /// [`MutantKind::StaleTagAck`], [`MutantKind::OffByOneQuorum`] and the
    /// two read-response ones; `0` disables them); the remaining mutants are
    /// state-triggered and ignore it.
    pub fn new(inner: SwmrNode<V>, kind: MutantKind, every: u64) -> Self {
        let initial = inner.replica_state().1;
        MutantSwmr {
            inner,
            kind,
            every,
            initial,
            events: 0,
            drop_armed: false,
            seen_uids: BTreeSet::new(),
            max_seen: 0,
            shadow: None,
            amnesia: false,
            first_read: None,
            sabotaged: 0,
        }
    }

    /// The wrapped node, for inspection.
    pub fn inner(&self) -> &SwmrNode<V> {
        &self.inner
    }

    /// Counts one occurrence of this mutant's event; whether it is a
    /// `every`th.
    fn nth(&mut self) -> bool {
        self.events += 1;
        self.every > 0 && self.events.is_multiple_of(self.every)
    }

    /// Which defect this node carries.
    pub fn kind(&self) -> MutantKind {
        self.kind
    }

    /// How many times the defect has fired.
    pub fn sabotage_count(&self) -> u64 {
        self.sabotaged
    }

    /// Applies the active state-masking rewrites (amnesia / stale shadow)
    /// to one outgoing message. Identity for all other kinds and messages.
    fn rewrite(&self, m: SwmrMsg<V>) -> SwmrMsg<V> {
        if let RegisterMsg::QueryReply { uid, label, value } = m {
            if self.amnesia {
                return RegisterMsg::QueryReply {
                    uid,
                    label: 0,
                    value: self.initial.clone(),
                };
            }
            if let Some((sl, sv)) = &self.shadow {
                return RegisterMsg::QueryReply {
                    uid,
                    label: *sl,
                    value: sv.clone(),
                };
            }
            return RegisterMsg::QueryReply { uid, label, value };
        }
        m
    }

    /// Moves one inner callback's effects out, applying the defect.
    fn absorb(
        &mut self,
        inner_fx: Effects<SwmrMsg<V>, RegisterResp<V>>,
        fx: &mut Effects<SwmrMsg<V>, RegisterResp<V>>,
    ) {
        fx.timers.extend(inner_fx.timers);
        for (op, r) in inner_fx.responses {
            let r = self.rewrite_resp(r);
            fx.respond(op, r);
        }
        match self.kind {
            MutantKind::DropWriteBack if self.drop_armed => {
                self.absorb_dropped(inner_fx.sends, fx);
            }
            MutantKind::OffByOneQuorum => self.absorb_phantom(inner_fx.sends, fx),
            _ => {
                for (to, m) in inner_fx.sends {
                    let m = self.rewrite(m);
                    fx.send(to, m);
                }
            }
        }
    }

    /// [`MutantKind::DropWriteBack`], armed: the first `Update` broadcast in
    /// `sends` is the doomed read's write-back. Its sends are discarded and
    /// the inner node is fed one `UpdateAck` per suppressed destination,
    /// completing the phase without any propagation.
    fn absorb_dropped(
        &mut self,
        sends: Vec<(ProcessId, SwmrMsg<V>)>,
        fx: &mut Effects<SwmrMsg<V>, RegisterResp<V>>,
    ) {
        let victim = sends.iter().find_map(|(_, m)| match m {
            RegisterMsg::Update { uid, .. } => Some(*uid),
            _ => None,
        });
        let Some(uid) = victim else {
            fx.sends.extend(sends);
            return;
        };
        self.drop_armed = false;
        self.swallow_updates(uid, None, sends, fx);
    }

    /// The sabotage the two propagation mutants share: the `Update`s of
    /// phase `uid` in `sends` — the one to `only`, or all of them — are
    /// discarded, and the inner node is fed an `UpdateAck` from each
    /// suppressed destination instead.
    fn swallow_updates(
        &mut self,
        uid: u64,
        only: Option<ProcessId>,
        sends: Vec<(ProcessId, SwmrMsg<V>)>,
        fx: &mut Effects<SwmrMsg<V>, RegisterResp<V>>,
    ) {
        self.sabotaged += 1;
        let mut victims = Vec::new();
        for (to, m) in sends {
            if matches!(m, RegisterMsg::Update { uid: u, .. } if u == uid)
                && only.is_none_or(|victim| victim == to)
            {
                victims.push(to);
            } else {
                fx.send(to, m);
            }
        }
        for peer in victims {
            let mut ack_fx = Effects::new();
            self.inner
                .on_message(peer, RegisterMsg::UpdateAck { uid }, &mut ack_fx);
            self.absorb(ack_fx, fx);
        }
    }

    /// Applies the read-response rewrites ([`MutantKind::ScStashRead`] /
    /// [`MutantKind::PhantomRead`]) to one outgoing response. Identity for
    /// all other kinds and for write/error responses.
    fn rewrite_resp(&mut self, r: RegisterResp<V>) -> RegisterResp<V> {
        let RegisterResp::ReadOk(v) = r else { return r };
        match self.kind {
            MutantKind::ScStashRead => {
                // The stash pins the node's *first* genuine read; triggered
                // responses re-serve it — real history, just arbitrarily
                // stale once the register moves on.
                let stale = self.first_read.get_or_insert_with(|| v.clone()).clone();
                if self.nth() && self.events > 1 {
                    self.sabotaged += 1;
                    return RegisterResp::ReadOk(stale);
                }
                RegisterResp::ReadOk(v)
            }
            MutantKind::PhantomRead => {
                if self.nth() {
                    self.sabotaged += 1;
                    return RegisterResp::ReadOk(V::forge(self.sabotaged));
                }
                RegisterResp::ReadOk(v)
            }
            _ => RegisterResp::ReadOk(v),
        }
    }

    /// [`MutantKind::OffByOneQuorum`]: when a *new* propagation phase
    /// starts in `sends` and the trigger fires, its last destination
    /// becomes a phantom voter — the `Update` to it is discarded and the
    /// inner node is fed its acknowledgement immediately, so the phase
    /// completes one genuine vote early.
    fn absorb_phantom(
        &mut self,
        sends: Vec<(ProcessId, SwmrMsg<V>)>,
        fx: &mut Effects<SwmrMsg<V>, RegisterResp<V>>,
    ) {
        let new_uid = sends.iter().find_map(|(_, m)| match m {
            RegisterMsg::Update { uid, .. } if !self.seen_uids.contains(uid) => Some(*uid),
            _ => None,
        });
        let mut phantom: Option<(u64, ProcessId)> = None;
        if let Some(uid) = new_uid {
            self.seen_uids.insert(uid);
            if self.nth() {
                phantom = sends
                    .iter()
                    .rev()
                    .find(|(_, m)| matches!(m, RegisterMsg::Update { uid: u, .. } if *u == uid))
                    .map(|(to, _)| (uid, *to));
            }
        }
        let Some((uid, victim)) = phantom else {
            for (to, m) in sends {
                fx.send(to, m);
            }
            return;
        };
        // The phantom voter never hears the update.
        self.swallow_updates(uid, Some(victim), sends, fx);
    }
}

impl<V: Clone + std::fmt::Debug + Send + Forgeable + 'static> Protocol for MutantSwmr<V> {
    type Msg = SwmrMsg<V>;
    type Op = RegisterOp<V>;
    type Resp = RegisterResp<V>;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_start(&mut self, fx: &mut Effects<Self::Msg, Self::Resp>) {
        let mut inner_fx = Effects::new();
        self.inner.on_start(&mut inner_fx);
        self.absorb(inner_fx, fx);
    }

    fn on_invoke(&mut self, op: OpId, input: Self::Op, fx: &mut Effects<Self::Msg, Self::Resp>) {
        if self.kind == MutantKind::DropWriteBack && matches!(input, RegisterOp::Read) {
            self.drop_armed |= self.nth();
        }
        let mut inner_fx = Effects::new();
        self.inner.on_invoke(op, input, &mut inner_fx);
        self.absorb(inner_fx, fx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        fx: &mut Effects<Self::Msg, Self::Resp>,
    ) {
        match self.kind {
            MutantKind::StaleTagAck => {
                if let RegisterMsg::Update { uid, .. } = &msg {
                    if self.nth() {
                        self.sabotaged += 1;
                        // Vouch for a label this replica never stored.
                        fx.send(from, RegisterMsg::UpdateAck { uid: *uid });
                        return;
                    }
                }
            }
            MutantKind::NonMonotonicTag => {
                if let RegisterMsg::Update { label, value, .. } = &msg {
                    if *label >= self.max_seen {
                        self.max_seen = *label;
                        self.shadow = None;
                    } else {
                        // A genuinely reordered stale update: adopt it
                        // "last", shadowing the newer state.
                        self.shadow = Some((*label, value.clone()));
                        self.sabotaged += 1;
                    }
                }
            }
            MutantKind::Amnesiac => {
                if matches!(msg, RegisterMsg::Update { .. }) {
                    // A fresh propagation re-syncs the amnesiac replica.
                    self.amnesia = false;
                }
            }
            MutantKind::DropWriteBack
            | MutantKind::OffByOneQuorum
            | MutantKind::ScStashRead
            | MutantKind::PhantomRead => {}
        }
        let mut inner_fx = Effects::new();
        self.inner.on_message(from, msg, &mut inner_fx);
        self.absorb(inner_fx, fx);
    }

    fn on_timer(&mut self, key: TimerKey, fx: &mut Effects<Self::Msg, Self::Resp>) {
        let mut inner_fx = Effects::new();
        self.inner.on_timer(key, &mut inner_fx);
        self.absorb(inner_fx, fx);
    }

    fn on_restart(&mut self, fx: &mut Effects<Self::Msg, Self::Resp>) {
        // An armed drop dies with the in-flight read it targeted.
        self.drop_armed = false;
        if self.kind == MutantKind::Amnesiac {
            self.sabotaged += 1;
            self.amnesia = true;
        }
        let mut inner_fx = Effects::new();
        self.inner.on_restart(&mut inner_fx);
        self.absorb(inner_fx, fx);
    }
}

/// A [`KvNode`] without stable storage: every reboot comes back with an
/// empty store (a fresh node under the same configuration), then restarts
/// the way the real node does — serving at once, catching up alongside.
///
/// The real node may serve before its catch-up finishes only because what
/// it acknowledged before the crash is still in its store; forgetting it
/// shrinks every write quorum this replica was counted in, and a later read
/// quorum can miss a completed write. **Test configurations only.**
#[derive(Clone, Debug)]
pub struct AmnesiacKv<K, V>(KvNode<K, V>);

impl<K, V> AmnesiacKv<K, V> {
    /// Wraps `inner`; its current store is kept until the first reboot.
    pub fn new(inner: KvNode<K, V>) -> Self {
        AmnesiacKv(inner)
    }
}

impl<K, V> Protocol for AmnesiacKv<K, V>
where
    K: Clone + Eq + Hash + fmt::Debug + Send + 'static,
    V: Clone + fmt::Debug + Send + 'static,
{
    type Msg = KvMsg<K, V>;
    type Op = KvOp<K, V>;
    type Resp = KvResp<V>;

    fn id(&self) -> ProcessId {
        self.0.id()
    }

    fn on_start(&mut self, fx: &mut Effects<Self::Msg, Self::Resp>) {
        self.0.on_start(fx);
    }

    fn on_invoke(&mut self, op: OpId, input: Self::Op, fx: &mut Effects<Self::Msg, Self::Resp>) {
        self.0.on_invoke(op, input, fx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        fx: &mut Effects<Self::Msg, Self::Resp>,
    ) {
        self.0.on_message(from, msg, fx);
    }

    fn on_timer(&mut self, key: TimerKey, fx: &mut Effects<Self::Msg, Self::Resp>) {
        self.0.on_timer(key, fx);
    }

    fn on_restart(&mut self, fx: &mut Effects<Self::Msg, Self::Resp>) {
        self.0 = KvNode::new(self.0.config().clone());
        self.0.on_restart(fx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abd_core::engine::Msg;
    use abd_core::swmr::SwmrConfig;

    fn node(i: usize, every: u64) -> MutantSwmr<u64> {
        mutant(i, MutantKind::DropWriteBack, every)
    }

    /// The phase id of a request these tests answer by hand.
    fn uid_of(m: &SwmrMsg<u64>) -> u64 {
        match m {
            Msg::Query { uid, .. } | Msg::Update { uid, .. } => *uid,
            other => panic!("not a query or an update: {other:?}"),
        }
    }

    /// Drives one read on a wrapped reader by hand, replying to its query
    /// phase, and returns the sends its completion produced.
    fn drive_read(n: &mut MutantSwmr<u64>, op: u64) -> Vec<(ProcessId, SwmrMsg<u64>)> {
        let mut fx = Effects::new();
        n.on_invoke(OpId(op), RegisterOp::Read, &mut fx);
        let uid = fx
            .sends
            .iter()
            .find_map(|(_, m)| match m {
                RegisterMsg::Query { uid, .. } => Some(*uid),
                _ => None,
            })
            .expect("read starts with a query broadcast");
        let mut fx = Effects::new();
        n.on_message(
            ProcessId(0),
            RegisterMsg::QueryReply {
                uid,
                label: 1,
                value: 7,
            },
            &mut fx,
        );
        fx.sends
    }

    #[test]
    fn nth_read_drops_write_back_and_still_responds() {
        let mut n = node(1, 2);
        // First read: normal write-back broadcast.
        let sends = drive_read(&mut n, 0);
        assert!(
            sends
                .iter()
                .any(|(_, m)| matches!(m, RegisterMsg::Update { .. })),
            "read 1 keeps its write-back"
        );
        // Finish it so the node is idle again.
        let uid = uid_of(&sends[0].1);
        let mut fx = Effects::new();
        n.on_message(ProcessId(0), RegisterMsg::UpdateAck { uid }, &mut fx);
        assert_eq!(fx.responses.len(), 1);

        // Second read: write-back suppressed, response immediate.
        let mut fx = Effects::new();
        n.on_invoke(OpId(1), RegisterOp::Read, &mut fx);
        let uid = uid_of(&fx.sends[0].1);
        let mut fx = Effects::new();
        n.on_message(
            ProcessId(0),
            RegisterMsg::QueryReply {
                uid,
                label: 2,
                value: 9,
            },
            &mut fx,
        );
        assert!(
            !fx.sends
                .iter()
                .any(|(_, m)| matches!(m, RegisterMsg::Update { .. })),
            "read 2's write-back must be dropped: {:?}",
            fx.sends
        );
        assert_eq!(fx.responses, vec![(OpId(1), RegisterResp::ReadOk(9))]);
        assert_eq!(n.sabotage_count(), 1);
    }

    #[test]
    fn every_zero_plants_nothing() {
        let mut n = node(1, 0);
        for k in 0..4 {
            let sends = drive_read(&mut n, k);
            assert!(
                sends
                    .iter()
                    .any(|(_, m)| matches!(m, RegisterMsg::Update { .. })),
                "read {k} keeps its write-back"
            );
            let uid = uid_of(&sends[0].1);
            let mut fx = Effects::new();
            n.on_message(ProcessId(0), RegisterMsg::UpdateAck { uid }, &mut fx);
        }
        assert_eq!(n.sabotage_count(), 0);
    }

    #[test]
    fn replica_role_is_untouched() {
        let mut n = node(1, 1);
        let mut fx = Effects::new();
        n.on_message(
            ProcessId(2),
            RegisterMsg::Update {
                uid: 5,
                key: (),
                label: 3,
                value: 11,
            },
            &mut fx,
        );
        assert_eq!(n.inner().replica_state(), (3, 11));
        assert!(
            matches!(
                fx.sends[..],
                [(ProcessId(2), RegisterMsg::UpdateAck { uid: 5 })]
            ),
            "replica acks normally: {:?}",
            fx.sends
        );
    }

    #[test]
    fn restart_disarms_pending_sabotage() {
        let mut n = node(1, 3);
        // Two completed reads bring the counter to 2.
        for k in 0..2 {
            let sends = drive_read(&mut n, k);
            let uid = uid_of(&sends[0].1);
            let mut fx = Effects::new();
            n.on_message(ProcessId(0), RegisterMsg::UpdateAck { uid }, &mut fx);
        }
        // The third read arms sabotage; the node crashes before its
        // write-back exists.
        let mut fx = Effects::new();
        n.on_invoke(OpId(2), RegisterOp::Read, &mut fx);
        let mut fx = Effects::new();
        n.on_restart(&mut fx);
        // Recovery runs a catch-up query phase; answer it so the node
        // serves again. No Update broadcast exists to sabotage, and the
        // armed flag must not leak into the next read.
        let uid = fx
            .sends
            .iter()
            .find_map(|(_, m)| match m {
                RegisterMsg::Query { uid, .. } => Some(*uid),
                _ => None,
            })
            .expect("recovery starts with a query broadcast");
        for peer in [0, 2] {
            let mut fx = Effects::new();
            n.on_message(
                ProcessId(peer),
                RegisterMsg::QueryReply {
                    uid,
                    label: 0,
                    value: 0,
                },
                &mut fx,
            );
        }
        let sends = drive_read(&mut n, 3);
        assert!(
            sends
                .iter()
                .any(|(_, m)| matches!(m, RegisterMsg::Update { .. })),
            "post-restart read (4th, not a multiple of 3) keeps its write-back"
        );
        assert_eq!(n.sabotage_count(), 0);
    }

    fn mutant(i: usize, kind: MutantKind, every: u64) -> MutantSwmr<u64> {
        MutantSwmr::new(
            SwmrNode::new(SwmrConfig::new(3, ProcessId(i), ProcessId(0)), 0),
            kind,
            every,
        )
    }

    #[test]
    fn mutant_kind_names_round_trip() {
        for k in MutantKind::ALL {
            assert_eq!(MutantKind::from_name(k.name()), Some(k));
        }
        assert_eq!(MutantKind::from_name("nope"), None);
    }

    #[test]
    fn stale_tag_ack_acks_without_adopting() {
        let mut n = mutant(1, MutantKind::StaleTagAck, 2);
        let update = |label, value| RegisterMsg::Update {
            uid: label,
            key: (),
            label,
            value,
        };
        let mut fx = Effects::new();
        n.on_message(ProcessId(0), update(1, 7), &mut fx);
        assert_eq!(n.inner().replica_state(), (1, 7), "1st update adopts");
        let mut fx = Effects::new();
        n.on_message(ProcessId(0), update(2, 9), &mut fx);
        assert_eq!(
            n.inner().replica_state(),
            (1, 7),
            "2nd update must NOT adopt"
        );
        assert!(
            matches!(
                fx.sends[..],
                [(ProcessId(0), RegisterMsg::UpdateAck { uid: 2 })]
            ),
            "but it is acknowledged anyway: {:?}",
            fx.sends
        );
        assert_eq!(n.sabotage_count(), 1);
    }

    #[test]
    fn off_by_one_counts_a_phantom_voter() {
        // Writer node, every=1: its first write phase completes one real
        // ack early and never sends the update to the phantom peer.
        let mut n = mutant(0, MutantKind::OffByOneQuorum, 1);
        let mut fx = Effects::new();
        n.on_invoke(OpId(0), RegisterOp::Write(5), &mut fx);
        let update_dests: Vec<ProcessId> = fx
            .sends
            .iter()
            .filter(|(_, m)| matches!(m, RegisterMsg::Update { .. }))
            .map(|(to, _)| *to)
            .collect();
        assert_eq!(
            update_dests,
            vec![ProcessId(1)],
            "one of the two peers was dropped from the broadcast: {:?}",
            fx.sends
        );
        assert_eq!(n.sabotage_count(), 1);
        // The phantom vote plus the writer's own replica already reach
        // majority(3) = 2: the write completes with ZERO genuine acks —
        // one fewer than the honest protocol requires.
        assert_eq!(fx.responses, vec![(OpId(0), RegisterResp::WriteOk)]);
        // The genuine ack that eventually arrives is stale and ignored.
        let uid = fx
            .sends
            .iter()
            .find_map(|(_, m)| match m {
                RegisterMsg::Update { uid, .. } => Some(*uid),
                _ => None,
            })
            .unwrap();
        let mut fx = Effects::new();
        n.on_message(ProcessId(1), RegisterMsg::UpdateAck { uid }, &mut fx);
        assert!(fx.responses.is_empty(), "{:?}", fx.responses);
    }

    #[test]
    fn amnesiac_answers_from_its_initial_state_until_updated() {
        let mut n = mutant(1, MutantKind::Amnesiac, 0);
        // The replica learns label 4 before crashing.
        let mut fx = Effects::new();
        n.on_message(
            ProcessId(0),
            RegisterMsg::Update {
                uid: 1,
                key: (),
                label: 4,
                value: 44,
            },
            &mut fx,
        );
        let mut fx = Effects::new();
        n.on_restart(&mut fx);
        assert!(
            fx.sends
                .iter()
                .any(|(_, m)| matches!(m, RegisterMsg::Query { .. })),
            "restarts the way the real node does: {:?}",
            fx.sends
        );
        assert!(n.inner().is_recovering());
        // Until refreshed, the replica answers queries from its initial
        // state even though stable storage still holds label 4.
        let mut fx = Effects::new();
        n.on_message(
            ProcessId(2),
            RegisterMsg::Query { uid: 9, key: () },
            &mut fx,
        );
        assert!(
            matches!(
                fx.sends[..],
                [(
                    ProcessId(2),
                    RegisterMsg::QueryReply {
                        uid: 9,
                        label: 0,
                        value: 0
                    }
                )]
            ),
            "amnesiac reply expected: {:?}",
            fx.sends
        );
        // A fresh update re-syncs it.
        let mut fx = Effects::new();
        n.on_message(
            ProcessId(0),
            RegisterMsg::Update {
                uid: 2,
                key: (),
                label: 5,
                value: 55,
            },
            &mut fx,
        );
        let mut fx = Effects::new();
        n.on_message(
            ProcessId(2),
            RegisterMsg::Query { uid: 10, key: () },
            &mut fx,
        );
        assert!(
            matches!(
                fx.sends[..],
                [(
                    ProcessId(2),
                    RegisterMsg::QueryReply {
                        uid: 10,
                        label: 5,
                        value: 55
                    }
                )]
            ),
            "post-refresh reply must be honest: {:?}",
            fx.sends
        );
    }

    /// Drives one full two-round read (query reply + write-back ack) on a
    /// mutant reader and returns the response the client saw.
    fn complete_read(
        n: &mut MutantSwmr<u64>,
        op: u64,
        label: SeqNo,
        value: u64,
    ) -> RegisterResp<u64> {
        let mut fx = Effects::new();
        n.on_invoke(OpId(op), RegisterOp::Read, &mut fx);
        let uid = fx
            .sends
            .iter()
            .find_map(|(_, m)| match m {
                RegisterMsg::Query { uid, .. } => Some(*uid),
                _ => None,
            })
            .expect("read opens with a query");
        let mut fx = Effects::new();
        n.on_message(
            ProcessId(0),
            RegisterMsg::QueryReply { uid, label, value },
            &mut fx,
        );
        if let Some((_, r)) = fx.responses.first() {
            return r.clone();
        }
        let uid = fx
            .sends
            .iter()
            .find_map(|(_, m)| match m {
                RegisterMsg::Update { uid, .. } => Some(*uid),
                _ => None,
            })
            .expect("two-round read write-back");
        let mut fx = Effects::new();
        n.on_message(ProcessId(0), RegisterMsg::UpdateAck { uid }, &mut fx);
        fx.responses
            .first()
            .map(|(_, r)| r.clone())
            .expect("read completes on the write-back ack")
    }

    #[test]
    fn sc_stash_read_re_serves_the_first_value() {
        let mut n = mutant(1, MutantKind::ScStashRead, 2);
        assert_eq!(complete_read(&mut n, 0, 1, 7), RegisterResp::ReadOk(7));
        // Second read: the register advanced, but the mutant re-serves the
        // pinned first value — new-then-old once the client has seen newer.
        assert_eq!(complete_read(&mut n, 1, 2, 9), RegisterResp::ReadOk(7));
        assert_eq!(n.sabotage_count(), 1);
        // The stash stays pinned to the first value: the client sees 11,
        // then the next trigger drags it all the way back to 7.
        assert_eq!(complete_read(&mut n, 2, 3, 11), RegisterResp::ReadOk(11));
        assert_eq!(complete_read(&mut n, 3, 4, 13), RegisterResp::ReadOk(7));
        assert_eq!(n.sabotage_count(), 2);
    }

    #[test]
    fn sc_stash_first_read_has_nothing_to_serve() {
        let mut n = mutant(1, MutantKind::ScStashRead, 1);
        // every=1 triggers on every read, but the very first response must
        // stay genuine — there is no older history to mis-serve yet.
        assert_eq!(complete_read(&mut n, 0, 1, 7), RegisterResp::ReadOk(7));
        assert_eq!(n.sabotage_count(), 0);
        assert_eq!(complete_read(&mut n, 1, 2, 9), RegisterResp::ReadOk(7));
        assert_eq!(n.sabotage_count(), 1);
    }

    #[test]
    fn phantom_read_forges_a_never_written_value() {
        let mut n = mutant(1, MutantKind::PhantomRead, 2);
        assert_eq!(complete_read(&mut n, 0, 1, 7), RegisterResp::ReadOk(7));
        let forged = complete_read(&mut n, 1, 2, 9);
        assert_eq!(forged, RegisterResp::ReadOk(u64::forge(1)));
        let RegisterResp::ReadOk(v) = forged else {
            panic!("read must succeed")
        };
        assert!(v & (1 << 63) != 0, "forged values carry the top bit: {v}");
        assert_eq!(n.sabotage_count(), 1);
    }

    #[test]
    fn non_monotonic_tag_serves_reordered_stale_update() {
        let mut n = mutant(1, MutantKind::NonMonotonicTag, 0);
        let update = |uid, label, value| RegisterMsg::Update {
            uid,
            key: (),
            label,
            value,
        };
        // In-order updates: honest behavior, no sabotage.
        let mut fx = Effects::new();
        n.on_message(ProcessId(0), update(1, 1, 11), &mut fx);
        let mut fx = Effects::new();
        n.on_message(ProcessId(0), update(3, 3, 33), &mut fx);
        assert_eq!(n.sabotage_count(), 0);
        // A reordered stale update (label 2 after 3) shadows the state.
        let mut fx = Effects::new();
        n.on_message(ProcessId(0), update(2, 2, 22), &mut fx);
        assert_eq!(n.sabotage_count(), 1);
        let mut fx = Effects::new();
        n.on_message(
            ProcessId(2),
            RegisterMsg::Query { uid: 9, key: () },
            &mut fx,
        );
        assert!(
            matches!(
                fx.sends[..],
                [(
                    ProcessId(2),
                    RegisterMsg::QueryReply {
                        uid: 9,
                        label: 2,
                        value: 22
                    }
                )]
            ),
            "the stale pair must be served: {:?}",
            fx.sends
        );
        // A fresh update clears the shadow.
        let mut fx = Effects::new();
        n.on_message(ProcessId(0), update(4, 4, 44), &mut fx);
        let mut fx = Effects::new();
        n.on_message(
            ProcessId(2),
            RegisterMsg::Query { uid: 10, key: () },
            &mut fx,
        );
        assert!(
            matches!(
                fx.sends[..],
                [(
                    ProcessId(2),
                    RegisterMsg::QueryReply {
                        uid: 10,
                        label: 4,
                        value: 44
                    }
                )]
            ),
            "shadow must clear on a fresh update: {:?}",
            fx.sends
        );
    }
    #[test]
    fn amnesiac_kv_forgets_its_store_on_reboot_only() {
        use abd_core::types::Tag;
        use abd_kv::KvConfig;
        let mut inner: KvNode<u32, u64> = KvNode::new(KvConfig::new(3, ProcessId(0)));
        inner.preload(7, Tag::new(4, ProcessId(1)), 70);
        let mut node = AmnesiacKv::new(inner);
        let ask = |node: &mut AmnesiacKv<u32, u64>| {
            let mut fx = Effects::new();
            node.on_message(
                ProcessId(1),
                KvMsg::Op(Msg::Query { uid: 9, key: 7 }),
                &mut fx,
            );
            fx.sends.pop().expect("query answered").1
        };
        assert!(matches!(
            ask(&mut node),
            KvMsg::Op(Msg::QueryReply {
                value: Some(70),
                ..
            })
        ));
        let mut fx = Effects::new();
        node.on_restart(&mut fx);
        assert!(
            matches!(fx.sends[0].1, KvMsg::SyncDiffReq { .. }),
            "restarts the way the real node does"
        );
        assert!(matches!(
            ask(&mut node),
            KvMsg::Op(Msg::QueryReply { value: None, .. })
        ));
    }
}
