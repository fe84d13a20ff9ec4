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
//! (Between writes, that is. While a write is in progress its honest
//! holders vouch for *it*, and a quorum can hold no pair with `b + 1`
//! vouchers; the fold then falls back to the reader's own pair and the
//! node counts it — [`ByzNode::unvouched_folds`], DESIGN.md §13.)
//!
//! Masking quorums change thresholds and how replies fold, not the
//! protocol: a [`ByzNode`] is the register shell ([`RegisterNode`]) over the
//! quorum-operation engine ([`crate::engine`]) with `q`-of-`n` thresholds
//! and a store (`Vouched`) whose [`Fold`] counts identical pairs
//! (`Votes`). The post-restart catch-up folds the same way — catching up
//! from a raw maximum would let `b` liars poison the rebooted replica.
//!
//! The writer is assumed correct (single-writer model, as in Malkhi–Reiter's
//! basic construction); replicas may lie arbitrarily. For experiments a
//! node can be given a [`LieStrategy`]: a filter in front of the honest
//! node that answers `Query` and `Update` itself, so the simulator needs no
//! special support. `tests/byzantine.rs` and experiment **E1** show plain
//! majorities returning fabricated values under the liars masked here.
//!
//! [`ByzConfig`] has no read mode: reads take two rounds. A unanimous
//! quorum that may hold `b` liars is not the unanimity the fast path means,
//! and a relay read adopts forwards unvouched — a node here drops the relay
//! shapes on arrival. A `Regular` read adopts the *vouched* pair, which
//! makes it regular between writes only: a read quorum straddling a write
//! in progress may vouch for no pair, and the fold then falls back to the
//! reader's own, possibly older, pair. A `Sequential` read returns a
//! replica only updates and vouched reads ever moved (DESIGN.md §13).

use crate::context::{Effects, Protocol, ReadPathCounters, ReadPathStats, TimerKey};
use crate::engine::{Msg, Store};
use crate::msg::{RegisterMsg, RegisterOp, RegisterResp};
use crate::phase::{Fold, NodeEdges};
use crate::quorum::{masking_threshold, QuorumSystem, Threshold};
use crate::register::{RegisterConfig, RegisterNode};
use crate::replica::Replica;
use crate::retransmit::BackoffPolicy;
use crate::types::{Nanos, OpId, ProcessId, SeqNo};
use std::sync::Arc;

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
}

/// The vouching [`Fold`]: identical `(label, value)` pairs with how many
/// replicas reported each, the folding replica's own pair first.
#[derive(Clone, Debug)]
struct Votes<V>(Vec<(SeqNo, V, usize)>);

impl<V: Eq> Fold<SeqNo, V> for Votes<V> {
    fn observe(&mut self, label: SeqNo, value: V) {
        let same = |vote: &&mut (SeqNo, V, usize)| vote.0 == label && vote.1 == value;
        match self.0.iter_mut().find(same) {
            Some(vote) => vote.2 += 1,
            None => self.0.push((label, value, 1)),
        }
    }
}

/// The store of a Byzantine-tolerant node: the replica pair, the vouching
/// threshold its folds settle by, the trusted writer's own label counter —
/// which nothing a replica reports can move — and the count of folds no
/// pair survived. All of it stable storage.
#[derive(Clone, Debug)]
struct Vouched<V> {
    pair: Replica<SeqNo, V>,
    b: usize,
    seq: SeqNo,
    unvouched: u64,
}

impl<V: Clone + Eq> Store<(), SeqNo, V, V> for Vouched<V> {
    type Msg = ByzMsg<V>;
    type Resp = RegisterResp<V>;
    type Fold = Votes<V>;
    /// One trusted writer: its own counter is the largest label there is.
    const WRITE_QUERIES: bool = false;

    fn snapshot(&self, _: &()) -> (SeqNo, V) {
        self.pair.snapshot()
    }

    fn adopt(&mut self, _: &(), label: SeqNo, value: V) {
        self.pair.adopt(label, value);
    }

    fn fold(&self, _: &()) -> Votes<V> {
        let (label, value) = self.pair.snapshot();
        Votes(vec![(label, value, 1)])
    }

    /// The highest-labelled pair with at least `b + 1` identical votes. If
    /// none reaches the threshold — the quorum straddled a write in
    /// progress, or more than `b` replicas lied — the replica's own pair
    /// stands in and the fold is counted.
    fn choose(&mut self, fold: Votes<V>) -> (SeqNo, V) {
        let vouched = fold.0.into_iter().filter(|(_, _, votes)| *votes > self.b);
        match vouched.max_by_key(|(label, _, _)| *label) {
            Some((label, value, _)) => (label, value),
            None => {
                self.unvouched += 1;
                self.pair.snapshot()
            }
        }
    }

    fn issue(&mut self, _: &(), _seen: SeqNo, _: ProcessId) -> SeqNo {
        self.seq += 1;
        self.seq
    }
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
    /// The honest node; a liar's client role and catch-up are honest too.
    inner: RegisterNode<SeqNo, V, Vouched<V>, Votes<V>>,
    lie: Option<LieStrategy>,
    /// Fabrication counter for the `ForgeLabel` strategy.
    forged: u64,
}

impl<V: Clone + std::fmt::Debug + Eq + Send + 'static> ByzNode<V> {
    /// Creates a node holding `initial` under label 0.
    pub fn new(cfg: ByzConfig, initial: V) -> Self {
        let q = masking_threshold(cfg.n, cfg.b);
        let masking = Threshold::new(cfg.n, q, q);
        Self::with_quorum(cfg, Arc::new(masking), initial)
    }

    fn with_quorum(cfg: ByzConfig, quorum: Arc<dyn QuorumSystem>, initial: V) -> Self {
        let mut base = RegisterConfig::base(cfg.n, cfg.me, cfg.writer).with_quorum(quorum);
        base.retransmit = cfg.retransmit;
        let store = Vouched {
            pair: Replica::new(0, initial),
            b: cfg.b,
            seq: 0,
            unvouched: 0,
        };
        ByzNode {
            inner: RegisterNode::over(base, store),
            lie: cfg.lie,
            forged: 0,
        }
    }

    /// Whether the node is catching up after a restart.
    pub fn is_recovering(&self) -> bool {
        self.inner.is_recovering()
    }

    /// How many of this node's folds — reads and catch-ups — found no pair
    /// with `b + 1` vouchers and fell back to its own. With a correct
    /// writer, at most `b` liars and no write in progress this stays `0`.
    pub fn unvouched_folds(&self) -> u64 {
        self.inner.store().unvouched
    }

    /// What a lying replica answers to a query; `None` is silence.
    fn lie_to_query(&mut self, uid: u64) -> Option<ByzMsg<V>> {
        let label = match self.lie? {
            LieStrategy::Silent => return None,
            // Pretend no write ever happened — under whatever value the
            // replica holds: an *inconsistent* fabrication.
            LieStrategy::ReportStale => 0,
            // Absurdly new, never vouched for, with a bogus payload.
            LieStrategy::ForgeLabel => {
                self.forged += 1;
                u64::MAX - self.forged
            }
        };
        let value = self.inner.replica_state().1;
        Some(Msg::QueryReply { uid, label, value })
    }
}

/// The lie filter: a lying node answers `Query` and `Update` itself, from
/// its strategy; every other event — and every event of an honest node —
/// is the inner node's.
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
impl<V: Clone + std::fmt::Debug + Eq + Send + 'static> Protocol for ByzNode<V> {
    type Msg = ByzMsg<V>;
    type Op = RegisterOp<V>;
    type Resp = RegisterResp<V>;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_invoke(
        &mut self,
        op: OpId,
        input: RegisterOp<V>,
        fx: &mut Effects<Self::Msg, Self::Resp>,
    ) {
        self.inner.on_invoke(op, input, fx);
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: ByzMsg<V>,
        fx: &mut Effects<Self::Msg, Self::Resp>,
    ) {
        match msg {
            // No relay read mode under Byzantine faults: a forward is an
            // unvouched pair. Ignore strays.
            Msg::RelayQuery { .. } | Msg::RelayFwd { .. } | Msg::RelayReply { .. } => {}
            Msg::Query { uid, .. } if self.lie.is_some() => {
                if let Some(reply) = self.lie_to_query(uid) {
                    fx.send(from, reply);
                }
            }
            Msg::Update { uid, .. } if self.lie.is_some() => {
                if self.lie != Some(LieStrategy::Silent) {
                    // Liars ack but do not faithfully store.
                    fx.send(from, Msg::UpdateAck { uid });
                }
            }
            Msg::Query { .. }
            | Msg::Update { .. }
            | Msg::QueryReply { .. }
            | Msg::UpdateAck { .. } => self.inner.on_message(from, msg, fx),
        }
    }

    fn on_timer(&mut self, key: TimerKey, fx: &mut Effects<Self::Msg, Self::Resp>) {
        self.inner.on_timer(key, fx);
    }

    /// Liars restart too — their catch-up is harmless noise, since they
    /// answer from the lie strategy, not from what they adopted.
    fn on_restart(&mut self, fx: &mut Effects<Self::Msg, Self::Resp>) {
        self.inner.on_restart(fx);
    }
}

impl<V: Clone + Eq> ReadPathStats for ByzNode<V> {
    fn counters(&self) -> ReadPathCounters {
        self.inner.counters()
    }

    fn phase_edges(&self) -> NodeEdges {
        self.inner.phase_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{
        instant_write_quorum_keeps_draining, interrupted_write_is_answered_before_a_later_one,
        lost_catch_up_is_retransmitted_to_the_missing_only,
        read_at_the_restart_instant_is_answered_before_the_catch_up, MiniNet,
    };

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
        assert_eq!(net.node(2).inner.replica_state(), (2, 43));
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
        assert_eq!(net.node(3).inner.replica_state(), (2, 6));
        net.invoke(2, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(
            net.take_responses().last().unwrap().1,
            RegisterResp::ReadOk(6)
        );
    }

    #[test]
    fn instant_write_quorum_keeps_draining_the_queue() {
        // Not masking thresholds (those are symmetric): the shell's queue
        // under the vouching store, with `R = 3, W = 1` handed in directly.
        instant_write_quorum_keeps_draining(|i, quorum| {
            let cfg = ByzConfig::new(3, ProcessId(i), ProcessId(0), 0);
            ByzNode::with_quorum(cfg, quorum, 0u32)
        });
    }

    #[test]
    fn lost_catch_up_is_retransmitted_to_the_missing_only_when_honest() {
        // `b = 1`: the read quorum is four of five, every peer.
        let net = lost_catch_up_is_retransmitted_to_the_missing_only(|i| {
            let cfg = ByzConfig::new(5, ProcessId(i), ProcessId(0), 1).with_retransmit(1_000);
            ByzNode::new(cfg, 0u32)
        });
        assert!(!net.node(2).is_recovering());
        assert_eq!(net.node(2).unvouched_folds(), 0);
    }

    #[test]
    fn read_at_the_restart_instant_is_answered_before_the_catch_up_in_every_tier() {
        // Two rounds only: `ByzConfig` has no read mode.
        read_at_the_restart_instant_is_answered_before_the_catch_up(
            |i| ByzNode::new(ByzConfig::new(5, ProcessId(i), ProcessId(0), 1), 0u32),
            ByzNode::is_recovering,
        );
    }

    #[test]
    fn interrupted_write_is_answered_before_a_later_one_when_honest() {
        interrupted_write_is_answered_before_a_later_one(|i| {
            ByzNode::new(ByzConfig::new(5, ProcessId(i), ProcessId(0), 1), 0u32)
        });
    }

    /// The vouching fold on its own: the store of a `b`-tolerant node whose
    /// pair is `(1, 10)` folds two more distinct pairs.
    fn fold_three_distinct_pairs(b: usize) -> ((SeqNo, u32), u64) {
        let mut store = Vouched {
            pair: Replica::new(1, 10u32),
            b,
            seq: 0,
            unvouched: 0,
        };
        let mut fold = store.fold(&());
        fold.observe(3, 30);
        fold.observe(2, 20);
        (store.choose(fold), store.unvouched)
    }

    #[test]
    fn unvouched_fold_falls_back_to_the_seed_pair_and_is_counted() {
        // b = 1: no pair has two vouchers — the seed pair, one anomaly.
        assert_eq!(fold_three_distinct_pairs(1), ((1, 10), 1));
        // b = 0: one voucher is enough — the plain maximum, no anomaly.
        assert_eq!(fold_three_distinct_pairs(0), ((3, 30), 0));
        // b = 1 with a second voucher for the middle pair: it wins over the
        // higher, unvouched one.
        let mut store = Vouched {
            pair: Replica::new(1, 10u32),
            b: 1,
            seq: 0,
            unvouched: 0,
        };
        let mut fold = store.fold(&());
        for (label, value) in [(3, 30), (2, 20), (2, 20)] {
            fold.observe(label, value);
        }
        assert_eq!((store.choose(fold), store.unvouched), ((2, 20), 0));
    }

    #[test]
    fn a_quorum_straddling_a_write_falls_back_and_is_counted() {
        // What the counter is for. Masking quorums mask liars, not
        // concurrency: node 4 missed write 1, write 2 has reached node 2
        // only, and node 4's read quorum is itself, the forger, node 2 (at
        // label 2) and node 3 (at label 1) — four pairs, one voucher each.
        // The read falls back to node 4's own pair and returns the initial
        // value after write 1 completed; `unvouched_folds` is how a run
        // learns that it happened.
        let mut net = cluster(1, &[(1, LieStrategy::ForgeLabel)]);
        net.set_drop_filter(|_, to, m| to == ProcessId(4) && matches!(m, Msg::Update { .. }));
        net.invoke(0, RegisterOp::Write(1));
        net.run_to_quiescence();
        assert_eq!(net.take_responses()[0].1, RegisterResp::WriteOk);
        net.set_drop_filter(|_, to, m| to >= ProcessId(3) && matches!(m, Msg::Update { .. }));
        net.invoke(0, RegisterOp::Write(2));
        net.run_to_quiescence();
        assert!(net.take_responses().is_empty(), "write 2 is still out");
        net.set_drop_filter(|from, _, m| {
            from == ProcessId(0) && matches!(m, Msg::QueryReply { .. })
        });
        net.invoke(4, RegisterOp::Read);
        net.run_to_quiescence();
        assert_eq!(net.take_responses()[0].1, RegisterResp::ReadOk(0));
        assert_eq!(net.node(4).unvouched_folds(), 1);
        assert_eq!(net.node(2).unvouched_folds(), 0);
    }

    #[test]
    fn restarted_writer_keeps_its_own_counter_under_a_believed_forgery() {
        // b = 0 believes the forger, so the writer's catch-up adopts a
        // label near `u64::MAX`. Its counter is its own: the hand-written
        // node re-anchored it on the forgery and overflowed two writes
        // later.
        let mut net = MiniNet::new(
            (0..5)
                .map(|i| {
                    let cfg = ByzConfig::new(5, ProcessId(i), ProcessId(0), 0);
                    let cfg = if i == 1 {
                        cfg.with_lie(LieStrategy::ForgeLabel)
                    } else {
                        cfg
                    };
                    ByzNode::new(cfg, 0u64)
                })
                .collect(),
        );
        net.invoke(0, RegisterOp::Write(1));
        net.run_to_quiescence();
        net.crash(0);
        net.restart(0);
        net.run_to_quiescence();
        assert!(
            net.node(0).inner.replica_state().0 > u64::MAX / 2,
            "poisoned"
        );
        for v in 2..=4 {
            net.invoke(0, RegisterOp::Write(v));
            net.run_to_quiescence();
        }
        let acks = net.take_responses();
        assert_eq!(acks.len(), 4);
        assert!(acks.iter().all(|(_, r)| *r == RegisterResp::WriteOk));
    }
}
