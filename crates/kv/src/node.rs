//! The replicated key-value node: one multi-writer ABD register per key.
//!
//! This is the construction the Dijkstra Prize citation refers to when it
//! says ABD "lies at the heart of many distributed storage systems": a
//! quorum-replicated store where every key is an independent atomic
//! register. Each node plays replica for every key and client for the
//! operations invoked on it.
//!
//! The operation path is `abd-core`'s quorum-operation engine
//! ([`abd_core::engine`]), the same state machine the register protocols
//! run, instantiated with [`Tag`] labels over a keyed store. What a *store*
//! adds to it lives here: the keyed replica, whose entries sit in the leaf
//! buckets of its Merkle tree, and the sync walk a restarted node catches
//! up by, whose two messages travel in [`KvMsg`] beside the engine's own.
//! Two things differ from a register, both carried by types rather than
//! branches:
//!
//! * **keyed state** — the replica holds a `(tag, value)` per key, filed
//!   in the Merkle bucket its key hashes to; unknown keys report the
//!   initial tag and no value, and a `Get` that finds the key unwritten has
//!   nothing to write back;
//! * **pipelining** — every invocation is handed to the engine at once
//!   (each round gets its own phase id) instead of queueing, since
//!   operations on independent keys do not interact; per-client ordering is
//!   preserved by the clients themselves, which block on one operation at a
//!   time. Two puts on one key may therefore run at one node together, and
//!   both query rounds may report the same largest tag: the store issues
//!   above its own tag for the key as well, which holds the first put's.
//!   A register needs no such care, since its FIFO queue runs one
//!   operation per node at a time.
//!
//! The read modes ([`ReadMode::FastUnanimous`](abd_core::types::ReadMode),
//! [`ReadMode::Relay`](abd_core::types::ReadMode)), the consistency tiers
//! and retransmission are the engine's; see its module docs for the relay
//! protocol and its safety argument.
//!
//! ## Crash recovery
//!
//! A restarted node keeps its store (stable storage, like the register
//! replicas — see the [`abd_core::register`] module docs for why amnesia
//! would break atomicity) and serves clients at once: every operation
//! already gets its freshness from a quorum, never from the local replica
//! being current, and whatever this node acknowledged before the crash is
//! still in its store (persist-before-ack). Alongside, it catches up from a
//! read quorum in the background, so it soon holds every key at least as
//! fresh as the latest completed write — which keeps `Sequential` reads
//! from lagging by the downtime and lets the replica carry quorums for
//! others. Foreground operations race the transfer freely: both only ever
//! `adopt`, a monotone max-merge.
//!
//! The transfer is a **Merkle walk**. Each node maintains an incremental
//! [`MerkleTree`] digest over its `(key → tag)` pairs (updated by the
//! store's one mutation, `adopt`, which files every entry in its leaf
//! bucket; it persists with the store). The recovering node runs one walk
//! per peer, and a walk is one exchange repeated: [`KvMsg::SyncDiffReq`]
//! names a batch of tree nodes — the root alone, to open — and
//! [`KvMsg::SyncEntries`] returns their children's digests, or their entries
//! where they are leaf buckets; the walker prunes every child that matches
//! its own tree and asks for the rest. Traffic is proportional to *drift*,
//! not store size: two digests back against an identical store, O(log
//! buckets) messages for a 1-key-stale replica of a 100k-key store. Time
//! depends on neither: a walk issues all batches of a tree level at once, so
//! catch-up takes at most `log2(buckets) + 1` round trips however many keys
//! diverged, and each finished walk counts its peer toward the catch-up read
//! quorum. Safety is max-merge: digest equality over `(key, tag)` certifies
//! entry equality (DESIGN.md §15 has the collision caveat), and everything
//! adopted goes through the store's monotone `adopt`. Walks draw their ids
//! from the engine's phase-id counter and their retry schedules from its
//! `Retransmitter`, so they share timers with the operations they run
//! beside.

use abd_core::context::{Effects, Protocol, ReadPathCounters, ReadPathStats, TimerKey};
use abd_core::engine::{Engine, Msg, Op, Outcome, Store};
use abd_core::fasthash::FastBuild;
use abd_core::merkle::{key_hash, MerkleTree};
use abd_core::phase::{NodeEdges, PhaseEdges, TagCensus};
use abd_core::procset::ProcSet;
use abd_core::quorum::{Majority, QuorumSystem};
use abd_core::retransmit::BackoffPolicy;
use abd_core::types::{Consistency, Nanos, OpId, ProcessId, ReadMode, Tag};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;

/// Wire message of the key-value protocol: the operation path's seven
/// shapes as the engine declares them, and the sync walk's one exchange.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum KvMsg<K, V> {
    /// A message of the operation path ([`abd_core::engine::Msg`]): labels
    /// are [`Tag`]s, and a replica reports `None` for a key never written.
    Op(Msg<K, Tag, Option<V>, V>),
    /// Sync walk request: ask for the children digests (internal nodes) or
    /// the stored entries (leaf buckets) of a batch of tree nodes — the
    /// root alone in a walk's opening step, nodes the walker found
    /// mismatching afterwards. The walker drives; the receiver answers
    /// statelessly from its current tree and store.
    SyncDiffReq {
        /// Walk id, echoed by every reply of this walk.
        uid: u64,
        /// Walk step counter; replies echo it, which makes duplicated or
        /// reordered replies no-ops (links are not FIFO).
        step: u64,
        /// Tree node ids to expand, at most `MAX_DIFF_NODES` per step.
        nodes: Vec<u32>,
    },
    /// Reply to [`KvMsg::SyncDiffReq`]: children digests for the batch's
    /// internal nodes and full entries for its leaf buckets. The walker
    /// prunes every child whose digest matches its own tree and recurses
    /// into the rest; a reply to the opening step whose two digests both
    /// match ends the walk with zero entries transferred.
    SyncEntries {
        /// Walk id copied from the request.
        uid: u64,
        /// Step counter copied from the request.
        step: u64,
        /// `(tree node id, digest)` for each child of each internal node
        /// in the request batch.
        children: Vec<(u32, u64)>,
        /// Every entry of every leaf bucket in the request batch. The
        /// receiver max-merges, which is order-insensitive.
        entries: Vec<(K, Tag, V)>,
    },
}

// A queued event of a simulated run and a channel payload of the thread
// runtime hold one message by value: a larger `KvMsg` is a larger
// `sim-campaign` `peak_rss_mb`, a larger slot in the simulator's event slab
// and more bytes moved per push and pop. Nesting the engine's enum under `Op` costs nothing: `SyncEntries`
// is the widest variant either way.
const _: () = assert!(std::mem::size_of::<KvMsg<u64, u64>>() <= 72);

/// A client operation on the store.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum KvOp<K, V> {
    /// Read the value of `key` (atomically — `Get(k)` ≡
    /// `GetAt(k, Consistency::Atomic)`).
    Get(K),
    /// Read the value of `key` at an explicit consistency tier:
    /// sequential `Get`s serve the local replica in zero rounds, regular
    /// `Get`s run the query round but skip the write-back. Writes are
    /// always full-strength, which is what makes the weaker read tiers
    /// safe to mix with atomic ones (see DESIGN.md). The store's
    /// sequential tier is sequentially consistent *per key*: sequential
    /// `Get`s of two keys may see one client's puts out of order, which
    /// only atomic `Get`s rule out.
    GetAt(K, Consistency),
    /// Write `value` under `key`.
    Put(K, V),
}

/// Response to a completed [`KvOp`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum KvResp<V> {
    /// `Get` result; `None` means the key has never been written.
    GetOk(Option<V>),
    /// `Put` completed.
    PutOk,
}

/// Configuration of one key-value node.
#[derive(Clone, Debug)]
pub struct KvConfig {
    /// Cluster size.
    pub n: usize,
    /// This node's id.
    pub me: ProcessId,
    /// How `Get`s complete: the two-round baseline, the unanimity fast path
    /// (see [`fast_read_allowed`](abd_core::quorum::fast_read_allowed)),
    /// server-to-server relay, or the query round alone.
    /// [`ReadMode::TwoRound`] by default.
    pub read_mode: ReadMode,
    /// Retransmission policy for unfinished phases (`None` = reliable
    /// links).
    pub retransmit: Option<BackoffPolicy>,
    /// Leaf buckets of the Merkle sync tree (a power of two, at least 2).
    /// All nodes of a cluster must agree — tree node ids travel in sync
    /// messages.
    pub sync_buckets: usize,
}

impl KvConfig {
    /// Two-round reads, no retransmission, 1024 sync buckets. A store's
    /// quorums are always majorities of `n`.
    pub fn new(n: usize, me: ProcessId) -> Self {
        KvConfig {
            n,
            me,
            read_mode: ReadMode::TwoRound,
            retransmit: None,
            sync_buckets: 1024,
        }
    }

    /// Sets the Merkle tree's leaf bucket count (a power of two ≥ 2;
    /// cluster-wide agreement required — see [`KvConfig::sync_buckets`]).
    pub fn with_sync_buckets(mut self, buckets: usize) -> Self {
        self.sync_buckets = buckets;
        self
    }

    /// Selects how `Get`s complete (see [`ReadMode`]).
    pub fn with_read_mode(mut self, mode: ReadMode) -> Self {
        self.read_mode = mode;
        self
    }

    /// Enables adaptive retransmission for lossy links (exponential
    /// backoff from `every`, capped, jittered; see [`BackoffPolicy::new`]).
    pub fn with_retransmit(mut self, every: Nanos) -> Self {
        self.retransmit = Some(BackoffPolicy::new(every));
        self
    }
}

/// Upper bound on tree node ids per [`KvMsg::SyncDiffReq`] batch. A walk
/// issues a whole tree level at once, so it has at most
/// `sync_buckets / MAX_DIFF_NODES` batches in flight — the leaf level, the
/// widest.
const MAX_DIFF_NODES: usize = 32;

/// One walker-side Merkle sync walk against a single peer. The walker
/// drives: it holds the frontier of mismatching tree nodes — the root to
/// begin with, so the opening step *is* the root comparison — and issues it
/// in [`KvMsg::SyncDiffReq`] batches of at most [`MAX_DIFF_NODES`] ids, each
/// under its own step; the peer answers statelessly. The walk issues every
/// batch of its frontier at once and the next tree level when the level's
/// replies are all in, so it costs one round trip per level however wide
/// the divergence. A reply is consumed only if its step is still in
/// flight, and a step is never reused, so under duplicated, reordered and
/// retransmitted deliveries every internal node is expanded exactly once
/// and the frontier never double-enqueues a child. Replies may arrive in any
/// order: all they do is `adopt` (a monotone max-merge) and grow the
/// frontier.
#[derive(Clone, Debug)]
struct SyncWalk {
    /// The peer being walked.
    peer: ProcessId,
    /// Step of the next batch.
    next_step: u64,
    /// Batches issued and not yet answered, by step. Ordered, so that a
    /// retransmission re-issues them in a deterministic order.
    in_flight: BTreeMap<u64, Vec<u32>>,
    /// Mismatching tree nodes not yet requested.
    frontier: VecDeque<u32>,
    /// Request waves issued so far (one per [`KvNode::advance_walk`] that
    /// sent anything): the walk's sequential round trips.
    rounds: u64,
}

/// Effects of a key-value node.
type Fx<K, V> = Effects<KvMsg<K, V>, KvResp<V>>;

/// The keyed replica: every `(key, tag, value)` entry sits in the leaf
/// bucket of the Merkle tree its key hashes to, so one table serves both
/// the operations and the sync walk. Stable storage, both fields.
#[derive(Clone, Debug)]
struct KvStore<K, V> {
    /// Incremental Merkle digest over the entries' `(key → tag)` pairs;
    /// mutated only by [`Store::adopt`].
    tree: MerkleTree,
    /// Leaf bucket → its entries, in insertion order (keys are never
    /// removed). A lookup scans its key's one bucket, and a leaf sync
    /// request ships one whole. [`key_hash`] is unseeded because replicas
    /// must agree on it, so clients that craft keys to collide can crowd
    /// one bucket: that costs lookups what it already costs sync.
    buckets: Vec<Vec<(K, Tag, V)>>,
}

impl<K: Eq + Hash, V> KvStore<K, V> {
    /// The entry for `key`, if the replica holds one.
    fn entry(&self, key: &K) -> Option<&(K, Tag, V)> {
        let b = self.tree.bucket_of(key_hash(key));
        self.buckets[b].iter().find(|(k, ..)| k == key)
    }
}

impl<K: Clone + Eq + Hash, V: Clone> Store<K, Tag, Option<V>, V> for KvStore<K, V> {
    type Msg = KvMsg<K, V>;
    type Resp = KvResp<V>;
    type Fold = TagCensus<Tag, Option<V>>;
    /// Any node may put: a write asks a read quorum for the largest tag.
    const WRITE_QUERIES: bool = true;

    fn snapshot(&self, key: &K) -> (Tag, Option<V>) {
        match self.entry(key) {
            Some((_, t, v)) => (*t, Some(v.clone())),
            None => (Tag::initial(), None),
        }
    }

    /// The one mutation, and this crate's one [`MerkleTree::apply_delta`]
    /// call: an entry moved without its delta leaves every digest lying.
    fn adopt(&mut self, key: &K, tag: Tag, value: V) {
        let kh = key_hash(key);
        let bucket = &mut self.buckets[self.tree.bucket_of(kh)];
        let old = match bucket.iter_mut().find(|(k, ..)| k == key) {
            Some(entry) if tag > entry.1 => {
                entry.2 = value;
                Some(std::mem::replace(&mut entry.1, tag))
            }
            None if tag > Tag::initial() => {
                bucket.push((key.clone(), tag, value));
                None
            }
            _ => return,
        };
        self.tree.apply_delta(kh, old, Some(tag));
    }

    fn fold(&self, key: &K) -> Self::Fold {
        let (tag, value) = self.snapshot(key);
        TagCensus::new(tag, value)
    }

    fn choose(&mut self, fold: Self::Fold) -> (Tag, Option<V>) {
        fold.into_best()
    }

    /// Above this replica's own tag too: a put whose query ran beside an
    /// earlier put of this node's on the same key saw the same largest tag,
    /// and only the store holds the tag that put issued.
    fn issue(&mut self, key: &K, seen: Tag, me: ProcessId) -> Tag {
        seen.max(self.snapshot(key).0).next(me)
    }
}

impl<K, V> From<Msg<K, Tag, Option<V>, V>> for KvMsg<K, V> {
    fn from(msg: Msg<K, Tag, Option<V>, V>) -> Self {
        KvMsg::Op(msg)
    }
}

impl<V> From<Outcome<Option<V>>> for KvResp<V> {
    fn from(outcome: Outcome<Option<V>>) -> Self {
        match outcome {
            Outcome::Read(value) => KvResp::GetOk(value),
            Outcome::Written => KvResp::PutOk,
        }
    }
}

/// One node of the replicated key-value store.
///
/// # Examples
///
/// ```
/// use abd_core::context::{Effects, Protocol};
/// use abd_core::types::{OpId, ProcessId};
/// use abd_kv::{KvConfig, KvNode, KvOp, KvResp};
///
/// // Single-node cluster: quorums are trivially satisfied locally.
/// let mut node: KvNode<&'static str, u32> = KvNode::new(KvConfig::new(1, ProcessId(0)));
/// let mut fx = Effects::new();
/// node.on_invoke(OpId(0), KvOp::Put("x", 1), &mut fx);
/// node.on_invoke(OpId(1), KvOp::Get("x"), &mut fx);
/// node.on_invoke(OpId(2), KvOp::Get("y"), &mut fx);
/// assert_eq!(fx.responses[1].1, KvResp::GetOk(Some(1)));
/// assert_eq!(fx.responses[2].1, KvResp::GetOk(None));
/// ```
#[derive(Clone, Debug)]
pub struct KvNode<K, V> {
    cfg: KvConfig,
    /// Majorities of `cfg.n`, the engine's quorums too.
    quorum: Majority,
    store: KvStore<K, V>,
    /// Every operation in flight, the replica role and the relay rounds.
    engine: Engine<K, Tag, Option<V>, V>,
    /// Post-restart catch-up still short of a read quorum: this node and
    /// the peers whose walks have finished. Serving does not wait for it;
    /// it is what [`KvNode::is_recovering`] reports.
    recovering: Option<ProcSet>,
    /// In-progress walker-side sync walks, keyed by walk uid.
    walks: HashMap<u64, SyncWalk, FastBuild>,
    max_walk_rounds: u64,
    recovery_msgs: u64,
    recovery_bytes: u64,
    sync_entries_sent: u64,
}

impl<K, V> KvNode<K, V>
where
    K: Clone + Eq + Hash + Debug + Send + 'static,
    V: Clone + Debug + Send + 'static,
{
    /// Creates an empty node.
    pub fn new(cfg: KvConfig) -> Self {
        // A walk's opening step compares the root's two children before
        // anything ships: a one-leaf tree would ship the store every walk.
        assert!(
            cfg.sync_buckets.is_power_of_two() && cfg.sync_buckets >= 2,
            "sync_buckets must be a power of two, at least 2"
        );
        let store = KvStore {
            tree: MerkleTree::new(cfg.sync_buckets),
            buckets: vec![Vec::new(); cfg.sync_buckets],
        };
        let quorum = Majority::new(cfg.n);
        let engine = Engine::new(
            cfg.n,
            cfg.me,
            Arc::new(quorum),
            cfg.read_mode,
            cfg.retransmit,
        );
        KvNode {
            cfg,
            quorum,
            store,
            engine,
            recovering: None,
            walks: HashMap::default(),
            max_walk_rounds: 0,
            recovery_msgs: 0,
            recovery_bytes: 0,
            sync_entries_sent: 0,
        }
    }

    /// The node's current Merkle root over its `(key → tag)` pairs.
    #[cfg(test)]
    fn sync_root(&self) -> u64 {
        self.store.tree.root()
    }

    /// The most sequential round trips (request waves, one per tree level)
    /// any finished sync walk on this node has needed.
    pub fn max_walk_rounds(&self) -> u64 {
        self.max_walk_rounds
    }

    /// Walker-side sync walks currently in progress on this node.
    pub fn walks_in_flight(&self) -> usize {
        self.walks.len()
    }

    /// Whether the node's post-restart catch-up is still short of a read
    /// quorum. The node serves regardless.
    pub fn is_recovering(&self) -> bool {
        self.recovering.is_some()
    }

    /// The node's local `(tag, value)` for `key`, if present.
    pub fn local_entry(&self, key: &K) -> Option<(Tag, &V)> {
        self.store.entry(key).map(|(_, t, v)| (*t, v))
    }

    /// Number of keys stored locally.
    #[cfg(test)]
    fn local_len(&self) -> usize {
        self.store.buckets.iter().map(Vec::len).sum()
    }

    /// Number of operations currently in flight on this node.
    #[cfg(test)]
    fn in_flight(&self) -> usize {
        self.engine.in_flight()
    }

    /// The node's configuration.
    pub fn config(&self) -> &KvConfig {
        &self.cfg
    }

    /// Installs `(tag, value)` for `key` directly into the replica, as if
    /// adopted from a peer (strictly-greater tags win, the digest tree
    /// stays in sync). Benchmark/test helper for building large preloaded
    /// stores without running a write round per key.
    pub fn preload(&mut self, key: K, tag: Tag, value: V) {
        self.store.adopt(&key, tag, value);
    }

    /// Every `(key, tag, value)` this replica stores, bucket by bucket.
    #[cfg(test)]
    fn entries(&self) -> Vec<(K, Tag, V)> {
        self.store.buckets.concat()
    }

    /// Max-merges `entries` into the replica: per key the larger tag wins.
    /// Safe on any node at any time as long as every entry is a pair some
    /// writer really stamped — the store only ever moves up.
    fn merge(&mut self, entries: Vec<(K, Tag, V)>) {
        for (k, t, v) in entries {
            self.store.adopt(&k, t, v);
        }
    }

    /// Estimated wire payload of a sync message, for the recovery-traffic
    /// counters. A fixed-size header per message plus the in-memory size
    /// of each shipped entry and 12 bytes per `(node id, digest)` pair —
    /// an estimate (there is no real wire format in the simulator), but a
    /// consistent one, which is all a comparison between transfers needs.
    fn sync_msg_bytes(msg: &KvMsg<K, V>) -> u64 {
        const HDR: u64 = 16;
        let entry = std::mem::size_of::<(K, Tag, V)>() as u64;
        match msg {
            KvMsg::SyncDiffReq { nodes, .. } => HDR + 8 + nodes.len() as u64 * 4,
            KvMsg::SyncEntries {
                children, entries, ..
            } => HDR + 8 + children.len() as u64 * 12 + entries.len() as u64 * entry,
            KvMsg::Op(_) => 0,
        }
    }

    /// The single send point of the sync protocol (both roles): counts the
    /// message, its estimated bytes, and any entries it ships, then emits
    /// it.
    fn send_sync(&mut self, to: ProcessId, msg: KvMsg<K, V>, fx: &mut Fx<K, V>) {
        self.recovery_msgs += 1;
        self.recovery_bytes += Self::sync_msg_bytes(&msg);
        if let KvMsg::SyncEntries { entries, .. } = &msg {
            self.sync_entries_sent += entries.len() as u64;
        }
        fx.send(to, msg);
    }

    /// Opens a Merkle sync walk against `peer`: the frontier is the root,
    /// whose expansion returns the two digests that decide whether anything
    /// below differs.
    fn start_walk(&mut self, peer: ProcessId, fx: &mut Fx<K, V>) {
        let uid = self.engine.fresh_uid();
        self.walks.insert(
            uid,
            SyncWalk {
                peer,
                next_step: 0,
                in_flight: BTreeMap::new(),
                frontier: VecDeque::from([0]),
                rounds: 0,
            },
        );
        self.advance_walk(uid, fx);
    }

    /// Drives walk `uid` once its outstanding batches are all answered:
    /// issues the next wave of [`KvMsg::SyncDiffReq`] batches, or finishes
    /// the walk when the frontier is empty. A wave is the whole frontier —
    /// one tree level, since the previous level's replies are all in.
    fn advance_walk(&mut self, uid: u64, fx: &mut Fx<K, V>) {
        let Some(walk) = self.walks.get_mut(&uid) else {
            return;
        };
        if !walk.in_flight.is_empty() {
            return;
        }
        if walk.frontier.is_empty() {
            self.finish_walk(uid, fx);
            return;
        }
        let peer = walk.peer;
        let mut wave = Vec::new();
        while !walk.frontier.is_empty() {
            let take = walk.frontier.len().min(MAX_DIFF_NODES);
            let nodes: Vec<u32> = walk.frontier.drain(..take).collect();
            let step = walk.next_step;
            walk.next_step += 1;
            walk.in_flight.insert(step, nodes.clone());
            wave.push(KvMsg::SyncDiffReq { uid, step, nodes });
        }
        walk.rounds += 1;
        for msg in wave {
            self.send_sync(peer, msg, fx);
        }
        // Progress: the walk's retry ladder starts over.
        self.engine.rtx.arm(uid, fx);
    }

    /// Tears down walk `uid`, counting its peer toward the catch-up read
    /// quorum; on quorum, the catch-up ends.
    fn finish_walk(&mut self, uid: u64, fx: &mut Fx<K, V>) {
        let Some(walk) = self.walks.remove(&uid) else {
            return;
        };
        self.engine.rtx.disarm(uid, fx);
        self.max_walk_rounds = self.max_walk_rounds.max(walk.rounds);
        if let Some(caught_up) = self.recovering.as_mut() {
            caught_up.insert(walk.peer);
            if self.quorum.is_read_quorum(caught_up) {
                self.recovering = None;
            }
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
impl<K, V> Protocol for KvNode<K, V>
where
    K: Clone + Eq + Hash + Debug + Send + 'static,
    V: Clone + Debug + Send + 'static,
{
    type Msg = KvMsg<K, V>;
    type Op = KvOp<K, V>;
    type Resp = KvResp<V>;

    fn id(&self) -> ProcessId {
        self.cfg.me
    }

    fn on_invoke(&mut self, op: OpId, input: KvOp<K, V>, fx: &mut Fx<K, V>) {
        // No queue, and no gate on a running catch-up: a quorum phase never
        // relies on the local replica being current, and the store still
        // holds whatever this node acknowledged before it crashed.
        let input = match input {
            KvOp::Get(key) => Op::Read(key, Consistency::Atomic),
            KvOp::GetAt(key, cons) => Op::Read(key, cons),
            KvOp::Put(key, value) => Op::Write(key, value),
        };
        self.engine.on_invoke(op, input, &mut self.store, fx);
    }

    fn on_message(&mut self, from: ProcessId, msg: KvMsg<K, V>, fx: &mut Fx<K, V>) {
        // The operation path is the engine's; the sync protocol is answered
        // here. This match is all that separates the two.
        match msg {
            KvMsg::Op(msg) => self.engine.on_message(from, msg, &mut self.store, fx),
            // ---- Merkle sync walk: peer role (stateless) ----
            KvMsg::SyncDiffReq { uid, step, nodes } => {
                // Answer from the current tree/store; out-of-range node
                // ids (a misconfigured bucket count, a corrupt message) are
                // neither internal nodes nor leaves and are skipped, never a
                // panic. An empty bucket contributes no entries — the walker
                // learns that from the reply being entry-free for that leaf.
                let KvStore { tree, buckets } = &self.store;
                let mut children = Vec::new();
                let mut entries = Vec::new();
                for id in nodes {
                    if let Some((l, r)) = tree.children(id) {
                        children.push((l, tree.digest(l).unwrap_or(0)));
                        children.push((r, tree.digest(r).unwrap_or(0)));
                    } else if let Some(b) = tree.bucket_of_leaf(id) {
                        entries.extend(buckets[b].iter().cloned());
                    }
                }
                self.send_sync(
                    from,
                    KvMsg::SyncEntries {
                        uid,
                        step,
                        children,
                        entries,
                    },
                    fx,
                );
            }
            // ---- Merkle sync walk: walker role ----
            KvMsg::SyncEntries {
                uid,
                step,
                children,
                entries,
            } => {
                // Consume the reply only if its batch is still outstanding:
                // a duplicate, or the answer to a batch a retransmission
                // already got answered, finds its step gone.
                let outstanding = self
                    .walks
                    .get_mut(&uid)
                    .is_some_and(|w| w.peer == from && w.in_flight.remove(&step).is_some());
                if !outstanding {
                    return;
                }
                // Adopt the divergent leaf entries first (monotone, so a
                // stale entry is a no-op), then prune children that now
                // match our tree and descend into the rest.
                self.merge(entries);
                let next: Vec<u32> = children
                    .into_iter()
                    .filter(|&(id, digest)| self.store.tree.digest(id) != Some(digest))
                    .map(|(id, _)| id)
                    .collect();
                if let Some(walk) = self.walks.get_mut(&uid) {
                    walk.frontier.extend(next);
                }
                self.advance_walk(uid, fx);
            }
        }
    }

    fn on_timer(&mut self, key: TimerKey, fx: &mut Fx<K, V>) {
        let uid = key.0;
        if let Some(walk) = self.walks.get(&uid) {
            // Re-issue every outstanding request, each batch under its own
            // step; the eventual duplicate replies find their step consumed.
            let peer = walk.peer;
            let resend: Vec<KvMsg<K, V>> = walk
                .in_flight
                .iter()
                .map(|(&step, nodes)| KvMsg::SyncDiffReq {
                    uid,
                    step,
                    nodes: nodes.clone(),
                })
                .collect();
            let resent = resend.len() as u64;
            for msg in resend {
                self.send_sync(peer, msg, fx);
            }
            self.engine.rtx.refire(uid, resent, fx);
            return;
        }
        self.engine.on_timer(key, &self.store, fx);
    }

    fn on_restart(&mut self, fx: &mut Fx<K, V>) {
        // In-flight operations died with the crash, and so did the relay
        // rounds and the walks (plain request/reply state); the store is
        // stable storage and survives, but may be stale. Start catching up
        // from a read quorum; serving resumes right away. The digest tree
        // persists with the bucketed entries it summarizes. A put
        // caught in its update round is abandoned like any pending write:
        // its client saw it aborted, and its pair stays wherever the update
        // reached.
        let _abandoned = self.engine.on_restart();
        self.walks.clear();
        let caught_up = ProcSet::from_iter_with_capacity(self.cfg.n, [self.cfg.me]);
        if self.quorum.is_read_quorum(&caught_up) {
            return;
        }
        self.recovering = Some(caught_up);
        // One walk per peer. Each finished walk records its peer in
        // `recovering`; the catch-up ends at a read quorum, and the
        // remaining walks run to the end all the same.
        for p in self.engine.peers() {
            self.start_walk(p, fx);
        }
    }
}

impl<K: Clone, V: Clone> ReadPathStats for KvNode<K, V> {
    fn counters(&self) -> ReadPathCounters {
        ReadPathCounters {
            recovery_msgs: self.recovery_msgs,
            recovery_bytes: self.recovery_bytes,
            sync_entries_sent: self.sync_entries_sent,
            ..self.engine.counters()
        }
    }

    fn phase_edges(&self) -> NodeEdges {
        NodeEdges {
            engine: self.engine.phase_edges(),
            shell: PhaseEdges::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use std::ops::Range;

    /// Minimal FIFO executor local to this crate's tests.
    struct Net<K, V> {
        nodes: Vec<KvNode<K, V>>,
        queue: std::collections::VecDeque<(ProcessId, ProcessId, KvMsg<K, V>)>,
        responses: Vec<(OpId, KvResp<V>)>,
        alive: Vec<bool>,
        next_op: u64,
        sent: u64,
    }

    impl<K, V> Net<K, V>
    where
        K: Clone + Eq + Hash + Debug + Send + 'static,
        V: Clone + Debug + Send + 'static,
    {
        fn new(n: usize) -> Self {
            Net::with(n, |cfg| cfg)
        }

        fn with(n: usize, cfg_fn: impl Fn(KvConfig) -> KvConfig) -> Self {
            Net {
                nodes: (0..n)
                    .map(|i| KvNode::new(cfg_fn(KvConfig::new(n, ProcessId(i)))))
                    .collect(),
                queue: Default::default(),
                responses: Vec::new(),
                alive: vec![true; n],
                next_op: 0,
                sent: 0,
            }
        }

        /// Crash-and-restart node `i`: drop everything addressed to it that
        /// is still in flight, then fire [`Protocol::on_restart`].
        fn restart(&mut self, i: usize) {
            self.queue.retain(|(_, to, _)| to.index() != i);
            self.alive[i] = true;
            let mut fx = Effects::new();
            self.nodes[i].on_restart(&mut fx);
            self.absorb(ProcessId(i), fx);
        }

        fn absorb(&mut self, from: ProcessId, fx: Effects<KvMsg<K, V>, KvResp<V>>) {
            for (to, m) in fx.sends {
                self.sent += 1;
                self.queue.push_back((from, to, m));
            }
            self.responses.extend(fx.responses);
        }

        fn invoke(&mut self, i: usize, op: KvOp<K, V>) -> OpId {
            let id = OpId(self.next_op);
            self.next_op += 1;
            let mut fx = Effects::new();
            self.nodes[i].on_invoke(id, op, &mut fx);
            self.absorb(ProcessId(i), fx);
            id
        }

        fn run(&mut self) {
            while let Some((from, to, m)) = self.queue.pop_front() {
                if !self.alive[to.index()] {
                    continue;
                }
                let mut fx = Effects::new();
                self.nodes[to.index()].on_message(from, m, &mut fx);
                self.absorb(to, fx);
            }
        }

        /// [`Net::run`] over an adversarial link: every delivery is picked
        /// at random (xorshift on `seed`) from all messages in flight, and
        /// one in four is delivered again later.
        fn run_chaotic(&mut self, seed: u64) {
            let mut x = seed | 1;
            while !self.queue.is_empty() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let pick = (x >> 8) as usize % self.queue.len();
                let (from, to, m) = self.queue.remove(pick).expect("index in range");
                if !self.alive[to.index()] {
                    continue;
                }
                if x.is_multiple_of(4) {
                    self.queue.push_back((from, to, m.clone()));
                }
                let mut fx = Effects::new();
                self.nodes[to.index()].on_message(from, m, &mut fx);
                self.absorb(to, fx);
            }
        }

        /// [`Net::run`] with every sync-protocol message held back in
        /// flight: foreground phases progress, the catch-up does not.
        fn run_foreground(&mut self) {
            let mut held = std::collections::VecDeque::new();
            while let Some((from, to, m)) = self.queue.pop_front() {
                if KvNode::<K, V>::sync_msg_bytes(&m) > 0 {
                    held.push_back((from, to, m));
                } else if self.alive[to.index()] {
                    let mut fx = Effects::new();
                    self.nodes[to.index()].on_message(from, m, &mut fx);
                    self.absorb(to, fx);
                }
            }
            self.queue = held;
        }

        fn take(&mut self) -> Vec<(OpId, KvResp<V>)> {
            std::mem::take(&mut self.responses)
        }
    }

    #[test]
    fn put_then_get() {
        let mut net: Net<&str, u32> = Net::new(3);
        net.invoke(0, KvOp::Put("k", 7));
        net.run();
        net.invoke(2, KvOp::Get("k"));
        net.run();
        let r = net.take();
        assert_eq!(r[0].1, KvResp::PutOk);
        assert_eq!(r[1].1, KvResp::GetOk(Some(7)));
    }

    #[test]
    fn get_of_missing_key_returns_none_without_write_back() {
        let mut net: Net<&str, u32> = Net::new(3);
        net.invoke(1, KvOp::Get("nope"));
        net.run();
        assert_eq!(net.take()[0].1, KvResp::GetOk(None));
        // Only the query round: 2(n-1) messages.
        assert_eq!(net.sent, 4);
    }

    #[test]
    fn keys_are_independent() {
        let mut net: Net<String, u64> = Net::new(3);
        for (i, k) in ["a", "b", "c"].iter().enumerate() {
            net.invoke(i, KvOp::Put(k.to_string(), i as u64));
        }
        net.run();
        for (i, k) in ["a", "b", "c"].iter().enumerate() {
            net.invoke((i + 1) % 3, KvOp::Get(k.to_string()));
        }
        net.run();
        let r = net.take();
        assert_eq!(r[3].1, KvResp::GetOk(Some(0)));
        assert_eq!(r[4].1, KvResp::GetOk(Some(1)));
        assert_eq!(r[5].1, KvResp::GetOk(Some(2)));
    }

    #[test]
    fn last_put_wins_per_key() {
        let mut net: Net<&str, u32> = Net::new(5);
        net.invoke(1, KvOp::Put("k", 1));
        net.run();
        net.invoke(3, KvOp::Put("k", 2));
        net.run();
        net.invoke(4, KvOp::Get("k"));
        net.run();
        let r = net.take();
        assert_eq!(r[2].1, KvResp::GetOk(Some(2)));
    }

    #[test]
    fn pipelined_operations_complete_independently() {
        let mut net: Net<&str, u32> = Net::new(3);
        // Two ops in flight on the same node before any delivery.
        net.invoke(0, KvOp::Put("x", 1));
        net.invoke(0, KvOp::Put("y", 2));
        assert_eq!(net.nodes[0].in_flight(), 2);
        net.run();
        let r = net.take();
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|(_, resp)| *resp == KvResp::PutOk));
        assert_eq!(net.nodes[0].in_flight(), 0);
    }

    #[test]
    fn tolerates_minority_crash() {
        let mut net: Net<&str, u32> = Net::new(5);
        net.alive[3] = false;
        net.alive[4] = false;
        net.invoke(0, KvOp::Put("k", 9));
        net.run();
        net.invoke(1, KvOp::Get("k"));
        net.run();
        let r = net.take();
        assert_eq!(r[1].1, KvResp::GetOk(Some(9)));
    }

    #[test]
    fn blocks_under_majority_crash() {
        let mut net: Net<&str, u32> = Net::new(5);
        for i in 2..5 {
            net.alive[i] = false;
        }
        net.invoke(0, KvOp::Put("k", 9));
        net.run();
        assert!(net.take().is_empty());
        assert_eq!(net.nodes[0].in_flight(), 1);
    }

    #[test]
    fn concurrent_puts_converge() {
        let mut net: Net<&str, u32> = Net::new(3);
        net.invoke(0, KvOp::Put("k", 10));
        net.invoke(1, KvOp::Put("k", 20));
        net.run();
        net.invoke(2, KvOp::Get("k"));
        net.run();
        let r = net.take();
        let KvResp::GetOk(Some(winner)) = r[2].1 else {
            panic!("missing value")
        };
        assert!(winner == 10 || winner == 20);
        // All replicas agree.
        let tags: Vec<_> = (0..3)
            .map(|i| net.nodes[i].local_entry(&"k").unwrap().0)
            .collect();
        assert_eq!(tags[0], tags[1]);
        assert_eq!(tags[1], tags[2]);
    }

    #[test]
    fn local_len_counts_keys() {
        let mut net: Net<&str, u32> = Net::new(3);
        net.invoke(0, KvOp::Put("a", 1));
        net.invoke(0, KvOp::Put("b", 2));
        net.run();
        assert_eq!(net.nodes[1].local_len(), 2);
    }

    #[test]
    fn uncontended_fast_get_skips_write_back() {
        let mut net: Net<&str, u32> =
            Net::with(3, |cfg| cfg.with_read_mode(ReadMode::FastUnanimous));
        net.invoke(0, KvOp::Put("k", 7));
        net.run();
        let before = net.sent;
        net.invoke(2, KvOp::Get("k"));
        net.run();
        assert_eq!(net.take().pop().unwrap().1, KvResp::GetOk(Some(7)));
        // Query round only: 2(n-1) messages, no write-back round.
        assert_eq!(net.sent - before, 4);
        assert_eq!(net.nodes[2].counters().fast_reads, 1);
        assert_eq!(net.nodes[2].counters().write_backs, 0);
    }

    #[test]
    fn disagreeing_quorum_forces_get_slow_path() {
        let mut net: Net<&str, u32> =
            Net::with(3, |cfg| cfg.with_read_mode(ReadMode::FastUnanimous));
        // Node 2 misses the put: its replica stays stale.
        net.alive[2] = false;
        net.invoke(0, KvOp::Put("k", 7));
        net.run();
        // Crash node 0 so the reader's query quorum must be {1, 2} and the
        // stale reply from node 2 lands in it.
        net.alive[2] = true;
        net.alive[0] = false;
        net.invoke(1, KvOp::Get("k"));
        net.run();
        assert_eq!(net.take().pop().unwrap().1, KvResp::GetOk(Some(7)));
        assert_eq!(net.nodes[1].counters().fast_reads, 0);
        assert_eq!(net.nodes[1].counters().write_backs, 1);
        // The write-back repaired the stale replica.
        assert_eq!(*net.nodes[2].local_entry(&"k").unwrap().1, 7);
    }

    #[test]
    fn sequential_get_is_local_and_free() {
        let mut net: Net<&str, u32> = Net::new(3);
        net.invoke(0, KvOp::Put("k", 7));
        net.run();
        let before = net.sent;
        net.invoke(1, KvOp::GetAt("k", Consistency::Sequential));
        net.run();
        let r = net.take();
        assert_eq!(r.last().unwrap().1, KvResp::GetOk(Some(7)));
        assert_eq!(net.sent - before, 0, "SC gets send nothing");
        assert_eq!(net.nodes[1].counters().sc_reads, 1);
        assert_eq!(net.nodes[1].counters().write_backs, 0);
    }

    #[test]
    fn sequential_get_can_lag_behind_the_latest_put() {
        let mut net: Net<&str, u32> = Net::new(3);
        net.invoke(0, KvOp::Put("k", 1));
        net.run();
        // Node 2 misses the second put entirely.
        net.alive[2] = false;
        net.invoke(0, KvOp::Put("k", 2));
        net.run();
        net.alive[2] = true;
        net.take();
        // Its sequential get legitimately serves the stale local value.
        net.invoke(2, KvOp::GetAt("k", Consistency::Sequential));
        assert_eq!(net.take()[0].1, KvResp::GetOk(Some(1)));
    }

    #[test]
    fn sequential_gets_are_sequential_per_key_only() {
        // A conviction: ROADMAP 21's counterexample, fault-free. Node 0
        // puts x before y, yet node 1 sees y's put and then not x's, which
        // no total order of the store explains. Each key alone is SC. If
        // direction 21 builds a store-wide SC tier, this test inverts.
        let mut net: Net<&str, u32> = Net::new(3);
        net.alive[1] = false;
        net.invoke(0, KvOp::Put("x", 1));
        net.run();
        net.alive[1] = true;
        net.invoke(0, KvOp::Put("y", 1));
        net.run();
        assert_eq!(net.take().len(), 2, "both puts complete");
        net.invoke(1, KvOp::GetAt("y", Consistency::Sequential));
        net.invoke(1, KvOp::GetAt("x", Consistency::Sequential));
        let gets: Vec<_> = net.take().into_iter().map(|(_, r)| r).collect();
        assert_eq!(gets, [KvResp::GetOk(Some(1)), KvResp::GetOk(None)]);
    }

    #[test]
    fn regular_get_skips_write_back_and_adopts_locally() {
        let mut net: Net<&str, u32> = Net::new(3);
        // Node 2 misses the put: its replica stays stale.
        net.alive[2] = false;
        net.invoke(0, KvOp::Put("k", 7));
        net.run();
        net.alive[2] = true;
        net.take();
        let before = net.sent;
        net.invoke(2, KvOp::GetAt("k", Consistency::Regular));
        net.run();
        assert_eq!(net.take()[0].1, KvResp::GetOk(Some(7)));
        // Query round only: 2(n-1) messages, no write-back broadcast.
        assert_eq!(net.sent - before, 4);
        assert_eq!(net.nodes[2].counters().regular_reads, 1);
        assert_eq!(net.nodes[2].counters().write_backs, 0);
        // The census maximum was adopted locally (monotone replica) even
        // though it was not propagated to a quorum.
        assert_eq!(*net.nodes[2].local_entry(&"k").unwrap().1, 7);
    }

    #[test]
    fn get_at_atomic_matches_plain_get() {
        let mut net: Net<&str, u32> = Net::new(3);
        net.invoke(0, KvOp::Put("k", 7));
        net.run();
        net.take();
        let before = net.sent;
        net.invoke(1, KvOp::Get("k"));
        net.run();
        let plain = net.sent - before;
        let before = net.sent;
        net.invoke(1, KvOp::GetAt("k", Consistency::Atomic));
        net.run();
        assert_eq!(net.sent - before, plain, "same message complexity");
        let r = net.take();
        assert_eq!(r[0].1, KvResp::GetOk(Some(7)));
        assert_eq!(r[1].1, KvResp::GetOk(Some(7)));
        assert_eq!(net.nodes[1].counters().write_backs, 2);
    }

    #[test]
    fn relay_get_returns_put_value_in_one_and_a_half_rounds() {
        let mut net: Net<&str, u32> = Net::with(5, |cfg| cfg.with_read_mode(ReadMode::Relay));
        net.invoke(0, KvOp::Put("k", 7));
        net.run();
        let before = net.sent;
        net.invoke(3, KvOp::Get("k"));
        net.run();
        assert_eq!(net.take().pop().unwrap().1, KvResp::GetOk(Some(7)));
        // query (n-1) + forwards (n-1)² + replies (n-1) = n² - 1.
        assert_eq!(net.sent - before, 5 * 5 - 1);
        assert_eq!(net.nodes[3].counters().relay_reads, 1);
        assert_eq!(net.nodes[3].counters().write_backs, 0);
    }

    #[test]
    fn relay_get_of_missing_key_returns_none() {
        let mut net: Net<&str, u32> = Net::with(3, |cfg| cfg.with_read_mode(ReadMode::Relay));
        net.invoke(1, KvOp::Get("nope"));
        net.run();
        assert_eq!(net.take()[0].1, KvResp::GetOk(None));
    }

    #[test]
    fn pipelined_relay_gets_on_distinct_keys_complete() {
        let mut net: Net<&str, u32> = Net::with(3, |cfg| cfg.with_read_mode(ReadMode::Relay));
        net.invoke(0, KvOp::Put("x", 1));
        net.invoke(0, KvOp::Put("y", 2));
        net.run();
        net.take();
        // Two relay rounds in flight on the same reader at once.
        net.invoke(2, KvOp::Get("x"));
        net.invoke(2, KvOp::Get("y"));
        assert_eq!(net.nodes[2].in_flight(), 2);
        net.run();
        let r = net.take();
        assert_eq!(r[0].1, KvResp::GetOk(Some(1)));
        assert_eq!(r[1].1, KvResp::GetOk(Some(2)));
        assert_eq!(net.nodes[2].counters().relay_reads, 2);
    }

    #[test]
    fn relay_get_tolerates_minority_crash() {
        let mut net: Net<&str, u32> = Net::with(5, |cfg| cfg.with_read_mode(ReadMode::Relay));
        net.invoke(0, KvOp::Put("k", 9));
        net.run();
        net.alive[1] = false;
        net.alive[4] = false;
        net.invoke(2, KvOp::Get("k"));
        net.run();
        assert_eq!(net.take().pop().unwrap().1, KvResp::GetOk(Some(9)));
    }

    #[test]
    fn restart_serves_at_once_and_catches_up_alongside() {
        let mut net: Net<&str, u32> = Net::new(3);
        net.invoke(0, KvOp::Put("a", 1));
        net.run();
        // Node 2 crashes and misses two puts.
        net.alive[2] = false;
        net.invoke(0, KvOp::Put("b", 2));
        net.invoke(0, KvOp::Put("c", 3));
        net.run();
        net.take();
        assert!(net.nodes[2].local_entry(&"b").is_none());
        // On restart it walks its peers...
        net.restart(2);
        assert!(net.nodes[2].is_recovering());
        // ...but an invocation starts its query round at once, and the
        // quorum answers it while the walks are still in flight.
        net.invoke(2, KvOp::Get("b"));
        assert_eq!(net.nodes[2].in_flight(), 1);
        net.run_foreground();
        assert_eq!(net.take(), vec![(OpId(3), KvResp::GetOk(Some(2)))]);
        assert!(net.nodes[2].is_recovering());
        assert!(
            net.nodes[2].local_entry(&"c").is_none(),
            "not caught up yet"
        );
        net.run();
        assert!(!net.nodes[2].is_recovering());
        assert_eq!(*net.nodes[2].local_entry(&"c").unwrap().1, 3);
        assert!(net.take().is_empty(), "the get answered exactly once");
    }

    #[test]
    fn a_put_caught_in_its_update_round_is_abandoned_at_the_restart() {
        // A register resumes such a write at its restart; the store drops
        // it, like every other put the crash caught.
        let mut net: Net<&str, u32> = Net::new(3);
        let put = net.invoke(0, KvOp::Put("k", 7));
        let is_update = |m: &KvMsg<&str, u32>| matches!(m, KvMsg::Op(Msg::Update { .. }));
        while !net.queue.iter().any(|(_, _, m)| is_update(m)) {
            let (from, to, m) = net.queue.pop_front().expect("the query round runs");
            let mut fx = Effects::new();
            net.nodes[to.index()].on_message(from, m, &mut fx);
            net.absorb(to, fx);
        }
        // Node 0 crashes in the update round, with every update lost.
        net.queue.clear();
        net.restart(0);
        assert_eq!(net.nodes[0].in_flight(), 0);
        assert!(!net.queue.iter().any(|(_, _, m)| is_update(m)), "resent");
        net.run();
        assert!(net.take().is_empty(), "{put:?} answered after the crash");
        // Abandoned, not undone: the writer's replica kept the pair.
        assert_eq!(*net.nodes[0].local_entry(&"k").unwrap().1, 7);
        assert!(net.nodes[1].local_entry(&"k").is_none());
    }

    #[test]
    fn stale_replies_ignored() {
        let mut node: KvNode<&str, u32> = KvNode::new(KvConfig::new(3, ProcessId(0)));
        let mut fx = Effects::new();
        node.on_message(
            ProcessId(1),
            KvMsg::Op(Msg::QueryReply {
                uid: 77,
                label: Tag::new(5, ProcessId(1)),
                value: Some(1),
            }),
            &mut fx,
        );
        node.on_message(ProcessId(1), KvMsg::Op(Msg::UpdateAck { uid: 77 }), &mut fx);
        assert!(fx.is_empty());
        assert_eq!(node.local_len(), 0);
    }

    /// `on_message`'s match is the one place that tells the operation path
    /// from the sync protocol: an `Op` — a live one or a straggler of a
    /// finished round — is the engine's and never touches sync state, and
    /// each of the two sync shapes reaches its own arm.
    #[test]
    fn op_messages_reach_the_engine_and_every_sync_shape_its_own_arm() {
        let cfg = KvConfig::new(3, ProcessId(0)).with_sync_buckets(2);
        let mut node: KvNode<u32, u64> = KvNode::new(cfg);
        let t = Tag::new(1, ProcessId(0));

        // A put, driven to completion by node 1's replies (uids 1 and 2).
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), KvOp::Put(7, 70), &mut fx);
        let reply = KvMsg::Op(Msg::QueryReply {
            uid: 1,
            label: Tag::initial(),
            value: None,
        });
        let update = KvMsg::Op(Msg::Update {
            uid: 2,
            key: 7,
            label: t,
            value: 70,
        });
        let ack = KvMsg::Op(Msg::UpdateAck { uid: 2 });
        assert_eq!(deliver(&mut node, reply.clone()), vec![update.clone(); 2]);
        let mut fx = Effects::new();
        node.on_message(ProcessId(1), ack.clone(), &mut fx);
        assert_eq!(fx.responses, vec![(OpId(0), KvResp::PutOk)]);
        // Both replies again: stragglers of finished rounds, dropped by the
        // engine. The replica role answers as ever.
        assert!(deliver(&mut node, reply).is_empty());
        assert!(deliver(&mut node, ack.clone()).is_empty());
        assert_eq!(deliver(&mut node, update), vec![ack]);
        assert_eq!((node.in_flight(), node.counters().recovery_msgs), (0, 0));

        // Peer role: the request, answered by its reply.
        let diff_req = |uid| KvMsg::SyncDiffReq {
            uid,
            step: 0,
            nodes: vec![0],
        };
        let sent = deliver(&mut node, diff_req(9));
        assert!(
            matches!(&sent[..], [KvMsg::SyncEntries { uid: 9, step: 0, children, entries }]
                if children.len() == 2 && entries.is_empty()),
            "{sent:?}"
        );

        // Walker role: with no walk open the reply is a straggler and
        // merges nothing …
        let walk_reply = |uid| KvMsg::SyncEntries {
            uid,
            step: 0,
            children: vec![],
            entries: vec![(8, t, 80)],
        };
        assert!(deliver(&mut node, walk_reply(9)).is_empty());
        assert_eq!((node.local_len(), node.walks_in_flight()), (1, 0));
        // … and a walk in progress merges what its batch brings and counts
        // its peer.
        let mut fx = Effects::new();
        node.on_restart(&mut fx);
        let uid = match fx.sends[0] {
            (ProcessId(1), KvMsg::SyncDiffReq { uid, .. }) => uid,
            ref other => panic!("expected SyncDiffReq to node 1, got {other:?}"),
        };
        assert_eq!(fx.sends[0].1, diff_req(uid));
        assert!(deliver(&mut node, walk_reply(uid)).is_empty());
        assert_eq!((node.local_len(), node.is_recovering()), (2, false));
    }

    // ---- Merkle sync: the walk and its edge cases ----

    /// A small tree, so a handful of keys fills every bucket.
    fn merkle_net(n: usize) -> Net<u32, u64> {
        Net::with(n, |cfg| cfg.with_sync_buckets(16))
    }

    #[test]
    fn digest_tree_tracks_the_store_across_nodes() {
        let mut net = merkle_net(3);
        for k in 0..20u32 {
            net.invoke(0, KvOp::Put(k, u64::from(k) * 10));
        }
        net.run();
        let root = net.nodes[0].sync_root();
        assert_ne!(root, 0);
        assert_eq!(net.nodes[1].sync_root(), root);
        assert_eq!(net.nodes[2].sync_root(), root);
    }

    #[test]
    fn merkle_restart_serves_during_the_walk_and_answers_once() {
        let mut net = merkle_net(3);
        for k in 0..20u32 {
            net.invoke(0, KvOp::Put(k, 1));
        }
        net.run();
        // Node 2 crashes and misses one overwrite.
        net.alive[2] = false;
        net.invoke(0, KvOp::Put(7, 2));
        net.run();
        net.take();
        assert_eq!(*net.nodes[2].local_entry(&7).unwrap().1, 1);
        net.restart(2);
        assert!(net.nodes[2].is_recovering());
        assert_eq!(net.nodes[2].walks_in_flight(), 2);
        // A get invoked mid-walk runs its own quorum rounds and returns the
        // overwrite before either walk has heard from its peer.
        net.invoke(2, KvOp::Get(7));
        net.run_foreground();
        assert_eq!(net.take(), vec![(OpId(21), KvResp::GetOk(Some(2)))]);
        assert!(net.nodes[2].is_recovering());
        assert_eq!(net.nodes[2].walks_in_flight(), 2);
        // Its write-back already repaired the one stale key, so the walks
        // find equal roots and move nothing.
        net.run();
        assert!(!net.nodes[2].is_recovering());
        assert_eq!(net.nodes[2].walks_in_flight(), 0);
        assert_eq!(net.nodes[2].sync_root(), net.nodes[0].sync_root());
        let shipped: u64 = (0..3)
            .map(|i| net.nodes[i].counters().sync_entries_sent)
            .sum();
        assert_eq!(shipped, 0);
        assert!(net.take().is_empty(), "the get answered exactly once");
    }

    #[test]
    fn merkle_recovery_ships_only_divergent_entries() {
        let mut net = merkle_net(3);
        for k in 0..64u32 {
            net.invoke(0, KvOp::Put(k, 1));
        }
        net.run();
        net.alive[2] = false;
        net.invoke(0, KvOp::Put(3, 2));
        net.run();
        net.take();
        net.restart(2);
        net.run();
        let shipped: u64 = (0..3)
            .map(|i| net.nodes[i].counters().sync_entries_sent)
            .sum();
        // Each up-to-date peer ships the divergent bucket once. With 16
        // buckets and 64 keys a bucket holds ~4 keys — nowhere near the
        // 128 entries two whole stores are.
        assert!(shipped >= 1, "the stale key must be shipped");
        assert!(
            shipped <= 16,
            "only divergent buckets travel, got {shipped}"
        );
        assert_eq!(*net.nodes[2].local_entry(&3).unwrap().1, 2);
    }

    #[test]
    fn walk_against_an_identical_store_is_one_request_and_one_entry_free_reply() {
        let mut net = merkle_net(3);
        for k in 0..32u32 {
            net.invoke(0, KvOp::Put(k, 5));
        }
        net.run();
        net.take();
        let before = net.sent;
        net.restart(2);
        assert!(net.nodes[2].is_recovering());
        net.run();
        assert!(!net.nodes[2].is_recovering());
        // Per walk: the root's expansion out, its two digests back — and
        // both match, so there is no second step.
        assert_eq!(net.sent - before, 2 * 2);
        assert_eq!(net.nodes[2].counters().recovery_msgs, 2);
        assert_eq!(net.nodes[2].max_walk_rounds(), 1);
        let shipped: u64 = (0..3)
            .map(|i| net.nodes[i].counters().sync_entries_sent)
            .sum();
        assert_eq!(shipped, 0, "equal digests prune the whole tree");
    }

    #[test]
    fn opening_batch_lost_on_every_link_is_reissued_by_the_walk_timer() {
        let mut net = net_with_node_2_behind(100, |cfg| cfg.with_retransmit(1_000_000));
        net.restart(2);
        let lost: Vec<_> = net.queue.drain(..).collect();
        assert_eq!(lost.len(), 2);
        net.run();
        assert_eq!(net.nodes[2].walks_in_flight(), 2, "nothing to hear from");
        // Each walk's own timer re-issues its opening request, step and all.
        for (_, to, req) in lost {
            let KvMsg::SyncDiffReq { uid, step: 0, .. } = req else {
                panic!("expected an opening SyncDiffReq, got {req:?}");
            };
            let mut fx = Effects::new();
            net.nodes[2].on_timer(TimerKey(uid), &mut fx);
            assert_eq!(fx.sends, vec![(to, req)]);
            net.absorb(ProcessId(2), fx);
        }
        net.run();
        assert!(!net.nodes[2].is_recovering());
        assert_eq!(net.nodes[2].walks_in_flight(), 0);
        assert_eq!(net.nodes[2].counters().retransmissions, 2);
        assert_eq!(net.nodes[2].sync_root(), net.nodes[0].sync_root());
    }

    #[test]
    fn two_buckets_is_the_smallest_tree_and_still_compares_before_it_ships() {
        let mut net: Net<u32, u64> = Net::with(2, |cfg| cfg.with_sync_buckets(2));
        for node in &mut net.nodes {
            for k in 0..8u32 {
                node.preload(k, Tag::new(1, ProcessId(0)), 1);
            }
        }
        // Equal stores: two digests travel, no entry.
        net.restart(1);
        net.run();
        assert_eq!(net.sent, 2);
        assert_eq!(net.nodes[1].max_walk_rounds(), 1);
        // The reply: header, step, two `(node id, digest)` pairs.
        assert_eq!(net.nodes[0].counters().recovery_bytes, 16 + 8 + 2 * 12);
        assert_eq!(net.nodes[0].counters().sync_entries_sent, 0);
        // One stale key: the root's expansion, then the one leaf that
        // differs — its bucket ships, the other does not.
        net.nodes[0].preload(3, Tag::new(2, ProcessId(0)), 2);
        let b = net.nodes[0].store.tree.bucket_of(key_hash(&3u32));
        let in_bucket = net.nodes[0].store.buckets[b].len() as u64;
        assert!(in_bucket < 8, "the other bucket holds keys too");
        net.restart(1);
        net.run();
        assert_eq!(net.sent, 2 + 4);
        assert_eq!(net.nodes[1].max_walk_rounds(), 2);
        assert_eq!(net.nodes[0].counters().sync_entries_sent, in_bucket);
        assert_eq!(*net.nodes[1].local_entry(&3).unwrap().1, 2);
    }

    #[test]
    fn duplicated_walk_replies_are_no_ops() {
        let mut node: KvNode<u32, u64> =
            KvNode::new(KvConfig::new(3, ProcessId(0)).with_sync_buckets(4));
        for k in 0..8u32 {
            node.preload(k, Tag::new(1, ProcessId(1)), 7);
        }
        let mut fx = Effects::new();
        // Open a walk by hand; the descent starts at the tree root.
        node.start_walk(ProcessId(1), &mut fx);
        let (uid, first_req) = opening(fx.sends);
        assert!(matches!(first_req[0], KvMsg::SyncDiffReq { step: 0, .. }));
        let reply = |step| KvMsg::SyncEntries {
            uid,
            step,
            children: vec![(1, 123), (2, 456)],
            entries: vec![],
        };
        // A reply with a step not in flight is ignored.
        assert!(deliver(&mut node, reply(9)).is_empty(), "stale step");
        // The matching-step reply advances the walk.
        let sent = deliver(&mut node, reply(0));
        assert!(matches!(sent[0], KvMsg::SyncDiffReq { step: 1, .. }));
        // A duplicate of it must not restart or double-drive the walk.
        assert!(deliver(&mut node, reply(0)).is_empty(), "duplicate reply");
    }

    /// A walker (node 0) and a peer (node 1) of an `n = 2` cluster holding
    /// the same 2 000 keys, the peer with a newer tag on every one: all 256
    /// buckets diverge, so the tree's levels need 1, 1, 1, 1, 1, 1, 2, 4
    /// and 8 batches.
    fn wide_divergence_pair() -> (KvNode<u32, u64>, KvNode<u32, u64>) {
        let node = |i: usize| {
            let mut node: KvNode<u32, u64> = KvNode::new(
                KvConfig::new(2, ProcessId(i))
                    .with_sync_buckets(256)
                    .with_retransmit(1_000_000),
            );
            for k in 0..2_000u32 {
                node.preload(k, Tag::new(1, ProcessId(0)), 1);
            }
            node
        };
        let (walker, mut peer) = (node(0), node(1));
        for k in 0..2_000u32 {
            peer.preload(k, Tag::new(2, ProcessId(1)), 2);
        }
        (walker, peer)
    }

    /// The peer's (stateless) answer to one walk request.
    fn answer(peer: &mut KvNode<u32, u64>, req: &KvMsg<u32, u64>) -> KvMsg<u32, u64> {
        let mut fx = Effects::new();
        peer.on_message(ProcessId(0), req.clone(), &mut fx);
        assert_eq!(fx.sends.len(), 1, "one reply per request");
        fx.sends.pop().unwrap().1
    }

    /// Hands `msg` from the peer to the walker; returns what the walker sent.
    fn deliver(walker: &mut KvNode<u32, u64>, msg: KvMsg<u32, u64>) -> Vec<KvMsg<u32, u64>> {
        let mut fx = Effects::new();
        walker.on_message(ProcessId(1), msg, &mut fx);
        fx.sends.into_iter().map(|(_, m)| m).collect()
    }

    /// The walk uid and first wave of a walk just opened against one peer:
    /// a single request, for the root.
    fn opening(sends: Vec<(ProcessId, KvMsg<u32, u64>)>) -> (u64, Vec<KvMsg<u32, u64>>) {
        let wave: Vec<_> = sends.into_iter().map(|(_, m)| m).collect();
        match wave[..] {
            [KvMsg::SyncDiffReq { uid, ref nodes, .. }] if nodes[..] == [0] => (uid, wave),
            ref other => panic!("expected one SyncDiffReq for the root, got {other:?}"),
        }
    }

    /// Asserts `wave` is all `SyncDiffReq`s with fresh steps over tree nodes
    /// never requested before, and records both.
    fn check_wave(
        wave: &[KvMsg<u32, u64>],
        steps: &mut std::collections::HashSet<u64>,
        expanded: &mut std::collections::HashSet<u32>,
    ) {
        for req in wave {
            let KvMsg::SyncDiffReq { step, nodes, .. } = req else {
                panic!("expected SyncDiffReq, got {req:?}");
            };
            assert!(nodes.len() <= MAX_DIFF_NODES);
            assert!(steps.insert(*step), "step {step} reused");
            for id in nodes {
                assert!(expanded.insert(*id), "tree node {id} requested twice");
            }
        }
    }

    #[test]
    fn recovery_walk_issues_a_level_at_once_under_duplicated_reordered_and_lost_replies() {
        let (mut walker, mut peer) = wide_divergence_pair();
        let mut fx = Effects::new();
        walker.on_restart(&mut fx);
        assert!(walker.is_recovering());
        let (uid, mut wave) = opening(fx.sends);
        let (mut steps, mut expanded) = Default::default();
        let mut wave_sizes = Vec::new();
        while !wave.is_empty() {
            wave_sizes.push(wave.len());
            check_wave(&wave, &mut steps, &mut expanded);
            // The peer answers every batch; the replies come back in
            // reverse order, each one twice, and the last one is lost.
            let mut replies: Vec<_> = wave.iter().map(|req| answer(&mut peer, req)).collect();
            replies.reverse();
            let lost_req = wave.first().unwrap().clone();
            let lost = replies.pop().unwrap();
            for reply in replies {
                let sent = deliver(&mut walker, reply.clone());
                assert!(sent.is_empty(), "the next level waits for the whole level");
                assert!(deliver(&mut walker, reply).is_empty(), "duplicate reply");
            }
            // The retransmission timer re-issues exactly the batch still
            // outstanding, under its own step.
            let mut fx = Effects::new();
            walker.on_timer(TimerKey(uid), &mut fx);
            let resent: Vec<_> = fx.sends.into_iter().map(|(_, m)| m).collect();
            assert_eq!(resent, vec![lost_req]);
            // Its answer completes the level and releases the next one; the
            // reply believed lost then straggles in and changes nothing.
            let again = answer(&mut peer, &resent[0]);
            wave = deliver(&mut walker, again);
            assert!(deliver(&mut walker, lost).is_empty(), "straggler reply");
        }
        assert_eq!(wave_sizes, vec![1, 1, 1, 1, 1, 1, 2, 4, 8]);
        assert_eq!(expanded.len(), 2 * 256 - 1, "every tree node, once");
        assert_eq!(walker.walks_in_flight(), 0);
        assert!(!walker.is_recovering());
        assert_eq!(walker.sync_root(), peer.sync_root());
        assert_eq!(walker.max_walk_rounds(), 9);
        assert_eq!(walker.counters().retransmissions, 9);
    }

    #[test]
    fn lost_requests_of_a_level_are_all_retransmitted() {
        let (mut walker, mut peer) = wide_divergence_pair();
        let mut fx = Effects::new();
        walker.on_restart(&mut fx);
        let (uid, mut wave) = opening(fx.sends);
        // Answer level by level until eight batches are in flight.
        while wave.len() < 8 {
            let replies: Vec<_> = wave.iter().map(|req| answer(&mut peer, req)).collect();
            wave = replies
                .into_iter()
                .flat_map(|r| deliver(&mut walker, r))
                .collect();
        }
        // Three of the eight are answered; the other five requests are lost.
        for req in &wave[..3] {
            let reply = answer(&mut peer, req);
            assert!(deliver(&mut walker, reply).is_empty());
        }
        let mut fx = Effects::new();
        walker.on_timer(TimerKey(uid), &mut fx);
        let resent: Vec<_> = fx.sends.into_iter().map(|(_, m)| m).collect();
        assert_eq!(
            resent,
            wave[3..].to_vec(),
            "each under its own step, in order"
        );
        assert_eq!(fx.timers.len(), 1, "and the timer is re-armed");
        for req in &resent {
            let reply = answer(&mut peer, req);
            assert!(
                deliver(&mut walker, reply).is_empty(),
                "leaves: nothing below"
            );
        }
        assert!(!walker.is_recovering());
        assert_eq!(walker.walks_in_flight(), 0);
        assert_eq!(walker.sync_root(), peer.sync_root());
    }

    /// A set of `len` distinct keys below `keys`, `len` drawn from `size`.
    fn key_set(rng: &mut SmallRng, keys: u32, size: Range<usize>) -> BTreeSet<u32> {
        let len = rng.gen_range(size);
        let mut set = BTreeSet::new();
        while set.len() < len {
            set.insert(rng.gen_range(0..keys));
        }
        set
    }

    /// Whatever the rebooted node missed (`missed`), whatever it alone
    /// holds from a write it never finished (`ahead`), and in whatever
    /// order and multiplicity the replies of its in-flight batches arrive
    /// (`order`), the pipelined walk leaves the store the bulk snapshot
    /// transfer left: its peers' whole stores, max-merged into its own.
    /// 24 cases, case `c` drawn from `SmallRng::seed_from_u64(c)`.
    #[test]
    fn pipelined_walk_leaves_the_store_bulk_sync_leaves() {
        for case in 0..24 {
            let mut rng = SmallRng::seed_from_u64(case);
            let missed = key_set(&mut rng, 1_500, 0..1_200);
            let ahead = key_set(&mut rng, 1_500, 0..40);
            let order: u64 = rng.gen();
            let cluster = || {
                let mut net: Net<u32, u64> = Net::with(3, |cfg| cfg.with_sync_buckets(256));
                for node in &mut net.nodes {
                    for k in 0..1_500u32 {
                        node.preload(k, Tag::new(1, ProcessId(0)), 1);
                    }
                }
                for node in net.nodes.iter_mut().take(2) {
                    for &k in &missed {
                        node.preload(k, Tag::new(2, ProcessId(1)), 2);
                    }
                }
                for &k in &ahead {
                    net.nodes[2].preload(k, Tag::new(3, ProcessId(2)), 3);
                }
                net
            };
            let store_of = |node: &KvNode<u32, u64>| {
                (0..1_500u32)
                    .map(|k| node.local_entry(&k).map(|(t, v)| (t, *v)))
                    .collect::<Vec<_>>()
            };
            let inputs = format!("case {case}: missed {missed:?}, ahead {ahead:?}, order {order}");
            let mut walked = cluster();
            walked.restart(2);
            walked.run_chaotic(order);
            assert!(!walked.nodes[2].is_recovering(), "{inputs}");
            assert_eq!(walked.nodes[2].walks_in_flight(), 0, "{inputs}");
            let mut bulk = cluster();
            for peer in 0..2 {
                let snapshot = bulk.nodes[peer].entries();
                bulk.nodes[2].merge(snapshot);
            }
            assert_eq!(
                store_of(&walked.nodes[2]),
                store_of(&bulk.nodes[2]),
                "{inputs}"
            );
        }
    }

    /// Whatever `(key, tag, value)` adoptions the store sees — preloads,
    /// adoptions above and below the held tag, walk merges — in whatever
    /// order, each key holds the largest tag offered so far with the value
    /// that came first at that tag, and the digest is that of a fresh store
    /// which adopted only those maxima, in reverse order. And the layout
    /// holds: every entry sits once in the bucket its key hashes to, and
    /// the tree is the one a [`MerkleTree`] rebuilt from the buckets has.
    /// 256 cases over 16 buckets, case `c` drawn from
    /// `SmallRng::seed_from_u64(c)`.
    #[test]
    fn kv_store_holds_each_keys_running_maximum() {
        for case in 0..256 {
            let mut rng = SmallRng::seed_from_u64(case);
            let len = rng.gen_range(0..200);
            let adoptions: Vec<(u32, u64, usize, u64, u8)> = (0..len)
                .map(|_| {
                    (
                        rng.gen_range(0..48),
                        rng.gen_range(0..4),
                        rng.gen_range(0..3),
                        rng.gen_range(0..1_000),
                        rng.gen_range(0..3),
                    )
                })
                .collect();
            let inputs = format!("case {case}: adoptions {adoptions:?}");
            let fresh =
                || KvNode::<u32, u64>::new(KvConfig::new(3, ProcessId(0)).with_sync_buckets(16));
            let mut node = fresh();
            let mut max: BTreeMap<u32, (Tag, u64)> = BTreeMap::new();
            for &(key, seq, writer, value, door) in &adoptions {
                let tag = Tag::new(seq, ProcessId(writer));
                match door {
                    0 => node.preload(key, tag, value),
                    1 => node.store.adopt(&key, tag, value),
                    _ => node.merge(vec![(key, tag, value)]),
                }
                if tag > max.get(&key).map_or(Tag::initial(), |e| e.0) {
                    max.insert(key, (tag, value));
                }
                let held = node.local_entry(&key).map(|(t, v)| (t, *v));
                assert_eq!(held, max.get(&key).copied(), "{inputs}");
            }
            let held: BTreeMap<u32, (Tag, u64)> = node
                .entries()
                .into_iter()
                .map(|(k, t, v)| (k, (t, v)))
                .collect();
            assert_eq!(held, max, "{inputs}");
            let mut maxima = fresh();
            for (key, (tag, value)) in max.iter().rev() {
                maxima.store.adopt(key, *tag, *value);
            }
            assert_eq!(node.sync_root(), maxima.sync_root(), "{inputs}");
            let mut rebuilt = MerkleTree::new(16);
            let mut seen = BTreeSet::new();
            for (b, bucket) in node.store.buckets.iter().enumerate() {
                for (key, tag, _) in bucket {
                    assert_eq!(
                        node.store.tree.bucket_of(key_hash(key)),
                        b,
                        "{key} {inputs}"
                    );
                    assert!(seen.insert(*key), "{key} held twice, {inputs}");
                    rebuilt.apply_delta(key_hash(key), None, Some(*tag));
                }
            }
            assert_eq!(node.store.tree, rebuilt, "{inputs}");
        }
    }

    #[test]
    fn sync_state_tag_tie_with_differing_value_keeps_existing_entry() {
        let mut node: KvNode<u32, u64> = KvNode::new(KvConfig::new(3, ProcessId(0)));
        let t = Tag::new(4, ProcessId(1));
        node.preload(1, t, 111);
        let root = node.sync_root();
        let mut fx = Effects::new();
        node.on_restart(&mut fx);
        // A peer claims a *different* value at the same tag. Max-merge is
        // strictly-greater, so the local entry (and digest) must survive —
        // adopting a tag-tied different value would let two replicas
        // permanently disagree under an equal digest.
        for (to, msg) in fx.sends {
            let KvMsg::SyncDiffReq { uid, step, .. } = msg else {
                panic!("expected SyncDiffReq, got {msg:?}");
            };
            let reply = KvMsg::SyncEntries {
                uid,
                step,
                children: vec![],
                entries: vec![(1, t, 999)],
            };
            node.on_message(to, reply, &mut Effects::new());
        }
        assert!(!node.is_recovering());
        assert_eq!(node.local_entry(&1), Some((t, &111)));
        assert_eq!(node.sync_root(), root);
    }

    #[test]
    fn catch_up_replies_never_restart_or_replay_a_foreground_get() {
        let mut node: KvNode<u32, u64> = KvNode::new(KvConfig::new(3, ProcessId(0)));
        let mut fx = Effects::new();
        node.on_restart(&mut fx);
        let walk_uids: Vec<u64> = fx
            .sends
            .iter()
            .map(|(_, m)| match m {
                KvMsg::SyncDiffReq { uid, step: 0, .. } => *uid,
                other => panic!("expected an opening SyncDiffReq, got {other:?}"),
            })
            .collect();
        // The get broadcasts its query round straight away.
        let mut fx = Effects::new();
        node.on_invoke(OpId(1), KvOp::Get(5), &mut fx);
        let quid = match fx.sends.as_slice() {
            [(_, KvMsg::Op(Msg::Query { uid, .. })), (_, KvMsg::Op(Msg::Query { .. }))] => *uid,
            other => panic!("expected one query round, got {other:?}"),
        };
        assert_eq!(node.in_flight(), 1);
        // The catch-up completing under it, and a duplicated straggler
        // afterwards, adopt entries and nothing else.
        let mut fx = Effects::new();
        let entries_from = |from: usize, entries| {
            let reply = KvMsg::SyncEntries {
                uid: walk_uids[from - 1],
                step: 0,
                children: vec![],
                entries,
            };
            (ProcessId(from), reply)
        };
        for (from, msg) in [
            entries_from(1, vec![(5, Tag::new(1, ProcessId(1)), 42)]),
            entries_from(2, vec![]),
            entries_from(2, vec![]),
        ] {
            node.on_message(from, msg, &mut fx);
        }
        assert!(!node.is_recovering());
        assert!(fx.sends.is_empty() && fx.responses.is_empty());
        assert_eq!(node.in_flight(), 1, "still exactly one instance of the get");
        // Completing the query round, then the write-back, responds once.
        for from in [1, 2] {
            node.on_message(
                ProcessId(from),
                KvMsg::Op(Msg::QueryReply {
                    uid: quid,
                    label: Tag::new(1, ProcessId(1)),
                    value: Some(42),
                }),
                &mut fx,
            );
        }
        let wb_uid = match fx
            .sends
            .iter()
            .find(|(_, m)| matches!(m, KvMsg::Op(Msg::Update { .. })))
        {
            Some((_, KvMsg::Op(Msg::Update { uid, .. }))) => *uid,
            other => panic!("expected write-back Update, got {other:?}"),
        };
        node.on_message(
            ProcessId(1),
            KvMsg::Op(Msg::UpdateAck { uid: wb_uid }),
            &mut fx,
        );
        node.on_message(
            ProcessId(2),
            KvMsg::Op(Msg::UpdateAck { uid: wb_uid }),
            &mut fx,
        );
        assert_eq!(fx.responses, vec![(OpId(1), KvResp::GetOk(Some(42)))]);
    }

    /// `n = 3`: every node holds `keys` keys, and
    /// nodes 0 and 1 — a write quorum — hold a newer put on each of them
    /// that node 2 slept through.
    fn net_with_node_2_behind(keys: u32, cfg_fn: impl Fn(KvConfig) -> KvConfig) -> Net<u32, u64> {
        let mut net: Net<u32, u64> = Net::with(3, |cfg| cfg_fn(cfg.with_sync_buckets(64)));
        for (i, node) in net.nodes.iter_mut().enumerate() {
            for k in 0..keys {
                node.preload(k, Tag::new(1, ProcessId(0)), 1);
                if i < 2 {
                    node.preload(k, Tag::new(2, ProcessId(1)), 2);
                }
            }
        }
        net
    }

    #[test]
    fn get_at_the_restart_instant_is_answered_before_the_walk_in_every_mode_and_tier() {
        for mode in [ReadMode::TwoRound, ReadMode::FastUnanimous, ReadMode::Relay] {
            for tier in [
                Consistency::Atomic,
                Consistency::Sequential,
                Consistency::Regular,
            ] {
                let mut net = net_with_node_2_behind(256, |cfg| cfg.with_read_mode(mode));
                net.restart(2);
                let op = net.invoke(2, KvOp::GetAt(200, tier));
                net.run_foreground();
                // A sequential get serves the replica as it stood at the
                // crash (never older); the quorum tiers see the latest put.
                let want = if tier == Consistency::Sequential {
                    1
                } else {
                    2
                };
                assert_eq!(
                    net.take(),
                    vec![(op, KvResp::GetOk(Some(want)))],
                    "{mode:?}/{tier:?}"
                );
                assert!(net.nodes[2].is_recovering(), "{mode:?}/{tier:?}");
                assert_eq!(net.nodes[2].walks_in_flight(), 2, "{mode:?}/{tier:?}");
                // The walk still converges afterwards.
                net.run();
                assert!(!net.nodes[2].is_recovering());
                assert_eq!(net.nodes[2].walks_in_flight(), 0);
                for k in 0..256u32 {
                    assert_eq!(
                        net.nodes[2].local_entry(&k),
                        net.nodes[0].local_entry(&k),
                        "{mode:?}/{tier:?} key {k}"
                    );
                }
                assert!(net.take().is_empty());
            }
        }
    }

    #[test]
    fn put_during_catch_up_retransmits_its_lost_query_round() {
        let mut net = net_with_node_2_behind(100, |cfg| cfg.with_retransmit(1_000_000));
        net.restart(2);
        let op = net.invoke(2, KvOp::Put(7, 3));
        // Every first copy of the put's query is lost.
        let mut lost = Vec::new();
        net.queue.retain(|(_, _, m)| match m {
            KvMsg::Op(Msg::Query { uid, .. }) => {
                lost.push(*uid);
                false
            }
            _ => true,
        });
        assert_eq!(lost.len(), 2);
        net.run_foreground();
        assert!(net.take().is_empty());
        // Its timer fires while the catch-up is still running: the round
        // must go out again (the timer belongs to the put, not the walk).
        let mut fx = Effects::new();
        net.nodes[2].on_timer(TimerKey(lost[0]), &mut fx);
        assert_eq!(fx.sends.len(), 2, "query round retransmitted");
        net.absorb(ProcessId(2), fx);
        net.run_foreground();
        assert_eq!(net.take(), vec![(op, KvResp::PutOk)]);
        assert!(net.nodes[2].is_recovering());
        assert_eq!(net.nodes[2].counters().retransmissions, 2);
    }
}
