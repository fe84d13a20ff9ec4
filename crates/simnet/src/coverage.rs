//! Coverage signals for the nemesis search.
//!
//! A fault schedule is interesting not because it is new but because the
//! *protocol* does something new under it. This module extracts a small set
//! of protocol-state features from a campaign — observed through the
//! simulator's observation-only tap ([`crate::Sim::set_tap`]), so the
//! extraction cannot perturb the execution or its digest — and folds them
//! into [`Cell`]s:
//!
//! - **Phase-transition bigrams** — consecutive pairs of delivered message
//!   kinds per node, split by writer/reader role. The ABD state machines are
//!   message-driven, so the delivered-kind stream is a faithful projection
//!   of each node's phase transitions; a bigram never seen before means the
//!   schedule drove some node through a new local transition.
//! - **Fast-read-under-partition** — a read completed while a partition was
//!   installed without a single `UpdateAck` reaching the reader, i.e. the
//!   read's write-back phase was elided (or sabotaged) exactly when quorum
//!   intersection is under attack. This is the precondition for the
//!   new/old-inversion failures the write-back exists to prevent.
//! - **Relay-read-under-partition** — a read completed on direct
//!   `RelayReply`s while a partition was installed: the one-and-a-half-round
//!   path finished exactly when server-to-server forwarding was under
//!   attack, the precondition for a relay round completing on a stale
//!   minimum.
//! - **Write-back-while-crashed** — an `Update` addressed to a crashed
//!   node: some propagation phase is counting on a replica that cannot
//!   currently adopt.
//! - **Recovery-interleaved-query** — a `Query` delivered to a node that is
//!   still inside its restart catch-up phase: reads racing recovery.
//! - **Retransmission-exhaustion** — log₂ bucket of the campaign's total
//!   retransmissions: how hard the loss/partition plan starved phases.
//! - **Sync-divergence** — log₂ bucket of the `(key, tag, value)` entries a
//!   restarted node received through its Merkle walks before the campaign
//!   ended: how far the schedule let that replica diverge before recovery
//!   repaired it. Bucket 0 — a reboot that needed no entries at all — is
//!   itself a distinct feature.
//! - **Served-during-catch-up** — log₂ bucket of the operations that
//!   completed on a restarted node while sync replies for its catch-up
//!   were still arriving: how much the schedule made a replica serve
//!   before it was current, the path a restarted key-value node's safety
//!   argument (persist-before-ack) has to carry.
//! - **Trace-digest buckets** — 64 buckets of the execution digest, a crude
//!   but free tiebreaker that distinguishes schedules whose feature sets
//!   coincide.
//!
//! One campaign yields a [`CoverageSample`]; a search run accumulates
//! samples into a [`CoverageMap`] whose novelty count ("how many cells did
//! this schedule light first?") steers corpus admission.

use crate::metrics::Metrics;
use crate::sim::{DropReason, TapEvent, TapKind};
use abd_core::batch::Envelope;
use abd_core::engine::Msg;
use abd_core::msg::RegisterOp;
use abd_core::quorum::majority_threshold;
use abd_core::types::{Consistency, Nanos, OpId, ProcessId};
use abd_kv::{KvMsg, KvOp};
use std::collections::BTreeSet;
use std::fmt;

/// The message-kind alphabet bigram cells are built over.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum MsgKind {
    /// A query-phase request.
    Query,
    /// A query-phase reply.
    QueryReply,
    /// A propagation request (write or write-back).
    Update,
    /// A propagation acknowledgement.
    UpdateAck,
    /// A relay-read opening broadcast (reader snapshot).
    RelayQuery,
    /// A server-to-server relay forward.
    RelayFwd,
    /// A server's direct reply to a relaying reader.
    RelayReply,
    /// A coalesced envelope carrying several inner messages.
    Batch,
    /// A Merkle walk request (batch of tree nodes to expand).
    SyncDiffReq,
    /// A Merkle walk reply (children digests + leaf entries).
    SyncEntries,
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MsgKind::Query => "Query",
            MsgKind::QueryReply => "QueryReply",
            MsgKind::Update => "Update",
            MsgKind::UpdateAck => "UpdateAck",
            MsgKind::RelayQuery => "RelayQuery",
            MsgKind::RelayFwd => "RelayFwd",
            MsgKind::RelayReply => "RelayReply",
            MsgKind::Batch => "Batch",
            MsgKind::SyncDiffReq => "SyncDiffReq",
            MsgKind::SyncEntries => "SyncEntries",
        };
        f.write_str(s)
    }
}

/// Maps a wire message onto the coverage alphabet. Implemented for every
/// message type the repro harness drives, so coverage extraction is
/// protocol-agnostic.
pub trait Classify {
    /// The [`MsgKind`] of this message.
    fn classify(&self) -> MsgKind;

    /// How many `(key, tag, value)` entries this message carries as sync
    /// payload. Non-zero only for sync replies (Merkle `SyncEntries`);
    /// defaults to zero so protocols without a sync layer never feed the
    /// divergence signal.
    fn sync_entries(&self) -> u64 {
        0
    }
}

impl<K, L, R, V> Classify for Msg<K, L, R, V> {
    fn classify(&self) -> MsgKind {
        match self {
            Msg::Query { .. } => MsgKind::Query,
            Msg::QueryReply { .. } => MsgKind::QueryReply,
            Msg::Update { .. } => MsgKind::Update,
            Msg::UpdateAck { .. } => MsgKind::UpdateAck,
            Msg::RelayQuery { .. } => MsgKind::RelayQuery,
            Msg::RelayFwd { .. } => MsgKind::RelayFwd,
            Msg::RelayReply { .. } => MsgKind::RelayReply,
        }
    }
}

impl<M: Classify> Classify for Envelope<M> {
    fn classify(&self) -> MsgKind {
        match self {
            Envelope::One(m) => m.classify(),
            Envelope::Batch(_) => MsgKind::Batch,
        }
    }

    fn sync_entries(&self) -> u64 {
        match self {
            Envelope::One(m) => m.sync_entries(),
            Envelope::Batch(ms) => ms.iter().map(Classify::sync_entries).sum(),
        }
    }
}

impl<K, V> Classify for KvMsg<K, V> {
    fn classify(&self) -> MsgKind {
        match self {
            KvMsg::Op(m) => m.classify(),
            KvMsg::SyncDiffReq { .. } => MsgKind::SyncDiffReq,
            KvMsg::SyncEntries { .. } => MsgKind::SyncEntries,
        }
    }

    fn sync_entries(&self) -> u64 {
        match self {
            KvMsg::SyncEntries { entries, .. } => entries.len() as u64,
            KvMsg::Op(_) | KvMsg::SyncDiffReq { .. } => 0,
        }
    }
}

/// Maps a client operation onto read/write for the fast-read signal.
pub trait ClassifyOp {
    /// Whether this operation is a read.
    fn is_read(&self) -> bool;

    /// The consistency tier a read was invoked at, `None` for writes.
    /// Defaults to atomic — protocols without tiered reads serve every
    /// read at full strength.
    fn read_tier(&self) -> Option<Consistency> {
        self.is_read().then_some(Consistency::Atomic)
    }
}

impl<V> ClassifyOp for RegisterOp<V> {
    fn is_read(&self) -> bool {
        !matches!(self, RegisterOp::Write(_))
    }

    fn read_tier(&self) -> Option<Consistency> {
        self.consistency()
    }
}

impl<K, V> ClassifyOp for KvOp<K, V> {
    fn is_read(&self) -> bool {
        !matches!(self, KvOp::Put(_, _))
    }

    fn read_tier(&self) -> Option<Consistency> {
        match self {
            KvOp::Get(_) => Some(Consistency::Atomic),
            KvOp::GetAt(_, tier) => Some(*tier),
            KvOp::Put(_, _) => None,
        }
    }
}

/// One coverage cell — a protocol-state feature a campaign either hits or
/// does not.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Cell {
    /// Node-local bigram of consecutively *delivered* message kinds,
    /// split by whether the node is the designated writer.
    Bigram {
        /// Whether the observing node is the campaign's writer.
        at_writer: bool,
        /// Kind of the previously delivered message.
        prev: MsgKind,
        /// Kind of the current message.
        cur: MsgKind,
    },
    /// A read completed during a partition with no `UpdateAck` delivered to
    /// the reader while it was in flight (write-back elided or lost).
    FastReadUnderPartition,
    /// A read completed on direct `RelayReply`s while a partition was
    /// installed — the relay fast path finishing under quorum attack.
    RelayReadUnderPartition,
    /// An `Update` arrived at a crashed node (propagation counting on a
    /// replica that cannot adopt).
    UpdateWhileCrashed,
    /// A `Query` reached a node still inside its restart catch-up phase.
    RecoveryInterleavedQuery,
    /// log₂ bucket of the delay between a node's restart and a `Query`
    /// reaching it. [`Cell::RecoveryInterleavedQuery`] is binary — lit by
    /// almost any crashy schedule — so it stops yielding novelty after one
    /// admission. The bucketed gap keeps a gradient alive: each tighter
    /// reboot-to-query window is a new cell, steering the corpus toward
    /// schedules that interrogate a replica at ever-smaller distances from
    /// its amnesia point, which is where recovery defects live.
    RestartQueryGap(u8),
    /// A read at this consistency tier completed somewhere in the
    /// campaign — distinguishes which tiers a schedule's workload
    /// actually exercised.
    TierRead(Consistency),
    /// log₂ bucket of total retransmissions over the campaign.
    RetransmissionExhaustion(u8),
    /// log₂ bucket of the sync entries (Merkle `SyncEntries` rows)
    /// delivered to some restarted node — how divergent a replica the
    /// schedule managed to produce before recovery repaired it. Bucket 0
    /// means a node rebooted and needed no entries at all (digest-equal
    /// walks); each higher bucket is a reboot into a more divergent store,
    /// steering the search toward partial-staleness schedules the Merkle
    /// walk must diff precisely.
    SyncDivergence(u8),
    /// log₂ bucket of the operations that completed on a restarted node
    /// before a later sync reply (`SyncEntries`) reached it in the same
    /// incarnation — the node served them while its catch-up was still
    /// running. Absent when there were none. (With the background
    /// anti-entropy sweep enabled its replies count as well, so there the
    /// cell over-approximates.)
    ServedDuringCatchUp(u8),
    /// Trace digest modulo 64 — distinguishes executions whose feature
    /// cells coincide.
    DigestBucket(u8),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Bigram {
                at_writer,
                prev,
                cur,
            } => {
                let role = if *at_writer { "writer" } else { "reader" };
                write!(f, "bigram/{role}: {prev} -> {cur}")
            }
            Cell::FastReadUnderPartition => f.write_str("fast-read-under-partition"),
            Cell::RelayReadUnderPartition => f.write_str("relay-read-under-partition"),
            Cell::UpdateWhileCrashed => f.write_str("write-back-while-crashed"),
            Cell::RecoveryInterleavedQuery => f.write_str("recovery-interleaved-query"),
            Cell::RestartQueryGap(b) => write!(f, "restart-query-gap/2^{b}"),
            Cell::TierRead(tier) => write!(f, "tier-read/{tier}"),
            Cell::RetransmissionExhaustion(b) => write!(f, "retransmission-exhaustion/2^{b}"),
            Cell::SyncDivergence(b) => write!(f, "sync-divergence/2^{b}"),
            Cell::ServedDuringCatchUp(b) => write!(f, "served-during-catch-up/2^{b}"),
            Cell::DigestBucket(b) => write!(f, "digest-bucket/{b}"),
        }
    }
}

/// The digest-bucket cell for a given trace digest.
pub fn digest_bucket(digest: u64) -> Cell {
    Cell::DigestBucket((digest % 64) as u8)
}

fn log2_bucket(x: u64) -> u8 {
    if x == 0 {
        0
    } else {
        (64 - x.leading_zeros()) as u8
    }
}

/// The set of coverage cells one campaign hit.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CoverageSample {
    cells: BTreeSet<Cell>,
}

impl CoverageSample {
    /// The cells, in `Ord` order.
    pub fn cells(&self) -> impl Iterator<Item = &Cell> {
        self.cells.iter()
    }

    /// Number of cells hit.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cell was hit (e.g. the campaign never ran).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Whether `cell` was hit.
    pub fn contains(&self, cell: &Cell) -> bool {
        self.cells.contains(cell)
    }
}

/// Accumulated coverage over many campaigns — the search's novelty signal.
#[derive(Clone, Debug, Default)]
pub struct CoverageMap {
    cells: BTreeSet<Cell>,
}

impl CoverageMap {
    /// Folds `sample` in; returns how many of its cells were new. A positive
    /// return is the admission signal: this schedule did something no
    /// corpus member has done.
    pub fn absorb(&mut self, sample: &CoverageSample) -> usize {
        let mut novel = 0;
        for cell in &sample.cells {
            if self.cells.insert(*cell) {
                novel += 1;
            }
        }
        novel
    }

    /// Whether `cell` has been hit by any absorbed sample.
    pub fn contains(&self, cell: &Cell) -> bool {
        self.cells.contains(cell)
    }

    /// Whether the digest bucket of `digest` has been hit — lets blind-sweep
    /// failures be deduplicated against search coverage.
    pub fn covers_digest(&self, digest: u64) -> bool {
        self.cells.contains(&digest_bucket(digest))
    }

    /// Number of distinct cells hit so far.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no sample has been absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Streaming extractor: feed it every [`TapEvent`] of one campaign, then
/// [`finish`](CoverageCollector::finish) it with the campaign's metrics and
/// trace digest to obtain the [`CoverageSample`].
#[derive(Clone, Debug)]
pub struct CoverageCollector {
    writer: ProcessId,
    /// Per node: kind of the last delivered message (bigram state).
    last_kind: Vec<Option<MsgKind>>,
    /// Per node: outstanding QueryReplies of the restart catch-up phase;
    /// positive while the node is considered "in recovery".
    recovering: Vec<u32>,
    /// Majority threshold minus one: remote replies a catch-up needs.
    catchup_replies: u32,
    /// Per node: in-flight read `(op, tier, saw_update_ack, saw_relay_reply)`.
    read_in_flight: Vec<Option<(OpId, Consistency, bool, bool)>>,
    /// Per node: instant of the most recent restart, cleared on crash.
    restarted_at: Vec<Option<Nanos>>,
    /// Per node: sync entries delivered since the most recent restart;
    /// reset on crash and restart so the count measures one reboot's
    /// divergence, not a lifetime total.
    sync_entries_recv: Vec<u64>,
    /// Per node: operations completed since the most recent restart that no
    /// sync reply has followed yet.
    served_unconfirmed: Vec<u64>,
    /// Operations completed on a restarted node that a sync reply did follow.
    served_catching_up: u64,
    cells: BTreeSet<Cell>,
}

impl CoverageCollector {
    /// A collector for an `n`-node cluster whose designated writer is
    /// `writer` (node 0 in every campaign the repro harness builds).
    pub fn new(n: usize, writer: ProcessId) -> Self {
        CoverageCollector {
            writer,
            last_kind: vec![None; n],
            recovering: vec![0; n],
            catchup_replies: majority_threshold(n).saturating_sub(1) as u32,
            read_in_flight: vec![None; n],
            restarted_at: vec![None; n],
            sync_entries_recv: vec![0; n],
            served_unconfirmed: vec![0; n],
            served_catching_up: 0,
            cells: BTreeSet::new(),
        }
    }

    /// Consumes one observed simulator event.
    pub fn observe<M: Classify, O: ClassifyOp>(&mut self, ev: &TapEvent<'_, M, O>) {
        let t = ev.target.index();
        match &ev.kind {
            TapKind::Deliver { msg, dropped, .. } => {
                let kind = msg.classify();
                match dropped {
                    Some(DropReason::Crashed) => {
                        if kind == MsgKind::Update {
                            self.cells.insert(Cell::UpdateWhileCrashed);
                        }
                    }
                    Some(DropReason::Partitioned) => {}
                    None => {
                        if let Some(prev) = self.last_kind[t] {
                            self.cells.insert(Cell::Bigram {
                                at_writer: ev.target == self.writer,
                                prev,
                                cur: kind,
                            });
                        }
                        self.last_kind[t] = Some(kind);
                        self.sync_entries_recv[t] += msg.sync_entries();
                        match kind {
                            MsgKind::Query => {
                                if self.recovering[t] > 0 {
                                    self.cells.insert(Cell::RecoveryInterleavedQuery);
                                }
                                if let Some(rt) = self.restarted_at[t] {
                                    self.cells.insert(Cell::RestartQueryGap(log2_bucket(
                                        ev.at.saturating_sub(rt),
                                    )));
                                }
                            }
                            MsgKind::QueryReply if self.recovering[t] > 0 => {
                                self.recovering[t] -= 1;
                            }
                            MsgKind::SyncEntries => {
                                self.served_catching_up +=
                                    std::mem::take(&mut self.served_unconfirmed[t]);
                            }
                            MsgKind::UpdateAck => {
                                if let Some((_, _, saw_ack, _)) = self.read_in_flight[t].as_mut() {
                                    *saw_ack = true;
                                }
                            }
                            MsgKind::RelayReply => {
                                if let Some((_, _, _, saw_relay)) = self.read_in_flight[t].as_mut()
                                {
                                    *saw_relay = true;
                                }
                            }
                            _ => {}
                        }
                    }
                }
            }
            TapKind::Invoke { op, input } => {
                self.read_in_flight[t] = input.read_tier().map(|tier| (*op, tier, false, false));
            }
            TapKind::Complete { op } => {
                if self.restarted_at[t].is_some() {
                    self.served_unconfirmed[t] += 1;
                }
                if let Some((read_op, tier, saw_ack, saw_relay)) = self.read_in_flight[t] {
                    if read_op == *op {
                        self.cells.insert(Cell::TierRead(tier));
                        if saw_relay && ev.partition_active {
                            self.cells.insert(Cell::RelayReadUnderPartition);
                        } else if !saw_ack && ev.partition_active && tier == Consistency::Atomic {
                            // Only atomic reads *owe* a write-back; the
                            // weaker tiers elide it by design, which is not
                            // a coverage event.
                            self.cells.insert(Cell::FastReadUnderPartition);
                        }
                        self.read_in_flight[t] = None;
                    }
                }
            }
            TapKind::Crash => {
                self.last_kind[t] = None;
                self.recovering[t] = 0;
                self.read_in_flight[t] = None;
                self.restarted_at[t] = None;
                self.sync_entries_recv[t] = 0;
                self.served_unconfirmed[t] = 0;
            }
            TapKind::Restart => {
                self.recovering[t] = self.catchup_replies;
                self.restarted_at[t] = Some(ev.at);
                self.sync_entries_recv[t] = 0;
            }
            TapKind::TimerFire => {}
        }
    }

    /// Folds in the end-of-run features and returns the sample.
    pub fn finish(mut self, metrics: &Metrics, trace_digest: u64) -> CoverageSample {
        self.cells
            .insert(Cell::RetransmissionExhaustion(log2_bucket(
                metrics.retransmissions,
            )));
        for t in 0..self.restarted_at.len() {
            // Only nodes still up after a reboot report divergence — a node
            // that crashed again had its reboot's count wiped with the rest
            // of its state.
            if self.restarted_at[t].is_some() {
                self.cells
                    .insert(Cell::SyncDivergence(log2_bucket(self.sync_entries_recv[t])));
            }
        }
        if self.served_catching_up > 0 {
            self.cells.insert(Cell::ServedDuringCatchUp(log2_bucket(
                self.served_catching_up,
            )));
        }
        self.cells.insert(digest_bucket(trace_digest));
        CoverageSample { cells: self.cells }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abd_core::msg::RegisterMsg;

    fn deliver<'a>(
        at: u64,
        target: usize,
        msg: &'a RegisterMsg<u64, u64>,
        dropped: Option<DropReason>,
        partition_active: bool,
    ) -> TapEvent<'a, RegisterMsg<u64, u64>, RegisterOp<u64>> {
        TapEvent {
            at,
            target: ProcessId(target),
            partition_active,
            kind: TapKind::Deliver {
                from: ProcessId(0),
                msg,
                dropped,
            },
        }
    }

    #[test]
    fn bigrams_track_per_node_delivery_pairs() {
        let mut c = CoverageCollector::new(3, ProcessId(0));
        let q = RegisterMsg::Query { uid: 1, key: () };
        let u = RegisterMsg::Update {
            uid: 2,
            key: (),
            label: 1,
            value: 9,
        };
        c.observe(&deliver(10, 1, &q, None, false));
        c.observe(&deliver(20, 1, &u, None, false));
        // Different node: no bigram yet.
        c.observe(&deliver(30, 2, &u, None, false));
        let s = c.finish(&Metrics::default(), 0);
        assert!(s.contains(&Cell::Bigram {
            at_writer: false,
            prev: MsgKind::Query,
            cur: MsgKind::Update
        }));
        assert_eq!(
            s.cells()
                .filter(|c| matches!(c, Cell::Bigram { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn update_to_crashed_node_lights_the_cell() {
        let mut c = CoverageCollector::new(3, ProcessId(0));
        let u = RegisterMsg::Update {
            uid: 1,
            key: (),
            label: 1,
            value: 0,
        };
        c.observe(&deliver(5, 2, &u, Some(DropReason::Crashed), false));
        let s = c.finish(&Metrics::default(), 0);
        assert!(s.contains(&Cell::UpdateWhileCrashed));
        // Dropped deliveries never feed bigrams.
        assert_eq!(
            s.cells()
                .filter(|c| matches!(c, Cell::Bigram { .. }))
                .count(),
            0
        );
    }

    #[test]
    fn read_without_acks_under_partition_is_flagged() {
        let mut c = CoverageCollector::new(3, ProcessId(0));
        let invoke: TapEvent<'_, RegisterMsg<u64, u64>, RegisterOp<u64>> = TapEvent {
            at: 0,
            target: ProcessId(1),
            partition_active: true,
            kind: TapKind::Invoke {
                op: OpId(7),
                input: &RegisterOp::Read,
            },
        };
        c.observe(&invoke);
        let complete: TapEvent<'_, RegisterMsg<u64, u64>, RegisterOp<u64>> = TapEvent {
            at: 10,
            target: ProcessId(1),
            partition_active: true,
            kind: TapKind::Complete { op: OpId(7) },
        };
        c.observe(&complete);
        let s = c.finish(&Metrics::default(), 0);
        assert!(s.contains(&Cell::FastReadUnderPartition));
    }

    #[test]
    fn read_with_write_back_acks_is_not_flagged() {
        let mut c = CoverageCollector::new(3, ProcessId(0));
        let invoke: TapEvent<'_, RegisterMsg<u64, u64>, RegisterOp<u64>> = TapEvent {
            at: 0,
            target: ProcessId(1),
            partition_active: true,
            kind: TapKind::Invoke {
                op: OpId(7),
                input: &RegisterOp::Read,
            },
        };
        c.observe(&invoke);
        let ack = RegisterMsg::UpdateAck { uid: 3 };
        c.observe(&deliver(5, 1, &ack, None, true));
        let complete: TapEvent<'_, RegisterMsg<u64, u64>, RegisterOp<u64>> = TapEvent {
            at: 10,
            target: ProcessId(1),
            partition_active: true,
            kind: TapKind::Complete { op: OpId(7) },
        };
        c.observe(&complete);
        let s = c.finish(&Metrics::default(), 0);
        assert!(!s.contains(&Cell::FastReadUnderPartition));
    }

    #[test]
    fn relay_read_under_partition_is_flagged_separately() {
        let mut c = CoverageCollector::new(5, ProcessId(0));
        let invoke: TapEvent<'_, RegisterMsg<u64, u64>, RegisterOp<u64>> = TapEvent {
            at: 0,
            target: ProcessId(1),
            partition_active: true,
            kind: TapKind::Invoke {
                op: OpId(7),
                input: &RegisterOp::Read,
            },
        };
        c.observe(&invoke);
        let reply = RegisterMsg::RelayReply {
            uid: 3,
            label: 1,
            value: 4,
        };
        c.observe(&deliver(5, 1, &reply, None, true));
        let complete: TapEvent<'_, RegisterMsg<u64, u64>, RegisterOp<u64>> = TapEvent {
            at: 10,
            target: ProcessId(1),
            partition_active: true,
            kind: TapKind::Complete { op: OpId(7) },
        };
        c.observe(&complete);
        let s = c.finish(&Metrics::default(), 0);
        assert!(s.contains(&Cell::RelayReadUnderPartition));
        // A relay completion is not mistaken for an elided write-back.
        assert!(!s.contains(&Cell::FastReadUnderPartition));
    }

    #[test]
    fn tiered_reads_light_tier_cells_but_not_fast_read() {
        let mut c = CoverageCollector::new(3, ProcessId(0));
        // An SC read completing under partition with no acks is *by design*
        // write-back-free: it lights its tier cell, not the fast-read one.
        let invoke: TapEvent<'_, RegisterMsg<u64, u64>, RegisterOp<u64>> = TapEvent {
            at: 0,
            target: ProcessId(1),
            partition_active: true,
            kind: TapKind::Invoke {
                op: OpId(7),
                input: &RegisterOp::ReadAt(Consistency::Sequential),
            },
        };
        c.observe(&invoke);
        let complete: TapEvent<'_, RegisterMsg<u64, u64>, RegisterOp<u64>> = TapEvent {
            at: 10,
            target: ProcessId(1),
            partition_active: true,
            kind: TapKind::Complete { op: OpId(7) },
        };
        c.observe(&complete);
        let s = c.finish(&Metrics::default(), 0);
        assert!(s.contains(&Cell::TierRead(Consistency::Sequential)));
        assert!(!s.contains(&Cell::FastReadUnderPartition));
        assert!(!s.contains(&Cell::TierRead(Consistency::Atomic)));
    }

    #[test]
    fn query_during_catchup_lights_recovery_interleaving() {
        let mut c = CoverageCollector::new(5, ProcessId(0));
        let restart: TapEvent<'_, RegisterMsg<u64, u64>, RegisterOp<u64>> = TapEvent {
            at: 0,
            target: ProcessId(2),
            partition_active: false,
            kind: TapKind::Restart,
        };
        c.observe(&restart);
        let q = RegisterMsg::Query { uid: 9, key: () };
        c.observe(&deliver(5, 2, &q, None, false));
        let s = c.finish(&Metrics::default(), 0);
        assert!(s.contains(&Cell::RecoveryInterleavedQuery));

        // After enough QueryReplies the node has caught up; later queries
        // are ordinary.
        let mut c = CoverageCollector::new(5, ProcessId(0));
        c.observe(&restart);
        let reply = RegisterMsg::QueryReply {
            uid: 1,
            label: 0,
            value: 0,
        };
        for _ in 0..2 {
            c.observe(&deliver(3, 2, &reply, None, false));
        }
        c.observe(&deliver(5, 2, &q, None, false));
        let s = c.finish(&Metrics::default(), 0);
        assert!(!s.contains(&Cell::RecoveryInterleavedQuery));
    }

    #[test]
    fn restart_query_gap_buckets_the_reboot_to_query_window() {
        let mut c = CoverageCollector::new(5, ProcessId(0));
        let restart: TapEvent<'_, RegisterMsg<u64, u64>, RegisterOp<u64>> = TapEvent {
            at: 1_000,
            target: ProcessId(2),
            partition_active: false,
            kind: TapKind::Restart,
        };
        c.observe(&restart);
        let q = RegisterMsg::Query { uid: 9, key: () };
        // 9µs after the restart: 2^13 < 9_000 <= 2^14 → bucket 14.
        c.observe(&deliver(10_000, 2, &q, None, false));
        let s = c.finish(&Metrics::default(), 0);
        assert!(s.contains(&Cell::RestartQueryGap(14)));

        // A query on a node that never restarted lights no gap cell, and a
        // crash wipes the restart stamp until the next reboot.
        let mut c = CoverageCollector::new(5, ProcessId(0));
        c.observe(&deliver(10_000, 2, &q, None, false));
        c.observe(&restart);
        let crash: TapEvent<'_, RegisterMsg<u64, u64>, RegisterOp<u64>> = TapEvent {
            at: 2_000,
            target: ProcessId(2),
            partition_active: false,
            kind: TapKind::Crash,
        };
        c.observe(&crash);
        c.observe(&deliver(50_000, 2, &q, None, false));
        let s = c.finish(&Metrics::default(), 0);
        assert!(
            !s.cells().any(|c| matches!(c, Cell::RestartQueryGap(_))),
            "no live restart stamp → no gap cell"
        );
    }

    #[test]
    fn finish_adds_retransmission_and_digest_buckets() {
        let c = CoverageCollector::new(3, ProcessId(0));
        let m = Metrics {
            retransmissions: 9, // 2^3 < 9 <= 2^4 → bucket 4
            ..Metrics::default()
        };
        let s = c.finish(&m, 130);
        assert!(s.contains(&Cell::RetransmissionExhaustion(4)));
        assert!(s.contains(&Cell::DigestBucket(2)));
    }

    #[test]
    fn map_absorb_counts_only_novel_cells() {
        let mut c = CoverageCollector::new(3, ProcessId(0));
        let q = RegisterMsg::Query { uid: 1, key: () };
        let r = RegisterMsg::QueryReply {
            uid: 1,
            label: 0,
            value: 0,
        };
        c.observe(&deliver(1, 1, &q, None, false));
        c.observe(&deliver(2, 1, &r, None, false));
        let s = c.finish(&Metrics::default(), 7);
        let mut map = CoverageMap::default();
        let first = map.absorb(&s);
        assert_eq!(first, s.len());
        assert_eq!(map.absorb(&s), 0, "re-absorbing the same sample is stale");
        assert!(map.covers_digest(7));
        assert!(!map.covers_digest(8));
        assert_eq!(map.len(), s.len());
    }

    fn kv_deliver<'a>(
        at: u64,
        target: usize,
        msg: &'a KvMsg<u32, u64>,
        dropped: Option<DropReason>,
    ) -> TapEvent<'a, KvMsg<u32, u64>, KvOp<u32, u64>> {
        TapEvent {
            at,
            target: ProcessId(target),
            partition_active: false,
            kind: TapKind::Deliver {
                from: ProcessId(0),
                msg,
                dropped,
            },
        }
    }

    fn kv_restart(at: u64, target: usize) -> TapEvent<'static, KvMsg<u32, u64>, KvOp<u32, u64>> {
        TapEvent {
            at,
            target: ProcessId(target),
            partition_active: false,
            kind: TapKind::Restart,
        }
    }

    /// A walk reply carrying `entries` keys and no children digests.
    fn walk_reply(uid: u64, entries: u32) -> KvMsg<u32, u64> {
        use abd_core::types::Tag;
        KvMsg::SyncEntries {
            uid,
            step: 0,
            children: vec![],
            entries: (0..entries)
                .map(|k| (k, Tag::new(uid, ProcessId(0)), 0))
                .collect(),
        }
    }

    #[test]
    fn kv_sync_msgs_classify_onto_sync_kinds() {
        use abd_core::types::Tag;
        let req: KvMsg<u32, u64> = KvMsg::SyncDiffReq {
            uid: 2,
            step: 0,
            nodes: vec![0],
        };
        assert_eq!(req.classify(), MsgKind::SyncDiffReq);
        assert_eq!(req.sync_entries(), 0);
        let ent: KvMsg<u32, u64> = KvMsg::SyncEntries {
            uid: 2,
            step: 0,
            children: vec![(1, 3)],
            entries: vec![
                (7, Tag::new(1, ProcessId(0)), 9),
                (8, Tag::new(2, ProcessId(1)), 10),
            ],
        };
        assert_eq!(ent.classify(), MsgKind::SyncEntries);
        assert_eq!(ent.sync_entries(), 2);
    }

    #[test]
    fn kv_ops_classify_reads_and_tiers() {
        let get: KvOp<u32, u64> = KvOp::Get(1);
        assert!(get.is_read());
        assert_eq!(get.read_tier(), Some(Consistency::Atomic));
        let seq: KvOp<u32, u64> = KvOp::GetAt(1, Consistency::Sequential);
        assert_eq!(seq.read_tier(), Some(Consistency::Sequential));
        let put: KvOp<u32, u64> = KvOp::Put(1, 2);
        assert!(!put.is_read());
        assert_eq!(put.read_tier(), None);
    }

    #[test]
    fn sync_divergence_buckets_entries_since_restart() {
        let mut c = CoverageCollector::new(3, ProcessId(0));
        c.observe(&kv_restart(1_000, 2));
        // 9 entries across the replies of two walks:
        // 2^3 < 9 <= 2^4 → bucket 4.
        c.observe(&kv_deliver(2_000, 2, &walk_reply(1, 7), None));
        c.observe(&kv_deliver(3_000, 2, &walk_reply(2, 2), None));
        let s = c.finish(&Metrics::default(), 0);
        assert!(s.contains(&Cell::SyncDivergence(4)));
        // Only the restarted node reports; nodes that never rebooted are
        // silent even though node 2's count is non-zero.
        assert_eq!(
            s.cells()
                .filter(|c| matches!(c, Cell::SyncDivergence(_)))
                .count(),
            1
        );
    }

    #[test]
    fn clean_reboot_lights_bucket_zero_and_crash_wipes_the_count() {
        // A reboot that needed no sync entries is bucket 0 — a distinct
        // feature (digest-equal walk).
        let mut c = CoverageCollector::new(3, ProcessId(0));
        c.observe(&kv_restart(1_000, 1));
        let s = c.finish(&Metrics::default(), 0);
        assert!(s.contains(&Cell::SyncDivergence(0)));

        // A node that received entries but then crashed again reports
        // nothing: its reboot never survived to the end of the campaign.
        let mut c = CoverageCollector::new(3, ProcessId(0));
        c.observe(&kv_restart(1_000, 1));
        c.observe(&kv_deliver(2_000, 1, &walk_reply(1, 1), None));
        let crash: TapEvent<'_, KvMsg<u32, u64>, KvOp<u32, u64>> = TapEvent {
            at: 3_000,
            target: ProcessId(1),
            partition_active: false,
            kind: TapKind::Crash,
        };
        c.observe(&crash);
        let s = c.finish(&Metrics::default(), 0);
        assert!(
            !s.cells().any(|c| matches!(c, Cell::SyncDivergence(_))),
            "crash wipes the reboot's divergence count"
        );

        // Dropped deliveries never count toward divergence.
        let mut c = CoverageCollector::new(3, ProcessId(0));
        c.observe(&kv_restart(1_000, 1));
        let dropped = Some(DropReason::Crashed);
        c.observe(&kv_deliver(2_000, 1, &walk_reply(1, 1), dropped));
        let s = c.finish(&Metrics::default(), 0);
        assert!(s.contains(&Cell::SyncDivergence(0)));
    }

    #[test]
    fn envelope_classifies_via_inner_or_batch() {
        let one: Envelope<RegisterMsg<u64, u64>> =
            Envelope::One(RegisterMsg::Query { uid: 1, key: () });
        assert_eq!(one.classify(), MsgKind::Query);
        let batch: Envelope<RegisterMsg<u64, u64>> = Envelope::Batch(vec![
            RegisterMsg::Query { uid: 1, key: () },
            RegisterMsg::UpdateAck { uid: 2 },
        ]);
        assert_eq!(batch.classify(), MsgKind::Batch);
    }
    #[test]
    fn served_during_catch_up_counts_completions_a_sync_reply_follows() {
        fn ev<'a>(
            at: u64,
            kind: TapKind<'a, KvMsg<u32, u64>, KvOp<u32, u64>>,
        ) -> TapEvent<'a, KvMsg<u32, u64>, KvOp<u32, u64>> {
            TapEvent {
                at,
                target: ProcessId(1),
                partition_active: false,
                kind,
            }
        }
        let reply = walk_reply(3, 0);
        let sync_reply = |at| {
            ev(
                at,
                TapKind::Deliver {
                    from: ProcessId(0),
                    msg: &reply,
                    dropped: None,
                },
            )
        };
        let mut c = CoverageCollector::new(3, ProcessId(0));
        // Before any restart a completion is ordinary service.
        c.observe(&ev(1, TapKind::Complete { op: OpId(0) }));
        c.observe(&sync_reply(2));
        c.observe(&ev(3, TapKind::Crash));
        c.observe(&ev(4, TapKind::Restart));
        // Two completions, then a sync reply: both were served mid-catch-up.
        c.observe(&ev(5, TapKind::Complete { op: OpId(1) }));
        c.observe(&ev(6, TapKind::Complete { op: OpId(2) }));
        c.observe(&sync_reply(7));
        // A third that no sync reply follows is not counted.
        c.observe(&ev(8, TapKind::Complete { op: OpId(3) }));
        let sample = c.finish(&Metrics::default(), 0);
        assert!(
            sample.contains(&Cell::ServedDuringCatchUp(2)),
            "2 -> bucket 2"
        );
        assert_eq!(
            sample
                .cells()
                .filter(|c| matches!(c, Cell::ServedDuringCatchUp(_)))
                .count(),
            1
        );
    }
}
