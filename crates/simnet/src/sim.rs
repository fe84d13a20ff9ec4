//! The discrete-event simulation engine.
//!
//! [`Sim`] drives a cluster of sans-io protocol nodes, one [`NodeHost`]
//! each, from a priority queue of timestamped events. Every source of
//! nondeterminism the paper's adversary controls — message delays and
//! reorderings, losses, duplications, crash timing, partitions — is drawn
//! from a single seeded RNG, so **a seed identifies an execution**: failures
//! found by randomized tests replay exactly.

use crate::config::SimConfig;
use crate::metrics::Metrics;
use abd_core::context::{Protocol, ReadPathCounters, ReadPathStats, TimerKey};
use abd_core::host::{Armed, NodeHost};
use abd_core::types::{Nanos, OpId, ProcessId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `FNV_PRIME_POW[k]` = `FNV_PRIME^k` (wrapping).
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Folds one 64-bit word into an FNV-1a digest: the same value as folding
/// its eight little-endian bytes one at a time. XOR with a zero byte is the
/// identity, so the word's zero high bytes (most of every word folded here:
/// times, queue sequence numbers, operation ids) collapse into one multiply
/// by a power of the prime.
#[inline]
fn fnv_fold(mut h: u64, word: u64) -> u64 {
    let low = 8 - word.leading_zeros() as usize / 8;
    for b in &word.to_le_bytes()[..low] {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h.wrapping_mul(FNV_PRIME_POW[8 - low])
}

/// [`fnv_fold`] of a word below 256, without its loop: a zero word is the
/// zero-run multiply `h * P^8` alone, and a word `1..=255` is one loop
/// iteration `(h ^ b) * P` followed by the zero-run multiply `* P^7` — both
/// are `(h ^ b) * P^8`. Node ids, kind tags and senders are such words, and
/// in the loop their data-dependent trip count mispredicts.
#[inline]
fn fnv_fold_byte(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(FNV_PRIME_POW[8])
}

/// Folds one event's identity into the execution digest: the same value as
/// [`fnv_fold`] over `at`, `seq`, `target`, `tag`, `extra` in that order.
/// Time and queue order are wide and take the general fold; the kind tag is
/// a byte by type; the target and (for a delivery, where it is the sender)
/// `extra` are bytes in every cluster below 256 nodes, checked per word.
#[inline]
fn fold_event(h: u64, at: Nanos, seq: u64, target: u64, tag: u8, extra: u64) -> u64 {
    let narrow = |h, word: u64| match u8::try_from(word) {
        Ok(byte) => fnv_fold_byte(h, byte),
        Err(_) => fnv_fold(h, word),
    };
    let h = fnv_fold(h, at);
    let h = fnv_fold(h, seq);
    let h = narrow(h, target);
    let h = fnv_fold_byte(h, tag);
    narrow(h, extra)
}

/// Why a delivery was discarded instead of handed to the target protocol.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// The target node was crashed at delivery time.
    Crashed,
    /// Sender and target were in different partition groups.
    Partitioned,
}

/// The observable part of one processed simulator event, as seen by a tap
/// installed with [`Sim::set_tap`]. Borrows message/op payloads in place so
/// observation allocates nothing.
#[derive(Debug)]
pub enum TapKind<'a, M, O> {
    /// A message arrived at `target` (delivered, or discarded for `dropped`).
    Deliver {
        /// Sending node.
        from: ProcessId,
        /// The message payload.
        msg: &'a M,
        /// `None` if the message was handed to the protocol; otherwise why
        /// it was discarded.
        dropped: Option<DropReason>,
    },
    /// A live timer fired on `target` (cancelled/superseded timers are not
    /// reported).
    TimerFire,
    /// A client operation was invoked on `target`.
    Invoke {
        /// Operation id.
        op: OpId,
        /// The invocation payload.
        input: &'a O,
    },
    /// Operation `op`, invoked on `target`, produced its response.
    Complete {
        /// Operation id.
        op: OpId,
    },
    /// `target` crashed.
    Crash,
    /// `target` rebooted via `Protocol::on_restart`.
    Restart,
}

/// One observed simulator event: the [`TapKind`] plus its ambient context
/// (time, target, whether a partition is installed).
#[derive(Debug)]
pub struct TapEvent<'a, M, O> {
    /// Virtual time of the event.
    pub at: Nanos,
    /// The node the event applies to.
    pub target: ProcessId,
    /// Whether a partition is installed at this instant.
    pub partition_active: bool,
    /// What happened.
    pub kind: TapKind<'a, M, O>,
}

/// Boxed observation callback installed with [`Sim::set_tap`].
pub type Tap<M, O> = Box<dyn FnMut(TapEvent<'_, M, O>)>;

/// What happens when an event is processed.
#[derive(Debug)]
enum EventKind<P: Protocol> {
    /// Deliver `msg` from `from` to the event's target node.
    Deliver { from: ProcessId, msg: P::Msg },
    /// Fire timer `key` on the target node, if generation `gen` is current.
    Timer { key: TimerKey, gen: u64 },
    /// Invoke a client operation on the target node.
    Invoke { op: OpId, input: P::Op },
    /// Crash the target node (until a later `Restart`, if any).
    Crash,
    /// Install a partition: node `i` joins group `groups[i]`; messages
    /// between groups are discarded. (Target node is ignored.)
    SetPartition { groups: Vec<u32> },
    /// Remove any partition. (Target node is ignored.)
    Heal,
    /// Reboot the (crashed) target node via `Protocol::on_restart`.
    Restart,
    /// Change the network-wide loss probability. (Target node is ignored.)
    SetLoss { prob: f64 },
    /// Gray failure: multiply delivery latency to/from the target node by
    /// `factor` (`1` restores normal service).
    SetGray { factor: u32 },
}

struct QueuedEvent<P: Protocol> {
    at: Nanos,
    seq: u64,
    target: ProcessId,
    kind: EventKind<P>,
}

impl<P: Protocol> PartialEq for QueuedEvent<P> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<P: Protocol> Eq for QueuedEvent<P> {}
impl<P: Protocol> PartialOrd for QueuedEvent<P> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<P: Protocol> Ord for QueuedEvent<P> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest (then lowest seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Record of one completed operation.
#[derive(Clone, Debug)]
pub struct OpRecord<Op, Resp> {
    /// Operation id (unique per simulation).
    pub op: OpId,
    /// The node the operation was invoked on.
    pub client: ProcessId,
    /// The invocation payload.
    pub input: Op,
    /// The response.
    pub resp: Resp,
    /// Virtual invocation time.
    pub invoked_at: Nanos,
    /// Virtual completion time.
    pub completed_at: Nanos,
}

impl<Op, Resp> OpRecord<Op, Resp> {
    /// Latency of the operation in virtual nanoseconds.
    pub fn latency(&self) -> Nanos {
        self.completed_at - self.invoked_at
    }
}

/// A deterministic simulation of `n` protocol nodes on an adversarial
/// asynchronous network.
///
/// # Examples
///
/// ```
/// use abd_core::msg::{RegisterOp, RegisterResp};
/// use abd_core::swmr::{SwmrConfig, SwmrNode};
/// use abd_core::types::ProcessId;
/// use abd_simnet::{Sim, SimConfig};
///
/// let nodes: Vec<SwmrNode<u64>> = (0..3)
///     .map(|i| SwmrNode::new(SwmrConfig::new(3, ProcessId(i), ProcessId(0)), 0))
///     .collect();
/// let mut sim = Sim::new(SimConfig::new(42), nodes);
/// sim.invoke(ProcessId(0), RegisterOp::Write(7));
/// sim.run_until_quiet(1_000_000_000);
/// assert_eq!(sim.completed().len(), 1);
/// assert!(matches!(sim.completed()[0].resp, RegisterResp::WriteOk));
/// ```
pub struct Sim<P: Protocol>
where
    P::Op: Clone,
{
    cfg: SimConfig,
    hosts: Vec<NodeHost<P>>,
    queue: BinaryHeap<QueuedEvent<P>>,
    now: Nanos,
    next_seq: u64,
    next_op: u64,
    rng: SmallRng,
    partition: Option<Vec<u32>>,
    metrics: Metrics,
    invoked: BTreeMap<OpId, (ProcessId, P::Op, Nanos)>,
    completed: Vec<OpRecord<P::Op, P::Resp>>,
    /// Operations whose client crashed mid-flight: they can never complete,
    /// but histories must still treat them as possibly-effective.
    aborted: Vec<(OpId, ProcessId, P::Op, Nanos)>,
    /// Per-node gray-failure latency multiplier (1 = healthy).
    gray: Vec<u32>,
    /// Running FNV-1a digest of every processed event — the determinism
    /// gate's fingerprint of the execution.
    digest: u64,
    /// Optional bounded event trace (newest last) for debugging.
    trace: Option<VecDeque<String>>,
    trace_cap: usize,
    /// Invoke events scheduled but not yet processed.
    queued_invokes: u64,
    /// Optional observation-only event tap. Never consulted for scheduling
    /// decisions, so installing one cannot perturb the execution or its
    /// digest.
    tap: Option<Tap<P::Msg, P::Op>>,
}

impl<P: Protocol> Sim<P>
where
    P::Op: Clone,
{
    /// Creates a simulation over `nodes` (node `i` must have id `i`, or it
    /// panics) and runs every node's `on_start` at time 0.
    pub fn new(cfg: SimConfig, nodes: Vec<P>) -> Self {
        let rng = SmallRng::seed_from_u64(cfg.seed);
        let n = nodes.len();
        let mut sim = Sim {
            cfg,
            hosts: NodeHost::cluster(nodes),
            queue: BinaryHeap::new(),
            now: 0,
            next_seq: 0,
            next_op: 0,
            rng,
            partition: None,
            metrics: Metrics::default(),
            invoked: BTreeMap::new(),
            completed: Vec::new(),
            aborted: Vec::new(),
            gray: vec![1; n],
            digest: FNV_OFFSET,
            trace: None,
            trace_cap: 512,
            queued_invokes: 0,
            tap: None,
        };
        for i in 0..n {
            sim.hosts[i].start(0);
            sim.absorb(ProcessId(i));
        }
        sim
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.hosts.len()
    }

    /// Current virtual time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Immutable access to node `i`'s protocol state.
    pub fn node(&self, i: usize) -> &P {
        self.hosts[i].node()
    }

    /// Whether node `i` is still alive.
    pub fn is_alive(&self, i: usize) -> bool {
        self.hosts[i].is_up()
    }

    /// Accumulated counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// All completed operations, in completion order.
    pub fn completed(&self) -> &[OpRecord<P::Op, P::Resp>] {
        &self.completed
    }

    /// Details of every operation that may still take effect without ever
    /// producing a response: in-flight operations plus operations aborted by
    /// a client crash, as `(op, client, input, invoked_at)` sorted by op id.
    /// Used to close histories that end with such operations.
    pub fn pending_details(&self) -> Vec<(OpId, ProcessId, P::Op, Nanos)> {
        let mut v: Vec<_> = self
            .invoked
            .iter()
            .map(|(&op, (client, input, at))| (op, *client, input.clone(), *at))
            .chain(self.aborted.iter().cloned())
            .collect();
        v.sort_by_key(|e| e.0);
        v
    }

    /// Operations aborted by a client crash, in abort order.
    pub fn aborted_details(&self) -> &[(OpId, ProcessId, P::Op, Nanos)] {
        &self.aborted
    }

    fn push(&mut self, at: Nanos, target: ProcessId, kind: EventKind<P>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(QueuedEvent {
            at,
            seq,
            target,
            kind,
        });
    }

    /// Schedules `input` on node `node` at time `at` (must not be in the
    /// past). Returns the operation id.
    ///
    /// # Panics
    ///
    /// Panics if `at < self.now()`.
    pub fn invoke_at(&mut self, at: Nanos, node: ProcessId, input: P::Op) -> OpId {
        assert!(at >= self.now, "cannot schedule in the past");
        let op = OpId(self.next_op);
        self.next_op += 1;
        self.queued_invokes += 1;
        self.push(at, node, EventKind::Invoke { op, input });
        op
    }

    /// Schedules `input` on node `node` now.
    pub fn invoke(&mut self, node: ProcessId, input: P::Op) -> OpId {
        self.invoke_at(self.now, node, input)
    }

    /// Crashes node `node` at time `at`: it stops processing messages,
    /// timers and invocations until a [`restart_at`](Self::restart_at), if
    /// any. Its in-flight operations are aborted: their clients get no
    /// response unless the rebooted node resolves one (a register rolls an
    /// interrupted write forward); see [`pending_details`](Self::pending_details).
    pub fn crash_at(&mut self, at: Nanos, node: ProcessId) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push(at, node, EventKind::Crash);
    }

    /// Reboots crashed node `node` at time `at`: armed timers stay dead,
    /// `Protocol::on_restart` runs, and the node resumes receiving. A
    /// restart of a live node is ignored.
    pub fn restart_at(&mut self, at: Nanos, node: ProcessId) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push(at, node, EventKind::Restart);
    }

    /// Changes the network-wide message-loss probability at time `at`
    /// (e.g. a loss burst and its later repair).
    pub fn set_loss_at(&mut self, at: Nanos, prob: f64) {
        assert!(at >= self.now, "cannot schedule in the past");
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        self.push(at, ProcessId(0), EventKind::SetLoss { prob });
    }

    /// Gray-fails node `node` at time `at`: every delivery to or from it
    /// takes `factor`× the sampled latency. `factor = 1` heals it.
    pub fn set_gray_at(&mut self, at: Nanos, node: ProcessId, factor: u32) {
        assert!(at >= self.now, "cannot schedule in the past");
        assert!(factor >= 1, "gray factor must be >= 1");
        self.push(at, node, EventKind::SetGray { factor });
    }

    /// Installs a partition at time `at`: nodes with equal group numbers can
    /// communicate; messages across groups are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `groups.len() != n`.
    pub fn partition_at(&mut self, at: Nanos, groups: Vec<u32>) {
        assert!(at >= self.now, "cannot schedule in the past");
        assert_eq!(groups.len(), self.hosts.len(), "one group per node");
        self.push(at, ProcessId(0), EventKind::SetPartition { groups });
    }

    /// Removes any partition at time `at`.
    pub fn heal_at(&mut self, at: Nanos) {
        assert!(at >= self.now, "cannot schedule in the past");
        self.push(at, ProcessId(0), EventKind::Heal);
    }

    fn partitioned(&self, a: ProcessId, b: ProcessId) -> bool {
        match &self.partition {
            Some(groups) => groups[a.index()] != groups[b.index()],
            None => false,
        }
    }

    /// Enables (or disables) the bounded event trace. The trace records a
    /// one-line description of every processed event, keeping the most
    /// recent `cap` lines — invaluable when a seeded failure needs
    /// dissecting.
    pub fn set_trace(&mut self, enabled: bool, cap: usize) {
        self.trace = enabled.then(VecDeque::new);
        self.trace_cap = cap.max(1);
    }

    /// Installs an observation-only event tap: the callback sees every
    /// processed delivery (including drops, with the [`DropReason`]), timer
    /// fire, invocation, completion, crash and restart. The tap cannot
    /// influence the simulation — scheduling, metrics and the trace digest
    /// are computed before and independently of it — so a tapped run is
    /// bit-for-bit identical to an untapped one. Its users only watch: the
    /// wall-clock benchmark times operations and handlers through it, and
    /// tests count what a run did (which messages a rebooted node sent,
    /// say) without wrapping its nodes.
    pub fn set_tap(&mut self, tap: Tap<P::Msg, P::Op>) {
        self.tap = Some(tap);
    }

    /// Removes any installed event tap.
    pub fn clear_tap(&mut self) {
        self.tap = None;
    }

    /// The recorded trace lines (oldest first). Empty when tracing is off.
    pub fn trace(&self) -> Vec<String> {
        self.trace
            .as_ref()
            .map(|t| t.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// FNV-1a digest of every event processed so far (time, queue order,
    /// target, kind, sender). Always on — it costs a few arithmetic ops per
    /// event — so any two same-seed runs can be compared for byte-identical
    /// schedules: `assert_eq!(a.trace_digest(), b.trace_digest())`.
    pub fn trace_digest(&self) -> u64 {
        self.digest
    }

    fn record_trace(&mut self, line: String) {
        if let Some(t) = self.trace.as_mut() {
            if t.len() == self.trace_cap {
                t.pop_front();
            }
            t.push_back(line);
        }
    }

    /// Shows the tap, if any, that `kind` happens on `target` now — before the
    /// node handles it, which a wall-clock tap (the benchmark's) relies on.
    fn observe(&mut self, target: ProcessId, kind: TapKind<'_, P::Msg, P::Op>) {
        if let Some(tap) = self.tap.as_mut() {
            tap(TapEvent {
                at: self.now,
                target,
                partition_active: self.partition.is_some(),
                kind,
            });
        }
    }

    /// Processes the single earliest event. Returns `false` if the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        let t = ev.target.index();
        // Fold the event's identity into the execution digest: time, queue
        // order, target and kind (plus sender for deliveries). Two runs of
        // the same seed must process byte-identical event sequences, so
        // equal digests certify a deterministic replay.
        let (tag, extra) = match &ev.kind {
            EventKind::Deliver { from, .. } => (0u8, from.index() as u64),
            EventKind::Timer { key, gen } => (1, key.0.wrapping_add(*gen << 16)),
            EventKind::Invoke { op, .. } => (2, op.0),
            EventKind::Crash => (3, 0),
            EventKind::SetPartition { groups } => (
                4,
                groups
                    .iter()
                    .fold(FNV_OFFSET, |h, &g| fnv_fold(h, u64::from(g))),
            ),
            EventKind::Heal => (5, 0),
            EventKind::Restart => (6, 0),
            EventKind::SetLoss { prob } => (7, prob.to_bits()),
            EventKind::SetGray { factor } => (8, u64::from(*factor)),
        };
        self.digest = fold_event(self.digest, ev.at, ev.seq, t as u64, tag, extra);
        if self.trace.is_some() {
            let desc = match &ev.kind {
                EventKind::Deliver { from, msg } => {
                    format!("{:>12} deliver {from} -> {}: {msg:?}", ev.at, ev.target)
                }
                EventKind::Timer { key, .. } => {
                    format!("{:>12} timer {:?} @ {}", ev.at, key, ev.target)
                }
                EventKind::Invoke { op, input } => {
                    format!("{:>12} invoke {op} {input:?} @ {}", ev.at, ev.target)
                }
                EventKind::Crash => format!("{:>12} CRASH {}", ev.at, ev.target),
                EventKind::SetPartition { groups } => format!("{:>12} PARTITION {groups:?}", ev.at),
                EventKind::Heal => format!("{:>12} HEAL", ev.at),
                EventKind::Restart => format!("{:>12} RESTART {}", ev.at, ev.target),
                EventKind::SetLoss { prob } => format!("{:>12} LOSS {prob}", ev.at),
                EventKind::SetGray { factor } => {
                    format!("{:>12} GRAY {} x{factor}", ev.at, ev.target)
                }
            };
            self.record_trace(desc);
        }
        match ev.kind {
            EventKind::Deliver { from, msg } => {
                let dropped = if !self.hosts[t].is_up() {
                    Some(DropReason::Crashed)
                } else if self.partitioned(from, ev.target) {
                    Some(DropReason::Partitioned)
                } else {
                    None
                };
                let kind = TapKind::Deliver {
                    from,
                    msg: &msg,
                    dropped,
                };
                self.observe(ev.target, kind);
                match dropped {
                    Some(DropReason::Crashed) => self.metrics.dropped_crash += 1,
                    Some(DropReason::Partitioned) => self.metrics.dropped_partition += 1,
                    None => {
                        self.metrics.delivered += 1;
                        self.hosts[t].deliver(self.now, from, msg);
                        self.absorb(ev.target);
                    }
                }
            }
            EventKind::Timer { key, gen } => {
                if !self.hosts[t].is_armed(key, gen) {
                    return true; // cancelled or superseded, or the node is down
                }
                self.metrics.timer_fires += 1;
                self.observe(ev.target, TapKind::TimerFire);
                self.hosts[t].fire(self.now, key, gen);
                self.metrics.retransmissions += self.hosts[t].outbox().fx.sends.len() as u64;
                self.absorb(ev.target);
            }
            EventKind::Invoke { op, input } => {
                self.queued_invokes -= 1;
                if !self.hosts[t].is_up() {
                    return true; // invocation on a crashed node is lost
                }
                self.metrics.ops_invoked += 1;
                self.observe(ev.target, TapKind::Invoke { op, input: &input });
                self.invoked
                    .insert(op, (ev.target, input.clone(), self.now));
                self.hosts[t].invoke(self.now, op, input);
                self.absorb(ev.target);
            }
            EventKind::Crash => {
                self.observe(ev.target, TapKind::Crash);
                self.hosts[t].crash();
                // The crash takes this client's in-flight operations with
                // it: no response will ever be produced, but the operation
                // may already have taken effect, so keep it for histories.
                let doomed = self
                    .invoked
                    .extract_if(.., |_, (client, _, _)| *client == ev.target);
                for (op, (client, input, at)) in doomed {
                    self.metrics.ops_aborted += 1;
                    self.aborted.push((op, client, input, at));
                }
            }
            EventKind::SetPartition { groups } => {
                self.partition = Some(groups);
            }
            EventKind::Heal => {
                self.partition = None;
            }
            EventKind::Restart => {
                if !self.hosts[t].is_up() {
                    self.observe(ev.target, TapKind::Restart);
                    self.metrics.restarts += 1;
                    self.hosts[t].restart(self.now);
                    self.absorb(ev.target);
                }
            }
            EventKind::SetLoss { prob } => {
                self.cfg.loss_prob = prob;
            }
            EventKind::SetGray { factor } => {
                self.gray[t] = factor;
            }
        }
        true
    }

    /// Runs until virtual time exceeds `deadline` or the queue empties.
    pub fn run_until(&mut self, deadline: Nanos) {
        while let Some(ev) = self.queue.peek() {
            if ev.at > deadline {
                break;
            }
            self.step();
        }
        self.now = self.now.max(deadline);
    }

    /// Runs until the event queue is empty or `deadline` passes — with
    /// retransmission timers a pending operation keeps the queue busy, so
    /// the deadline also bounds stalled executions. Returns `true` if the
    /// queue emptied.
    pub fn run_until_quiet(&mut self, deadline: Nanos) -> bool {
        while let Some(ev) = self.queue.peek() {
            if ev.at > deadline {
                return false;
            }
            self.step();
        }
        true
    }

    /// Whether any operation is still waiting to start or complete on a
    /// *live* node. Operations pending on crashed nodes are abandoned: they
    /// can never complete, so they do not count as "waiting".
    pub fn has_waiting_ops(&self) -> bool {
        // `invoked` holds operations of live nodes only: a crash moves its
        // node's entries to `aborted`, and an invocation on a crashed node
        // is lost before it is recorded. So there is nothing to filter.
        debug_assert!(
            self.invoked
                .values()
                .all(|(client, _, _)| self.hosts[client.index()].is_up()),
            "an operation of a crashed node is still recorded as in flight"
        );
        self.queued_invokes > 0 || !self.invoked.is_empty()
    }

    /// Runs until every scheduled operation on a live node has completed
    /// (operations stranded on crashed nodes are abandoned), or `deadline`
    /// passes. Returns `true` on full completion.
    pub fn run_until_ops_complete(&mut self, deadline: Nanos) -> bool {
        while self.has_waiting_ops() {
            match self.queue.peek() {
                Some(ev) if ev.at <= deadline => {
                    self.step();
                }
                _ => return false,
            }
        }
        true
    }

    /// Runs until an event that frees or strands a client — a response is
    /// recorded, a crash aborts operations, an invocation is lost on a down
    /// node, a node restarts — and returns the node it happened on; `None`
    /// once the queue is empty or its next event lies past `until`. The
    /// closed-loop driver wakes on these alone.
    pub(crate) fn run_until_client_event(&mut self, until: Nanos) -> Option<ProcessId> {
        // A live invocation moves one count from `queued_invokes` to
        // `ops_invoked`; a lost one leaves the sum one lower.
        let mark = |s: &Self| {
            (
                s.completed.len(),
                s.metrics.ops_aborted,
                s.metrics.restarts,
                s.queued_invokes + s.metrics.ops_invoked,
            )
        };
        let before = mark(self);
        while let Some(ev) = self.queue.peek() {
            if ev.at > until {
                return None;
            }
            let target = ev.target;
            self.step();
            if mark(self) != before {
                return Some(target);
            }
        }
        None
    }

    /// Whether `op`'s invocation is scheduled but not yet processed.
    pub(crate) fn invocation_queued(&self, op: OpId) -> bool {
        self.queue
            .iter()
            .any(|ev| matches!(ev.kind, EventKind::Invoke { op: o, .. } if o == op))
    }

    /// Carries out and empties node `from`'s outbox: routes its sends, then
    /// queues an event for each timer it armed (a stale one too: `fire`
    /// passes over it), then records its responses.
    fn absorb(&mut self, from: ProcessId) {
        let mut out = std::mem::take(self.hosts[from.index()].outbox());
        for (to, msg) in out.fx.sends.drain(..) {
            self.route(from, to, msg);
        }
        // Most callbacks only send.
        if !out.armed.is_empty() || !out.fx.responses.is_empty() {
            for Armed { key, gen, due } in out.armed.drain(..) {
                self.push(due, from, EventKind::Timer { key, gen });
            }
            for (op, resp) in out.fx.responses.drain(..) {
                let (client, input, invoked_at) = if let Some(open) = self.invoked.remove(&op) {
                    open
                } else if let Some(i) = self.aborted.iter().position(|(o, _, _, _)| *o == op) {
                    // A rolled-forward write resolved an operation its
                    // client's crash had aborted: close the interval. The operation keeps
                    // its original invocation time, so the history checkers see
                    // one long completed operation instead of an open-ended one.
                    self.metrics.ops_resolved += 1;
                    let (_, client, input, invoked_at) = self.aborted.remove(i);
                    (client, input, invoked_at)
                } else {
                    continue;
                };
                self.metrics.ops_completed += 1;
                self.metrics.total_op_latency += self.now - invoked_at;
                self.observe(client, TapKind::Complete { op });
                self.completed.push(OpRecord {
                    op,
                    client,
                    input,
                    resp,
                    invoked_at,
                    completed_at: self.now,
                });
            }
        }
        // Handed back empty, so the buffers keep their capacity.
        *self.hosts[from.index()].outbox() = out;
    }

    fn route(&mut self, from: ProcessId, to: ProcessId, msg: P::Msg) {
        self.metrics.sent += 1;
        if self.partitioned(from, to) {
            self.metrics.dropped_partition += 1;
            return;
        }
        if self.cfg.loss_prob > 0.0 && self.rng.gen_bool(self.cfg.loss_prob) {
            self.metrics.dropped_loss += 1;
            return;
        }
        let copies = if self.cfg.dup_prob > 0.0 && self.rng.gen_bool(self.cfg.dup_prob) {
            self.metrics.duplicated += 1;
            2
        } else {
            1
        };
        // Only a duplicate needs its own copy: the last (usually only)
        // delivery takes the message itself — sync replies carry whole
        // entry vectors.
        for _ in 1..copies {
            let at = self.delivery_time(from, to);
            self.push(
                at,
                to,
                EventKind::Deliver {
                    from,
                    msg: msg.clone(),
                },
            );
        }
        let at = self.delivery_time(from, to);
        self.push(at, to, EventKind::Deliver { from, msg });
    }

    /// Draws one delivery's latency and returns its arrival time.
    fn delivery_time(&mut self, from: ProcessId, to: ProcessId) -> Nanos {
        let mut delay = self.cfg.latency.sample(&mut self.rng);
        // Gray failure: a sick endpoint slows the link in both
        // directions (the worse endpoint dominates).
        let gray = self.gray[from.index()].max(self.gray[to.index()]);
        if gray > 1 {
            delay = delay.saturating_mul(u64::from(gray));
        }
        self.now + delay
    }
}

impl<P: Protocol + ReadPathStats> Sim<P>
where
    P::Op: Clone,
{
    /// The nodes' read-path and sync counters, summed across all nodes —
    /// what the simulator itself cannot see.
    pub fn read_path_metrics(&self) -> ReadPathCounters {
        let sum = |count: fn(&P) -> u64| self.hosts.iter().map(|h| count(h.node())).sum();
        ReadPathCounters {
            fast_reads: sum(P::fast_reads),
            write_backs: sum(P::write_backs),
            relay_reads: sum(P::relay_reads),
            sc_reads: sum(P::sc_reads),
            regular_reads: sum(P::regular_reads),
            recovery_msgs: sum(P::recovery_msgs),
            recovery_bytes: sum(P::recovery_bytes),
            sync_entries_sent: sum(P::sync_entries_sent),
        }
    }
}

impl<P: Protocol> std::fmt::Debug for Sim<P>
where
    P::Op: Clone,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("n", &self.hosts.len())
            .field("now", &self.now)
            .field("queued", &self.queue.len())
            .field("completed", &self.completed.len())
            .field("metrics", &self.metrics)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LatencyModel;
    use abd_core::msg::{RegisterOp, RegisterResp};
    use abd_core::swmr::{SwmrConfig, SwmrNode};

    /// The reference every fold here must equal: FNV-1a over the word's
    /// eight little-endian bytes, one at a time.
    fn bytewise(mut h: u64, word: u64) -> u64 {
        for b in word.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        h
    }

    #[test]
    fn fnv_fold_equals_the_byte_by_byte_fold() {
        // Every count of zero high bytes, and zero bytes below a set one.
        let mut words = vec![0, u64::MAX, 0x0100_0000_0000_0000, 0x00ff_0000_0000_0100];
        words.extend((0..64).map(|s| 1u64 << s));
        words.extend((0..64).map(|s| 0x9e37_79b9_7f4a_7c15u64 >> s));
        for (i, &w) in words.iter().enumerate() {
            let h = FNV_OFFSET.wrapping_add(i as u64);
            assert_eq!(fnv_fold(h, w), bytewise(h, w), "word {w:#x}");
        }
        // The one-byte path: every byte against 1 000 running digests.
        let mut rng = SmallRng::seed_from_u64(0xf01d);
        for _ in 0..1_000 {
            let h: u64 = rng.gen();
            for b in 0..=u8::MAX {
                assert_eq!(
                    fnv_fold_byte(h, b),
                    bytewise(h, u64::from(b)),
                    "byte {b:#x} into {h:#x}"
                );
            }
        }
    }

    #[test]
    fn fold_event_equals_five_byte_by_byte_folds() {
        let mut rng = SmallRng::seed_from_u64(0xe7e27);
        // Each word narrow and wide, so each side of every `< 256` test and
        // the general loop at every length are taken: a small cluster's
        // target and sender, a target past 255, an `Invoke` with `op >= 256`,
        // a `Timer`'s `key + (gen << 16)`, a `SetPartition`'s group digest.
        let word = |rng: &mut SmallRng| -> u64 {
            let bits: u64 = rng.gen();
            match rng.gen_range(0..4u32) {
                0 => bits % 256,
                1 => 256 + bits % 256,
                2 => bits >> rng.gen_range(0..64u32),
                _ => [0, 255, 256, u64::MAX][(bits % 4) as usize],
            }
        };
        let (mut narrow, mut wide) = (0, 0);
        for _ in 0..20_000 {
            let h: u64 = rng.gen();
            let (at, seq) = (word(&mut rng), word(&mut rng));
            let (target, extra) = (word(&mut rng), word(&mut rng));
            let tag = rng.gen_range(0..=8u8);
            let want = [at, seq, target, u64::from(tag), extra]
                .into_iter()
                .fold(h, bytewise);
            assert_eq!(
                fold_event(h, at, seq, target, tag, extra),
                want,
                "at {at:#x} seq {seq:#x} target {target:#x} tag {tag} extra {extra:#x}"
            );
            if extra < 256 {
                narrow += 1;
            } else {
                wide += 1;
            }
        }
        assert!(
            narrow > 5_000 && wide > 5_000,
            "{narrow} narrow, {wide} wide"
        );
    }

    fn swmr_cluster(n: usize, seed: u64) -> Sim<SwmrNode<u64>> {
        let nodes = (0..n)
            .map(|i| SwmrNode::new(SwmrConfig::new(n, ProcessId(i), ProcessId(0)), 0u64))
            .collect();
        Sim::new(SimConfig::new(seed), nodes)
    }

    #[test]
    fn write_and_read_complete() {
        let mut sim = swmr_cluster(5, 1);
        sim.invoke(ProcessId(0), RegisterOp::Write(11));
        assert!(sim.run_until_ops_complete(1_000_000));
        sim.invoke(ProcessId(3), RegisterOp::Read);
        assert!(sim.run_until_ops_complete(2_000_000));
        let recs = sim.completed();
        assert_eq!(recs.len(), 2);
        assert!(matches!(recs[1].resp, RegisterResp::ReadOk(11)));
        assert!(recs[1].latency() > 0);
    }

    #[test]
    fn read_path_metrics_sums_node_counters() {
        let nodes = (0..5)
            .map(|i| {
                SwmrNode::new(
                    SwmrConfig::new(5, ProcessId(i), ProcessId(0))
                        .with_read_mode(abd_core::types::ReadMode::FastUnanimous),
                    0u64,
                )
            })
            .collect();
        let mut sim: Sim<SwmrNode<u64>> = Sim::new(SimConfig::new(3), nodes);
        sim.invoke(ProcessId(0), RegisterOp::Write(4));
        assert!(sim.run_until_ops_complete(1_000_000));
        sim.invoke(ProcessId(2), RegisterOp::Read);
        assert!(sim.run_until_ops_complete(2_000_000));
        let m = sim.read_path_metrics();
        assert_eq!(m.fast_reads, 1);
        assert_eq!(m.write_backs, 0);
        assert_eq!(m.relay_reads, 0);
    }

    #[test]
    fn read_path_metrics_counts_relay_reads() {
        let nodes = (0..5)
            .map(|i| {
                SwmrNode::new(
                    SwmrConfig::new(5, ProcessId(i), ProcessId(0))
                        .with_read_mode(abd_core::types::ReadMode::Relay),
                    0u64,
                )
            })
            .collect();
        let mut sim: Sim<SwmrNode<u64>> = Sim::new(SimConfig::new(3), nodes);
        sim.invoke(ProcessId(0), RegisterOp::Write(4));
        assert!(sim.run_until_ops_complete(1_000_000));
        sim.invoke(ProcessId(2), RegisterOp::Read);
        assert!(sim.run_until_ops_complete(2_000_000));
        let m = sim.read_path_metrics();
        assert_eq!(m.relay_reads, 1);
        assert_eq!(m.fast_reads, 0);
        assert_eq!(m.write_backs, 0);
    }

    #[test]
    fn same_seed_replays_identically() {
        let run = |seed| {
            let mut sim = swmr_cluster(5, seed);
            for k in 0..10u64 {
                sim.invoke_at(k * 5_000, ProcessId(0), RegisterOp::Write(k));
                sim.invoke_at(
                    k * 5_000 + 1,
                    ProcessId((k as usize % 4) + 1),
                    RegisterOp::Read,
                );
            }
            sim.run_until_quiet(10_000_000);
            (
                sim.metrics().clone(),
                sim.completed()
                    .iter()
                    .map(|r| (r.op, r.completed_at))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(99), run(99));
        assert_ne!(
            run(99).1,
            run(100).1,
            "different seeds explore different schedules"
        );
    }

    #[test]
    fn crash_minority_still_live() {
        let mut sim = swmr_cluster(5, 7);
        sim.crash_at(0, ProcessId(3));
        sim.crash_at(0, ProcessId(4));
        sim.invoke_at(10, ProcessId(0), RegisterOp::Write(5));
        assert!(sim.run_until_ops_complete(10_000_000));
        assert!(!sim.is_alive(3));
    }

    #[test]
    fn crash_majority_blocks_ops() {
        let mut sim = swmr_cluster(5, 7);
        for i in 2..5 {
            sim.crash_at(0, ProcessId(i));
        }
        sim.invoke_at(10, ProcessId(0), RegisterOp::Write(5));
        assert!(!sim.run_until_ops_complete(10_000_000));
        assert_eq!(sim.pending_details().len(), 1);
        assert_eq!(sim.metrics().ops_completed, 0);
    }

    #[test]
    fn partition_blocks_then_heal_releases() {
        // Writer with retransmission so the operation survives the partition.
        let nodes: Vec<SwmrNode<u64>> = (0..4)
            .map(|i| {
                SwmrNode::new(
                    SwmrConfig::new(4, ProcessId(i), ProcessId(0)).with_retransmit(20_000),
                    0,
                )
            })
            .collect();
        let mut sim = Sim::new(SimConfig::new(3), nodes);
        // Split 2-2: no majority on either side (n=4 needs 3).
        sim.partition_at(0, vec![0, 0, 1, 1]);
        sim.invoke_at(10, ProcessId(0), RegisterOp::Write(1));
        assert!(!sim.run_until_ops_complete(500_000), "2-2 split must block");
        sim.heal_at(600_000);
        assert!(
            sim.run_until_ops_complete(5_000_000),
            "heal must release the write"
        );
        assert!(sim.metrics().dropped_partition > 0);
    }

    #[test]
    fn message_loss_is_counted_and_retransmission_recovers() {
        let nodes: Vec<SwmrNode<u64>> = (0..3)
            .map(|i| {
                SwmrNode::new(
                    SwmrConfig::new(3, ProcessId(i), ProcessId(0)).with_retransmit(15_000),
                    0,
                )
            })
            .collect();
        let cfg = SimConfig::new(5).with_loss(0.4);
        let mut sim = Sim::new(cfg, nodes);
        for k in 0..20u64 {
            sim.invoke_at(k, ProcessId(0), RegisterOp::Write(k));
        }
        assert!(sim.run_until_ops_complete(1_000_000_000));
        assert!(
            sim.metrics().dropped_loss > 0,
            "40% loss must drop something"
        );
        assert_eq!(sim.metrics().ops_completed, 20);
    }

    #[test]
    fn duplication_does_not_break_idempotent_phases() {
        let cfg = SimConfig::new(11).with_duplication(0.5);
        let nodes = (0..3)
            .map(|i| SwmrNode::new(SwmrConfig::new(3, ProcessId(i), ProcessId(0)), 0u64))
            .collect();
        let mut sim: Sim<SwmrNode<u64>> = Sim::new(cfg, nodes);
        for k in 0..10u64 {
            sim.invoke_at(k, ProcessId(0), RegisterOp::Write(k));
            sim.invoke_at(k, ProcessId(1), RegisterOp::Read);
        }
        assert!(sim.run_until_ops_complete(1_000_000_000));
        assert!(sim.metrics().duplicated > 0);
        assert_eq!(sim.metrics().ops_completed, 20);
    }

    #[test]
    fn constant_latency_gives_exact_round_trip_latency() {
        let cfg = SimConfig::new(1).with_latency(LatencyModel::Constant(1_000));
        let nodes = (0..5)
            .map(|i| SwmrNode::new(SwmrConfig::new(5, ProcessId(i), ProcessId(0)), 0u64))
            .collect();
        let mut sim: Sim<SwmrNode<u64>> = Sim::new(cfg, nodes);
        sim.invoke_at(0, ProcessId(0), RegisterOp::Write(1));
        sim.run_until_quiet(1_000_000);
        // Write = 1 round trip = 2 * 1000ns.
        assert_eq!(sim.completed()[0].latency(), 2_000);
        sim.invoke(ProcessId(2), RegisterOp::Read);
        sim.run_until_quiet(10_000_000);
        // Read = 2 round trips.
        assert_eq!(sim.completed()[1].latency(), 4_000);
    }

    /// `has_waiting_ops` as it was before it stopped filtering `invoked` by
    /// liveness; the two must agree in every state.
    fn waiting_on_a_live_node<P: Protocol>(sim: &Sim<P>) -> bool
    where
        P::Op: Clone,
    {
        sim.queued_invokes > 0
            || sim
                .invoked
                .values()
                .any(|(client, _, _)| sim.hosts[client.index()].is_up())
    }

    /// Steps `sim` to quiescence, checking the two predicates against each
    /// other around every event. Returns how often the answer was `true`.
    fn step_comparing_waiting_predicates<P: Protocol>(sim: &mut Sim<P>) -> usize
    where
        P::Op: Clone,
    {
        let mut waiting = 0;
        loop {
            let now = sim.has_waiting_ops();
            assert_eq!(now, waiting_on_a_live_node(sim));
            waiting += usize::from(now);
            if !sim.step() {
                return waiting;
            }
        }
    }

    #[test]
    fn invoke_on_crashed_node_is_lost() {
        let mut sim = swmr_cluster(3, 2);
        sim.crash_at(0, ProcessId(1));
        sim.invoke_at(10, ProcessId(1), RegisterOp::Read);
        let waiting_states = step_comparing_waiting_predicates(&mut sim);
        assert!(waiting_states > 0, "waiting while the invocation is queued");
        assert!(!sim.has_waiting_ops(), "not once it is lost");
        assert_eq!(sim.metrics().ops_invoked, 0);
        assert!(sim.completed().is_empty());
    }

    #[test]
    fn trace_records_and_caps_events() {
        let mut sim = swmr_cluster(3, 2);
        sim.set_trace(true, 8);
        sim.invoke(ProcessId(0), RegisterOp::Write(1));
        sim.crash_at(1_000_000, ProcessId(2));
        sim.run_until_quiet(2_000_000);
        let trace = sim.trace();
        assert!(!trace.is_empty());
        assert!(trace.len() <= 8, "trace must respect its cap");
        assert!(trace.iter().any(|l| l.contains("CRASH")), "{trace:#?}");
        sim.set_trace(false, 8);
        assert!(sim.trace().is_empty());
    }

    #[test]
    fn restart_rejoins_and_catches_up() {
        let nodes: Vec<SwmrNode<u64>> = (0..3)
            .map(|i| {
                SwmrNode::new(
                    SwmrConfig::new(3, ProcessId(i), ProcessId(0)).with_retransmit(20_000),
                    0,
                )
            })
            .collect();
        let mut sim = Sim::new(SimConfig::new(21), nodes);
        sim.invoke_at(0, ProcessId(0), RegisterOp::Write(1));
        sim.crash_at(100_000, ProcessId(2));
        sim.invoke_at(150_000, ProcessId(0), RegisterOp::Write(2));
        sim.restart_at(400_000, ProcessId(2));
        assert!(sim.run_until_ops_complete(5_000_000));
        sim.run_until_quiet(10_000_000);
        assert!(sim.is_alive(2));
        assert_eq!(sim.metrics().restarts, 1);
        assert_eq!(sim.node(2).replica_state(), (2, 2), "must catch up");
        // And the rejoined node serves reads again.
        sim.invoke(ProcessId(2), RegisterOp::Read);
        assert!(sim.run_until_ops_complete(sim.now() + 5_000_000));
        assert!(matches!(
            sim.completed().last().unwrap().resp,
            RegisterResp::ReadOk(2)
        ));
    }

    #[test]
    fn restart_of_live_node_is_ignored() {
        let mut sim = swmr_cluster(3, 4);
        sim.restart_at(10, ProcessId(1));
        sim.run_until_quiet(1_000_000);
        assert_eq!(sim.metrics().restarts, 0);
    }

    #[test]
    fn crash_aborts_inflight_client_ops() {
        let mut sim = swmr_cluster(5, 9);
        sim.invoke_at(0, ProcessId(0), RegisterOp::Write(3));
        sim.crash_at(1, ProcessId(0)); // mid-flight: no reply can be in yet
        let waiting_states = step_comparing_waiting_predicates(&mut sim);
        assert!(
            waiting_states > 1,
            "waiting while queued and while in flight"
        );
        assert_eq!(sim.metrics().ops_aborted, 1);
        assert_eq!(sim.metrics().ops_completed, 0);
        assert!(!sim.has_waiting_ops());
        let pend = sim.pending_details();
        assert_eq!(pend.len(), 1, "aborted op must stay visible to histories");
        assert_eq!(pend[0].1, ProcessId(0));
    }

    #[test]
    fn loss_burst_counts_retransmissions() {
        let nodes: Vec<SwmrNode<u64>> = (0..3)
            .map(|i| {
                SwmrNode::new(
                    SwmrConfig::new(3, ProcessId(i), ProcessId(0)).with_retransmit(15_000),
                    0,
                )
            })
            .collect();
        let mut sim = Sim::new(SimConfig::new(17), nodes);
        sim.set_loss_at(0, 0.9);
        sim.set_loss_at(200_000, 0.0);
        for k in 0..5u64 {
            sim.invoke_at(k, ProcessId(0), RegisterOp::Write(k));
        }
        assert!(sim.run_until_ops_complete(100_000_000));
        assert!(sim.metrics().dropped_loss > 0, "burst must drop messages");
        assert!(
            sim.metrics().retransmissions > 0,
            "recovery needs retransmits"
        );
    }

    #[test]
    fn gray_node_slows_traffic_but_liveness_holds() {
        let cfg = SimConfig::new(23).with_latency(LatencyModel::Constant(1_000));
        let nodes = (0..3)
            .map(|i| SwmrNode::new(SwmrConfig::new(3, ProcessId(i), ProcessId(0)), 0u64))
            .collect();
        let mut sim: Sim<SwmrNode<u64>> = Sim::new(cfg, nodes);
        sim.set_gray_at(0, ProcessId(1), 50);
        sim.invoke_at(0, ProcessId(0), RegisterOp::Write(6));
        assert!(sim.run_until_ops_complete(10_000_000));
        // The write quorum formed from the healthy replica (2-of-3), so
        // latency stays one healthy round trip; the gray node's ack limps
        // in much later.
        assert_eq!(sim.completed()[0].latency(), 2_000);
        sim.set_gray_at(sim.now(), ProcessId(1), 1);
        sim.invoke(ProcessId(1), RegisterOp::Read);
        assert!(sim.run_until_ops_complete(sim.now() + 10_000_000));
    }

    #[test]
    #[should_panic(expected = "node 1 has wrong id")]
    fn new_rejects_a_node_whose_id_is_not_its_index() {
        let nodes = [0, 2]
            .map(|i| SwmrNode::new(SwmrConfig::new(3, ProcessId(i), ProcessId(0)), 0u64))
            .into();
        Sim::new(SimConfig::new(1), nodes);
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = swmr_cluster(3, 2);
        sim.invoke(ProcessId(0), RegisterOp::Write(1));
        sim.run_until_quiet(1_000_000);
        sim.invoke_at(5, ProcessId(0), RegisterOp::Read);
    }
}
