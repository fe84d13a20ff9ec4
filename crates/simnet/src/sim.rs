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
use std::collections::{BTreeMap, VecDeque};

/// The execution digest before any event.
const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// 2^64 / φ, odd, so each fold step is a bijection of the digest.
const DIGEST_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Folds one 64-bit word into the execution digest, whole: a rotate, an
/// xor and one multiply. For a fixed running digest the step is injective
/// in the word, and for a fixed word a bijection of the digest, so
/// changing any one folded word always changes the final digest; the
/// rotate feeds each step's high bits back into the low ones, so the fold
/// depends on the order of its words too.
#[inline]
fn fold_word(h: u64, word: u64) -> u64 {
    (h.rotate_left(5) ^ word).wrapping_mul(DIGEST_MUL)
}

/// Folds one event's identity into the execution digest: `at`, `seq`,
/// `target`, `tag`, `extra`, one [`fold_word`] each, in that order.
#[inline]
fn fold_event(h: u64, at: Nanos, seq: u64, target: u64, tag: u8, extra: u64) -> u64 {
    [at, seq, target, u64::from(tag), extra]
        .into_iter()
        .fold(h, fold_word)
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
    /// `target` rebooted via `Protocol::on_restart`.
    Restart,
}

/// One observed simulator event: the [`TapKind`] and the node it applies to.
#[derive(Debug)]
pub struct TapEvent<'a, M, O> {
    /// The node the event applies to.
    pub target: ProcessId,
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

/// An event as the queue holds it: the node it applies to, and what happens.
type Event<P> = (ProcessId, EventKind<P>);

/// The pending events, popped in `(at, seq)` order. The heap orders small
/// keys — `at << 64 | seq` and the slot of the payload — while the payloads
/// stay put in a slab, so a sift moves 32 bytes, not a whole message. `seq`
/// numbers the pushes, so no two keys are equal and the slot a payload lands
/// in never decides which event pops first.
struct EventQueue<T> {
    /// A 4-ary min-heap on the key: entry `i`'s children are `4i + 1..=4i + 4`.
    heap: Vec<(u128, u32)>,
    /// Payloads by slot; `None` in a free slot.
    slab: Vec<Option<T>>,
    /// Free slots, the most recently freed last.
    free: Vec<u32>,
    next_seq: u64,
}

impl<T> EventQueue<T> {
    fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
        }
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Queues `payload` at time `at`, behind every event queued before it at `at`.
    fn push(&mut self, at: Nanos, payload: T) {
        let key = (u128::from(at) << 64) | u128::from(self.next_seq);
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(payload);
                slot
            }
            None => {
                self.slab.push(Some(payload));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 queued events")
            }
        };
        let heap = &mut self.heap;
        let mut i = heap.len();
        heap.push((key, slot));
        while i > 0 {
            let parent = (i - 1) / 4;
            if heap[parent].0 < key {
                break;
            }
            heap[i] = heap[parent];
            i = parent;
        }
        heap[i] = (key, slot);
    }

    /// The earliest event's time.
    fn peek(&self) -> Option<Nanos> {
        self.heap.first().map(|&(key, _)| (key >> 64) as Nanos)
    }

    /// Removes the earliest event: its time, its queue sequence number and its payload.
    fn pop(&mut self) -> Option<(Nanos, u64, T)> {
        let last = self.heap.pop()?;
        let (key, slot) = match self.heap.first() {
            None => last,
            Some(&top) => {
                // Sift `last` down from the root into the hole `top` leaves.
                let heap = &mut self.heap[..];
                let mut i = 0;
                loop {
                    let first = 4 * i + 1;
                    let least = match heap.get(first..first + 4) {
                        // A full family, the common case: a fixed bracket
                        // of three comparisons, the first two independent.
                        Some(c) => {
                            let a = usize::from(c[1].0 < c[0].0);
                            let b = 2 + usize::from(c[3].0 < c[2].0);
                            first + if c[b].0 < c[a].0 { b } else { a }
                        }
                        None if first < heap.len() => {
                            let mut least = first;
                            for c in first + 1..heap.len() {
                                if heap[c].0 < heap[least].0 {
                                    least = c;
                                }
                            }
                            least
                        }
                        None => break,
                    };
                    if last.0 < heap[least].0 {
                        break;
                    }
                    heap[i] = heap[least];
                    i = least;
                }
                heap[i] = last;
                top
            }
        };
        let payload = self.slab[slot as usize].take();
        self.free.push(slot);
        Some((
            (key >> 64) as Nanos,
            key as u64,
            payload.expect("a queued slot holds its payload"),
        ))
    }

    /// Every queued payload, in no particular order.
    fn payloads(&self) -> impl Iterator<Item = &T> {
        self.slab.iter().flatten()
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
    hosts: Vec<NodeHost<P>>,
    queue: EventQueue<Event<P>>,
    links: Links,
    now: Nanos,
    next_op: u64,
    metrics: Metrics,
    invoked: BTreeMap<OpId, (ProcessId, P::Op, Nanos)>,
    completed: Vec<OpRecord<P::Op, P::Resp>>,
    /// Operations whose client crashed mid-flight: they can never complete,
    /// but histories must still treat them as possibly-effective.
    aborted: Vec<(OpId, ProcessId, P::Op, Nanos)>,
    /// Running digest of every processed event — the determinism gate's
    /// fingerprint of the execution.
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
        let n = nodes.len();
        let mut sim = Sim {
            hosts: NodeHost::cluster(nodes),
            queue: EventQueue::new(),
            links: Links {
                rng: SmallRng::seed_from_u64(cfg.seed),
                cfg,
                partition: None,
                gray: vec![1; n],
            },
            now: 0,
            next_op: 0,
            metrics: Metrics::default(),
            invoked: BTreeMap::new(),
            completed: Vec::new(),
            aborted: Vec::new(),
            digest: DIGEST_SEED,
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
        self.queue.push(at, (target, kind));
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

    /// Enables (or disables) the bounded event trace. The trace records a
    /// one-line description of every processed event, keeping the most
    /// recent `cap` lines — invaluable when a seeded failure needs
    /// dissecting.
    pub fn set_trace(&mut self, enabled: bool, cap: usize) {
        self.trace = enabled.then(VecDeque::new);
        self.trace_cap = cap.max(1);
    }

    /// Installs an observation-only event tap: the callback sees every
    /// processed delivery (including drops, with the [`DropReason`]),
    /// invocation, completion and restart. The tap cannot
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

    /// Digest of every event processed so far (time, queue order, target,
    /// kind, sender). Always on, so any two same-seed runs can be compared
    /// for byte-identical schedules:
    /// `assert_eq!(a.trace_digest(), b.trace_digest())`. Five words per
    /// event, one multiply each.
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
            tap(TapEvent { target, kind });
        }
    }

    /// Processes the single earliest event. Returns `false` if the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        self.step_at().is_some()
    }

    /// [`step`](Self::step), returning the node the event applied to.
    fn step_at(&mut self) -> Option<ProcessId> {
        let (at, seq, (target, kind)) = self.queue.pop()?;
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        let t = target.index();
        // Fold the event's identity into the execution digest: time, queue
        // order, target and kind (plus sender for deliveries). Two runs of
        // the same seed must process byte-identical event sequences, so
        // equal digests certify a deterministic replay.
        let (tag, extra) = match &kind {
            EventKind::Deliver { from, .. } => (0u8, from.index() as u64),
            EventKind::Timer { key, gen } => (1, key.0.wrapping_add(*gen << 16)),
            EventKind::Invoke { op, .. } => (2, op.0),
            EventKind::Crash => (3, 0),
            EventKind::SetPartition { groups } => (
                4,
                groups
                    .iter()
                    .fold(DIGEST_SEED, |h, &g| fold_word(h, u64::from(g))),
            ),
            EventKind::Heal => (5, 0),
            EventKind::Restart => (6, 0),
            EventKind::SetLoss { prob } => (7, prob.to_bits()),
            EventKind::SetGray { factor } => (8, u64::from(*factor)),
        };
        self.digest = fold_event(self.digest, at, seq, t as u64, tag, extra);
        if self.trace.is_some() {
            let desc = match &kind {
                EventKind::Deliver { from, msg } => {
                    format!("{at:>12} deliver {from} -> {target}: {msg:?}")
                }
                EventKind::Timer { key, .. } => {
                    format!("{at:>12} timer {key:?} @ {target}")
                }
                EventKind::Invoke { op, input } => {
                    format!("{at:>12} invoke {op} {input:?} @ {target}")
                }
                EventKind::Crash => format!("{at:>12} CRASH {target}"),
                EventKind::SetPartition { groups } => format!("{at:>12} PARTITION {groups:?}"),
                EventKind::Heal => format!("{at:>12} HEAL"),
                EventKind::Restart => format!("{at:>12} RESTART {target}"),
                EventKind::SetLoss { prob } => format!("{at:>12} LOSS {prob}"),
                EventKind::SetGray { factor } => {
                    format!("{at:>12} GRAY {target} x{factor}")
                }
            };
            self.record_trace(desc);
        }
        match kind {
            EventKind::Deliver { from, msg } => {
                let dropped = if !self.hosts[t].is_up() {
                    Some(DropReason::Crashed)
                } else if self.links.partitioned(from, target) {
                    Some(DropReason::Partitioned)
                } else {
                    None
                };
                let kind = TapKind::Deliver {
                    from,
                    msg: &msg,
                    dropped,
                };
                self.observe(target, kind);
                match dropped {
                    Some(DropReason::Crashed) => self.metrics.dropped_crash += 1,
                    Some(DropReason::Partitioned) => self.metrics.dropped_partition += 1,
                    None => {
                        self.metrics.delivered += 1;
                        self.hosts[t].deliver(self.now, from, msg);
                        self.absorb(target);
                    }
                }
            }
            EventKind::Timer { key, gen } => {
                if !self.hosts[t].is_armed(key, gen) {
                    return Some(target); // cancelled or superseded, or the node is down
                }
                self.metrics.timer_fires += 1;
                self.hosts[t].fire(self.now, key, gen);
                self.metrics.retransmissions += self.hosts[t].outbox().fx.sends.len() as u64;
                self.absorb(target);
            }
            EventKind::Invoke { op, input } => {
                self.queued_invokes -= 1;
                if !self.hosts[t].is_up() {
                    return Some(target); // invocation on a crashed node is lost
                }
                self.metrics.ops_invoked += 1;
                self.observe(target, TapKind::Invoke { op, input: &input });
                self.invoked.insert(op, (target, input.clone(), self.now));
                self.hosts[t].invoke(self.now, op, input);
                self.absorb(target);
            }
            EventKind::Crash => {
                self.hosts[t].crash();
                // The crash takes this client's in-flight operations with
                // it: no response will ever be produced, but the operation
                // may already have taken effect, so keep it for histories.
                let doomed = self
                    .invoked
                    .extract_if(.., |_, (client, _, _)| *client == target);
                for (op, (client, input, at)) in doomed {
                    self.metrics.ops_aborted += 1;
                    self.aborted.push((op, client, input, at));
                }
            }
            EventKind::SetPartition { groups } => {
                self.links.partition = Some(groups);
            }
            EventKind::Heal => {
                self.links.partition = None;
            }
            EventKind::Restart => {
                if !self.hosts[t].is_up() {
                    self.observe(target, TapKind::Restart);
                    self.metrics.restarts += 1;
                    self.hosts[t].restart(self.now);
                    self.absorb(target);
                }
            }
            EventKind::SetLoss { prob } => {
                self.links.cfg.loss_prob = prob;
            }
            EventKind::SetGray { factor } => {
                self.links.gray[t] = factor;
            }
        }
        Some(target)
    }

    /// Runs until virtual time exceeds `deadline` or the queue empties.
    pub fn run_until(&mut self, deadline: Nanos) {
        while let Some(at) = self.queue.peek() {
            if at > deadline {
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
        while let Some(at) = self.queue.peek() {
            if at > deadline {
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
                Some(at) if at <= deadline => {
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
        while self.queue.peek()? <= until {
            let target = self.step_at()?;
            if mark(self) != before {
                return Some(target);
            }
        }
        None
    }

    /// Whether `op`'s invocation is scheduled but not yet processed.
    pub(crate) fn invocation_queued(&self, op: OpId) -> bool {
        self.queue
            .payloads()
            .any(|(_, kind)| matches!(kind, EventKind::Invoke { op: o, .. } if *o == op))
    }

    /// Carries out and empties node `from`'s outbox: routes its sends, then
    /// queues an event for each timer it armed (a stale one too: `fire`
    /// passes over it), then records its responses.
    fn absorb(&mut self, from: ProcessId) {
        let out = self.hosts[from.index()].outbox();
        for (to, msg) in out.fx.sends.drain(..) {
            self.links
                .route(&mut self.queue, &mut self.metrics, self.now, from, to, msg);
        }
        // Most callbacks only send.
        if out.armed.is_empty() && out.fx.responses.is_empty() {
            return;
        }
        let mut out = std::mem::take(out);
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
        // Handed back empty, so the buffers keep their capacity.
        *self.hosts[from.index()].outbox() = out;
    }
}

/// The network between the nodes: what becomes of a message from its send
/// to its delivery, drawn from the simulation's one RNG.
struct Links {
    cfg: SimConfig,
    rng: SmallRng,
    partition: Option<Vec<u32>>,
    /// Per-node gray-failure latency multiplier (1 = healthy).
    gray: Vec<u32>,
}

impl Links {
    fn partitioned(&self, a: ProcessId, b: ProcessId) -> bool {
        match &self.partition {
            Some(groups) => groups[a.index()] != groups[b.index()],
            None => false,
        }
    }

    /// Queues the delivery of `msg` — none if it is partitioned away or
    /// lost, two if it is duplicated. The draws keep one order: loss, then
    /// duplication, then the copy's delay before the original's.
    fn route<P: Protocol>(
        &mut self,
        queue: &mut EventQueue<Event<P>>,
        metrics: &mut Metrics,
        now: Nanos,
        from: ProcessId,
        to: ProcessId,
        msg: P::Msg,
    ) {
        metrics.sent += 1;
        if self.partitioned(from, to) {
            metrics.dropped_partition += 1;
            return;
        }
        if self.cfg.loss_prob > 0.0 && self.rng.gen_bool(self.cfg.loss_prob) {
            metrics.dropped_loss += 1;
            return;
        }
        // Only a duplicate needs its own copy: the original delivery takes
        // the message itself — sync replies carry whole entry vectors.
        if self.cfg.dup_prob > 0.0 && self.rng.gen_bool(self.cfg.dup_prob) {
            metrics.duplicated += 1;
            let copy = EventKind::Deliver {
                from,
                msg: msg.clone(),
            };
            queue.push(self.delivery_time(now, from, to), (to, copy));
        }
        let at = self.delivery_time(now, from, to);
        queue.push(at, (to, EventKind::Deliver { from, msg }));
    }

    /// Draws one delivery's latency and returns its arrival time.
    fn delivery_time(&mut self, now: Nanos, from: ProcessId, to: ProcessId) -> Nanos {
        let mut delay = self.cfg.latency.sample(&mut self.rng);
        // Gray failure: a sick endpoint slows the link in both
        // directions (the worse endpoint dominates).
        let gray = self.gray[from.index()].max(self.gray[to.index()]);
        if gray > 1 {
            delay = delay.saturating_mul(u64::from(gray));
        }
        now + delay
    }
}

impl<P: Protocol + ReadPathStats> Sim<P>
where
    P::Op: Clone,
{
    /// The nodes' read-path and sync counters, summed across all nodes —
    /// what the simulator itself cannot see.
    pub fn read_path_metrics(&self) -> ReadPathCounters {
        self.hosts.iter().map(|h| h.node().counters()).sum()
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

    #[test]
    fn changing_one_word_or_swapping_two_events_changes_the_digest() {
        let mut rng = SmallRng::seed_from_u64(0xd16e57);
        let word = |rng: &mut SmallRng| -> u64 {
            let bits: u64 = rng.gen();
            bits >> rng.gen_range(0..64u32)
        };
        let digest = |events: &[[u64; 5]]| {
            events.iter().fold(DIGEST_SEED, |h, e| {
                fold_event(h, e[0], e[1], e[2], e[3] as u8, e[4])
            })
        };
        for case in 0..2_000 {
            let mut events: Vec<[u64; 5]> = (0..rng.gen_range(2..12))
                .map(|_| {
                    let tag = rng.gen_range(0..=8u64);
                    [
                        word(&mut rng),
                        word(&mut rng),
                        word(&mut rng),
                        tag,
                        word(&mut rng),
                    ]
                })
                .collect();
            let base = digest(&events);
            // One word of one event, by one flipped bit or a fresh value.
            let (e, w) = (rng.gen_range(0..events.len()), rng.gen_range(0..5));
            let old = events[e][w];
            // The kind tag is a byte.
            let bits = if w == 3 { 8 } else { 64 };
            let flip = 1 << rng.gen_range(0..bits);
            for new in [old ^ flip, word(&mut rng) & (u64::MAX >> (64 - bits))] {
                if new != old {
                    events[e][w] = new;
                    assert_ne!(digest(&events), base, "case {case}: event {e} word {w}");
                }
            }
            events[e][w] = old;
            // Two distinct events swapped.
            let (a, b) = (
                rng.gen_range(0..events.len()),
                rng.gen_range(0..events.len()),
            );
            if events[a] != events[b] {
                events.swap(a, b);
                assert_ne!(
                    digest(&events),
                    base,
                    "case {case}: events {a} and {b} swapped"
                );
            }
        }
    }

    /// Pushes, peeks and pops the same seeded mix on an [`EventQueue`] and on
    /// a `BinaryHeap` of `(at, seq)`: every peek and pop must agree, and each
    /// payload must come out with the key it went in with.
    #[test]
    fn event_queue_pops_in_binary_heap_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut rng = SmallRng::seed_from_u64(0x9e4e);
        let mut queue = EventQueue::new();
        let mut reference = BinaryHeap::new();
        let (mut seq, mut now, mut popped, mut peak) = (0u64, 0u64, 0usize, 0usize);
        for round in 0..=400 {
            // Grow towards a target size, then drain to it: some rounds empty
            // the queue (the last one too), a few fill it to ~10 000.
            let target = match round % 40 {
                0 | 10 | 20 | 30 => 0,
                39 => rng.gen_range(5_000..10_500),
                _ => rng.gen_range(0..200),
            };
            while queue.len() != target {
                if queue.len() < target && (queue.len() == 0 || rng.gen_bool(0.7)) {
                    let at = now
                        + match rng.gen_range(0..4u32) {
                            // Many events at one instant: the sequence number decides.
                            0 => 0,
                            1 => rng.gen_range(0..4),
                            2 => rng.gen_range(0..50_000),
                            // Timer-like keys far in the future.
                            _ => rng.gen_range(1u64 << 40..1 << 50),
                        };
                    queue.push(at, (at, seq));
                    reference.push(Reverse((at, seq)));
                    seq += 1;
                } else {
                    let want = reference.pop().map(|Reverse(k)| k);
                    let got = queue.pop().map(|(at, seq, payload)| {
                        assert_eq!(payload, (at, seq), "a payload left with another key");
                        (at, seq)
                    });
                    assert_eq!(got, want, "pop {popped}");
                    now = got.expect("the queue was not empty").0;
                    popped += 1;
                }
                let want = reference.peek().map(|Reverse(k)| k.0);
                assert_eq!(queue.peek(), want, "peek after pop {popped}");
                assert_eq!(queue.len(), reference.len());
                peak = peak.max(queue.len());
            }
            assert_eq!(queue.payloads().count(), target, "round {round}");
        }
        assert!(queue.pop().is_none());
        assert!(
            popped > 50_000 && peak > 9_000,
            "{popped} pops, peak {peak}"
        );
    }

    #[test]
    fn invocation_queued_sees_an_invoke_until_it_pops() {
        let mut sim = swmr_cluster(3, 5);
        let first = sim.invoke_at(10, ProcessId(0), RegisterOp::Write(1));
        let later = sim.invoke_at(20, ProcessId(1), RegisterOp::Read);
        assert!(sim.invocation_queued(first) && sim.invocation_queued(later));
        assert!(!sim.invocation_queued(OpId(later.0 + 1)), "never invoked");
        while sim.queue.peek().is_some_and(|at| at <= 10) {
            sim.step();
        }
        assert!(!sim.invocation_queued(first), "popped at 10");
        assert!(sim.invocation_queued(later));
        sim.run_until_quiet(1_000_000);
        assert!(!sim.invocation_queued(later));
        assert_eq!(sim.completed().len(), 2);
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
