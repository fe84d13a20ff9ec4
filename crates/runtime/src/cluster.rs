//! Thread-per-node runtime for sans-io protocols.
//!
//! Each protocol node runs on its own OS thread, receiving network messages
//! and client commands over crossbeam channels and driving the node's
//! [`NodeHost`] (its due timers fire at the top of every loop iteration; the
//! `select!` timeout only bounds the wait). A command wakes its node at once,
//! while a peer's message is seen at the node's next poll of its network
//! channel: the vendored `select!` waits on its first arm, the commands, in
//! rounds of 50 µs and polls the second between them. A round lasts 50 µs
//! only on a thread with exact timers, so each node thread first asks for
//! them (`clock::request_exact_timers`); under Linux's default timer slack it
//! would last ≈ 100 µs, and a held message or timer would be served up to
//! 50 µs past its due time. Link delay is held where the message lands, as
//! `Sim` delivers a message at its time to its target: the sender stamps
//! each message with the time it is due, and the receiving node keeps it
//! beside its timers until then. The protocol state machines are the *same
//! objects* the deterministic simulator drives — this crate is the
//! demonstration that the sans-io core runs on a real concurrent transport,
//! and it is what the wall-clock benchmark (`benchmark/`) measures.

use crate::clock::{request_exact_timers, Clock, MonotonicClock};
use abd_core::context::{Protocol, ReadPathCounters, ReadPathStats};
use abd_core::host::NodeHost;
use abd_core::phase::NodeEdges;
use abd_core::types::{Nanos, OpId, ProcessId};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Network latency injected between nodes.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Jitter {
    /// Deliver directly, as fast as the channels go.
    #[default]
    None,
    /// Delay every message between two nodes by a uniformly random duration
    /// in `[lo, hi]` nanoseconds: the sender draws it, the receiver holds
    /// the message until it has passed. Self-sends are not delayed.
    Uniform {
        /// Minimum injected delay.
        lo: Nanos,
        /// Maximum injected delay.
        hi: Nanos,
    },
}

/// What travels between node threads: the sender, the clock time the
/// message is due at its receiver (`0`: at once) and the message.
type Mail<M> = (ProcessId, Nanos, M);

/// Commands a node thread accepts besides network messages.
enum Cmd<P: Protocol> {
    Invoke {
        op: OpId,
        input: P::Op,
        reply: Sender<P::Resp>,
    },
    Crash,
    Restart,
    /// Runs on the node thread between two events, up or down.
    Read(Box<dyn FnOnce(&P) + Send>),
    Shutdown,
}

/// A running cluster of protocol nodes on OS threads.
///
/// Dropping the cluster shuts every thread down.
///
/// # Examples
///
/// ```
/// use abd_core::msg::{RegisterOp, RegisterResp};
/// use abd_core::mwmr::{MwmrConfig, MwmrNode};
/// use abd_core::types::ProcessId;
/// use abd_runtime::cluster::{Cluster, Jitter};
///
/// let cluster = Cluster::spawn(
///     (0..3).map(|i| MwmrNode::new(MwmrConfig::new(3, ProcessId(i)), 0u64)).collect(),
///     Jitter::None,
/// );
/// let c0 = cluster.client(0);
/// assert_eq!(c0.invoke(RegisterOp::Write(7)), RegisterResp::WriteOk);
/// let c2 = cluster.client(2);
/// assert_eq!(c2.invoke(RegisterOp::Read), RegisterResp::ReadOk(7));
/// ```
#[derive(Debug)]
pub struct Cluster<P: Protocol> {
    cmd_txs: Vec<Sender<Cmd<P>>>,
    handles: Vec<JoinHandle<()>>,
    next_op: Arc<AtomicU64>,
    clock: Arc<dyn Clock>,
}

impl<P: Protocol + Send + 'static> Cluster<P> {
    /// Spawns one thread per node; node `i` must have id `i`. With a
    /// [`Jitter`] other than `None`, each message between two nodes waits
    /// out its drawn delay at its receiver, beside that node's timers.
    ///
    /// # Panics
    ///
    /// Before any thread starts, if a node's id is not its index (its
    /// self-sends would land in another node's mailbox) or if a
    /// `Jitter::Uniform` range has `lo > hi`.
    pub fn spawn(nodes: Vec<P>, jitter: Jitter) -> Self {
        if let Jitter::Uniform { lo, hi } = jitter {
            assert!(lo <= hi, "Jitter::Uniform needs lo <= hi: [{lo}, {hi}]");
        }
        let hosts = NodeHost::cluster(nodes);
        let n = hosts.len();
        let (net_txs, net_rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let clock: Arc<dyn Clock> = Arc::new(MonotonicClock::new());
        let mut cmd_txs = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        for ((i, host), net_rx) in hosts.into_iter().enumerate().zip(net_rxs) {
            let (cmd_tx, cmd_rx) = unbounded();
            let net_txs = net_txs.clone();
            let clock = Arc::clone(&clock);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("abd-node-{i}"))
                    .spawn(move || node_main(host, net_rx, cmd_rx, net_txs, jitter, clock))
                    .expect("spawn node thread"),
            );
            cmd_txs.push(cmd_tx);
        }
        Cluster {
            cmd_txs,
            handles,
            next_op: Arc::new(AtomicU64::new(0)),
            clock,
        }
    }

    /// Number of nodes in the cluster.
    pub fn n(&self) -> usize {
        self.cmd_txs.len()
    }

    /// The clock all client timing measurements are read from; its epoch is
    /// the moment the cluster was spawned.
    #[cfg(test)]
    fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// A blocking client bound to node `i`. Clients are cheap to create and
    /// can live on any thread.
    pub fn client(&self, i: usize) -> Client<P> {
        Client {
            node: ProcessId(i),
            cmd_tx: self.cmd_txs[i].clone(),
            next_op: Arc::clone(&self.next_op),
            clock: Arc::clone(&self.clock),
        }
    }

    /// Crashes node `i`: it stops processing until a [`restart`](Self::restart),
    /// if any. In-flight invocations on it are abandoned (their clients get
    /// `None`/a panic immediately, not after their full timeout). So is
    /// every invocation that reaches it while it is down: the command
    /// channel queues a later invocation behind the crash, and the down
    /// node drops its reply channel unanswered.
    pub fn crash(&self, i: usize) {
        let _ = self.cmd_txs[i].send(Cmd::Crash);
    }

    /// Reboots crashed node `i`: pending timers die with the old
    /// incarnation, the protocol's `on_restart` runs, and clients may
    /// invoke on it again. What `on_restart` does is the protocol's: a
    /// `RegisterNode` and a `KvNode` both serve at once, the first reading
    /// a read quorum in the background to catch its replica up, the second
    /// running its Merkle walks. Restarting a live node is a no-op.
    pub fn restart(&self, i: usize) {
        let _ = self.cmd_txs[i].send(Cmd::Restart);
    }
}

impl<P: Protocol + ReadPathStats + Send + 'static> Cluster<P> {
    /// Node `i`'s read-path counters and phase edges, read on its own
    /// thread between two of its events — what `Sim::read_path_metrics`
    /// sums on the simulator.
    ///
    /// # Panics
    ///
    /// If node `i`'s thread is gone.
    pub fn stats(&self, i: usize) -> (ReadPathCounters, NodeEdges) {
        let (tx, rx) = bounded(1);
        let read = move |node: &P| {
            let _ = tx.send((node.counters(), node.phase_edges()));
        };
        let _ = self.cmd_txs[i].send(Cmd::Read(Box::new(read)));
        rx.recv().expect("node thread is running")
    }
}

impl<P: Protocol> Drop for Cluster<P> {
    fn drop(&mut self) {
        for tx in &self.cmd_txs {
            let _ = tx.send(Cmd::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A blocking client handle bound to one node of a [`Cluster`].
#[derive(Debug)]
pub struct Client<P: Protocol> {
    node: ProcessId,
    cmd_tx: Sender<Cmd<P>>,
    next_op: Arc<AtomicU64>,
    clock: Arc<dyn Clock>,
}

impl<P: Protocol> Clone for Client<P> {
    fn clone(&self) -> Self {
        Client {
            node: self.node,
            cmd_tx: self.cmd_tx.clone(),
            next_op: Arc::clone(&self.next_op),
            clock: Arc::clone(&self.clock),
        }
    }
}

impl<P: Protocol> Client<P> {
    /// The node this client is bound to.
    pub fn node(&self) -> ProcessId {
        self.node
    }

    /// Invokes `input` and blocks until the response arrives.
    ///
    /// # Panics
    ///
    /// Panics — immediately, not after a timeout — if the node is crashed
    /// or shut down (the operation can never complete). For code that must
    /// tolerate crashes without panicking, use
    /// [`try_invoke_for`](Self::try_invoke_for).
    pub fn invoke(&self, input: P::Op) -> P::Resp {
        self.try_invoke_for(input, Duration::from_secs(60))
            .expect("operation did not complete (node crashed or overloaded?)")
    }

    /// Invokes `input`, giving up after `timeout`. Returns `None` on
    /// timeout — the operation may still take effect later (it is not
    /// cancelled), exactly like a real client timing out on a real store.
    ///
    /// This is the escape hatch for operating around crashes: a crashed
    /// target fails fast with `None` instead of hanging until the timeout,
    /// since the down node drops the reply channel of every invocation it
    /// refuses and of every one in flight at the crash. `timeout` bounds an operation the live node cannot finish,
    /// e.g. for want of a quorum; one past the range of `Instant`
    /// (`Duration::MAX`) sets no bound.
    pub fn try_invoke_for(&self, input: P::Op, timeout: Duration) -> Option<P::Resp> {
        let op = OpId(self.next_op.fetch_add(1, Ordering::Relaxed));
        let (reply_tx, reply_rx) = bounded(1);
        self.cmd_tx
            .send(Cmd::Invoke {
                op,
                input,
                reply: reply_tx,
            })
            .ok()?;
        reply_rx.recv_timeout(timeout).ok()
    }

    /// Like [`invoke`](Self::invoke), also returning the operation's
    /// `[start, end]` interval in nanoseconds since the cluster epoch — the
    /// format `abd-lincheck` histories use.
    pub fn invoke_timed(&self, input: P::Op) -> (P::Resp, u64, u64) {
        let start = self.clock.now();
        let resp = self.invoke(input);
        let end = self.clock.now();
        (resp, start, end)
    }
}

/// The node thread: drives the node's host with messages, commands and due
/// timers, and holds each delayed message until it is due.
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
#[expect(
    clippy::disallowed_methods,
    clippy::disallowed_types,
    reason = "the vendored crossbeam stub's `select!` turns `default(timeout)` into an \
              `Instant::now()` deadline; ROADMAP direction 1(B)'s parked wait on a merged \
              mailbox replaces that wait and removes this"
)]
fn node_main<P: Protocol>(
    mut host: NodeHost<P>,
    net_rx: Receiver<Mail<P::Msg>>,
    cmd_rx: Receiver<Cmd<P>>,
    net_txs: Vec<Sender<Mail<P::Msg>>>,
    jitter: Jitter,
    clock: Arc<dyn Clock>,
) {
    // Every wait below ends at a deadline: a `select!` round, a held
    // message's due time or a timer's.
    request_exact_timers();
    let me = host.node().id();
    let mut waiting: HashMap<OpId, Sender<P::Resp>> = HashMap::new();
    // Delayed messages that have arrived, keyed by (due, arrival order).
    let mut held: BTreeMap<(Nanos, u64), (ProcessId, P::Msg)> = BTreeMap::new();
    let mut arrivals = 0u64;
    // The delay range this node draws from for what it sends to others,
    // with its own generator.
    let mut delay = match jitter {
        Jitter::None => None,
        Jitter::Uniform { lo, hi } => Some((lo, hi, SmallRng::from_entropy())),
    };

    host.start(clock.now());
    loop {
        // Serve what is due before looking at the channels: `select!` serves
        // a ready receive arm ahead of `default`, so while messages keep
        // arriving nothing due would be served from there. Messages go
        // first, so a reply due with its retransmission timer can cancel it.
        let now = clock.now();
        while let Some(entry) = held.first_entry().filter(|e| e.key().0 <= now) {
            let (from, m) = entry.remove();
            // One that comes due while the node is down is lost with it.
            host.deliver(now, from, m);
        }
        host.fire_due(now);

        // Route what the callbacks left: this pass's and the last arm's.
        let out = host.outbox();
        for (to, msg) in out.fx.sends.drain(..) {
            // A message to another node is stamped with the time its drawn
            // delay ends; self-sends, and everything undelayed, are due at once.
            let due = match &mut delay {
                Some((lo, hi, rng)) if to != me => {
                    let d = if lo == hi {
                        *lo
                    } else {
                        rng.gen_range(*lo..=*hi)
                    };
                    clock.now() + d
                }
                _ => 0,
            };
            let _ = net_txs[to.index()].send((me, due, msg));
        }
        for (op, resp) in out.fx.responses.drain(..) {
            if let Some(reply) = waiting.remove(&op) {
                let _ = reply.send(resp);
            }
        }
        out.armed.clear(); // the host fires them itself, by `fire_due`

        // Wait until the next message or timer is due, if any. Waits are
        // capped so the loop re-reads the clock often enough even when it
        // is a hand-advanced test clock.
        let cap = Duration::from_millis(50);
        let next_held = held.keys().next().map(|&(due, _)| due);
        let timeout = match host.next_due().into_iter().chain(next_held).min() {
            Some(d) => Duration::from_nanos(d.saturating_sub(clock.now())).min(cap),
            None => cap,
        };

        // Commands are arm 0: the stub's `select!` waits on that channel, so
        // an invocation, crash, restart or shutdown wakes the node at once,
        // while a peer's message waits for the next poll of arm 1. Arms are
        // polled in order, so a crash queued beside a peer's message takes
        // effect first, and the message reaches a down node and is lost
        // with it.
        crossbeam::channel::select! {
            recv(cmd_rx) -> cmd => match cmd {
                Ok(Cmd::Invoke { op, input, reply }) => {
                    // On a down node the invocation is lost and `reply`
                    // dropped: the client gets `None` at once.
                    if host.invoke(clock.now(), op, input) {
                        waiting.insert(op, reply);
                    }
                }
                Ok(Cmd::Crash) => {
                    host.crash();
                    // Dropping the reply senders wakes blocked clients with
                    // a disconnect (-> fast `None`), instead of leaving
                    // them to wait out their timeouts.
                    waiting.clear();
                }
                Ok(Cmd::Restart) => {
                    let now = clock.now();
                    if host.restart(now) {
                        // What came due while the node was down is lost.
                        held.retain(|&(due, _), _| due > now);
                    }
                }
                Ok(Cmd::Read(read)) => read(host.node()),
                Ok(Cmd::Shutdown) | Err(_) => return,
            },
            recv(net_rx) -> mail => match mail {
                Ok((from, 0, m)) => host.deliver(clock.now(), from, m),
                // Held even if already due: the top of the loop delivers in
                // (due, arrival) order, so a constant delay keeps each
                // link's messages in the order they were sent.
                Ok((from, due, m)) => {
                    held.insert((due, arrivals), (from, m));
                    arrivals += 1;
                }
                Err(_) => return,
            },
            // Woken for a due message or timer (or the cap): the top of the
            // loop serves it.
            default(timeout) => {}
        }
    }
}

/// One recorded operation: `(client, action, start, end)`.
pub type TimedEvent<A> = (usize, A, u64, u64);

/// A shared history recorder for multi-threaded linearizability tests on
/// the real runtime: threads append timed operations, the test extracts an
/// `abd-lincheck`-shaped record set.
#[derive(Clone, Debug, Default)]
pub struct HistoryRecorder<A> {
    events: Arc<Mutex<Vec<TimedEvent<A>>>>,
}

impl<A> HistoryRecorder<A> {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        HistoryRecorder {
            events: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// Records one completed action by `client` spanning `[start, end]`.
    pub fn record(&self, client: usize, action: A, start: u64, end: u64) {
        self.events.lock().push((client, action, start, end));
    }

    /// Takes all recorded events.
    pub fn take(&self) -> Vec<TimedEvent<A>> {
        std::mem::take(&mut self.events.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::timerslack_path;
    use abd_core::context::{Effects, TimerKey};
    use abd_core::msg::{RegisterOp, RegisterResp};
    use abd_core::mwmr::{MwmrConfig, MwmrNode};
    use abd_core::swmr::{SwmrConfig, SwmrNode};

    fn mwmr_cluster(n: usize) -> Cluster<MwmrNode<u64>> {
        Cluster::spawn(
            (0..n)
                .map(|i| MwmrNode::new(MwmrConfig::new(n, ProcessId(i)), 0u64))
                .collect(),
            Jitter::None,
        )
    }

    #[test]
    fn write_read_round_trip() {
        let cluster = mwmr_cluster(3);
        let c = cluster.client(0);
        assert_eq!(c.invoke(RegisterOp::Write(5)), RegisterResp::WriteOk);
        let r = cluster.client(1);
        assert_eq!(r.invoke(RegisterOp::Read), RegisterResp::ReadOk(5));
    }

    #[test]
    fn a_timeout_past_instant_range_waits_for_the_answer() {
        let cluster = mwmr_cluster(3);
        let c = cluster.client(0);
        assert_eq!(
            c.try_invoke_for(RegisterOp::Write(4), Duration::MAX),
            Some(RegisterResp::WriteOk)
        );
        assert_eq!(
            c.try_invoke_for(RegisterOp::Read, Duration::MAX),
            Some(RegisterResp::ReadOk(4))
        );
    }

    #[test]
    fn concurrent_clients_all_complete() {
        let cluster = Arc::new(mwmr_cluster(5));
        let mut joins = Vec::new();
        for i in 0..5 {
            let c = cluster.client(i);
            joins.push(std::thread::spawn(move || {
                for k in 0..50u64 {
                    let v = (i as u64) << 32 | k;
                    assert_eq!(c.invoke(RegisterOp::Write(v)), RegisterResp::WriteOk);
                    assert!(matches!(
                        c.invoke(RegisterOp::Read),
                        RegisterResp::ReadOk(_)
                    ));
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }

    #[test]
    fn survives_minority_crash() {
        let cluster = mwmr_cluster(5);
        cluster.crash(3);
        cluster.crash(4);
        let c = cluster.client(0);
        assert_eq!(c.invoke(RegisterOp::Write(1)), RegisterResp::WriteOk);
        assert_eq!(
            cluster.client(2).invoke(RegisterOp::Read),
            RegisterResp::ReadOk(1)
        );
    }

    #[test]
    fn blocks_under_majority_crash_until_timeout() {
        let cluster = mwmr_cluster(3);
        cluster.crash(1);
        cluster.crash(2);
        let c = cluster.client(0);
        let r = c.try_invoke_for(RegisterOp::Write(1), Duration::from_millis(200));
        assert_eq!(r, None, "no quorum: operation must time out");
    }

    #[test]
    fn crashed_node_ignores_invocations() {
        let cluster = mwmr_cluster(3);
        cluster.crash(0);
        let c = cluster.client(0);
        assert_eq!(
            c.try_invoke_for(RegisterOp::Read, Duration::from_millis(200)),
            None
        );
        // The rest of the cluster is still functional.
        assert_eq!(
            cluster.client(1).invoke(RegisterOp::Read),
            RegisterResp::ReadOk(0)
        );
    }

    #[test]
    fn crashed_node_fails_fast_not_after_timeout() {
        let cluster = mwmr_cluster(3);
        let c0 = cluster.client(0);
        assert_eq!(c0.invoke(RegisterOp::Write(7)), RegisterResp::WriteOk);
        cluster.crash(1);
        let clock = Arc::clone(cluster.clock());
        let t0 = clock.now();
        // A generous timeout that must NOT be consumed: the invocation
        // queues behind the crash, and the down node drops its reply
        // channel unanswered.
        let r = cluster
            .client(1)
            .try_invoke_for(RegisterOp::Read, Duration::from_secs(60));
        assert_eq!(r, None);
        assert!(
            clock.now() - t0 < 5_000_000_000,
            "fail-fast regression: crashed node consumed its timeout"
        );
    }

    #[test]
    fn crash_wakes_inflight_clients_quickly() {
        // Majority down: node 0's write can never finish. Crashing node 0
        // itself must then wake the blocked client immediately (dropped
        // reply channel), not strand it until the timeout.
        let cluster = mwmr_cluster(3);
        cluster.crash(1);
        cluster.crash(2);
        let c0 = cluster.client(0);
        let clock = Arc::clone(cluster.clock());
        let t0 = clock.now();
        let h = std::thread::spawn(move || {
            c0.try_invoke_for(RegisterOp::Write(9), Duration::from_secs(60))
        });
        std::thread::sleep(Duration::from_millis(50));
        cluster.crash(0);
        assert_eq!(h.join().unwrap(), None);
        assert!(
            clock.now() - t0 < 10_000_000_000,
            "in-flight invocation must abort with the crash"
        );
    }

    #[test]
    fn restart_rejoins_with_caught_up_state() {
        let cluster = mwmr_cluster(3);
        assert_eq!(
            cluster.client(0).invoke(RegisterOp::Write(5)),
            RegisterResp::WriteOk
        );
        cluster.crash(1);
        assert_eq!(
            cluster
                .client(1)
                .try_invoke_for(RegisterOp::Read, Duration::from_millis(100)),
            None
        );
        // More writes while node 1 is down.
        assert_eq!(
            cluster.client(0).invoke(RegisterOp::Write(6)),
            RegisterResp::WriteOk
        );
        cluster.restart(1);
        // The rejoined node serves at once: a read's quorum sees the write
        // it missed, whether or not its catch-up has finished.
        assert_eq!(
            cluster.client(1).invoke(RegisterOp::Read),
            RegisterResp::ReadOk(6)
        );
        // Restarting a live node is a no-op.
        cluster.restart(1);
        assert_eq!(
            cluster.client(1).invoke(RegisterOp::Read),
            RegisterResp::ReadOk(6)
        );
    }

    #[test]
    fn jitter_delays_but_delivers() {
        let cluster: Cluster<MwmrNode<u64>> = Cluster::spawn(
            (0..3)
                .map(|i| MwmrNode::new(MwmrConfig::new(3, ProcessId(i)), 0u64))
                .collect(),
            Jitter::Uniform {
                lo: 100_000,
                hi: 2_000_000,
            },
        );
        let c = cluster.client(0);
        let (resp, start, end) = c.invoke_timed(RegisterOp::Write(3));
        assert_eq!(resp, RegisterResp::WriteOk);
        assert!(end - start >= 200_000, "two message hops of >= 100µs each");
        assert_eq!(
            cluster.client(1).invoke(RegisterOp::Read),
            RegisterResp::ReadOk(3)
        );
    }

    #[test]
    fn swmr_on_runtime_rejects_non_writer() {
        let cluster: Cluster<SwmrNode<u64>> = Cluster::spawn(
            (0..3)
                .map(|i| SwmrNode::new(SwmrConfig::new(3, ProcessId(i), ProcessId(0)), 0u64))
                .collect(),
            Jitter::None,
        );
        let c1 = cluster.client(1);
        assert!(matches!(
            c1.invoke(RegisterOp::Write(9)),
            RegisterResp::Err(_)
        ));
        let c0 = cluster.client(0);
        assert_eq!(c0.invoke(RegisterOp::Write(9)), RegisterResp::WriteOk);
    }

    #[test]
    fn retransmission_timers_fire_on_runtime() {
        // Nodes with retransmission; no loss on channels, so this just
        // exercises the timer path end to end.
        let cluster: Cluster<MwmrNode<u64>> = Cluster::spawn(
            (0..3)
                .map(|i| {
                    MwmrNode::new(
                        MwmrConfig::new(3, ProcessId(i)).with_retransmit(1_000_000),
                        0u64,
                    )
                })
                .collect(),
            Jitter::Uniform {
                lo: 10_000,
                hi: 3_000_000,
            },
        );
        let c = cluster.client(2);
        for k in 0..10 {
            assert_eq!(c.invoke(RegisterOp::Write(k)), RegisterResp::WriteOk);
        }
    }

    /// A node that always has a message to itself in flight, on a clock
    /// that moves 100 µs per handled self-send, until its timer has fired
    /// and a message from node 1 has been handled.
    struct Flood {
        clock: Arc<crate::clock::ManualClock>,
        handled: u64,
        /// Self-sends handled when the timer fired and when node 1's
        /// message was handled (`u64::MAX` = not yet).
        timer_after: Arc<AtomicU64>,
        message_after: Arc<AtomicU64>,
    }

    const FLOOD_CAP: u64 = 10_000;

    impl Protocol for Flood {
        type Msg = ();
        type Op = ();
        type Resp = ();

        fn id(&self) -> ProcessId {
            ProcessId(0)
        }

        fn on_start(&mut self, fx: &mut Effects<(), ()>) {
            fx.send(ProcessId(0), ());
            fx.set_timer(TimerKey(1), 1_000_000);
        }

        fn on_invoke(&mut self, _: OpId, _: (), _: &mut Effects<(), ()>) {}

        fn on_message(&mut self, from: ProcessId, _: (), fx: &mut Effects<(), ()>) {
            if from != ProcessId(0) {
                self.message_after.store(self.handled, Ordering::SeqCst);
                return;
            }
            self.handled += 1;
            self.clock.advance(100_000);
            let pending = [&self.timer_after, &self.message_after]
                .iter()
                .any(|after| after.load(Ordering::SeqCst) == u64::MAX);
            if pending && self.handled < FLOOD_CAP {
                fx.send(ProcessId(0), ());
            }
        }

        fn on_timer(&mut self, _: TimerKey, _: &mut Effects<(), ()>) {
            self.timer_after.store(self.handled, Ordering::SeqCst);
        }
    }

    #[test]
    fn due_timer_and_held_message_are_served_while_the_mailbox_never_drains() {
        let clock = Arc::new(crate::clock::ManualClock::new());
        let timer_after = Arc::new(AtomicU64::new(u64::MAX));
        let message_after = Arc::new(AtomicU64::new(u64::MAX));
        let node = Flood {
            clock: Arc::clone(&clock),
            handled: 0,
            timer_after: Arc::clone(&timer_after),
            message_after: Arc::clone(&message_after),
        };
        let (net_tx, net_rx) = unbounded();
        let (cmd_tx, cmd_rx) = unbounded();
        // A message from node 1, due when the timer is.
        net_tx.send((ProcessId(1), 1_000_000, ())).unwrap();
        let thread = std::thread::spawn(move || {
            node_main(
                host(node),
                net_rx,
                cmd_rx,
                vec![net_tx],
                Jitter::None,
                clock,
            )
        });
        let afters = [("timer", timer_after), ("held message", message_after)];
        wait_for("the flood to stop", || {
            afters
                .iter()
                .all(|(_, after)| after.load(Ordering::SeqCst) != u64::MAX)
        });
        cmd_tx.send(Cmd::Shutdown).unwrap();
        thread.join().unwrap();
        // Both are due after 10 messages of 100 µs each; the loop must
        // notice on its next iteration, not when the mailbox is empty.
        for (what, after) in afters {
            let after = after.load(Ordering::SeqCst);
            assert!(
                after <= 11,
                "1 ms {what} served after {after} handled messages"
            );
        }
    }

    /// A node that logs every message it handles. Invoked with `(to, k)`,
    /// it sends `0..k` to `to` and answers with the time until the next
    /// message it handles (at once when `k = 0`); with `echo`, it returns
    /// every message to its sender.
    struct Probe {
        me: ProcessId,
        echo: bool,
        clock: MonotonicClock,
        log: Arc<Mutex<Vec<u32>>>,
        waiting: Option<(OpId, Nanos)>,
    }

    impl Probe {
        fn new(me: usize, echo: bool) -> Self {
            Probe {
                me: ProcessId(me),
                echo,
                clock: MonotonicClock::new(),
                log: Arc::default(),
                waiting: None,
            }
        }
    }

    impl Protocol for Probe {
        type Msg = u32;
        type Op = (ProcessId, u32);
        type Resp = Nanos;

        fn id(&self) -> ProcessId {
            self.me
        }

        fn on_invoke(&mut self, op: OpId, (to, k): (ProcessId, u32), fx: &mut Effects<u32, Nanos>) {
            (0..k).for_each(|m| fx.send(to, m));
            if k == 0 {
                fx.respond(op, 0);
            } else {
                self.waiting = Some((op, self.clock.now()));
            }
        }

        fn on_message(&mut self, from: ProcessId, m: u32, fx: &mut Effects<u32, Nanos>) {
            self.log.lock().push(m);
            if let Some((op, at)) = self.waiting.take() {
                fx.respond(op, self.clock.now() - at);
            }
            if self.echo {
                fx.send(from, m);
            }
        }

        fn on_timer(&mut self, _: TimerKey, _: &mut Effects<u32, Nanos>) {}
    }

    /// Waits up to five seconds of real time for `done`.
    fn wait_for(what: &str, done: impl Fn() -> bool) {
        let wall = MonotonicClock::new();
        while !done() {
            assert!(wall.now() < 5_000_000_000, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn held_message_waits_for_its_due_time() {
        let clock = Arc::new(crate::clock::ManualClock::new());
        clock.advance(2_000_000);
        let node = Probe::new(0, false);
        let log = Arc::clone(&node.log);
        let (net_tx, net_rx) = unbounded();
        // The later one first: it is held by the time the other is handled.
        net_tx.send((ProcessId(1), 2_000_001, 2)).unwrap();
        net_tx.send((ProcessId(1), 1_000_000, 1)).unwrap();
        let (client, handle) = start(node, net_tx, net_rx, clock);
        wait_for("message 1", || !log.lock().is_empty());
        client.cmd_tx.send(Cmd::Shutdown).unwrap();
        handle.join().unwrap();
        assert_eq!(*log.lock(), [1], "handled only what the clock has reached");
    }

    #[test]
    fn a_crash_queued_beside_a_peer_message_is_served_first() {
        let node = Probe::new(0, false);
        let log = Arc::clone(&node.log);
        let (net_tx, net_rx) = unbounded();
        let (cmd_tx, cmd_rx) = unbounded();
        // What a node thread that starts late can find: a peer's message and
        // its own crash, queued together.
        net_tx.send((ProcessId(1), 0, 7)).unwrap();
        cmd_tx.send(Cmd::Crash).unwrap();
        cmd_tx.send(Cmd::Shutdown).unwrap();
        let clock = Arc::new(MonotonicClock::new());
        node_main(
            host(node),
            net_rx,
            cmd_rx,
            vec![net_tx],
            Jitter::None,
            clock,
        );
        assert!(log.lock().is_empty(), "the crashed node handled a message");
    }

    #[test]
    fn one_links_messages_keep_send_order_under_constant_delay() {
        let (n0, n1) = (Probe::new(0, false), Probe::new(1, true));
        let (log0, log1) = (Arc::clone(&n0.log), Arc::clone(&n1.log));
        let delay = Jitter::Uniform {
            lo: 500_000,
            hi: 500_000,
        };
        let cluster = Cluster::spawn(vec![n0, n1], delay);
        cluster.client(0).invoke((ProcessId(1), 50));
        wait_for("50 echoes", || log0.lock().len() == 50);
        let sent: Vec<u32> = (0..50).collect();
        assert_eq!(*log1.lock(), sent, "node 0 -> node 1");
        assert_eq!(*log0.lock(), sent, "node 1 -> node 0");
    }

    #[test]
    fn delayed_echo_is_never_early() {
        const DELAY: Nanos = 1_000_000;
        let cluster = Cluster::spawn(
            vec![Probe::new(0, false), Probe::new(1, true)],
            Jitter::Uniform {
                lo: DELAY,
                hi: DELAY,
            },
        );
        for _ in 0..20 {
            let rtt = cluster.client(0).invoke((ProcessId(1), 1));
            assert!(rtt >= 2 * DELAY, "two 1 ms hops took {rtt} ns");
        }
    }

    /// `node`'s host, as node 0 of a cluster of one.
    fn host<P: Protocol>(node: P) -> NodeHost<P> {
        NodeHost::cluster(vec![node]).remove(0)
    }

    /// Runs `node` as node 0 on its own `node_main` thread over `clock`,
    /// with a client bound to it.
    fn start(
        node: Probe,
        net_tx: Sender<Mail<u32>>,
        net_rx: Receiver<Mail<u32>>,
        clock: Arc<dyn Clock>,
    ) -> (Client<Probe>, JoinHandle<()>) {
        let (cmd_tx, cmd_rx) = unbounded();
        let handle = std::thread::spawn(move || {
            node_main(
                host(node),
                net_rx,
                cmd_rx,
                vec![net_tx],
                Jitter::None,
                clock,
            )
        });
        let client = Client {
            node: ProcessId(0),
            cmd_tx,
            next_op: Arc::new(AtomicU64::new(0)),
            clock: Arc::new(MonotonicClock::new()),
        };
        (client, handle)
    }

    #[test]
    fn held_message_due_while_crashed_is_dropped() {
        let clock = Arc::new(crate::clock::ManualClock::new());
        let node = Probe::new(0, false);
        let log = Arc::clone(&node.log);
        let (net_tx, net_rx) = unbounded();
        let (client, handle) = start(node, net_tx.clone(), net_rx, Arc::clone(&clock) as _);
        let ping = || client.try_invoke_for((ProcessId(0), 0), Duration::from_secs(5));
        for (due, m) in [(1_000_000, 1), (50_000_000, 2), (100_000_000, 3)] {
            net_tx.send((ProcessId(1), due, m)).unwrap();
        }
        client.cmd_tx.send(Cmd::Crash).unwrap();
        assert_eq!(ping(), None, "turned away once the crash is processed");
        // Message 1 comes due while the node is down and still looping.
        clock.advance(2_000_000);
        assert_eq!(ping(), None);
        // Message 2 comes due while the node is down too, but the restart
        // reaches the node before it wakes: the sleep lets it settle into
        // waiting out the 48 ms to message 2's due time.
        std::thread::sleep(Duration::from_millis(10));
        clock.advance(58_000_000);
        client.cmd_tx.send(Cmd::Restart).unwrap();
        assert_eq!(ping(), Some(0), "answered once the restart is processed");
        // Message 3 comes due after the restart.
        clock.advance(50_000_000);
        wait_for("message 3", || !log.lock().is_empty());
        assert_eq!(*log.lock(), [3]);
        client.cmd_tx.send(Cmd::Shutdown).unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn invoke_on_a_crashed_node_returns_none_at_once() {
        let (net_tx, net_rx) = unbounded();
        let clock = Arc::new(MonotonicClock::new());
        let (client, handle) = start(Probe::new(0, false), net_tx, net_rx, clock);
        client.cmd_tx.send(Cmd::Crash).unwrap();
        let wall = MonotonicClock::new();
        let r = client.try_invoke_for((ProcessId(0), 0), Duration::from_secs(60));
        assert_eq!(r, None);
        assert!(
            wall.now() < 5_000_000_000,
            "the invocation waited for its timeout"
        );
        client.cmd_tx.send(Cmd::Shutdown).unwrap();
        handle.join().unwrap();
    }

    /// A node that records, as it starts, its own thread's timer slack as
    /// `/proc` reports it (`None`: unreadable).
    struct SlackProbe {
        me: ProcessId,
        slack: Arc<Mutex<Vec<Option<String>>>>,
    }

    impl Protocol for SlackProbe {
        type Msg = ();
        type Op = ();
        type Resp = ();

        fn id(&self) -> ProcessId {
            self.me
        }

        fn on_start(&mut self, _: &mut Effects<(), ()>) {
            let slack = timerslack_path().and_then(|path| std::fs::read_to_string(path).ok());
            self.slack.lock().push(slack);
        }

        fn on_invoke(&mut self, _: OpId, _: (), _: &mut Effects<(), ()>) {}

        fn on_message(&mut self, _: ProcessId, _: (), _: &mut Effects<(), ()>) {}

        fn on_timer(&mut self, _: TimerKey, _: &mut Effects<(), ()>) {}
    }

    #[test]
    fn every_node_thread_runs_with_exact_timers() {
        if !timerslack_path().is_some_and(|path| std::path::Path::new(&path).exists()) {
            return; // no per-thread timer slack to check off Linux
        }
        let slack = Arc::new(Mutex::new(Vec::new()));
        let nodes = (0..3)
            .map(|i| SlackProbe {
                me: ProcessId(i),
                slack: Arc::clone(&slack),
            })
            .collect();
        let _cluster = Cluster::spawn(nodes, Jitter::None);
        wait_for("every node to start", || slack.lock().len() == 3);
        for s in slack.lock().iter() {
            assert_eq!(
                s.as_deref(),
                Some("1\n"),
                "a node thread's timer slack (ns)"
            );
        }
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn spawn_rejects_an_empty_delay_range() {
        Cluster::spawn(vec![Probe::new(0, false)], Jitter::Uniform { lo: 2, hi: 1 });
    }

    #[test]
    #[should_panic(expected = "node 1 has wrong id")]
    fn spawn_rejects_a_node_whose_id_is_not_its_index() {
        Cluster::spawn(
            vec![Probe::new(0, false), Probe::new(2, false)],
            Jitter::None,
        );
    }

    #[test]
    fn history_recorder_collects_across_threads() {
        let rec: HistoryRecorder<&'static str> = HistoryRecorder::new();
        let mut joins = Vec::new();
        for i in 0..4 {
            let r = rec.clone();
            joins.push(std::thread::spawn(move || {
                r.record(i, "op", i as u64, i as u64 + 1);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(rec.take().len(), 4);
        assert_eq!(rec.take().len(), 0);
    }
}
