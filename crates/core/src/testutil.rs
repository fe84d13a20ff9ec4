//! A minimal deterministic executor for unit-testing protocol state
//! machines inside this crate.
//!
//! `MiniNet` delivers messages in FIFO order, supports crash flags, a
//! pluggable message-drop filter and manual timer firing. It deliberately
//! has no notion of time or randomness — the full adversarial simulator
//! lives in the `abd-simnet` crate; this one exists so `abd-core`'s tests
//! need no dependencies.

use crate::context::{Effects, Protocol, ReadPathCounters, ReadPathStats, TimerCmd, TimerKey};
use crate::msg::{RegisterOp, RegisterResp};
use crate::quorum::{QuorumSystem, Threshold};
use crate::types::{Consistency, OpId, ProcessId};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

type DropFilter<M> = Box<dyn FnMut(ProcessId, ProcessId, &M) -> bool>;

/// Deterministic FIFO test network over a vector of protocol nodes.
pub(crate) struct MiniNet<P: Protocol> {
    nodes: Vec<P>,
    alive: Vec<bool>,
    queue: VecDeque<(ProcessId, ProcessId, P::Msg)>,
    responses: Vec<(OpId, P::Resp)>,
    armed: Vec<BTreeSet<TimerKey>>,
    drop_filter: Option<DropFilter<P::Msg>>,
    next_op: u64,
    sent: u64,
    dropped: u64,
}

impl<P: Protocol> MiniNet<P> {
    /// Creates a network over `nodes` (node `i` must have id `i`) and runs
    /// every node's `on_start`.
    pub fn new(nodes: Vec<P>) -> Self {
        let n = nodes.len();
        let mut net = MiniNet {
            nodes,
            alive: vec![true; n],
            queue: VecDeque::new(),
            responses: Vec::new(),
            armed: vec![BTreeSet::new(); n],
            drop_filter: None,
            next_op: 0,
            sent: 0,
            dropped: 0,
        };
        for i in 0..n {
            debug_assert_eq!(net.nodes[i].id(), ProcessId(i));
            let mut fx = Effects::new();
            net.nodes[i].on_start(&mut fx);
            net.absorb(ProcessId(i), fx);
        }
        net
    }

    /// Immutable access to node `i`.
    pub fn node(&self, i: usize) -> &P {
        &self.nodes[i]
    }

    /// Marks node `i` as crashed: it stops receiving messages, timers and
    /// invocations.
    pub fn crash(&mut self, i: usize) {
        self.alive[i] = false;
    }

    /// Reboots a crashed node: discards its armed timers and runs
    /// `on_restart`, absorbing any catch-up traffic it emits.
    #[allow(dead_code)]
    pub fn restart(&mut self, i: usize) {
        if self.alive[i] {
            return;
        }
        self.alive[i] = true;
        self.armed[i].clear();
        let mut fx = Effects::new();
        self.nodes[i].on_restart(&mut fx);
        self.absorb(ProcessId(i), fx);
    }

    /// Installs a filter that drops a message when it returns `true`.
    pub fn set_drop_filter<F>(&mut self, f: F)
    where
        F: FnMut(ProcessId, ProcessId, &P::Msg) -> bool + 'static,
    {
        self.drop_filter = Some(Box::new(f));
    }

    /// Removes the drop filter.
    pub fn clear_drop_filter(&mut self) {
        self.drop_filter = None;
    }

    /// Invokes `op` on node `i`, assigning the next sequential [`OpId`],
    /// and immediately processes the invocation's direct effects (but does
    /// not deliver messages — call [`run_to_quiescence`](Self::run_to_quiescence)).
    pub fn invoke(&mut self, i: usize, op: P::Op) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += 1;
        if !self.alive[i] {
            return id;
        }
        let mut fx = Effects::new();
        self.nodes[i].on_invoke(id, op, &mut fx);
        self.absorb(ProcessId(i), fx);
        id
    }

    /// Delivers queued messages in FIFO order until the network is quiet.
    pub fn run_to_quiescence(&mut self) {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            if !self.alive[to.index()] {
                self.dropped += 1;
                continue;
            }
            if let Some(f) = self.drop_filter.as_mut() {
                if f(from, to, &msg) {
                    self.dropped += 1;
                    continue;
                }
            }
            let mut fx = Effects::new();
            self.nodes[to.index()].on_message(from, msg, &mut fx);
            self.absorb(to, fx);
        }
    }

    /// Fires every armed timer of node `i` exactly once (in key order).
    pub fn fire_timers(&mut self, i: usize) {
        if !self.alive[i] {
            return;
        }
        let keys: Vec<TimerKey> = self.armed[i].iter().copied().collect();
        for key in keys {
            // Firing consumes the arming; protocols re-arm if they want more.
            self.armed[i].remove(&key);
            let mut fx = Effects::new();
            self.nodes[i].on_timer(key, &mut fx);
            self.absorb(ProcessId(i), fx);
        }
    }

    /// Takes the responses accumulated so far, in completion order.
    pub fn take_responses(&mut self) -> Vec<(OpId, P::Resp)> {
        std::mem::take(&mut self.responses)
    }

    /// Total messages handed to the network so far (including later-dropped
    /// ones).
    pub fn messages_sent(&self) -> u64 {
        self.sent
    }

    /// Messages dropped by crash flags or the drop filter.
    #[allow(dead_code)]
    pub fn messages_dropped(&self) -> u64 {
        self.dropped
    }

    fn absorb(&mut self, from: ProcessId, fx: Effects<P::Msg, P::Resp>) {
        for (to, m) in fx.sends {
            self.sent += 1;
            self.queue.push_back((from, to, m));
        }
        for t in fx.timers {
            match t {
                TimerCmd::Set { key, .. } => {
                    self.armed[from.index()].insert(key);
                }
                TimerCmd::Cancel { key } => {
                    self.armed[from.index()].remove(&key);
                }
            }
        }
        self.responses.extend(fx.responses);
    }
}

/// `Read, Write(7), Read` invoked back to back on node 0 of an
/// `R = 3, W = 1` cluster built by `node(i, quorum)`: the write's quorum is
/// instant (the writer alone), and completing it must still hand the node
/// to the queued read. The hand-written single-writer node answered that
/// write without popping the queue, stranding the read forever; every
/// instantiation of the register shell runs this.
pub(crate) fn instant_write_quorum_keeps_draining<P>(
    node: impl Fn(usize, Arc<dyn QuorumSystem>) -> P,
) -> MiniNet<P>
where
    P: Protocol<Op = RegisterOp<u32>, Resp = RegisterResp<u32>>,
{
    let nodes = (0..3)
        .map(|i| node(i, Arc::new(Threshold::new(3, 3, 1))))
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
    net
}

/// Node 2 of five built by `node(i)` — with retransmission on — sleeps
/// through `Write(7)` and reboots into a network that loses its catch-up's
/// whole first broadcast. The catch-up is a read of the engine's, so the
/// engine's timer path resends its query to whoever has not answered — and
/// only to them — until a read quorum has; the node then holds the write
/// it missed and serves again, and the read it ran on itself answered
/// nobody and is no client's read to the read-path counters. Every
/// instantiation of the register shell runs this.
pub(crate) fn lost_catch_up_is_retransmitted_to_the_missing_only<P>(
    node: impl Fn(usize) -> P,
) -> MiniNet<P>
where
    P: Protocol<Op = RegisterOp<u32>, Resp = RegisterResp<u32>> + ReadPathStats,
{
    let mut net = MiniNet::new((0..5).map(node).collect());
    net.crash(2);
    net.invoke(0, RegisterOp::Write(7));
    net.run_to_quiescence();
    assert_eq!(net.take_responses(), vec![(OpId(0), RegisterResp::WriteOk)]);
    // What `act` makes node 2 send, before the network gets to it.
    fn sends<P: Protocol>(net: &mut MiniNet<P>, act: impl FnOnce(&mut MiniNet<P>)) -> u64 {
        let before = net.messages_sent();
        act(net);
        let sent = net.messages_sent() - before;
        net.run_to_quiescence();
        sent
    }
    net.set_drop_filter(|_, _, _| true);
    let lost = sends(&mut net, |net| net.restart(2));
    assert_eq!(lost, 4, "one query per peer, none delivered");
    // Resent to all four; only node 0 hears it and is heard.
    net.set_drop_filter(|from, to, _| from != ProcessId(0) && to != ProcessId(0));
    assert_eq!(sends(&mut net, |net| net.fire_timers(2)), 4);
    net.clear_drop_filter();
    let resent = sends(&mut net, |net| net.fire_timers(2));
    assert_eq!(resent, 3, "node 0 has answered");
    let idle = sends(&mut net, |net| net.fire_timers(2));
    assert_eq!(idle, 0, "caught up: no timer is armed");
    let answers = net.take_responses();
    assert!(answers.is_empty(), "the catch-up answers nobody");
    let reads = net.node(2).counters();
    assert_eq!(reads, ReadPathCounters::default(), "nor is it counted");
    net.invoke(2, RegisterOp::ReadAt(Consistency::Sequential));
    assert_eq!(
        net.take_responses(),
        vec![(OpId(1), RegisterResp::ReadOk(7))]
    );
    net
}
