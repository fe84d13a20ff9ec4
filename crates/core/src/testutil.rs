//! A minimal deterministic executor for unit-testing protocol state
//! machines inside this crate.
//!
//! `MiniNet` drives one [`NodeHost`] per node: it delivers messages in FIFO
//! order, supports crashes, a pluggable message-drop filter and manual
//! timer firing. It deliberately has no notion of time or randomness — the
//! full adversarial simulator lives in the `abd-simnet` crate; this one
//! exists so `abd-core`'s tests need no dependencies.

use crate::context::{Protocol, ReadPathCounters, ReadPathStats};
use crate::engine::Msg;
use crate::host::NodeHost;
use crate::msg::{RegisterMsg, RegisterOp, RegisterResp};
use crate::quorum::{QuorumSystem, Threshold};
use crate::types::{Consistency, Nanos, OpId, ProcessId};
use std::collections::VecDeque;
use std::sync::Arc;

type DropFilter<M> = Box<dyn FnMut(ProcessId, ProcessId, &M) -> bool>;

/// Deterministic FIFO test network over a vector of protocol nodes.
pub(crate) struct MiniNet<P: Protocol> {
    hosts: Vec<NodeHost<P>>,
    queue: VecDeque<(ProcessId, ProcessId, P::Msg)>,
    responses: Vec<(OpId, P::Resp)>,
    drop_filter: Option<DropFilter<P::Msg>>,
    next_op: u64,
    sent: u64,
}

impl<P: Protocol> MiniNet<P> {
    /// Creates a network over `nodes` (node `i` must have id `i`) and runs
    /// every node's `on_start`.
    pub(crate) fn new(nodes: Vec<P>) -> Self {
        let mut net = MiniNet {
            hosts: NodeHost::cluster(nodes),
            queue: VecDeque::new(),
            responses: Vec::new(),
            drop_filter: None,
            next_op: 0,
            sent: 0,
        };
        for i in 0..net.hosts.len() {
            net.hosts[i].start(0);
            net.absorb(i);
        }
        net
    }

    /// Immutable access to node `i`.
    pub(crate) fn node(&self, i: usize) -> &P {
        self.hosts[i].node()
    }

    /// Crashes node `i`: it stops receiving messages, timers and
    /// invocations.
    pub(crate) fn crash(&mut self, i: usize) {
        self.hosts[i].crash();
    }

    /// Reboots a crashed node: its armed timers stay dead and `on_restart`
    /// runs, its catch-up traffic queued.
    pub(crate) fn restart(&mut self, i: usize) {
        self.hosts[i].restart(0);
        self.absorb(i);
    }

    /// Installs a filter that drops a message when it returns `true`.
    pub(crate) fn set_drop_filter<F>(&mut self, f: F)
    where
        F: FnMut(ProcessId, ProcessId, &P::Msg) -> bool + 'static,
    {
        self.drop_filter = Some(Box::new(f));
    }

    /// Removes the drop filter.
    pub(crate) fn clear_drop_filter(&mut self) {
        self.drop_filter = None;
    }

    /// Invokes `op` on node `i`, assigning the next sequential [`OpId`],
    /// and immediately processes the invocation's direct effects (but does
    /// not deliver messages — call [`run_to_quiescence`](Self::run_to_quiescence)).
    pub(crate) fn invoke(&mut self, i: usize, op: P::Op) -> OpId {
        let id = OpId(self.next_op);
        self.next_op += 1;
        self.hosts[i].invoke(0, id, op);
        self.absorb(i);
        id
    }

    /// Delivers queued messages in FIFO order until the network is quiet.
    pub(crate) fn run_to_quiescence(&mut self) {
        while let Some((from, to, msg)) = self.queue.pop_front() {
            if !self.hosts[to.index()].is_up() {
                continue;
            }
            if let Some(f) = self.drop_filter.as_mut() {
                if f(from, to, &msg) {
                    continue;
                }
            }
            self.hosts[to.index()].deliver(0, from, msg);
            self.absorb(to.index());
        }
    }

    /// Fires every timer node `i` has armed, once each (in key order): with
    /// no clock, each is due at the end of time. One a firing re-arms waits
    /// for the next call.
    pub(crate) fn fire_timers(&mut self, i: usize) {
        self.hosts[i].fire_due(Nanos::MAX);
        self.absorb(i);
    }

    /// Takes the responses accumulated so far, in completion order.
    pub(crate) fn take_responses(&mut self) -> Vec<(OpId, P::Resp)> {
        std::mem::take(&mut self.responses)
    }

    /// Total messages handed to the network so far (including later-dropped
    /// ones).
    pub(crate) fn messages_sent(&self) -> u64 {
        self.sent
    }

    /// Queues node `i`'s sends and collects its responses; its timers stay
    /// with its host.
    fn absorb(&mut self, i: usize) {
        let out = self.hosts[i].outbox();
        for (to, m) in out.fx.sends.drain(..) {
            self.sent += 1;
            self.queue.push_back((ProcessId(i), to, m));
        }
        self.responses.append(&mut out.fx.responses);
        out.armed.clear();
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
/// nobody and is no client's read to the node's counters, which hold the
/// seven queries it re-sent and nothing else. Every instantiation of the
/// register shell runs this.
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
    let counted = ReadPathCounters {
        retransmissions: 7,
        ..Default::default()
    };
    assert_eq!(net.node(2).counters(), counted, "nor is it a read");
    net.invoke(2, RegisterOp::ReadAt(Consistency::Sequential));
    assert_eq!(
        net.take_responses(),
        vec![(OpId(1), RegisterResp::ReadOk(7))]
    );
    net
}

/// Node 2 of five built by `node(i)` sleeps through `Write(7)` and reboots
/// into a network that loses its catch-up's whole broadcast; with no
/// retransmission the catch-up stays open. A read invoked at the restart
/// instant, at each tier, is answered all the same — while `recovering`
/// still holds of the node: a sequential read with the replica as it stood
/// at the crash, the quorum tiers with the write it missed. Every
/// instantiation of the register shell runs this, in each read mode it has.
pub(crate) fn read_at_the_restart_instant_is_answered_before_the_catch_up<P>(
    node: impl Fn(usize) -> P,
    recovering: impl Fn(&P) -> bool,
) where
    P: Protocol<Op = RegisterOp<u32>, Resp = RegisterResp<u32>>,
{
    for (read, want) in [
        (RegisterOp::Read, 7),
        (RegisterOp::ReadAt(Consistency::Regular), 7),
        (RegisterOp::ReadAt(Consistency::Sequential), 0),
    ] {
        let mut net = MiniNet::new((0..5).map(&node).collect());
        net.crash(2);
        net.invoke(0, RegisterOp::Write(7));
        net.run_to_quiescence();
        assert_eq!(net.take_responses(), vec![(OpId(0), RegisterResp::WriteOk)]);
        net.set_drop_filter(|_, _, _| true);
        net.restart(2);
        net.run_to_quiescence();
        net.clear_drop_filter();
        let op = net.invoke(2, read.clone());
        net.run_to_quiescence();
        let answer = vec![(op, RegisterResp::ReadOk(want))];
        assert_eq!(net.take_responses(), answer, "{read:?}");
        assert!(recovering(net.node(2)), "{read:?}: the catch-up is open");
    }
}

/// The writer, node 0 of five built by `node(i)`, crashes in the update
/// round of `Write(7)` — every update lost — with a read queued behind it,
/// and reboots. The write rolls forward at once, as the operation in
/// flight: its `WriteOk` comes before the answer to a `Write(8)` invoked at
/// the restart instant, the queued read died with the crash, and a read
/// elsewhere returns 8. Every instantiation of the register shell runs this.
pub(crate) fn interrupted_write_is_answered_before_a_later_one<L, P>(node: impl Fn(usize) -> P)
where
    P: Protocol<Msg = RegisterMsg<L, u32>, Op = RegisterOp<u32>, Resp = RegisterResp<u32>>,
{
    let mut net = MiniNet::new((0..5).map(node).collect());
    net.set_drop_filter(|_, _, m| matches!(m, Msg::Update { .. }));
    let write = net.invoke(0, RegisterOp::Write(7));
    net.invoke(0, RegisterOp::Read);
    net.run_to_quiescence();
    assert!(net.take_responses().is_empty(), "the write is stranded");
    net.crash(0);
    net.clear_drop_filter();
    net.restart(0);
    let later = net.invoke(0, RegisterOp::Write(8));
    net.run_to_quiescence();
    assert_eq!(
        net.take_responses(),
        vec![
            (write, RegisterResp::WriteOk),
            (later, RegisterResp::WriteOk)
        ]
    );
    let read = net.invoke(3, RegisterOp::Read);
    net.run_to_quiescence();
    assert_eq!(net.take_responses(), vec![(read, RegisterResp::ReadOk(8))]);
}
