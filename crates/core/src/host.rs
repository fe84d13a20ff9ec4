//! What a node is around its [`Protocol`], once for every driver (`Sim`,
//! `node_main`, the test network). The driver owns the clock (every method
//! takes `now`), the links and the clients: it carries out the [`Outbox`].

use crate::context::{Effects, Protocol, TimerCmd, TimerKey};
use crate::types::{Nanos, OpId, ProcessId};
use std::collections::BTreeMap;

/// One arming of a timer: what a `TimerCmd::Set` became.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Armed {
    /// The protocol's name for the timer.
    pub key: TimerKey,
    /// The host's count of `Set`s so far; a later `Set` of `key` supersedes.
    pub gen: u64,
    /// The callback's `now` plus the delay the `Set` asked for.
    pub due: Nanos,
}

/// What the node's callbacks left for the driver to drain, in their order.
#[derive(Debug)]
pub struct Outbox<M, R> {
    /// The buffer every callback fills; the host applies and empties its `timers`.
    pub fx: Effects<M, R>,
    /// Every arming, in callback order, those the same callback made stale
    /// included: a driver that queues one timer event each keeps its order.
    pub armed: Vec<Armed>,
}

impl<M, R> Default for Outbox<M, R> {
    fn default() -> Self {
        Outbox {
            fx: Effects::new(),
            armed: Vec::new(),
        }
    }
}

/// A protocol node as every driver runs it.
#[derive(Debug)]
pub struct NodeHost<P: Protocol> {
    node: P,
    up: bool,
    /// The live arming of each armed key; empty while the node is down.
    timers: BTreeMap<TimerKey, Armed>,
    /// `Set`s applied over the node's whole life, crashes included.
    sets: u64,
    out: Outbox<P::Msg, P::Resp>,
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
impl<P: Protocol> NodeHost<P> {
    /// One host per node, node `i` at index `i`: the way every driver
    /// builds its cluster. Panics if a node's id is not its index (its
    /// self-sends would reach another node).
    pub fn cluster(nodes: Vec<P>) -> Vec<Self> {
        nodes
            .into_iter()
            .enumerate()
            .map(|(i, node)| {
                assert_eq!(node.id(), ProcessId(i), "node {i} has wrong id");
                NodeHost {
                    node,
                    up: true,
                    timers: BTreeMap::new(),
                    sets: 0,
                    out: Outbox::default(),
                }
            })
            .collect()
    }

    /// The protocol state.
    pub fn node(&self) -> &P {
        &self.node
    }

    /// Whether the node is up (not crashed).
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// What the callbacks since the last drain left for the driver.
    pub fn outbox(&mut self) -> &mut Outbox<P::Msg, P::Resp> {
        &mut self.out
    }

    /// Whether `gen` is timer `key`'s live arming: not cancelled, re-set or fired.
    pub fn is_armed(&self, key: TimerKey, gen: u64) -> bool {
        self.timers.get(&key).is_some_and(|t| t.gen == gen)
    }

    /// When the earliest armed timer is due, if any is armed.
    pub fn next_due(&self) -> Option<Nanos> {
        self.timers.values().map(|t| t.due).min()
    }

    /// Boots the node: `on_start`, before any other callback.
    pub fn start(&mut self, now: Nanos) {
        self.call(now, |node, fx| node.on_start(fx));
    }

    /// Delivers `msg` from `from`. A message to a down node is lost.
    pub fn deliver(&mut self, now: Nanos, from: ProcessId, msg: P::Msg) {
        self.call(now, |node, fx| node.on_message(from, msg, fx));
    }

    /// Invokes client operation `op`; returns false, losing it, on a down node.
    pub fn invoke(&mut self, now: Nanos, op: OpId, input: P::Op) -> bool {
        self.call(now, |node, fx| node.on_invoke(op, input, fx))
    }

    /// Fires timer `key` if `gen` is its live arming; returns whether it did.
    pub fn fire(&mut self, now: Nanos, key: TimerKey, gen: u64) -> bool {
        if !self.is_armed(key, gen) {
            return false;
        }
        // Firing consumes the arming; a protocol re-arms if it wants more.
        self.timers.remove(&key);
        self.call(now, |node, fx| node.on_timer(key, fx))
    }

    /// Fires, in key order, every timer armed before the call and due at
    /// `now`: one the pass itself arms waits for the next call.
    pub fn fire_due(&mut self, now: Nanos) {
        let armed_before = self.sets;
        let due = |t: &&Armed| t.due <= now && t.gen <= armed_before;
        while let Some(&t) = self.timers.values().find(due) {
            self.fire(now, t.key, t.gen);
        }
    }

    /// Crashes the node: its armed timers die, and it takes no step.
    pub fn crash(&mut self) {
        self.up = false;
        self.timers.clear();
    }

    /// Reboots a down node with no timer armed; false, a no-op, for a live one.
    pub fn restart(&mut self, now: Nanos) -> bool {
        if self.up {
            return false;
        }
        self.up = true;
        self.call(now, |node, fx| node.on_restart(fx))
    }

    /// Runs one callback on the outbox's buffer and applies its timer
    /// commands in order; returns whether it ran (a down node takes no step).
    fn call(&mut self, now: Nanos, f: impl FnOnce(&mut P, &mut Effects<P::Msg, P::Resp>)) -> bool {
        if !self.up {
            return false;
        }
        f(&mut self.node, &mut self.out.fx);
        for cmd in self.out.fx.timers.drain(..) {
            match cmd {
                TimerCmd::Set { key, after } => {
                    self.sets += 1;
                    let armed = Armed {
                        key,
                        gen: self.sets,
                        due: now.saturating_add(after),
                    };
                    self.timers.insert(key, armed);
                    self.out.armed.push(armed);
                }
                TimerCmd::Cancel { key } => {
                    self.timers.remove(&key);
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a [`Probe`] saw, in order.
    #[derive(Debug, PartialEq)]
    enum Seen {
        Start,
        Invoke(OpId),
        Message(ProcessId, u32),
        Timer(TimerKey),
        Restart,
    }

    /// Logs every callback. An invocation records the timer commands it
    /// carries and answers at once; a message is echoed to its sender; a
    /// timer fires `rearm` re-arms itself with no delay.
    #[derive(Debug, Default)]
    struct Probe {
        seen: Vec<Seen>,
        rearm: bool,
    }

    impl Protocol for Probe {
        type Msg = u32;
        type Op = Vec<TimerCmd>;
        type Resp = ();

        fn id(&self) -> ProcessId {
            ProcessId(0)
        }

        fn on_start(&mut self, _: &mut Effects<u32, ()>) {
            self.seen.push(Seen::Start);
        }

        fn on_invoke(&mut self, op: OpId, cmds: Vec<TimerCmd>, fx: &mut Effects<u32, ()>) {
            self.seen.push(Seen::Invoke(op));
            fx.timers.extend(cmds);
            fx.respond(op, ());
        }

        fn on_message(&mut self, from: ProcessId, m: u32, fx: &mut Effects<u32, ()>) {
            self.seen.push(Seen::Message(from, m));
            fx.send(from, m);
        }

        fn on_timer(&mut self, key: TimerKey, fx: &mut Effects<u32, ()>) {
            self.seen.push(Seen::Timer(key));
            if self.rearm {
                fx.set_timer(key, 0);
            }
        }

        fn on_restart(&mut self, _: &mut Effects<u32, ()>) {
            self.seen.push(Seen::Restart);
        }
    }

    const A: TimerKey = TimerKey(1);
    const B: TimerKey = TimerKey(2);

    fn set(key: TimerKey, after: Nanos) -> TimerCmd {
        TimerCmd::Set { key, after }
    }

    /// A started host of one [`Probe`], its outbox drained.
    fn host() -> NodeHost<Probe> {
        let mut host = NodeHost::cluster(vec![Probe::default()]).remove(0);
        host.start(0);
        host
    }

    /// Takes what the callbacks recorded since the last call.
    fn drain<P: Protocol<Msg = u32, Resp = ()>>(
        host: &mut NodeHost<P>,
    ) -> (Vec<(ProcessId, u32)>, Vec<Armed>, Vec<OpId>) {
        let out = host.outbox();
        let sends = out.fx.sends.drain(..).collect();
        let responses = out.fx.responses.drain(..).map(|(op, ())| op).collect();
        (sends, out.armed.drain(..).collect(), responses)
    }

    fn armed(key: TimerKey, gen: u64, due: Nanos) -> Armed {
        Armed { key, gen, due }
    }

    #[test]
    fn a_node_is_up_until_it_crashes_and_again_once_restarted() {
        let mut host = host();
        assert!(host.is_up());
        host.crash();
        assert!(!host.is_up());
        assert!(host.restart(10));
        assert!(host.is_up());
        assert_eq!(host.node().seen, [Seen::Start, Seen::Restart]);
    }

    #[test]
    fn a_set_arms_with_its_generation_and_due_time_a_reset_supersedes_and_a_cancel_removes() {
        let mut host = host();
        let cmds = vec![
            set(A, 10),
            set(B, 5),
            set(A, 20),
            TimerCmd::Cancel { key: B },
        ];
        assert!(host.invoke(100, OpId(0), cmds));
        // Every `Set` is listed, the two the callback itself made stale
        // included; only the latest arming of `A` is live.
        let (_, listed, answered) = drain(&mut host);
        assert_eq!(
            listed,
            [armed(A, 1, 110), armed(B, 2, 105), armed(A, 3, 120)]
        );
        assert_eq!(answered, [OpId(0)]);
        assert!(!host.fire(120, B, 2), "cancelled");
        host.fire_due(u64::MAX);
        assert_eq!(host.node().seen[2..], [Seen::Timer(A)]);
        assert_eq!(host.next_due(), None, "firing consumes the arming");
    }

    #[test]
    fn a_down_node_loses_deliveries_timers_and_invocations() {
        let mut host = host();
        host.invoke(0, OpId(0), vec![set(A, 10)]);
        drain(&mut host);
        host.crash();
        host.deliver(5, ProcessId(1), 7);
        assert!(!host.invoke(5, OpId(1), vec![set(B, 1)]));
        assert!(!host.fire(10, A, 1));
        host.fire_due(u64::MAX);
        assert_eq!(host.node().seen, [Seen::Start, Seen::Invoke(OpId(0))]);
        assert_eq!(drain(&mut host), (vec![], vec![], vec![]));
    }

    #[test]
    fn crash_kills_every_timer_and_restart_runs_on_restart_with_none_armed() {
        let mut host = host();
        host.invoke(0, OpId(0), vec![set(A, 10), set(B, 20)]);
        host.crash();
        assert_eq!(host.next_due(), None);
        assert!(host.restart(5));
        assert_eq!(host.next_due(), None, "armed timers stay dead");
        host.fire_due(u64::MAX);
        assert!(!host.fire(10, A, 1));
        let seen = &host.node().seen;
        assert_eq!(seen[seen.len() - 1], Seen::Restart);
    }

    #[test]
    fn restart_of_a_live_node_is_a_no_op() {
        let mut host = host();
        host.invoke(0, OpId(0), vec![set(A, 10)]);
        assert!(!host.restart(5));
        assert_eq!(host.next_due(), Some(10), "its timer stays armed");
        assert_eq!(host.node().seen, [Seen::Start, Seen::Invoke(OpId(0))]);
    }

    #[test]
    fn every_callback_fills_the_one_reused_buffer() {
        let mut host = host();
        host.deliver(0, ProcessId(1), 1);
        let buffer = host.outbox().fx.sends.as_ptr();
        for m in 2..50 {
            drain(&mut host);
            host.deliver(m.into(), ProcessId(1), m);
            assert_eq!(host.outbox().fx.sends.as_ptr(), buffer, "message {m}");
        }
        // Calls the driver does not drain between accumulate in order.
        host.deliver(60, ProcessId(2), 60);
        host.invoke(61, OpId(0), vec![]);
        assert_eq!(
            drain(&mut host),
            (
                vec![(ProcessId(1), 49), (ProcessId(2), 60)],
                vec![],
                vec![OpId(0)]
            )
        );
    }

    #[test]
    fn next_due_tracks_the_earliest_armed_timer() {
        let mut host = host();
        assert_eq!(host.next_due(), None);
        host.invoke(100, OpId(0), vec![set(A, 50), set(B, 30)]);
        assert_eq!(host.next_due(), Some(130));
        host.fire_due(130);
        assert_eq!(host.next_due(), Some(150));
        host.invoke(140, OpId(1), vec![set(B, 5)]);
        assert_eq!(host.next_due(), Some(145));
        host.invoke(141, OpId(2), vec![TimerCmd::Cancel { key: B }]);
        assert_eq!(host.next_due(), Some(150));
        host.fire_due(150);
        assert_eq!(host.next_due(), None);
    }

    #[test]
    fn a_superseded_generation_never_fires() {
        let mut host = host();
        host.invoke(0, OpId(0), vec![set(A, 10)]);
        host.invoke(0, OpId(1), vec![set(A, 50)]);
        assert!(!host.fire(10, A, 1));
        host.fire_due(30);
        assert!(host.node().seen.iter().all(|s| *s != Seen::Timer(A)));
        assert!(host.fire(50, A, 2));
        assert!(!host.fire(50, A, 2), "fired once");
        host.fire_due(u64::MAX);
        let fires = host.node().seen.iter().filter(|s| **s == Seen::Timer(A));
        assert_eq!(fires.count(), 1);
    }

    #[test]
    fn fire_due_leaves_what_its_own_pass_arms_for_the_next_call() {
        let mut host = host();
        host.invoke(0, OpId(0), vec![set(B, 0), set(A, 0)]);
        host.node.rearm = true;
        host.fire_due(0);
        assert_eq!(host.node().seen[2..], [Seen::Timer(A), Seen::Timer(B)]);
        host.fire_due(0);
        assert_eq!(host.node().seen.len(), 6, "each fired once more");
    }

    /// Stores every message it is sent and acks it to the sender: the ack
    /// first when `ack_first`, the store first otherwise.
    #[derive(Debug)]
    struct Acker {
        ack_first: bool,
        stored: Vec<u32>,
    }

    impl Protocol for Acker {
        type Msg = u32;
        type Op = ();
        type Resp = ();

        fn id(&self) -> ProcessId {
            ProcessId(0)
        }

        fn on_invoke(&mut self, _: OpId, _: (), _: &mut Effects<u32, ()>) {}

        fn on_message(&mut self, from: ProcessId, m: u32, fx: &mut Effects<u32, ()>) {
            if self.ack_first {
                fx.send(from, m);
                self.stored.push(m);
            } else {
                self.stored.push(m);
                fx.send(from, m);
            }
        }
    }

    /// A crash falls between callbacks, never inside one, and a send leaves
    /// the node only when the outbox is drained after the callback:
    /// whether a handler acks before or after the store the ack covers
    /// cannot be observed. (An ack with no store at all can; that is the
    /// planted `StaleTagAck` mutant.)
    #[test]
    fn acking_before_or_after_the_store_is_the_same_node_across_crashes() {
        let mut hosts = [true, false].map(|ack_first| {
            let node = Acker {
                ack_first,
                stored: Vec::new(),
            };
            let mut host = NodeHost::cluster(vec![node]).remove(0);
            host.start(0);
            host
        });
        let steps: [fn(&mut NodeHost<Acker>); 7] = [
            |h| h.deliver(1, ProcessId(1), 10),
            |h| h.crash(),
            |h| h.deliver(2, ProcessId(1), 11),
            |h| assert!(h.restart(3)),
            |h| h.deliver(4, ProcessId(2), 12),
            |h| h.crash(),
            |h| assert!(h.restart(5)),
        ];
        let observe = |h: &mut NodeHost<Acker>| (drain(h), h.node().stored.clone(), h.is_up());
        for (i, step) in steps.iter().enumerate() {
            let [ack_first, store_first] = &mut hosts;
            step(ack_first);
            step(store_first);
            assert_eq!(observe(ack_first), observe(store_first), "after step {i}");
        }
        assert_eq!(hosts[0].node().stored, [10, 12], "11 reached it down");
    }
}
