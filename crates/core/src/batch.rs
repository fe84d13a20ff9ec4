//! Batched quorum messaging: an envelope layer that coalesces same-tick
//! messages to the same peer into one network send.
//!
//! Quorum protocols are broadcast-heavy: every phase emits one message per
//! peer, and a multi-key store under pipelined load emits one message *per
//! key* per peer per phase. [`Batched`] wraps any [`Protocol`] and regroups
//! its outgoing messages per destination, shipping each group as a single
//! [`Envelope`] — so the host pays per-send overhead (one simulator event,
//! one channel hand-off, in a real deployment one syscall) once per
//! *(callback, peer)* instead of once per message. The receiving side
//! unpacks the envelope and feeds the inner protocol one message at a time,
//! in emission order, so the wrapped protocol is byte-for-byte oblivious to
//! batching: same transitions, same responses, fewer network events.
//!
//! One flush window, fixed at construction (`window`, nanoseconds):
//!
//! * `window == 0` — **same-tick coalescing** (the default): the outbox is
//!   flushed at the end of every callback. Messages the inner protocol
//!   emitted in one transition to the same peer (e.g. several keys' worth
//!   of `Update`s after a batch of acks unblocked them) merge; latency is
//!   untouched because nothing is ever held back across callbacks.
//! * `window > 0` — **Nagle-style windowing**: the first buffered send arms
//!   a flush timer `window` nanoseconds out; everything emitted until it
//!   fires ships together. This trades up to `window` of added latency for
//!   bigger batches under pipelined load. The flush timer is
//!   [`FLUSH_KEY`]; inner protocols allocate phase uids counting up from
//!   zero and never reach it.
//!
//! Determinism: the per-peer regrouping iterates a `BTreeMap`, so batch
//! composition and emission order are pure functions of the inner
//! protocol's emission sequence — seeded simulator runs replay
//! bit-identically with batching on.
//!
//! Metrics caveat: the simulator attributes every send made from a timer
//! callback to its `retransmissions` counter; with `window > 0` flushed
//! envelopes are such sends, so retransmission counts are not meaningful
//! for windowed-batching runs.

use crate::context::{Effects, Protocol, ReadPathCounters, ReadPathStats, TimerCmd, TimerKey};
use crate::phase::NodeEdges;
use crate::types::{Nanos, OpId, ProcessId};
use std::collections::BTreeMap;

/// Timer key reserved for the batching flush timer (`window > 0` only).
/// Protocol phase uids count up from zero, so the key never collides.
pub const FLUSH_KEY: TimerKey = TimerKey(u64::MAX);

/// Wire envelope of a [`Batched`] protocol: one inner message, or several
/// coalesced for the same destination.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Envelope<M> {
    /// A single inner message (no coalescing happened).
    One(M),
    /// Two or more inner messages, delivered in emission order.
    Batch(Vec<M>),
}

impl<M> Envelope<M> {
    /// Number of inner messages carried.
    pub fn len(&self) -> usize {
        match self {
            Envelope::One(_) => 1,
            Envelope::Batch(ms) => ms.len(),
        }
    }

    /// Whether the envelope carries no messages (never produced by
    /// [`Batched`], which only ships non-empty groups).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Wraps a [`Protocol`], coalescing its same-tick sends per peer into
/// [`Envelope`]s. See the module docs for the flushing policies.
///
/// # Examples
///
/// ```
/// use abd_core::batch::{Batched, Envelope};
/// use abd_core::context::{Effects, Protocol};
/// use abd_core::msg::{RegisterOp, RegisterResp};
/// use abd_core::swmr::{SwmrConfig, SwmrNode};
/// use abd_core::types::{OpId, ProcessId};
///
/// let writer = SwmrNode::new(SwmrConfig::new(3, ProcessId(0), ProcessId(0)), 0u32);
/// let mut node = Batched::new(writer, 0);
/// let mut fx = Effects::new();
/// node.on_invoke(OpId(0), RegisterOp::Write(7), &mut fx);
/// // One update per peer; nothing to coalesce, so plain envelopes go out.
/// assert_eq!(fx.sends.len(), 2);
/// assert!(matches!(fx.sends[0].1, Envelope::One(_)));
/// ```
#[derive(Clone, Debug)]
pub struct Batched<P: Protocol> {
    inner: P,
    window: Nanos,
    outbox: Vec<(ProcessId, P::Msg)>,
    armed: bool,
}

impl<P: Protocol> Batched<P> {
    /// Wraps `inner`, flushing with the given `window` (0 = end of every
    /// callback).
    pub fn new(inner: P, window: Nanos) -> Self {
        Batched {
            inner,
            window,
            outbox: Vec::new(),
            armed: false,
        }
    }

    /// The wrapped protocol, for inspection.
    #[cfg(test)]
    fn inner(&self) -> &P {
        &self.inner
    }

    /// Regroups the outbox per destination and ships one envelope per peer.
    fn flush(&mut self, fx: &mut Effects<Envelope<P::Msg>, P::Resp>) {
        let mut by_peer: BTreeMap<ProcessId, Vec<P::Msg>> = BTreeMap::new();
        for (to, m) in self.outbox.drain(..) {
            by_peer.entry(to).or_default().push(m);
        }
        for (to, mut msgs) in by_peer {
            if msgs.len() == 1 {
                if let Some(m) = msgs.pop() {
                    fx.send(to, Envelope::One(m));
                }
            } else {
                fx.send(to, Envelope::Batch(msgs));
            }
        }
    }

    /// Moves one inner callback's effects into the host-facing buffer:
    /// timers and responses pass through, sends are buffered and flushed
    /// (window 0) or scheduled for the flush timer (window > 0).
    fn absorb(
        &mut self,
        inner_fx: Effects<P::Msg, P::Resp>,
        fx: &mut Effects<Envelope<P::Msg>, P::Resp>,
    ) {
        for cmd in inner_fx.timers {
            let key = match cmd {
                TimerCmd::Set { key, .. } | TimerCmd::Cancel { key } => key,
            };
            debug_assert!(key != FLUSH_KEY, "inner protocol used the flush key");
            fx.timers.push(cmd);
        }
        for (op, r) in inner_fx.responses {
            fx.respond(op, r);
        }
        self.outbox.extend(inner_fx.sends);
        if self.outbox.is_empty() {
            return;
        }
        if self.window == 0 {
            self.flush(fx);
        } else if !self.armed {
            fx.set_timer(FLUSH_KEY, self.window);
            self.armed = true;
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
impl<P: Protocol> Protocol for Batched<P> {
    type Msg = Envelope<P::Msg>;
    type Op = P::Op;
    type Resp = P::Resp;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_start(&mut self, fx: &mut Effects<Self::Msg, Self::Resp>) {
        let mut inner_fx = Effects::new();
        self.inner.on_start(&mut inner_fx);
        self.absorb(inner_fx, fx);
    }

    fn on_invoke(&mut self, op: OpId, input: Self::Op, fx: &mut Effects<Self::Msg, Self::Resp>) {
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
        let mut inner_fx = Effects::new();
        match msg {
            Envelope::One(m) => self.inner.on_message(from, m, &mut inner_fx),
            Envelope::Batch(ms) => {
                for m in ms {
                    self.inner.on_message(from, m, &mut inner_fx);
                }
            }
        }
        self.absorb(inner_fx, fx);
    }

    fn on_timer(&mut self, key: TimerKey, fx: &mut Effects<Self::Msg, Self::Resp>) {
        if key == FLUSH_KEY {
            self.armed = false;
            self.flush(fx);
            return;
        }
        let mut inner_fx = Effects::new();
        self.inner.on_timer(key, &mut inner_fx);
        self.absorb(inner_fx, fx);
    }

    fn on_restart(&mut self, fx: &mut Effects<Self::Msg, Self::Resp>) {
        // The outbox and flush timer are volatile; the host already
        // discarded armed timers with the crash.
        self.outbox.clear();
        self.armed = false;
        let mut inner_fx = Effects::new();
        self.inner.on_restart(&mut inner_fx);
        self.absorb(inner_fx, fx);
    }
}

impl<P: Protocol + ReadPathStats> ReadPathStats for Batched<P> {
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

    /// Test protocol: every invocation sends `count` messages to each of
    /// the two peers and responds immediately.
    #[derive(Debug)]
    struct Chatty {
        me: ProcessId,
    }

    impl Protocol for Chatty {
        type Msg = u32;
        type Op = u32;
        type Resp = ();

        fn id(&self) -> ProcessId {
            self.me
        }

        fn on_invoke(&mut self, op: OpId, count: u32, fx: &mut Effects<u32, ()>) {
            for k in 0..count {
                fx.send(ProcessId(1), k);
                fx.send(ProcessId(2), k);
            }
            fx.respond(op, ());
        }

        fn on_message(&mut self, _from: ProcessId, _msg: u32, _fx: &mut Effects<u32, ()>) {}
    }

    #[test]
    fn same_tick_sends_coalesce_per_peer() {
        let mut node = Batched::new(Chatty { me: ProcessId(0) }, 0);
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), 3, &mut fx);
        // Six inner messages become two envelopes, one per peer, in peer
        // order and carrying emission order.
        assert_eq!(fx.sends.len(), 2);
        assert_eq!(fx.sends[0].0, ProcessId(1));
        assert_eq!(fx.sends[0].1, Envelope::Batch(vec![0, 1, 2]));
        assert_eq!(fx.sends[1].0, ProcessId(2));
        assert_eq!(fx.sends[1].1, Envelope::Batch(vec![0, 1, 2]));
        assert_eq!(fx.responses.len(), 1, "responses pass through");
    }

    #[test]
    fn single_messages_ship_unbatched() {
        let mut node = Batched::new(Chatty { me: ProcessId(0) }, 0);
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), 1, &mut fx);
        assert_eq!(fx.sends.len(), 2);
        assert!(matches!(fx.sends[0].1, Envelope::One(0)));
    }

    #[test]
    fn windowed_batching_holds_until_flush_timer() {
        let mut node = Batched::new(Chatty { me: ProcessId(0) }, 500);
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), 1, &mut fx);
        node.on_invoke(OpId(1), 1, &mut fx);
        assert!(fx.sends.is_empty(), "sends held for the window");
        // First buffered send armed the flush timer, exactly once.
        let sets = fx
            .timers
            .iter()
            .filter(|t| matches!(t, TimerCmd::Set { key, .. } if *key == FLUSH_KEY))
            .count();
        assert_eq!(sets, 1);

        let mut flush_fx = Effects::new();
        node.on_timer(FLUSH_KEY, &mut flush_fx);
        assert_eq!(flush_fx.sends.len(), 2);
        assert_eq!(flush_fx.sends[0].1, Envelope::Batch(vec![0, 0]));
    }

    #[test]
    fn windowed_flush_preserves_cross_callback_emission_order() {
        // Two invocations land inside one window; the flushed envelope must
        // carry both callbacks' messages in exact emission order, not
        // regrouped or deduplicated.
        let mut node = Batched::new(Chatty { me: ProcessId(0) }, 500);
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), 2, &mut fx);
        node.on_invoke(OpId(1), 3, &mut fx);
        assert!(fx.sends.is_empty(), "both callbacks' sends held back");

        let mut flush_fx = Effects::new();
        node.on_timer(FLUSH_KEY, &mut flush_fx);
        assert_eq!(flush_fx.sends.len(), 2);
        assert_eq!(flush_fx.sends[0].0, ProcessId(1));
        assert_eq!(flush_fx.sends[0].1, Envelope::Batch(vec![0, 1, 0, 1, 2]));
        assert_eq!(flush_fx.sends[1].0, ProcessId(2));
        assert_eq!(flush_fx.sends[1].1, Envelope::Batch(vec![0, 1, 0, 1, 2]));
    }

    #[test]
    fn window_rearms_once_per_flush_cycle() {
        let mut node = Batched::new(Chatty { me: ProcessId(0) }, 500);
        let arm_count = |fx: &Effects<Envelope<u32>, ()>| {
            fx.timers
                .iter()
                .filter(|t| matches!(t, TimerCmd::Set { key, .. } if *key == FLUSH_KEY))
                .count()
        };
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), 1, &mut fx);
        node.on_invoke(OpId(1), 1, &mut fx);
        assert_eq!(arm_count(&fx), 1, "one timer per window, not per send");

        let mut flush_fx = Effects::new();
        node.on_timer(FLUSH_KEY, &mut flush_fx);
        // The next buffered send after a flush opens a fresh window.
        let mut fx2 = Effects::new();
        node.on_invoke(OpId(2), 1, &mut fx2);
        assert_eq!(arm_count(&fx2), 1, "flush re-enables arming");
    }

    /// An inner protocol must never use the reserved flush key: phase uids
    /// count up from zero and cannot reach `u64::MAX`, and a wrapped timer
    /// on that key would be swallowed by the batching layer as a flush.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "inner protocol used the flush key")]
    fn inner_timer_on_the_reserved_flush_key_is_rejected() {
        #[derive(Debug)]
        struct Clash;
        impl Protocol for Clash {
            type Msg = u32;
            type Op = ();
            type Resp = ();
            fn id(&self) -> ProcessId {
                ProcessId(0)
            }
            fn on_invoke(&mut self, _op: OpId, _i: (), fx: &mut Effects<u32, ()>) {
                fx.set_timer(FLUSH_KEY, 10);
            }
            fn on_message(&mut self, _from: ProcessId, _msg: u32, _fx: &mut Effects<u32, ()>) {}
        }
        let mut node = Batched::new(Clash, 0);
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), (), &mut fx);
    }

    #[test]
    fn batch_delivery_unpacks_in_order() {
        #[derive(Debug, Default)]
        struct Recorder {
            seen: Vec<u32>,
        }
        impl Protocol for Recorder {
            type Msg = u32;
            type Op = ();
            type Resp = ();
            fn id(&self) -> ProcessId {
                ProcessId(0)
            }
            fn on_invoke(&mut self, _op: OpId, _i: (), _fx: &mut Effects<u32, ()>) {}
            fn on_message(&mut self, _from: ProcessId, msg: u32, _fx: &mut Effects<u32, ()>) {
                self.seen.push(msg);
            }
        }
        let mut node = Batched::new(Recorder::default(), 0);
        let mut fx = Effects::new();
        node.on_message(ProcessId(1), Envelope::Batch(vec![5, 6, 7]), &mut fx);
        node.on_message(ProcessId(1), Envelope::One(8), &mut fx);
        assert_eq!(node.inner().seen, vec![5, 6, 7, 8]);
    }

    #[test]
    fn restart_drops_buffered_sends() {
        let mut node = Batched::new(Chatty { me: ProcessId(0) }, 500);
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), 2, &mut fx);
        assert!(fx.sends.is_empty());
        let mut restart_fx = Effects::new();
        node.on_restart(&mut restart_fx);
        assert!(restart_fx.sends.is_empty(), "outbox wiped with the crash");
        let mut flush_fx = Effects::new();
        node.on_timer(FLUSH_KEY, &mut flush_fx);
        assert!(flush_fx.sends.is_empty(), "nothing left to flush");

        // The arming flag was volatile too: post-restart traffic opens a
        // fresh window instead of waiting on a timer the crash discarded.
        let mut fx2 = Effects::new();
        node.on_invoke(OpId(1), 1, &mut fx2);
        assert!(
            fx2.timers
                .iter()
                .any(|t| matches!(t, TimerCmd::Set { key, .. } if *key == FLUSH_KEY)),
            "restart must reset the window arming"
        );
        let mut flush_fx = Effects::new();
        node.on_timer(FLUSH_KEY, &mut flush_fx);
        assert_eq!(flush_fx.sends.len(), 2, "only post-restart sends flush");
        assert!(matches!(flush_fx.sends[0].1, Envelope::One(0)));
    }

    #[test]
    fn envelope_len_counts_inner_messages() {
        assert_eq!(Envelope::One(1u8).len(), 1);
        assert!(!Envelope::One(1u8).is_empty());
        assert_eq!(Envelope::Batch(vec![1u8, 2, 3]).len(), 3);
    }
}
