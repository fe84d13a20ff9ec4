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
//! Two flushing policies, chosen by the `window` parameter:
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
//! A third, adaptive policy ([`Batched::adaptive`]) sizes the window from
//! observed load instead of a fixed constant: every flush inspects how many
//! messages it shipped, doubles the window (up to a cap) when the batch was
//! large, and halves it (down to zero) when the batch was small. Idle
//! traffic therefore pays no added latency — the window decays to the
//! `window == 0` same-tick policy — while pipelined bursts grow windows big
//! enough to absorb broadcast fan-out. The adaptation input is the flushed
//! message count, a pure function of the inner protocol's emission
//! sequence, so seeded runs still replay bit-identically.
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
    batches: u64,
    coalesced: u64,
    /// `Some(cap)` switches on load-adaptive window sizing (see
    /// [`Batched::adaptive`]); `None` keeps the window fixed.
    adapt_cap: Option<Nanos>,
}

/// A flush shipping at least this many inner messages doubles an adaptive
/// window — one quorum broadcast's worth: a flush carrying a whole phase
/// fan-out (or more) means the protocol is in its pipelined regime, where
/// windowing converts per-peer singletons into envelopes.
const GROW_LOAD: usize = 4;

/// A flush shipping at most this many inner messages halves an adaptive
/// window (idle: windowing only adds latency).
const SHRINK_LOAD: usize = 1;

impl<P: Protocol> Batched<P> {
    /// Wraps `inner`, flushing with the given `window` (0 = end of every
    /// callback).
    pub fn new(inner: P, window: Nanos) -> Self {
        Batched {
            inner,
            window,
            outbox: Vec::new(),
            armed: false,
            batches: 0,
            coalesced: 0,
            adapt_cap: None,
        }
    }

    /// Wraps `inner` with a load-adaptive flush window bounded by `cap`.
    ///
    /// The window starts at zero (same-tick coalescing) and is resized at
    /// every flush from the number of messages that flush shipped: a batch
    /// of [`GROW_LOAD`] or more doubles the window (starting from
    /// `cap / 8`, never past `cap`); a batch of [`SHRINK_LOAD`] or fewer
    /// halves it, collapsing back to zero below the `cap / 8` floor. Load
    /// counts are derived purely from the inner protocol's emissions, so
    /// the schedule of window sizes — and thus the wire trace — is
    /// deterministic for a seeded run.
    pub fn adaptive(inner: P, cap: Nanos) -> Self {
        assert!(cap > 0, "adaptive window needs a positive cap");
        let mut b = Batched::new(inner, 0);
        b.adapt_cap = Some(cap);
        b
    }

    /// The current flush window (nanoseconds; 0 = flush every callback).
    /// Fixed for [`Batched::new`], load-driven for [`Batched::adaptive`].
    pub fn current_window(&self) -> Nanos {
        self.window
    }

    /// Resizes an adaptive window from the message count of the flush that
    /// just shipped. No-op for fixed-window instances.
    fn adapt(&mut self, load: usize) {
        let Some(cap) = self.adapt_cap else { return };
        let grain = (cap / 8).max(1);
        if load >= GROW_LOAD {
            self.window = (self.window * 2).clamp(grain, cap);
        } else if load <= SHRINK_LOAD {
            // abd-lint: allow(raw-quorum-arith): halving a flush window in
            // nanoseconds — time arithmetic, not a quorum threshold.
            let halved = self.window / 2;
            self.window = if halved < grain { 0 } else { halved };
        }
    }

    /// The wrapped protocol, for inspection.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Envelopes shipped so far (one per `(flush, peer)` with traffic).
    pub fn batches_sent(&self) -> u64 {
        self.batches
    }

    /// Inner messages carried by those envelopes. The difference to
    /// [`batches_sent`](Batched::batches_sent) is the number of network
    /// events batching saved.
    pub fn messages_coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Regroups the outbox per destination and ships one envelope per peer.
    fn flush(&mut self, fx: &mut Effects<Envelope<P::Msg>, P::Resp>) {
        let load = self.outbox.len();
        let mut by_peer: BTreeMap<ProcessId, Vec<P::Msg>> = BTreeMap::new();
        for (to, m) in self.outbox.drain(..) {
            by_peer.entry(to).or_default().push(m);
        }
        for (to, mut msgs) in by_peer {
            self.batches += 1;
            self.coalesced += msgs.len() as u64;
            if msgs.len() == 1 {
                if let Some(m) = msgs.pop() {
                    fx.send(to, Envelope::One(m));
                }
            } else {
                fx.send(to, Envelope::Batch(msgs));
            }
        }
        self.adapt(load);
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
        // discarded armed timers with the crash. An adaptive window's
        // learned size is equally volatile — restart from same-tick.
        self.outbox.clear();
        self.armed = false;
        if self.adapt_cap.is_some() {
            self.window = 0;
        }
        let mut inner_fx = Effects::new();
        self.inner.on_restart(&mut inner_fx);
        self.absorb(inner_fx, fx);
    }
}

impl<P: Protocol + ReadPathStats> ReadPathStats for Batched<P> {
    fn counters(&self) -> ReadPathCounters {
        self.inner.counters()
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
        assert_eq!(node.batches_sent(), 2);
        assert_eq!(node.messages_coalesced(), 6);
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
        assert_eq!(node.batches_sent(), 2);
        assert_eq!(node.messages_coalesced(), 10);
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
    fn adaptive_window_grows_under_queue_pressure() {
        let mut node = Batched::adaptive(Chatty { me: ProcessId(0) }, 800);
        assert_eq!(node.current_window(), 0, "adaptive starts at same-tick");

        // A heavy callback (8 messages >= GROW_LOAD) flushes inline and
        // opens a window at the cap/8 grain.
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), 4, &mut fx);
        assert_eq!(fx.sends.len(), 2, "window was 0: flushed this tick");
        assert_eq!(node.current_window(), 100);

        // Pressure sustained across flush cycles keeps doubling to the cap.
        for op in 1..5u64 {
            let mut fx = Effects::new();
            node.on_invoke(OpId(op), 4, &mut fx);
            assert!(fx.sends.is_empty(), "window open: sends held");
            let mut flush_fx = Effects::new();
            node.on_timer(FLUSH_KEY, &mut flush_fx);
            assert!(!flush_fx.sends.is_empty());
        }
        assert_eq!(node.current_window(), 800, "clamped at the cap");
    }

    #[test]
    fn adaptive_window_shrinks_back_to_same_tick_when_idle() {
        let mut node = Batched::adaptive(Chatty { me: ProcessId(0) }, 800);
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), 4, &mut fx);
        let mut fx = Effects::new();
        node.on_invoke(OpId(1), 4, &mut fx);
        node.on_timer(FLUSH_KEY, &mut Effects::new());
        assert_eq!(node.current_window(), 200);

        // A light flush (two buffered messages, between the thresholds)
        // leaves the window alone.
        let mut fx = Effects::new();
        node.on_invoke(OpId(2), 1, &mut fx);
        node.on_timer(FLUSH_KEY, &mut Effects::new());
        assert_eq!(node.current_window(), 200, "load 2 is between thresholds");

        // Single-message flushes halve it; below the grain it collapses to
        // zero — back to the same-tick policy, no timers armed.
        node.adapt(1);
        assert_eq!(node.current_window(), 100);
        node.adapt(0);
        assert_eq!(node.current_window(), 0, "below the grain -> same-tick");

        let mut fx = Effects::new();
        node.on_invoke(OpId(3), 1, &mut fx);
        assert_eq!(fx.sends.len(), 2, "collapsed window flushes this tick");
        assert_eq!(node.current_window(), 0, "stays collapsed while idle");
    }

    #[test]
    fn adaptive_window_resets_on_restart() {
        let mut node = Batched::adaptive(Chatty { me: ProcessId(0) }, 800);
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), 4, &mut fx);
        assert_eq!(node.current_window(), 100);
        node.on_restart(&mut Effects::new());
        assert_eq!(node.current_window(), 0, "learned window is volatile");
    }

    #[test]
    fn adaptive_restart_wipes_outbox_and_relearns_from_same_tick() {
        // The full crash/restart path for an adaptive instance: a grown
        // window with traffic buffered behind an armed flush timer loses
        // everything volatile at once — outbox, arming flag, learned
        // window — and the reborn node behaves exactly like a fresh
        // `adaptive` wrapper until load re-teaches it.
        let mut node = Batched::adaptive(Chatty { me: ProcessId(0) }, 800);
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), 4, &mut fx);
        assert_eq!(node.current_window(), 100, "heavy flush opened a window");
        let shipped_before = node.batches_sent();

        // Buffer traffic inside the open window (armed, held back).
        let mut fx = Effects::new();
        node.on_invoke(OpId(1), 4, &mut fx);
        assert!(fx.sends.is_empty(), "window open: sends held");

        let mut restart_fx = Effects::new();
        node.on_restart(&mut restart_fx);
        assert!(restart_fx.sends.is_empty(), "outbox died with the crash");
        assert_eq!(node.current_window(), 0, "window relearns from idle");

        // A straggler flush timer the host failed to discard must find an
        // empty outbox and must not disturb the collapsed window.
        let mut stale_fx = Effects::new();
        node.on_timer(FLUSH_KEY, &mut stale_fx);
        assert!(stale_fx.sends.is_empty(), "nothing survived to flush");
        assert_eq!(node.current_window(), 0);
        assert_eq!(node.batches_sent(), shipped_before, "no phantom envelopes");

        // Post-restart traffic ships same-tick — no latency tax from a
        // window learned in a previous life.
        let mut fx = Effects::new();
        node.on_invoke(OpId(2), 1, &mut fx);
        assert_eq!(fx.sends.len(), 2, "same-tick policy after restart");
        assert!(matches!(fx.sends[0].1, Envelope::One(0)));

        // And sustained pressure re-teaches the window from scratch.
        let mut fx = Effects::new();
        node.on_invoke(OpId(3), 4, &mut fx);
        assert_eq!(fx.sends.len(), 2, "window was 0: flushed this tick");
        assert_eq!(node.current_window(), 100, "relearned the grain window");
    }

    #[test]
    fn fixed_window_never_adapts() {
        let mut node = Batched::new(Chatty { me: ProcessId(0) }, 500);
        let mut fx = Effects::new();
        node.on_invoke(OpId(0), 8, &mut fx);
        node.on_timer(FLUSH_KEY, &mut Effects::new());
        assert_eq!(node.current_window(), 500, "Batched::new keeps its window");
    }

    #[test]
    fn envelope_len_counts_inner_messages() {
        assert_eq!(Envelope::One(1u8).len(), 1);
        assert!(!Envelope::One(1u8).is_empty());
        assert_eq!(Envelope::Batch(vec![1u8, 2, 3]).len(), 3);
    }
}
