//! The sans-io protocol interface.
//!
//! Protocol state machines in this crate perform no I/O and read no clocks.
//! Their *host* is [`NodeHost`](crate::host::NodeHost), one per node under
//! every driver — the deterministic simulator (`abd-simnet`) and the thread
//! runtime (`abd-runtime`). It delivers inputs by calling the [`Protocol`]
//! callbacks, applies the timers each callback recorded in its [`Effects`]
//! buffer (arm, re-arm or cancel), and leaves the rest — messages to send
//! and operation responses to hand back to the invoking client — for its
//! driver to carry out.
//!
//! This is what lets one implementation of the ABD state machine run
//! unmodified under an adversarial discrete-event scheduler *and* on real
//! threads, which is the modularity claim the paper itself makes for the
//! emulation.

use crate::types::{Nanos, OpId, ProcessId};

/// Key naming a timer owned by a protocol instance.
///
/// Keys are chosen by the protocol (typically the phase id they protect);
/// setting a timer with an existing key re-arms it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerKey(pub u64);

/// A timer instruction recorded by a protocol callback.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TimerCmd {
    /// Arm (or re-arm) the timer `key` to fire `after` nanoseconds from now.
    Set {
        /// Protocol-chosen timer name.
        key: TimerKey,
        /// Delay until the timer fires.
        after: Nanos,
    },
    /// Cancel the timer `key` if it is armed.
    Cancel {
        /// Protocol-chosen timer name.
        key: TimerKey,
    },
}

/// Output buffer filled by protocol callbacks and drained by the host.
///
/// # Examples
///
/// ```
/// use abd_core::context::Effects;
/// use abd_core::types::{OpId, ProcessId};
///
/// let mut fx: Effects<&'static str, u32> = Effects::new();
/// fx.send(ProcessId(1), "hello");
/// fx.respond(OpId(7), 42);
/// assert_eq!(fx.sends.len(), 1);
/// assert_eq!(fx.responses, vec![(OpId(7), 42)]);
/// ```
#[derive(Clone, Debug)]
pub struct Effects<M, R> {
    /// Point-to-point messages to transmit, in emission order.
    pub sends: Vec<(ProcessId, M)>,
    /// Timer instructions, applied in order.
    pub timers: Vec<TimerCmd>,
    /// Completed operations: `(op, response)` pairs.
    pub responses: Vec<(OpId, R)>,
}

impl<M, R> Effects<M, R> {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Effects {
            sends: Vec::new(),
            timers: Vec::new(),
            responses: Vec::new(),
        }
    }

    /// Queues a message `m` for processor `to`.
    pub fn send(&mut self, to: ProcessId, m: M) {
        self.sends.push((to, m));
    }

    /// Queues the same message for every processor in `to`: a clone for
    /// each but the last, which takes `m` itself.
    pub fn send_each<I: IntoIterator<Item = ProcessId>>(&mut self, to: I, m: M)
    where
        M: Clone,
    {
        let mut to = to.into_iter();
        let Some(mut next) = to.next() else {
            return;
        };
        for after in to {
            self.sends.push((next, m.clone()));
            next = after;
        }
        self.sends.push((next, m));
    }

    /// Arms (or re-arms) timer `key` to fire after `after` nanoseconds.
    pub fn set_timer(&mut self, key: TimerKey, after: Nanos) {
        self.timers.push(TimerCmd::Set { key, after });
    }

    /// Cancels timer `key`.
    pub fn cancel_timer(&mut self, key: TimerKey) {
        self.timers.push(TimerCmd::Cancel { key });
    }

    /// Records the completion of operation `op` with response `r`.
    pub fn respond(&mut self, op: OpId, r: R) {
        self.responses.push((op, r));
    }

    /// Whether no effect of any kind was recorded.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty() && self.timers.is_empty() && self.responses.is_empty()
    }

    /// Moves all effects out of `self`, leaving it empty.
    pub fn take(&mut self) -> Effects<M, R> {
        Effects {
            sends: std::mem::take(&mut self.sends),
            timers: std::mem::take(&mut self.timers),
            responses: std::mem::take(&mut self.responses),
        }
    }
}

impl<M, R> Default for Effects<M, R> {
    fn default() -> Self {
        Effects::new()
    }
}

/// A deterministic, event-driven protocol node.
///
/// Implementations must be *pure state machines*: every transition is a
/// deterministic function of the current state and the input event, with all
/// outputs recorded in the supplied [`Effects`]. Hosts guarantee that
/// callbacks are never invoked concurrently for the same node.
///
/// Sends to *self* are allowed and hosts must loop them back (subject to the
/// same delivery semantics as any other message), but protocols in this
/// crate apply local state changes directly instead, mirroring the paper
/// where a processor counts itself in the majority it awaits.
pub trait Protocol {
    /// Wire message type exchanged between nodes of this protocol.
    type Msg: Clone + std::fmt::Debug + Send + 'static;
    /// Client operation type accepted by [`Protocol::on_invoke`].
    type Op: std::fmt::Debug + Send + 'static;
    /// Response type produced for completed operations.
    type Resp: std::fmt::Debug + Send + 'static;

    /// The identity of this node within the cluster.
    fn id(&self) -> ProcessId;

    /// Called once before any other callback, when the node boots.
    fn on_start(&mut self, fx: &mut Effects<Self::Msg, Self::Resp>) {
        let _ = fx;
    }

    /// A client invoked operation `input`, to be completed later via
    /// [`Effects::respond`] with the same `op` id.
    ///
    /// Nodes accept at most one outstanding operation per invocation stream;
    /// implementations in this crate queue additional invocations and serve
    /// them in FIFO order (a processor of the paper is a sequential client).
    fn on_invoke(&mut self, op: OpId, input: Self::Op, fx: &mut Effects<Self::Msg, Self::Resp>);

    /// A message `msg` from processor `from` was delivered to this node.
    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        fx: &mut Effects<Self::Msg, Self::Resp>,
    );

    /// Timer `key`, previously armed through [`Effects::set_timer`], fired.
    fn on_timer(&mut self, key: TimerKey, fx: &mut Effects<Self::Msg, Self::Resp>) {
        let _ = (key, fx);
    }

    /// The node crashed and has been rebooted by its host.
    ///
    /// Called in place of [`Protocol::on_start`] when a crashed node
    /// rejoins. By the time this runs the host has already discarded every
    /// armed timer; in-flight operations were lost with the crash (their
    /// clients see them as aborted) unless the protocol persisted one to
    /// resume (a register rolls a write caught in its update round
    /// forward). Implementations must drop volatile per-operation state and
    /// may emit messages to catch their replica up; the registers and the
    /// key-value store alike serve at once and catch up alongside (a
    /// register by reading a read quorum, the store by Merkle walks). State
    /// modelling stable storage — the replica's `(label, value)` pair, the
    /// writer's sequence number, the phase-uid counter — survives; see the
    /// crate docs for why full amnesia would forfeit atomicity.
    fn on_restart(&mut self, fx: &mut Effects<Self::Msg, Self::Resp>) {
        let _ = fx;
    }
}

/// The per-node counters behind [`ReadPathStats`]: how the reads *this node
/// issued* completed, and what its recovery sync path sent. A counter a
/// protocol has no path for stays `0`.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct ReadPathCounters {
    /// Reads that skipped the write-back phase on the one-round fast path.
    pub fast_reads: u64,
    /// Reads that executed the write-back phase.
    pub write_backs: u64,
    /// Reads that completed via server-to-server relay (`ReadMode::Relay`).
    pub relay_reads: u64,
    /// Reads that completed at `Consistency::Sequential` — served from the
    /// local replica with no network round.
    pub sc_reads: u64,
    /// Reads that completed at `Consistency::Regular` — a query round with
    /// the write-back elided.
    pub regular_reads: u64,
    /// Sync-protocol messages (the Merkle walk's requests and replies) sent.
    pub recovery_msgs: u64,
    /// Estimated payload bytes of the sync messages sent.
    pub recovery_bytes: u64,
    /// `(key, tag, value)` entries shipped in sync replies.
    pub sync_entries_sent: u64,
}

/// Read-path counters exposed by protocols that support fast-path reads.
///
/// Implementors hand out one [`ReadPathCounters`] value; a wrapper forwards
/// it whole, so it cannot forget a field. The accessors read single
/// counters off it. Hosts can sum these across nodes — see `abd-simnet`'s
/// `Sim::read_path_metrics`.
pub trait ReadPathStats {
    /// This node's counters.
    fn counters(&self) -> ReadPathCounters;
    /// See [`ReadPathCounters::fast_reads`].
    fn fast_reads(&self) -> u64 {
        self.counters().fast_reads
    }
    /// See [`ReadPathCounters::write_backs`].
    fn write_backs(&self) -> u64 {
        self.counters().write_backs
    }
    /// See [`ReadPathCounters::relay_reads`].
    fn relay_reads(&self) -> u64 {
        self.counters().relay_reads
    }
    /// See [`ReadPathCounters::sc_reads`].
    fn sc_reads(&self) -> u64 {
        self.counters().sc_reads
    }
    /// See [`ReadPathCounters::regular_reads`].
    fn regular_reads(&self) -> u64 {
        self.counters().regular_reads
    }
    /// See [`ReadPathCounters::recovery_msgs`].
    fn recovery_msgs(&self) -> u64 {
        self.counters().recovery_msgs
    }
    /// See [`ReadPathCounters::recovery_bytes`].
    fn recovery_bytes(&self) -> u64 {
        self.counters().recovery_bytes
    }
    /// See [`ReadPathCounters::sync_entries_sent`].
    fn sync_entries_sent(&self) -> u64 {
        self.counters().sync_entries_sent
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effects_collects_in_order() {
        let mut fx: Effects<u8, ()> = Effects::new();
        assert!(fx.is_empty());
        fx.send(ProcessId(0), 1);
        fx.send(ProcessId(2), 2);
        fx.set_timer(TimerKey(9), 100);
        fx.cancel_timer(TimerKey(9));
        fx.respond(OpId(1), ());
        assert_eq!(fx.sends, vec![(ProcessId(0), 1), (ProcessId(2), 2)]);
        assert_eq!(
            fx.timers,
            vec![
                TimerCmd::Set {
                    key: TimerKey(9),
                    after: 100
                },
                TimerCmd::Cancel { key: TimerKey(9) }
            ]
        );
        assert!(!fx.is_empty());
    }

    #[test]
    fn send_each_clones_to_every_target() {
        let mut fx: Effects<&str, ()> = Effects::new();
        fx.send_each([ProcessId(0), ProcessId(3)], "m");
        assert_eq!(fx.sends, vec![(ProcessId(0), "m"), (ProcessId(3), "m")]);
    }

    #[test]
    fn take_drains() {
        let mut fx: Effects<u8, u8> = Effects::new();
        fx.send(ProcessId(1), 7);
        fx.respond(OpId(0), 9);
        let taken = fx.take();
        assert!(fx.is_empty());
        assert_eq!(taken.sends.len(), 1);
        assert_eq!(taken.responses.len(), 1);
    }

    #[test]
    fn default_is_empty() {
        let fx: Effects<u8, u8> = Effects::default();
        assert!(fx.is_empty());
    }
}
