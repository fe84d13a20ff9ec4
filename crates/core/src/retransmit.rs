//! Adaptive retransmission for unfinished phases.
//!
//! The original emulation re-broadcast a whole phase at a fixed interval —
//! simple, but wasteful on two axes: it keeps hammering processors that
//! already answered, and under a long partition it sends at full rate the
//! entire time. This module replaces that with the standard remedy
//! (cf. the message-efficiency line of work following the paper):
//!
//! * **targeted**: retransmissions go only to the processors the phase is
//!   still missing (`PhaseTracker::missing`);
//! * **exponential backoff**: the retry delay doubles on every attempt, up
//!   to a cap of sixteen base intervals, so a blocked phase converges to a
//!   slow heartbeat instead of a message storm;
//! * **deterministic jitter**: each delay is perturbed by ±1/8 of itself,
//!   derived from a pure hash of `(node, phase-uid, attempt)` — no RNG
//!   state, so the same execution replays bit-identically, yet distinct
//!   nodes and phases desynchronize instead of thundering in lockstep.
//!
//! All timing flows through [`Effects`] timers;
//! this module never reads a clock.

use crate::context::{Effects, TimerKey};
use crate::types::{Nanos, ProcessId};
use std::collections::BTreeMap;

/// SplitMix64 finalizer — a cheap, well-mixed pure hash for jitter.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Growth of the retry delay per attempt.
const FACTOR: u64 = 2;
/// The pre-jitter delay stops growing at this many base intervals.
const CAP_BASES: u64 = 16;

/// Retransmission timing: exponential backoff from one base interval, with
/// a cap and deterministic jitter.
///
/// The delay before attempt `k` (0-based) is `min(base * 2^k, 16 * base)`,
/// jittered into `[7/8·d, 9/8·d]`.
///
/// # Examples
///
/// ```
/// use abd_core::retransmit::BackoffPolicy;
///
/// let p = BackoffPolicy::new(1_000);
/// assert_eq!(p.base, 1_000);
/// assert_eq!(p.cap(), 16_000);
/// // Delays grow but never exceed the jittered cap.
/// for k in 0..10 {
///     assert!(p.delay(k, 7) <= p.max_delay());
/// }
/// // Pure function: same inputs, same delay.
/// assert_eq!(p.delay(3, 42), p.delay(3, 42));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BackoffPolicy {
    /// Delay before the first retransmission.
    pub base: Nanos,
}

impl BackoffPolicy {
    /// Doubling backoff starting at `base`, capped at `16 * base`, with
    /// ±1/8 jitter.
    pub fn new(base: Nanos) -> Self {
        BackoffPolicy { base: base.max(1) }
    }

    /// Upper bound on the pre-jitter delay, `16 * base`.
    pub fn cap(&self) -> Nanos {
        self.base.saturating_mul(CAP_BASES)
    }

    /// The delay before attempt `attempt` (0-based), jittered by a pure
    /// hash of `salt` and the attempt number.
    pub fn delay(&self, attempt: u32, salt: u64) -> Nanos {
        let cap = self.cap();
        let mut d = self.base;
        for _ in 0..attempt {
            if d >= cap {
                break;
            }
            d = d.saturating_mul(FACTOR);
        }
        d = d.min(cap).max(1);
        // d ± d/8, drawn from mix64(salt, attempt): spread = d/4 + 1
        // possible values centered on d.
        let spread = d / 4;
        if spread > 0 {
            let h = mix64(salt ^ (u64::from(attempt) << 32));
            d = d - d / 8 + h % (spread + 1);
        }
        d
    }

    /// Upper bound on any delay this policy can produce — the quantity
    /// liveness bounds are derived from.
    pub fn max_delay(&self) -> Nanos {
        let cap = self.cap();
        cap.saturating_add(cap / 8)
    }
}

/// Per-node retransmission driver shared by every protocol in this crate.
///
/// One `Retransmitter` per node drives any number of phases at once, each on
/// its own backoff ladder: [`arm`](Retransmitter::arm) when a phase starts,
/// [`disarm`](Retransmitter::disarm) when it completes, and
/// [`fire`](Retransmitter::fire) from `on_timer` to resend the phase
/// message to the processors still missing and schedule the next, longer
/// attempt. A caller that resends by its own means (several messages, a
/// counted send path) uses [`refire`](Retransmitter::refire) for the
/// bookkeeping alone.
///
/// # Examples
///
/// ```
/// use abd_core::context::Effects;
/// use abd_core::retransmit::{BackoffPolicy, Retransmitter};
/// use abd_core::types::ProcessId;
///
/// let mut rtx = Retransmitter::new(Some(BackoffPolicy::new(500)), ProcessId(2));
/// let mut fx: Effects<&'static str, ()> = Effects::new();
/// rtx.arm(7, &mut fx);
/// assert_eq!(fx.timers.len(), 1);
/// rtx.fire(7, &[ProcessId(0), ProcessId(1)], "retry", &mut fx);
/// assert_eq!(fx.sends.len(), 2);
/// assert_eq!(rtx.retransmissions(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct Retransmitter {
    policy: Option<BackoffPolicy>,
    /// Per-node salt so different nodes jitter differently.
    salt: u64,
    /// Retry attempts so far of each armed phase that has fired at least
    /// once, by phase uid. Touched only with a policy set — a reliable-link
    /// run never reaches it — and only by key, never iterated.
    attempts: BTreeMap<u64, u32>,
    /// Total messages retransmitted over the node's lifetime.
    sent: u64,
}

impl Retransmitter {
    /// Creates a driver for node `me`; `None` disables retransmission
    /// entirely (reliable links).
    pub fn new(policy: Option<BackoffPolicy>, me: ProcessId) -> Self {
        Retransmitter {
            policy,
            salt: mix64(me.index() as u64 + 1),
            attempts: BTreeMap::new(),
            sent: 0,
        }
    }

    /// Total messages this node has retransmitted, restarts included.
    pub fn retransmissions(&self) -> u64 {
        self.sent
    }

    /// Starts the retry schedule of phase `uid` at the bottom of its
    /// ladder: arms the phase timer with the first delay. Arming a phase
    /// again (it made progress and sent a new request) starts it over.
    pub fn arm<M, R>(&mut self, uid: u64, fx: &mut Effects<M, R>) {
        if let Some(p) = self.policy {
            self.attempts.remove(&uid);
            fx.set_timer(TimerKey(uid), p.delay(0, self.salt ^ uid));
        }
    }

    /// Stops the retry schedule of phase `uid` (the phase completed).
    pub fn disarm<M, R>(&mut self, uid: u64, fx: &mut Effects<M, R>) {
        if self.policy.is_some() {
            self.attempts.remove(&uid);
            fx.cancel_timer(TimerKey(uid));
        }
    }

    /// Phase timer fired: resend `msg` to exactly the `missing` responders
    /// and schedule the next attempt with a longer (backed-off) delay.
    pub fn fire<M: Clone, R>(
        &mut self,
        uid: u64,
        missing: &[ProcessId],
        msg: M,
        fx: &mut Effects<M, R>,
    ) {
        if self.policy.is_some() {
            fx.send_each(missing.iter().copied(), msg);
            self.refire(uid, missing.len() as u64, fx);
        }
    }

    /// The bookkeeping half of [`fire`](Retransmitter::fire), for a caller
    /// that has just resent `resent` messages of phase `uid` itself: counts
    /// them and schedules the phase's next, longer attempt.
    pub fn refire<M, R>(&mut self, uid: u64, resent: u64, fx: &mut Effects<M, R>) {
        let Some(p) = self.policy else {
            return;
        };
        self.sent += resent;
        let attempt = self.attempts.entry(uid).or_insert(0);
        *attempt = attempt.saturating_add(1);
        fx.set_timer(TimerKey(uid), p.delay(*attempt, self.salt ^ uid));
    }

    /// Forgets in-flight retry state (crash recovery wipes volatile state).
    /// The lifetime count survives: it is the node's
    /// `ReadPathCounters::retransmissions`, read through
    /// [`Engine::counters`](crate::engine::Engine::counters).
    pub(crate) fn reset(&mut self) {
        self.attempts.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Asserts each delay lies within ±1/8 of its nominal value.
    fn assert_in_band(delays: &[Nanos], nominal: &[Nanos]) {
        assert_eq!(delays.len(), nominal.len(), "{delays:?} vs {nominal:?}");
        for (&d, &at) in delays.iter().zip(nominal) {
            assert!(
                at - at / 8 <= d && d <= at + at / 8,
                "{d} outside the band around {at}"
            );
        }
    }

    #[test]
    fn backoff_grows_then_caps() {
        let p = BackoffPolicy::new(1_000);
        let delays: Vec<Nanos> = [0, 1, 2, 4, 10].map(|k| p.delay(k, 0)).to_vec();
        assert_in_band(&delays, &[1_000, 2_000, 4_000, 16_000, 16_000]);
        assert_eq!(p.max_delay(), 18_000, "capped at 16x base, plus jitter");
    }

    #[test]
    fn jitter_stays_in_band_and_is_deterministic() {
        let p = BackoffPolicy::new(8_000);
        for attempt in 0..8 {
            for salt in 0..50u64 {
                let d = p.delay(attempt, salt);
                let nominal = (8_000 << attempt).min(128_000);
                assert_in_band(&[d], &[nominal]);
                assert_eq!(d, p.delay(attempt, salt), "pure function");
            }
        }
    }

    #[test]
    fn jitter_desynchronizes_salts() {
        let p = BackoffPolicy::new(8_000);
        let delays: std::collections::BTreeSet<Nanos> =
            (0..16u64).map(|salt| p.delay(0, salt)).collect();
        assert!(delays.len() > 1, "distinct salts should spread delays");
    }

    #[test]
    fn retransmitter_targets_only_missing() {
        let mut rtx = Retransmitter::new(Some(BackoffPolicy::new(100)), ProcessId(0));
        let mut fx: Effects<u8, ()> = Effects::new();
        rtx.arm(1, &mut fx);
        rtx.fire(1, &[ProcessId(2)], 7u8, &mut fx);
        rtx.fire(1, &[], 7u8, &mut fx);
        assert_eq!(fx.sends, vec![(ProcessId(2), 7u8)]);
        assert_eq!(rtx.retransmissions(), 1);
        // Three Set commands: arm + one per fire (even with no targets the
        // phase stays armed, e.g. everyone responded but the quorum needs a
        // specific shape).
        assert_eq!(fx.timers.len(), 3);
    }

    #[test]
    fn delays_back_off_across_fires() {
        let mut rtx = Retransmitter::new(Some(BackoffPolicy::new(1_000)), ProcessId(0));
        let mut fx: Effects<u8, ()> = Effects::new();
        rtx.arm(5, &mut fx);
        rtx.fire(5, &[ProcessId(1)], 0u8, &mut fx);
        rtx.fire(5, &[ProcessId(1)], 0u8, &mut fx);
        assert_in_band(&delays_of(&fx, 5), &[1_000, 2_000, 4_000]);
    }

    /// The delay of every `Set` for phase `uid`, in order.
    fn delays_of(fx: &Effects<u8, ()>, uid: u64) -> Vec<Nanos> {
        fx.timers
            .iter()
            .filter_map(|t| match t {
                crate::context::TimerCmd::Set { key, after } if key.0 == uid => Some(*after),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn two_armed_phases_back_off_on_independent_ladders() {
        let mut rtx = Retransmitter::new(Some(BackoffPolicy::new(1_000)), ProcessId(0));
        let mut fx: Effects<u8, ()> = Effects::new();
        rtx.arm(1, &mut fx);
        rtx.fire(1, &[ProcessId(1)], 0, &mut fx);
        rtx.fire(1, &[ProcessId(1)], 0, &mut fx);
        // A second phase starts at the bottom however far the first has
        // climbed, and the first keeps climbing from where it was.
        rtx.arm(2, &mut fx);
        rtx.refire(2, 3, &mut fx);
        rtx.fire(1, &[ProcessId(1)], 0, &mut fx);
        assert_in_band(&delays_of(&fx, 1), &[1_000, 2_000, 4_000, 8_000]);
        assert_in_band(&delays_of(&fx, 2), &[1_000, 2_000]);
        assert_eq!(
            rtx.retransmissions(),
            3 + 3,
            "refire counts what it is told"
        );
        // Completing one phase leaves the other's ladder alone; a uid armed
        // again starts over.
        rtx.disarm(1, &mut fx);
        rtx.refire(2, 0, &mut fx);
        rtx.arm(1, &mut fx);
        assert_in_band(&delays_of(&fx, 2)[2..], &[4_000]);
        assert_in_band(&delays_of(&fx, 1)[4..], &[1_000]);
    }

    #[test]
    fn disabled_retransmitter_is_inert() {
        let mut rtx = Retransmitter::new(None, ProcessId(0));
        let mut fx: Effects<u8, ()> = Effects::new();
        rtx.arm(1, &mut fx);
        rtx.disarm(1, &mut fx);
        rtx.fire(1, &[ProcessId(1)], 0u8, &mut fx);
        assert!(fx.is_empty());
    }

    #[test]
    fn reset_restarts_the_backoff_ladder() {
        let mut rtx = Retransmitter::new(Some(BackoffPolicy::new(1_000)), ProcessId(0));
        let mut fx: Effects<u8, ()> = Effects::new();
        rtx.fire(1, &[ProcessId(1)], 0u8, &mut fx);
        rtx.fire(1, &[ProcessId(1)], 0u8, &mut fx);
        rtx.reset();
        rtx.arm(2, &mut fx);
        assert_in_band(&delays_of(&fx, 2), &[1_000]);
        assert_eq!(rtx.retransmissions(), 2, "counters survive reset");
    }
}
