//! Quorum-gathering phases.
//!
//! Every operation of the emulation is one or two *phases*: broadcast a
//! request, then wait until the set of responders (always including the
//! issuing processor itself) contains a quorum. [`PhaseTracker`] owns the
//! bookkeeping common to all of them — the unique phase id, the responder
//! set, and the retransmission target list — so the protocol state machines
//! only encode *what* each phase means.

use crate::procset::ProcSet;
use crate::types::ProcessId;

/// Tracks one in-flight phase: who has responded, and which phase id the
/// responses must echo.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PhaseTracker {
    uid: u64,
    responders: ProcSet,
}

impl PhaseTracker {
    /// Starts a phase with id `uid` for a cluster of `n` processors,
    /// counting the issuing processor `me` as having already responded
    /// (a processor never messages itself).
    pub fn new(uid: u64, n: usize, me: ProcessId) -> Self {
        let mut responders = ProcSet::new(n);
        responders.insert(me);
        PhaseTracker { uid, responders }
    }

    /// Starts a phase with **no** responder pre-seeded. Relay reads use
    /// this for the reply-collection phase: the issuer's own reply only
    /// counts once its own server-side relay round has completed, so even
    /// `me` must be recorded explicitly.
    pub fn new_empty(uid: u64, n: usize) -> Self {
        PhaseTracker {
            uid,
            responders: ProcSet::new(n),
        }
    }

    /// The phase id replies must carry.
    pub fn uid(&self) -> u64 {
        self.uid
    }

    /// Records a response from `from` if `uid` matches this phase.
    /// Returns `true` if the response was accepted (right phase, first time).
    pub fn record(&mut self, from: ProcessId, uid: u64) -> bool {
        uid == self.uid && self.responders.insert(from)
    }

    /// The set of processors that have responded (including the issuer).
    pub fn responders(&self) -> &ProcSet {
        &self.responders
    }

    /// Processors that have **not** responded yet — the retransmission
    /// targets when the phase timer fires.
    pub fn missing(&self) -> Vec<ProcessId> {
        self.responders.complement()
    }
}

/// How a read quorum's replies fold to one pair: the policy a store chooses
/// ([`Store::Fold`](crate::engine::Store::Fold)) for the engine's reads and
/// for its host's catch-up round alike. The store starts a fold from its own
/// pair and settles the finished one
/// ([`Store::choose`](crate::engine::Store::choose)); in between the fold is
/// only fed. Three exist: the maximum label ([`TagCensus`]), the highest
/// pair enough replicas vouch for ([`crate::byzantine`]) and the maximum
/// through a comparison window ([`crate::bounded`]).
pub trait Fold<L, R> {
    /// Folds in one reply.
    fn observe(&mut self, label: L, value: R);

    /// Whether every reply agreed on one maximum label — the fast-path
    /// read's question. Only a fold over honest replies in a total order
    /// can answer `true`.
    fn unanimous(&self) -> bool {
        false
    }
}

/// Folds the `(label, value)` replies of a read query phase, tracking both
/// the maximum label seen **and whether every reply agreed on it**.
///
/// The agreement bit is what the fast-path read needs: if all responders
/// (seeded with the issuer's own replica) reported one identical maximum
/// label, the value is already as replicated as a completed write-back
/// would leave it. The final elision decision additionally requires the
/// responder set to be a write quorum —
/// [`fast_read_allowed`](crate::quorum::fast_read_allowed) takes both.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TagCensus<L, V> {
    max_label: L,
    value: V,
    unanimous: bool,
}

impl<L: Ord, V> TagCensus<L, V> {
    /// Starts a census from the issuer's own replica snapshot.
    pub fn new(label: L, value: V) -> Self {
        TagCensus {
            max_label: label,
            value,
            unanimous: true,
        }
    }

    /// The maximum label observed so far.
    pub fn max_label(&self) -> &L {
        &self.max_label
    }

    /// Consumes the census, yielding the `(max label, value)` pair.
    pub fn into_best(self) -> (L, V) {
        (self.max_label, self.value)
    }
}

impl<L: Ord, V> Fold<L, V> for TagCensus<L, V> {
    /// Any reply that differs from the current maximum — above *or* below
    /// it — destroys unanimity for good.
    fn observe(&mut self, label: L, value: V) {
        match label.cmp(&self.max_label) {
            std::cmp::Ordering::Greater => {
                self.unanimous = false;
                self.max_label = label;
                self.value = value;
            }
            std::cmp::Ordering::Less => self.unanimous = false,
            std::cmp::Ordering::Equal => {}
        }
    }

    /// `true` while every observation matched the running maximum.
    fn unanimous(&self) -> bool {
        self.unanimous
    }
}

/// Folds the `(label, value)` replies of a relay read, keeping the pair
/// with the **minimum** label.
///
/// Each relay reply carries a label every *completed* write's label is ≤ of
/// (the replier adopted the maximum of a read quorum of forwards before
/// replying), so the minimum over a write quorum of replies is still fresh
/// enough to return — and unlike the maximum, it is held by *every* replier
/// in that write quorum, which is what lets the reader skip the write-back:
/// any later read's forwards intersect the quorum and can only report
/// labels ≥ it.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RelayCensus<L, V> {
    min: Option<(L, V)>,
}

impl<L: PartialOrd, V> RelayCensus<L, V> {
    /// Starts an empty census (the issuer's replica does not count until
    /// its own relay round completes).
    pub fn new() -> Self {
        RelayCensus { min: None }
    }

    /// Folds in one reply, keeping the smaller label (first seen wins ties).
    pub fn observe(&mut self, label: L, value: V) {
        match &self.min {
            Some((cur, _)) if *cur <= label => {}
            _ => self.min = Some((label, value)),
        }
    }

    /// Consumes the census, yielding the minimum `(label, value)` pair, or
    /// `None` if nothing was observed.
    pub fn into_min(self) -> Option<(L, V)> {
        self.min
    }
}

impl<L: PartialOrd, V> Default for RelayCensus<L, V> {
    fn default() -> Self {
        RelayCensus::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_self_and_filters_stale_uids() {
        let mut ph = PhaseTracker::new(7, 5, ProcessId(2));
        assert_eq!(ph.uid(), 7);
        assert_eq!(ph.responders().len(), 1);
        assert!(ph.responders().contains(ProcessId(2)));

        assert!(ph.record(ProcessId(0), 7));
        assert!(!ph.record(ProcessId(0), 7), "duplicate response ignored");
        assert!(!ph.record(ProcessId(1), 6), "stale phase id ignored");
        assert_eq!(ph.responders().len(), 2);
    }

    #[test]
    fn empty_tracker_counts_nobody_until_recorded() {
        let mut ph = PhaseTracker::new_empty(3, 3);
        assert_eq!(ph.responders().len(), 0);
        assert_eq!(ph.missing().len(), 3, "even the issuer is missing");
        assert!(ph.record(ProcessId(1), 3));
        assert!(!ph.record(ProcessId(1), 3));
        assert_eq!(ph.responders().len(), 1);
    }

    #[test]
    fn relay_census_keeps_the_minimum_pair() {
        let mut c = RelayCensus::new();
        assert_eq!(c.clone().into_min(), None);
        c.observe(5u64, "e");
        c.observe(3, "c");
        c.observe(4, "d");
        c.observe(3, "c2"); // ties keep the first pair seen
        assert_eq!(c.into_min(), Some((3, "c")));
    }

    #[test]
    fn missing_lists_non_responders() {
        let mut ph = PhaseTracker::new(1, 4, ProcessId(0));
        ph.record(ProcessId(3), 1);
        assert_eq!(ph.missing(), vec![ProcessId(1), ProcessId(2)]);
    }

    #[test]
    fn census_stays_unanimous_on_identical_labels() {
        let mut c = TagCensus::new(4u64, "v");
        c.observe(4, "v");
        c.observe(4, "v");
        assert!(c.unanimous());
        assert_eq!(*c.max_label(), 4);
        assert_eq!(c.into_best(), (4, "v"));
    }

    #[test]
    fn census_loses_unanimity_on_any_mismatch() {
        // A lower label breaks agreement without changing the max.
        let mut low = TagCensus::new(4u64, 40);
        low.observe(3, 30);
        assert!(!low.unanimous());
        assert_eq!(low.into_best(), (4, 40));

        // A higher label breaks agreement *and* updates the max; later
        // matching replies never restore unanimity.
        let mut high = TagCensus::new(4u64, 40);
        high.observe(5, 50);
        high.observe(5, 50);
        assert!(!high.unanimous());
        assert_eq!(high.into_best(), (5, 50));
    }
}
