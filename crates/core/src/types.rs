//! Fundamental identifier and timestamp types shared by every protocol in
//! this crate.
//!
//! The ABD emulation runs on a fixed, fully connected set of `n` processors
//! named by dense indices (`ProcessId`). Register values are tagged with
//! totally ordered *labels*: plain sequence numbers for the single-writer
//! protocol ([`SeqNo`]) and `(sequence, writer)` pairs for the multi-writer
//! protocol ([`Tag`]).

use std::fmt;

/// Virtual (or real) time expressed in nanoseconds.
///
/// The protocol core never interprets absolute times; it only hands
/// durations to the host when arming retransmission timers.
pub type Nanos = u64;

/// Identifier of a processor in the system.
///
/// Processors are named `0..n` for a cluster of size `n`. The id doubles as
/// an index into per-processor tables and as the tie-breaking component of
/// multi-writer [`Tag`]s.
///
/// # Examples
///
/// ```
/// use abd_core::types::ProcessId;
/// let p = ProcessId(2);
/// assert_eq!(p.index(), 2);
/// assert_eq!(p.to_string(), "p2");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// Returns the dense index of this processor.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<usize> for ProcessId {
    fn from(i: usize) -> Self {
        ProcessId(i)
    }
}

/// Identifier of a client operation instance.
///
/// Assigned by the host (simulator or runtime) when an operation is invoked
/// on a node; echoed back in the corresponding response so the host can match
/// completions to invocations.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct OpId(pub u64);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Unbounded sequence number used as the label of the single-writer
/// protocol.
///
/// The single writer increments it once per write; `0` labels the initial
/// value of the register.
pub type SeqNo = u64;

/// Label of the multi-writer protocol: a `(sequence, writer)` pair ordered
/// lexicographically.
///
/// Two different writers can never produce the same tag because the writer id
/// breaks ties, which is exactly what makes the multi-writer emulation's
/// labels totally ordered.
///
/// # Examples
///
/// ```
/// use abd_core::types::{ProcessId, Tag};
/// let a = Tag::new(3, ProcessId(0));
/// let b = Tag::new(3, ProcessId(1));
/// let c = Tag::new(4, ProcessId(0));
/// assert!(a < b);
/// assert!(b < c);
/// assert_eq!(b.next(ProcessId(2)), Tag::new(4, ProcessId(2)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Tag {
    /// Monotonically increasing sequence component.
    pub seq: u64,
    /// Writer id; breaks ties between concurrent writers.
    pub writer: ProcessId,
}

impl Tag {
    /// Creates a tag from its components.
    pub fn new(seq: u64, writer: ProcessId) -> Self {
        Tag { seq, writer }
    }

    /// The tag labelling the initial register value (smaller than every tag
    /// any writer produces).
    pub fn initial() -> Self {
        Tag {
            seq: 0,
            writer: ProcessId(0),
        }
    }

    /// Returns the tag a writer `w` should use after observing `self` as the
    /// largest tag in its query phase.
    pub fn next(self, w: ProcessId) -> Self {
        Tag {
            seq: self.seq + 1,
            writer: w,
        }
    }
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.seq, self.writer)
    }
}

/// How a reader completes, chosen per node via `with_read_mode` on the
/// protocol configs.
///
/// The first three modes are atomic and trade message count against latency
/// under contention; the fourth gives up atomicity:
///
/// * [`TwoRound`](ReadMode::TwoRound) — the paper's protocol: query a read
///   quorum, then write the chosen pair back to a write quorum. Always two
///   round trips.
/// * [`FastUnanimous`](ReadMode::FastUnanimous) — elide the write-back when
///   the query quorum unanimously reported one maximum label *and* forms a
///   write quorum (see `abd_core::quorum::fast_read_allowed`). One round
///   when uncontended, but any concurrent write destroys unanimity and the
///   read degrades back to two rounds.
/// * [`Relay`](ReadMode::Relay) — servers forward their `(label, value)`
///   to each other and reply to the reader directly once their forwards
///   cover a read quorum ("Oh-RAM!", Hadjistasi–Nicolaou–Schwarzmann).
///   Every read — contended or not — completes in one and a half message
///   delays, at the cost of `O(n²)` server messages.
/// * [`NoWriteBack`](ReadMode::NoWriteBack) — the query round alone: return
///   the read quorum's maximum without writing it back or adopting it. This
///   is the paper's *regular* register, the baseline whose new/old
///   inversions experiment **T5** exhibits; it is a mode rather than a
///   [`Consistency`] tier because it adopts nothing locally, where a
///   `Regular` read does.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum ReadMode {
    /// Query + write-back: the paper's always-atomic baseline.
    #[default]
    TwoRound,
    /// One-round reads when a unanimous query quorum is a write quorum.
    FastUnanimous,
    /// Server-to-server relay: 1.5 message delays for every read.
    Relay,
    /// The query round alone: a regular, not an atomic, register.
    NoWriteBack,
}

/// Per-operation consistency level for *read* operations.
///
/// Writes always run the full two-phase protocol; the tier only relaxes what
/// a read must do before returning, trading recency guarantees for rounds and
/// messages on the same replica/retransmission/recovery machinery:
///
/// * [`Atomic`](Consistency::Atomic) — the default. Reads are linearizable:
///   query a quorum, then write the chosen pair back so no later read
///   observes an older value (the paper's full protocol; the exact path is
///   chosen by [`ReadMode`]).
/// * [`Sequential`](Consistency::Sequential) — SC-ABD style. Reads return
///   the local replica's value immediately with no network round at all.
///   Clients still observe a view consistent with *some* total order that
///   respects every client's program order, because replica labels only ever
///   advance; cross-client real-time recency is forfeited.
/// * [`Regular`](Consistency::Regular) — reads run the query round against a
///   quorum but skip the write-back. A read never returns a value that was
///   overwritten before it started, but two non-overlapping reads racing a
///   write may observe the new value then the old one (the new/old inversion
///   the write-back exists to prevent).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Consistency {
    /// Linearizable reads: query round plus write-back (or fast/relay path).
    #[default]
    Atomic,
    /// Sequentially consistent reads: serve the local replica, zero rounds.
    Sequential,
    /// Regular reads: query round only, write-back elided.
    Regular,
}

impl fmt::Display for Consistency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Consistency::Atomic => write!(f, "atomic"),
            Consistency::Sequential => write!(f, "sequential"),
            Consistency::Regular => write!(f, "regular"),
        }
    }
}

/// Errors surfaced by protocol nodes through their responses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RegisterError {
    /// A write was invoked on a processor that is not the designated writer
    /// of a single-writer register.
    NotWriter {
        /// The processor the operation was invoked on.
        invoked_on: ProcessId,
        /// The designated writer of the register.
        writer: ProcessId,
    },
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegisterError::NotWriter { invoked_on, writer } => write!(
                f,
                "write invoked on {invoked_on} but the designated writer is {writer}"
            ),
        }
    }
}

impl std::error::Error for RegisterError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_id_display_and_index() {
        assert_eq!(ProcessId(7).to_string(), "p7");
        assert_eq!(ProcessId::from(3).index(), 3);
    }

    #[test]
    fn tag_ordering_is_lexicographic() {
        let t00 = Tag::new(0, ProcessId(0));
        let t01 = Tag::new(0, ProcessId(1));
        let t10 = Tag::new(1, ProcessId(0));
        assert!(t00 < t01);
        assert!(t01 < t10);
        assert!(t10 > t00);
        assert_eq!(Tag::initial(), t00);
    }

    #[test]
    fn tag_next_increments_seq_and_stamps_writer() {
        let t = Tag::new(41, ProcessId(3));
        let n = t.next(ProcessId(5));
        assert_eq!(n.seq, 42);
        assert_eq!(n.writer, ProcessId(5));
        assert!(n > t);
    }

    #[test]
    fn tag_display() {
        assert_eq!(Tag::new(9, ProcessId(2)).to_string(), "9@p2");
    }

    #[test]
    fn register_error_display() {
        let e = RegisterError::NotWriter {
            invoked_on: ProcessId(1),
            writer: ProcessId(0),
        };
        assert!(e.to_string().contains("p1"));
        assert!(e.to_string().contains("p0"));
    }

    #[test]
    fn types_are_send_and_sync() {
        fn assert_ss<T: Send + Sync>() {}
        assert_ss::<ProcessId>();
        assert_ss::<Tag>();
        assert_ss::<OpId>();
        assert_ss::<RegisterError>();
        assert_ss::<Consistency>();
    }

    #[test]
    fn consistency_defaults_to_atomic_and_displays() {
        assert_eq!(Consistency::default(), Consistency::Atomic);
        assert_eq!(Consistency::Atomic.to_string(), "atomic");
        assert_eq!(Consistency::Sequential.to_string(), "sequential");
        assert_eq!(Consistency::Regular.to_string(), "regular");
    }
}
