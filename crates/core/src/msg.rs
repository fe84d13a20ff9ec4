//! Wire messages and client operation types shared by the register
//! protocols.
//!
//! All ABD variants exchange the same four message shapes, differing only in
//! the label type `L` (plain [`SeqNo`](crate::types::SeqNo) for the
//! single-writer protocol, [`Tag`](crate::types::Tag) for the multi-writer
//! protocol, a bounded label for the bounded variant):
//!
//! * `Query` / `QueryReply` — the read (or multi-writer write) query phase:
//!   "send me your current `(label, value)`";
//! * `Update` / `UpdateAck` — the propagation phase: "adopt this
//!   `(label, value)` if it is newer than yours, then acknowledge".
//!
//! With [`ReadMode::Relay`](crate::types::ReadMode) three more shapes join
//! the set:
//!
//! * `RelayQuery` — the reader opens a relay round, carrying its own replica
//!   snapshot (which doubles as the reader's server-role forward);
//! * `RelayFwd` — server-to-server: each server forwards its snapshot for
//!   the round to every other server;
//! * `RelayReply` — a server that has collected forwards from a read quorum
//!   replies to the reader directly.
//!
//! Every phase carries a node-local unique id `uid`; replies echo it so a
//! client can discard stragglers from phases it has already completed. The
//! protocols are idempotent in `uid`, which is what makes blind
//! retransmission over lossy links safe.

use crate::engine::Msg;
use crate::types::{Consistency, RegisterError};

/// Message exchanged by the register emulation, generic over the label type
/// `L` and the register value type `V`: the operation path's wire format
/// ([`Msg`], declared once in [`crate::engine`]) under the unit key. A
/// register always has something written, so a replica reports what a
/// write stores.
pub type RegisterMsg<L, V> = Msg<(), L, V, V>;

// A queued event of a simulated run and a channel payload of the thread
// runtime hold one message by value, so this size is what each slot of the
// simulator's event slab weighs and what a backlog weighs (`KvMsg`'s pin is
// the one `sim-campaign` `peak_rss_mb` rests on). The event heap itself
// orders small keys and never moves a message.
const _: () = assert!(std::mem::size_of::<RegisterMsg<u64, u64>>() <= 40);

/// A client operation on the emulated register.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RegisterOp<V> {
    /// Read the register at the default (atomic) consistency level.
    Read,
    /// Read the register at an explicit consistency level.
    ///
    /// `ReadAt(Consistency::Atomic)` behaves exactly like [`RegisterOp::Read`];
    /// weaker tiers shed protocol rounds as documented on [`Consistency`].
    ReadAt(Consistency),
    /// Write `V` to the register.
    Write(V),
}

impl<V> RegisterOp<V> {
    /// The consistency tier of this operation: the requested tier for reads,
    /// `None` for writes (writes always run the full protocol).
    pub fn consistency(&self) -> Option<Consistency> {
        match self {
            RegisterOp::Read => Some(Consistency::Atomic),
            RegisterOp::ReadAt(c) => Some(*c),
            RegisterOp::Write(_) => None,
        }
    }

    /// Whether this operation is a read (at any consistency tier).
    pub fn is_read(&self) -> bool {
        !matches!(self, RegisterOp::Write(_))
    }
}

/// Response to a completed [`RegisterOp`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RegisterResp<V> {
    /// A read returned this value.
    ReadOk(V),
    /// A write completed.
    WriteOk,
    /// The operation was rejected (e.g. write on a non-writer processor).
    Err(RegisterError),
}

impl<V> RegisterResp<V> {
    /// Unwraps a read response.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not [`RegisterResp::ReadOk`].
    pub fn into_read_value(self) -> V
    where
        V: std::fmt::Debug,
    {
        match self {
            RegisterResp::ReadOk(v) => v,
            other => panic!("expected ReadOk, got {other:?}"),
        }
    }

    /// Whether the operation succeeded.
    pub fn is_ok(&self) -> bool {
        !matches!(self, RegisterResp::Err(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ProcessId, RegisterError};

    #[test]
    fn response_accessors() {
        let r: RegisterResp<u8> = RegisterResp::ReadOk(5);
        assert!(r.is_ok());
        assert_eq!(r.into_read_value(), 5);
        let w: RegisterResp<u8> = RegisterResp::WriteOk;
        assert!(w.is_ok());
        let e: RegisterResp<u8> = RegisterResp::Err(RegisterError::NotWriter {
            invoked_on: ProcessId(1),
            writer: ProcessId(0),
        });
        assert!(!e.is_ok());
    }

    #[test]
    #[should_panic(expected = "expected ReadOk")]
    fn into_read_value_panics_on_write_ok() {
        let w: RegisterResp<u8> = RegisterResp::WriteOk;
        w.into_read_value();
    }

    #[test]
    fn op_consistency_accessor() {
        use crate::types::Consistency;
        let r: RegisterOp<u8> = RegisterOp::Read;
        assert_eq!(r.consistency(), Some(Consistency::Atomic));
        assert!(r.is_read());
        let sc: RegisterOp<u8> = RegisterOp::ReadAt(Consistency::Sequential);
        assert_eq!(sc.consistency(), Some(Consistency::Sequential));
        assert!(sc.is_read());
        let w: RegisterOp<u8> = RegisterOp::Write(1);
        assert_eq!(w.consistency(), None);
        assert!(!w.is_read());
    }
}
