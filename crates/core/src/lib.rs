//! # abd-core — Sharing Memory Robustly in Message-Passing Systems
//!
//! A from-scratch implementation of the **ABD emulation** (Attiya, Bar-Noy,
//! Dolev; PODC 1990 / JACM 1995): wait-free **atomic read/write registers**
//! on top of an asynchronous message-passing system in which any **minority
//! of processors may crash**.
//!
//! The crate provides:
//!
//! * the **single-writer** protocol of the paper ([`swmr`]) and the
//!   **multi-writer** extension ([`mwmr`]), both with unbounded timestamps;
//! * the **bounded-timestamp** variant ([`bounded`]), the part of the
//!   journal paper devoted to recycling labels from a finite pool, and
//!   **Byzantine masking quorums** ([`byzantine`]) — both the same register
//!   node over a store with its own label order and read fold;
//! * explicit **quorum systems** ([`quorum`]) generalizing the paper's
//!   majorities (thresholds, weighted voting, grids);
//! * the **regular / read-one baselines** ([`presets`]) whose anomalies the
//!   experiments exhibit.
//!
//! Protocols are **sans-io state machines** ([`context::Protocol`]): the
//! deterministic simulator (`abd-simnet`) and the thread runtime
//! (`abd-runtime`) both drive the exact same code, each node through one
//! [`host::NodeHost`] (whether it is up, its armed timers, restart).
//!
//! ## Quickstart
//!
//! Drive a three-node cluster by hand (real hosts do this for you):
//!
//! ```
//! use abd_core::context::{Effects, Protocol};
//! use abd_core::msg::{RegisterOp, RegisterResp};
//! use abd_core::swmr::{SwmrConfig, SwmrNode};
//! use abd_core::types::{OpId, ProcessId};
//!
//! // Three nodes; p0 is the writer.
//! let mut nodes: Vec<SwmrNode<u64>> = (0..3)
//!     .map(|i| SwmrNode::new(SwmrConfig::new(3, ProcessId(i), ProcessId(0)), 0))
//!     .collect();
//!
//! // p0 invokes Write(7): it broadcasts an update to p1 and p2.
//! let mut fx = Effects::new();
//! nodes[0].on_invoke(OpId(1), RegisterOp::Write(7), &mut fx);
//! assert_eq!(fx.sends.len(), 2);
//!
//! // Deliver the update to p1 and route its ack back: quorum {p0, p1}.
//! let (_, update) = fx.sends[0].clone();
//! let mut fx1 = Effects::new();
//! nodes[1].on_message(ProcessId(0), update, &mut fx1);
//! let (_, ack) = fx1.sends[0].clone();
//! let mut fx0 = Effects::new();
//! nodes[0].on_message(ProcessId(1), ack, &mut fx0);
//! assert_eq!(fx0.responses, vec![(OpId(1), RegisterResp::WriteOk)]);
//! ```
//!
//! ## Map of the construction
//!
//! | paper concept | here |
//! |---------------|------|
//! | replicated `(label, value)` pairs | [`replica::Replica`] |
//! | "wait for a majority" | [`phase::PhaseTracker`] + [`quorum::QuorumSystem`] |
//! | write / query / write-back messages | [`engine::Msg`] ([`msg::RegisterMsg`] under the unit key) |
//! | the emulation's state machine | [`engine::Engine`] (one operation path for registers and the store) |
//! | a processor of the emulation | [`register::RegisterNode`] (the engine over one replica, one operation at a time) |
//! | single-writer emulation | [`swmr::SwmrNode`] (the register at integer labels) |
//! | multi-writer extension | [`mwmr::MwmrNode`] (the register at `(seq, writer)` tags) |
//! | how a read quorum's replies fold to one pair | [`phase::Fold`], chosen by the [`engine::Store`]: maximum label, `b + 1` vouchers, windowed maximum |
//! | bounded timestamps | [`bounded`] (the register over a store that owns the label cycle) |
//! | Byzantine replicas (masking quorums) | [`byzantine`] (the register over a vouching store, behind a lie filter) |

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod batch;
pub mod bounded;
pub mod byzantine;
pub mod clock;
pub mod context;
pub mod engine;
pub mod fasthash;
pub mod host;
pub mod merkle;
pub mod msg;
pub mod mwmr;
pub mod phase;
pub mod presets;
pub mod procset;
pub mod quorum;
pub mod register;
pub mod replica;
pub mod retransmit;
pub mod swmr;
pub mod types;

#[cfg(test)]
pub(crate) mod testutil;

pub use batch::{Batched, Envelope};
pub use context::{Effects, Protocol, ReadPathCounters, ReadPathStats, TimerCmd, TimerKey};
pub use host::NodeHost;
pub use merkle::{key_hash, MerkleTree};
pub use msg::{RegisterMsg, RegisterOp, RegisterResp};
pub use mwmr::{MwmrConfig, MwmrNode};
pub use procset::ProcSet;
pub use quorum::{Grid, Majority, QuorumSystem, Threshold, Weighted};
pub use register::{Label, RegisterConfig, RegisterNode};
pub use retransmit::{BackoffPolicy, Retransmitter};
pub use swmr::{SwmrConfig, SwmrNode};
pub use types::{Nanos, OpId, ProcessId, ReadMode, RegisterError, SeqNo, Tag};
