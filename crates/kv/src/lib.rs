//! # abd-kv — a replicated key-value store on the multi-writer ABD emulation
//!
//! The downstream artifact the paper's impact statement points to: a
//! quorum-replicated store where **every key is an independent atomic
//! multi-writer register**. Gets and puts are the two-phase quorum
//! operations of the emulation — literally: [`KvNode`] runs
//! `abd-core`'s quorum-operation engine ([`abd_core::engine`]), the same
//! state machine the register protocols run, over a keyed store — and the
//! store inherits the register's guarantees per key:
//!
//! * linearizable gets/puts while any **minority** of replicas has crashed;
//! * no lost updates between concurrent writers (tags order them);
//! * no stale or flip-flopping reads (the get write-back).
//!
//! [`reconfig::RcNode`] adds dynamic membership (RAMBO-lite) without adding
//! a protocol: it is an epoch fence *around* a [`KvNode`], which keeps
//! running every get and put — under the quorum system of whichever
//! configuration is in force — while the wrapper seals, migrates and
//! installs. The three methods it needs of the node are
//! [`KvNode::entries`], [`KvNode::merge`] and [`KvNode::requorum`].
//!
//! The node is a sans-io [`Protocol`](abd_core::context::Protocol) like the
//! register protocols, so it runs identically under the `abd-simnet`
//! adversary (where its histories are checked for per-key linearizability)
//! and on the `abd-runtime` thread transport (which exposes the blocking
//! client used by the examples).
//!
//! ```
//! use abd_core::context::{Effects, Protocol};
//! use abd_core::types::{OpId, ProcessId};
//! use abd_kv::{KvConfig, KvNode, KvOp, KvResp};
//!
//! let mut node: KvNode<String, String> = KvNode::new(KvConfig::new(1, ProcessId(0)));
//! let mut fx = Effects::new();
//! node.on_invoke(OpId(0), KvOp::Put("user:7".into(), "ada".into()), &mut fx);
//! node.on_invoke(OpId(1), KvOp::Get("user:7".into()), &mut fx);
//! assert_eq!(fx.responses[1].1, KvResp::GetOk(Some("ada".into())));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod node;
pub mod reconfig;

pub use node::{KvConfig, KvMsg, KvNode, KvOp, KvResp};
pub use reconfig::{Config, RcMsg, RcNode, RcNodeConfig, RcOp, RcResp};
