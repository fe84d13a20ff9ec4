//! # abd-runtime — the protocols on real threads
//!
//! `abd-simnet` proves the protocols correct under a deterministic
//! adversary; this crate runs **the same sans-io state machines** on real
//! OS threads over crossbeam channels, which is what the wall-clock
//! benchmark (`benchmark/`) measures and what the examples demo:
//!
//! * [`cluster`] — thread-per-node hosting of any
//!   [`Protocol`](abd_core::context::Protocol): channel fabric, one thread
//!   driving each node's [`NodeHost`](abd_core::host::NodeHost) (which owns
//!   its timers), blocking clients, crash injection, optional random link
//!   delay ([`cluster::Jitter`]) that each receiving node holds until due;
//! * [`client`] — typed clients for the replicated key-value store and
//!   [`client::KvRegisterArray`], the adapter that lets every `abd-shmem`
//!   algorithm run over the ABD emulation unchanged;
//! * [`clock`] — the wall-clock [`Clock`](abd_core::clock::Clock)
//!   implementation, the one `Instant` site the crate's `clippy.toml`
//!   permits (under an `expect`), and the request for exact timers every
//!   node thread makes.
//!
//! ```
//! use abd_runtime::client::{spawn_kv_cluster, KvStoreClient};
//! use abd_runtime::cluster::Jitter;
//!
//! let cluster = spawn_kv_cluster::<String, u64>(3, Jitter::None);
//! cluster.crash(2); // a minority crash is harmless
//! let kv = KvStoreClient::new(cluster.client(0));
//! kv.put("x".to_string(), 1);
//! assert_eq!(kv.get("x".to_string()), Some(1));
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod clock;
pub mod cluster;

pub use client::{spawn_kv_cluster, KvRegisterArray, KvStoreClient};
pub use clock::MonotonicClock;
pub use cluster::{Client, Cluster, HistoryRecorder, Jitter};
