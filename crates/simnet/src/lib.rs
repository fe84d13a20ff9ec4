//! # abd-simnet — a deterministic adversary for asynchronous message passing
//!
//! The ABD paper's model is an asynchronous message-passing system whose
//! scheduler is an adversary: it delays, reorders, loses and duplicates
//! messages and crashes any minority of processors, all at the worst
//! possible moments. This crate is that adversary, made executable:
//!
//! * a **discrete-event engine** ([`Sim`]) driving the sans-io protocol
//!   nodes of `abd-core` with virtual time;
//! * every nondeterministic choice drawn from one **seeded RNG** — a seed
//!   *is* an execution, so any failure replays exactly;
//! * **fault injection**: crash schedules, network partitions with healing,
//!   per-message loss and duplication over fully reorderable links
//!   ([`SimConfig`]);
//! * **workload harness** ([`harness`], [`workload`]): closed-loop clients,
//!   each paced by its own completions, running generated read/write
//!   scripts, with completed executions
//!   exported as `abd-lincheck` histories for consistency checking;
//! * **bug hunting** ([`nemesis`], [`search`], [`repro`], [`shrink`]):
//!   planned fault campaigns, a blind search that runs independent
//!   windows of planner seeds until a campaign fails, and failures frozen
//!   into replayable artifacts that the shrinker minimizes.
//!
//! ## Example: a seeded adversarial run, checked for atomicity
//!
//! ```
//! use abd_core::swmr::{SwmrConfig, SwmrNode};
//! use abd_core::types::ProcessId;
//! use abd_simnet::workload::{run_workload, WorkloadConfig, WriterMode};
//! use abd_simnet::{Sim, SimConfig};
//!
//! let nodes: Vec<SwmrNode<u64>> = (0..5)
//!     .map(|i| SwmrNode::new(SwmrConfig::new(5, ProcessId(i), ProcessId(0)), 0))
//!     .collect();
//! let mut sim = Sim::new(SimConfig::new(2024).with_duplication(0.1), nodes);
//! let wl = WorkloadConfig::new(7, 10, WriterMode::Single(ProcessId(0)));
//! let history = run_workload(&mut sim, &wl, 100, 1_000_000_000, true).unwrap();
//! assert!(abd_lincheck::is_atomic_swmr(&history));
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes_without_reason)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod harness;
pub mod metrics;
pub mod nemesis;
pub mod planted;
pub mod repro;
pub mod search;
pub mod shrink;
pub mod sim;
pub mod workload;

pub use config::{LatencyModel, SimConfig};
pub use metrics::Metrics;
pub use nemesis::{run_campaign, NemesisConfig, NemesisSchedule, PlannedFault};
pub use planted::{AmnesiacKv, MutantKind, MutantSwmr};
pub use repro::{Failure, OracleSpec, ProtocolSpec, ReplayOutcome, Repro};
pub use search::{blind_search, SearchOutcome, SearchSpec};
pub use shrink::{shrink, ShrinkOutcome};
pub use sim::{OpRecord, Sim, TapEvent, TapKind};
