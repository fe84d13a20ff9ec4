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
//! * **bug hunting** ([`nemesis`], [`search`], [`repro`], [`shrink`](mod@shrink)):
//!   planned fault campaigns, a blind search that runs independent
//!   windows of planner seeds until a campaign fails, and failures frozen
//!   into replayable artifacts that the shrinker minimizes.
//!
//! ## Example: a seeded adversarial run, checked for atomicity
//!
//! ```
//! use abd_core::types::{ProcessId, ReadMode};
//! use abd_simnet::workload::{WorkloadConfig, WriterMode};
//! use abd_simnet::{ProtocolSpec, Repro, SimConfig};
//!
//! let scripts = WorkloadConfig::new(7, 10, WriterMode::Single(ProcessId(0))).generate(5);
//! let swmr = ProtocolSpec::Swmr { read_mode: ReadMode::TwoRound };
//! let sim = SimConfig::new(2024).with_duplication(0.1);
//! let run = Repro::staggered("doc", swmr, sim, scripts, 100, 1_000_000_000);
//! // On a failure, `check_or_emit` writes a replayable artifact and names it.
//! let out = Repro { think: 100, ..run }.check_or_emit().unwrap();
//! assert!(out.completed && out.failure.is_none());
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
