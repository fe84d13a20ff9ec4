//! Bounded timestamps.
//!
//! The unbounded protocols in [`crate::swmr`] and [`crate::mwmr`] attach an
//! ever-growing integer to every value. A large part of the journal version
//! of the paper is devoted to removing this blemish: emulating the atomic
//! register with labels drawn from a **finite** pool, recycled as writes
//! retire old values. The paper builds on the sequential bounded-timestamp
//! systems of Israeli–Li, interlocked with reader/writer handshakes so that
//! a recycled label can never be confused with a live one.
//!
//! ## What this module implements (and the substitution made)
//!
//! * [`label`] — a bounded label space based on **serial-number arithmetic**
//!   (RFC 1982 style): labels live on a cycle of `modulus` values and are
//!   compared through a half-window. This is a simpler bounded *sequential
//!   timestamp system* than Israeli–Li's recursive tournament: it supports
//!   exactly the operations the emulation needs (successor, windowed
//!   comparison) with labels of `log2(modulus)` bits.
//! * [`swmr`] — the bounded single-writer emulation: the register shell
//!   over the quorum-operation engine ([`crate::register`],
//!   [`crate::engine`]) at a store that owns the label space — the writer
//!   draws labels from the cycle, replicas adopt and reads fold through the
//!   window; no state machine of its own. Instead
//!   of the paper's handshake machinery, staleness is kept inside the window
//!   by a **bounded-staleness assumption** on the network (no message is
//!   delivered after more than `window/2` subsequent writes complete) that
//!   the deterministic simulator can enforce — and, crucially, the protocol
//!   **detects** violations of the assumption ([`swmr::BoundedSwmrNode::window_violations`])
//!   instead of silently corrupting, so every experiment that uses it also
//!   certifies the assumption held.
//!
//! This preserves the property the paper's bounded construction exists to
//! establish and that experiment **T6** measures: *the metadata attached to
//! every message and replica is bounded — independent of how many operations
//! execute* — while being honest that full asynchrony (under which the paper's
//! far more intricate handshake scheme still works) is out of scope for the
//! simplified labels.

pub mod label;
pub mod swmr;

pub use label::{LabelSpace, SerialLabel};
pub use swmr::{BoundedSwmrConfig, BoundedSwmrNode};
