//! Deterministic campaign shrinking: from a failing [`Repro`] to a minimal
//! fault schedule.
//!
//! A failing nemesis soak names a campaign of dozens of faults; usually one
//! or two of them matter. This module applies delta debugging (ddmin, the
//! idea behind QuickCheck/proptest shrinking and Jepsen-style fault
//! bisection) to [`NemesisSchedule`]s, replaying every candidate through
//! the artifact's own oracle. Three axes, iterated to a fixpoint:
//!
//! 1. **Drop faults** — ddmin-style chunked removal (halving chunk sizes
//!    down to single faults), each candidate re-validated against the
//!    schedule's `min_alive` floor before it is replayed;
//! 2. **Shorten faults** — pull each fault's end toward its start (instant
//!    recovery first, then halving), so the minimal schedule shows how
//!    *long* a fault must hold, not just which one;
//! 3. **Trim workloads** — binary-search a global per-client script cap,
//!    then greedily pop individual script tails.
//!
//! A candidate counts as failing only if it fails with the **same**
//! [`Failure::kind`] as the original — shrinking an atomicity violation
//! must not wander off into an unrelated timeout. Everything is replayed
//! with the artifact's fixed seeds and visited in a fixed order, so the
//! same input always shrinks to the same minimal schedule (the CI golden
//! test holds the shrinker to exactly that).

use crate::nemesis::{NemesisSchedule, PlannedFault};
use crate::repro::{Failure, Repro};

/// The result of shrinking a failing artifact.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The minimized artifact: same failure kind, fewest faults found. Its
    /// `expected_digest` and `reason` describe the **minimal** replay, so
    /// it is itself a valid, replayable [`Repro`].
    pub minimal: Repro,
    /// The failure the minimal artifact reproduces.
    pub failure: Failure,
    /// Fault count of the original schedule.
    pub original_faults: usize,
    /// Total operation count of the original scripts.
    pub original_ops: usize,
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// Candidate replays evaluated (including the initial failing run).
    pub replays: usize,
}

impl ShrinkOutcome {
    /// Human-readable summary: what shrank, plus the minimal timeline.
    pub fn report(&self) -> String {
        let ops: usize = self.minimal.scripts.iter().map(Vec::len).sum();
        format!(
            "shrunk {} -> {} faults, {} -> {} ops in {} rounds ({} replays)\n\
             failure: {}\nminimal schedule:\n{}",
            self.original_faults,
            self.minimal.schedule.faults().len(),
            self.original_ops,
            ops,
            self.rounds,
            self.replays,
            self.failure,
            self.minimal.schedule.timeline()
        )
    }
}

/// Replaces `r`'s fault list, preserving its healing horizon, skews and
/// liveness floor so candidate replays stay comparable to the original.
fn with_faults(r: &Repro, faults: Vec<PlannedFault>) -> Repro {
    let mut cand = r.clone();
    cand.schedule = NemesisSchedule::from_faults(
        faults,
        r.schedule.heal_at(),
        r.schedule.skews().to_vec(),
        r.schedule.min_alive(),
    );
    cand
}

/// Runs a candidate; `Some(failure)` only if it is structurally valid and
/// fails with the original failure kind.
fn fails(cand: &Repro, kind: &str, replays: &mut usize) -> Option<(Failure, u64)> {
    cand.schedule.validate(cand.n).ok()?;
    *replays += 1;
    let out = cand.run();
    match out.failure {
        Some(f) if f.kind() == kind => Some((f, out.digest)),
        _ => None,
    }
}

/// Shrinks a failing artifact to a fixpoint along all three axes.
///
/// # Errors
///
/// If `original` does not fail under its own oracle — there is nothing to
/// shrink, and silently returning it unshrunk would let a fixed bug keep a
/// stale repro alive.
pub fn shrink(original: &Repro) -> Result<ShrinkOutcome, String> {
    let mut replays = 1;
    let first = original.run();
    let Some(orig_failure) = first.failure else {
        return Err(format!(
            "artifact '{}' does not fail under its {:?} oracle; nothing to shrink",
            original.name, original.oracle
        ));
    };
    let kind = orig_failure.kind();
    let original_faults = original.schedule.faults().len();
    let original_ops = original.scripts.iter().map(Vec::len).sum();

    let mut current = original.clone();
    let mut best = (orig_failure, first.digest);
    let mut rounds = 0;
    loop {
        rounds += 1;
        let mut changed = false;
        drop_faults(&mut current, kind, &mut replays, &mut best, &mut changed);
        shorten_faults(&mut current, kind, &mut replays, &mut best, &mut changed);
        trim_scripts(&mut current, kind, &mut replays, &mut best, &mut changed);
        // Fixpoint, or a runaway-transform backstop far above any real depth.
        if !changed || rounds >= 12 {
            break;
        }
    }

    current.expected_digest = best.1;
    current.reason = best.0.to_string();
    Ok(ShrinkOutcome {
        minimal: current,
        failure: best.0,
        original_faults,
        original_ops,
        rounds,
        replays,
    })
}

/// Axis 1: ddmin-style chunked fault removal. Chunks halve from half the
/// schedule down to single faults; a successful removal retries the same
/// granularity (the list shrank, so this terminates).
fn drop_faults(
    current: &mut Repro,
    kind: &str,
    replays: &mut usize,
    best: &mut (Failure, u64),
    changed: &mut bool,
) {
    let mut chunk = current.schedule.faults().len().div_ceil(2).max(1);
    loop {
        let mut removed = false;
        let mut i = 0;
        while i < current.schedule.faults().len() {
            let kept: Vec<PlannedFault> = current
                .schedule
                .faults()
                .iter()
                .enumerate()
                .filter(|(j, _)| *j < i || *j >= i + chunk)
                .map(|(_, f)| f.clone())
                .collect();
            let cand = with_faults(current, kept);
            if let Some(found) = fails(&cand, kind, replays) {
                *current = cand;
                *best = found;
                removed = true;
                *changed = true;
            } else {
                i += chunk;
            }
        }
        if !removed {
            if chunk == 1 {
                return;
            }
            chunk = (chunk / 2).max(1);
        }
    }
}

/// Axis 2: pull each fault's end toward its start — instant recovery
/// first, then a single halving step (the fixpoint loop compounds the
/// halvings across rounds).
fn shorten_faults(
    current: &mut Repro,
    kind: &str,
    replays: &mut usize,
    best: &mut (Failure, u64),
    changed: &mut bool,
) {
    for idx in 0..current.schedule.faults().len() {
        let f = current.schedule.faults()[idx].clone();
        let span = f.end().saturating_sub(f.start());
        if span <= 1 {
            continue;
        }
        for end in [f.start() + 1, f.start() + span / 2] {
            if end >= f.end() {
                continue;
            }
            let mut faults = current.schedule.faults().to_vec();
            faults[idx] = f.with_end(end);
            let cand = with_faults(current, faults);
            if let Some(found) = fails(&cand, kind, replays) {
                *current = cand;
                *best = found;
                *changed = true;
                break;
            }
        }
    }
}

/// Axis 3: trim workload scripts from the tail — first a binary-searched
/// global cap on per-client script length, then a greedy per-client pass
/// popping one trailing op at a time.
fn trim_scripts(
    current: &mut Repro,
    kind: &str,
    replays: &mut usize,
    best: &mut (Failure, u64),
    changed: &mut bool,
) {
    let capped = |r: &Repro, cap: usize| {
        let mut cand = r.clone();
        for s in &mut cand.scripts {
            s.truncate(cap);
        }
        cand
    };
    let max_len = current.scripts.iter().map(Vec::len).max().unwrap_or(0);
    let (mut lo, mut hi) = (0usize, max_len);
    while lo < hi {
        let mid = (lo + hi) / 2;
        let cand = capped(current, mid);
        if let Some(found) = fails(&cand, kind, replays) {
            *current = cand;
            *best = found;
            *changed = true;
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    for c in 0..current.scripts.len() {
        while !current.scripts[c].is_empty() {
            let mut cand = current.clone();
            cand.scripts[c].pop();
            if let Some(found) = fails(&cand, kind, replays) {
                *current = cand;
                *best = found;
                *changed = true;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::nemesis::NemesisConfig;
    use crate::repro::{OracleSpec, ProtocolSpec};
    use abd_core::msg::RegisterOp;
    use abd_core::types::ReadMode;

    fn healthy() -> Repro {
        let sched = NemesisConfig::new(7, 5).plan();
        Repro {
            name: "healthy".to_string(),
            protocol: ProtocolSpec::Swmr {
                read_mode: ReadMode::TwoRound,
            },
            n: 5,
            backoff_base: Some(20_000),
            sim: SimConfig::new(99),
            deadline: sched.heal_at() + 200_000_000,
            schedule: sched,
            scripts: (0..5)
                .map(|c| {
                    (0..3u64)
                        .map(|k| {
                            if c == 0 {
                                RegisterOp::Write(k + 1)
                            } else {
                                RegisterOp::Read
                            }
                        })
                        .collect()
                })
                .collect(),
            think: 5_000,
            oracle: OracleSpec::AtomicSwmr,
            expected_digest: 0,
            reason: String::new(),
        }
    }

    #[test]
    fn shrink_rejects_a_passing_artifact() {
        let err = shrink(&healthy()).unwrap_err();
        assert!(err.contains("does not fail"), "{err}");
    }

    #[test]
    fn shrink_minimizes_a_liveness_failure() {
        // A deadline placed inside the campaign's violation window: the
        // failure is pure liveness, and the minimal schedule should keep
        // only the faults needed to stall a client past the deadline.
        let sched = NemesisConfig::new(55, 5).with_violate_majority(true).plan();
        let mut r = healthy();
        r.name = "blocked".to_string();
        r.sim = SimConfig::new(2);
        r.deadline = sched.heal_at() - 1;
        r.schedule = sched;
        r.think = 300_000;
        r.scripts = (0..5)
            .map(|c| {
                (0..12u64)
                    .map(|k| {
                        if c == 0 {
                            RegisterOp::Write(k + 1)
                        } else {
                            RegisterOp::Read
                        }
                    })
                    .collect()
            })
            .collect();
        let before = r.schedule.faults().len();
        let out = shrink(&r).expect("blocked campaign must shrink");
        assert_eq!(out.failure.kind(), "liveness");
        assert!(
            out.minimal.schedule.faults().len() < before,
            "shrinker must discard some of the {before} faults"
        );
        assert!(out.minimal.schedule.validate(5).is_ok());
        // The minimized artifact still fails, with the same kind.
        let replay = out.minimal.run();
        assert_eq!(
            replay.failure.map(|f| f.kind()),
            Some("liveness"),
            "minimal artifact must reproduce the original failure kind"
        );
        assert!(out.report().contains("minimal schedule"));
    }
}
