//! Blind nemesis search: planner-drawn fault schedules, run one after
//! another until a campaign fails its oracle.
//!
//! The nemesis planner ([`crate::nemesis`]) draws one legal campaign per
//! seed. [`blind_search`] runs a window of planner seeds under a campaign
//! budget and stops at the first campaign whose run fails its oracle; the
//! failing campaign comes back as a self-contained [`Repro`], so a
//! detection flows straight into `check_or_emit` and the shrinker. Trials
//! with distinct seeds draw disjoint windows, so they are independent
//! samples.
//!
//! Nothing steers the draw: across simulator seeds 1–8, eight independent
//! trials detect every planted mutant at every seed (EXPERIMENTS F7).
//!
//! Everything is deterministic: planner schedules and candidate executions
//! are seeded, so `blind_search(spec, seed, budget)` twice yields the same
//! detection.

use crate::config::SimConfig;
use crate::nemesis::{NemesisConfig, NemesisSchedule};
use crate::repro::{OracleSpec, ProtocolSpec, Repro};
use abd_core::msg::RegisterOp;
use abd_core::types::Nanos;

/// Everything a search needs to turn a candidate schedule into a runnable
/// campaign: the fixed protocol/workload frame that every candidate shares.
#[derive(Clone, Debug)]
pub struct SearchSpec {
    /// Slug naming the hunt (becomes the repro artifact name).
    pub name: String,
    /// Protocol under test.
    pub protocol: ProtocolSpec,
    /// Cluster size.
    pub n: usize,
    /// Retransmission backoff base, if the nodes retransmit.
    pub backoff_base: Option<Nanos>,
    /// Network / scheduler configuration (fixed across candidates — the
    /// search explores fault schedules, not network parameters).
    pub sim: SimConfig,
    /// Per-client scripts, indexed by node.
    pub scripts: Vec<Vec<RegisterOp<u64>>>,
    /// Closed-loop think time.
    pub think: Nanos,
    /// Failure predicate for each candidate run.
    pub oracle: OracleSpec,
    /// Liveness slack added to each candidate's `heal_at` to form its
    /// deadline (derive it from [`crate::nemesis::liveness_bound`]).
    pub deadline_slack: Nanos,
}

impl SearchSpec {
    /// Freezes one candidate schedule into a self-contained [`Repro`] —
    /// the same artifact type failing soaks emit, so a detection flows
    /// directly into `check_or_emit` and the shrinker.
    fn repro_for(&self, schedule: &NemesisSchedule) -> Repro {
        Repro {
            name: self.name.clone(),
            protocol: self.protocol,
            n: self.n,
            backoff_base: self.backoff_base,
            sim: self.sim.clone(),
            schedule: schedule.clone(),
            scripts: self.scripts.clone(),
            think: self.think,
            deadline: schedule.heal_at() + self.deadline_slack,
            oracle: self.oracle,
            expected_digest: 0,
            reason: String::new(),
        }
    }
}

/// What a search run produced.
#[derive(Debug)]
pub struct SearchOutcome {
    /// Campaigns actually executed (the schedules-to-detect metric when a
    /// detection happened; the exhausted budget otherwise).
    pub campaigns: usize,
    /// The failing campaign as a replayable artifact, when one was found.
    pub detection: Option<Repro>,
}

/// Runs `sched` as the search's `campaigns`th campaign. A failure ends the
/// search, and this is its outcome; a pass is `None`.
fn detect(spec: &SearchSpec, sched: &NemesisSchedule, campaigns: usize) -> Option<SearchOutcome> {
    let repro = spec.repro_for(sched);
    repro.run().failure?;
    Some(SearchOutcome {
        campaigns,
        detection: Some(repro),
    })
}

/// One fresh planner-drawn campaign per planner seed until a campaign
/// fails its oracle or `budget` campaigns have run — a seed sweep.
/// Deterministic in `(spec, seed, budget)`.
///
/// Trial `seed` runs planner seeds `seed·budget … seed·budget + budget − 1`,
/// so trials with distinct seeds and one budget draw disjoint windows of
/// schedules: independent samples, not shifted copies of one sweep.
pub fn blind_search(spec: &SearchSpec, seed: u64, budget: usize) -> SearchOutcome {
    let first = seed.wrapping_mul(budget as u64);
    for i in 0..budget {
        let sched = NemesisConfig::new(first.wrapping_add(i as u64), spec.n).plan();
        if let Some(found) = detect(spec, &sched, i + 1) {
            return found;
        }
    }
    SearchOutcome {
        campaigns: budget,
        detection: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MutantKind;
    use abd_core::types::ReadMode;

    fn spec(protocol: ProtocolSpec) -> SearchSpec {
        // A single dedicated writer racing four readers, matching the
        // workload shape of the `planted-campaign` bench fixture: the
        // write-back drop needs a read that lands between a write's
        // update round and a second read to surface a new/old inversion.
        // The scripts are long enough that the clients stay busy across
        // the whole fault horizon — faults that fire after the workload
        // drains can never provoke anything — at one operation per client
        // every 10 µs.
        let scripts = (0..5)
            .map(|c| {
                (0..64u64)
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
        SearchSpec {
            name: "unit".to_string(),
            protocol,
            n: 5,
            backoff_base: Some(20_000),
            sim: SimConfig::new(4),
            scripts,
            think: 10_000,
            oracle: OracleSpec::Linearizable,
            deadline_slack: 200_000_000,
        }
    }

    #[test]
    fn blind_search_finds_the_planted_write_back_drop() {
        let s = spec(ProtocolSpec::MutantSwmr {
            mutant: MutantKind::DropWriteBack,
            every: 1,
        });
        // Trial 0 detects at its 17th campaign; about half the trials of
        // this frame detect within 24.
        let out = blind_search(&s, 0, 24);
        let detection = out.detection.expect("planted bug must be detected");
        assert!(out.campaigns <= 24);
        // The detection is a replayable artifact: it fails the same way.
        let replay = detection.run();
        assert!(replay.failure.is_some(), "detection must replay as failing");
    }

    #[test]
    fn healthy_protocol_exhausts_blind_budget_without_detection() {
        let s = spec(ProtocolSpec::Swmr {
            read_mode: ReadMode::TwoRound,
        });
        let out = blind_search(&s, 7, 5);
        assert!(out.detection.is_none(), "{:?}", out.detection);
        assert_eq!(out.campaigns, 5);
    }

    #[test]
    fn blind_trials_draw_disjoint_planner_windows() {
        let s = spec(ProtocolSpec::MutantSwmr {
            mutant: MutantKind::NonMonotonicTag,
            every: 0,
        });
        let budget = 8;
        let out = blind_search(&s, 1, budget);
        let detection = out.detection.expect("non-monotonic tag is detected");
        assert_eq!(
            detection.schedule,
            NemesisConfig::new((budget + out.campaigns - 1) as u64, s.n).plan(),
            "trial 1's k-th campaign is planner seed budget + k - 1"
        );
    }
}
