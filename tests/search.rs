//! Properties of the mutational nemesis search: every mutation
//! operator emits only legal schedules, and a seeded search is bit-for-bit
//! repeatable.
//!
//! The mutation engine's contract (`abd_simnet::search::mutate`) is that a
//! candidate either comes back `None` or comes back *legal*: it passes
//! [`NemesisSchedule::validate`] and keeps the liveness floor
//! (`respects_min_alive`). The search never re-checks this at run time —
//! an illegal schedule would make a campaign panic or hang — so the
//! property is load-bearing and gets the widest net we can cast: arbitrary
//! planner schedules, arbitrary operator chains, every operator.
//!
//! [`NemesisSchedule::validate`]: abd_repro::simnet::NemesisSchedule::validate

use abd_core::msg::RegisterOp;
use abd_core::types::ReadMode;
use abd_repro::simnet::search::mutate;
use abd_repro::simnet::{
    guided_search, MutationOp, NemesisConfig, OracleSpec, ProtocolSpec, SearchSpec, SimConfig,
};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Any chain of mutation operators applied to any planner schedule
    /// yields only schedules the planner could in principle have emitted:
    /// validated, ordered, liveness floor intact.
    #[test]
    fn mutation_chains_preserve_schedule_legality(
        plan_seed in any::<u64>(),
        partner_seed in any::<u64>(),
        chain_seed in any::<u64>(),
        n in 3usize..8,
        chain_len in 1usize..16,
    ) {
        let sched = NemesisConfig::new(plan_seed, n).plan();
        let partner = NemesisConfig::new(partner_seed, n).plan();
        prop_assert!(sched.validate(n).is_ok());

        let mut rng = SmallRng::seed_from_u64(chain_seed);
        let mut cur = sched;
        for _ in 0..chain_len {
            let op = MutationOp::ALL[rng.gen_range(0..MutationOp::ALL.len())];
            if let Some(next) = mutate(&mut rng, &cur, &partner, op, n) {
                prop_assert!(
                    next.validate(n).is_ok(),
                    "operator {op:?} emitted an illegal schedule"
                );
                prop_assert!(
                    next.respects_min_alive(n),
                    "operator {op:?} breached the liveness floor"
                );
                cur = next;
            }
        }
    }

    /// Every single operator, applied in isolation, is legality-preserving
    /// — not just legal chains whose later links mask an earlier bug.
    #[test]
    fn each_operator_is_legal_in_isolation(
        plan_seed in any::<u64>(),
        op_seed in any::<u64>(),
        n in 3usize..8,
    ) {
        let sched = NemesisConfig::new(plan_seed, n).plan();
        let partner = NemesisConfig::new(plan_seed ^ 0x5a5a, n).plan();
        for op in MutationOp::ALL {
            let mut rng = SmallRng::seed_from_u64(op_seed);
            if let Some(next) = mutate(&mut rng, &sched, &partner, op, n) {
                prop_assert!(next.validate(n).is_ok(), "{op:?}");
                prop_assert!(next.respects_min_alive(n), "{op:?}");
            }
        }
    }
}

fn small_spec() -> SearchSpec {
    let scripts = (0..3)
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
    SearchSpec {
        name: "search-determinism".to_string(),
        protocol: ProtocolSpec::Swmr {
            read_mode: ReadMode::TwoRound,
        },
        n: 3,
        backoff_base: Some(20_000),
        sim: SimConfig::new(9),
        scripts,
        think: 2_500,
        oracle: OracleSpec::AtomicSwmr,
        deadline_slack: 200_000_000,
    }
}

/// Two runs of the same seeded search agree on everything observable:
/// campaign count, corpus fingerprint, detection. This is the
/// property that makes a search result citable — "seed 9 detects in 14
/// campaigns" means the same thing on every machine.
#[test]
fn guided_search_is_deterministic_end_to_end() {
    let s = small_spec();
    let a = guided_search(&s, 9, 10);
    let b = guided_search(&s, 9, 10);
    assert_eq!(a.campaigns, b.campaigns);
    assert_eq!(a.corpus_len, b.corpus_len);
    assert_eq!(a.corpus_digest, b.corpus_digest);
    assert_eq!(a.detection.is_some(), b.detection.is_some());
    if let (Some(x), Some(y)) = (&a.detection, &b.detection) {
        assert_eq!(x.to_ron(), y.to_ron());
    }
}

/// Different search seeds explore differently (the corpus fingerprints
/// diverge) — the seed is a real lever, not dead state.
#[test]
fn distinct_seeds_explore_distinct_corpora() {
    let s = small_spec();
    let a = guided_search(&s, 9, 10);
    let b = guided_search(&s, 10, 10);
    assert_ne!(a.corpus_digest, b.corpus_digest);
}
