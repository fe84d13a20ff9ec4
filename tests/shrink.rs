//! Integration: the repro + shrink pipeline end to end, proven against a
//! **planted** protocol bug.
//!
//! The subsystem under test is the test fleet itself, so the acceptance
//! bar uses a bug whose root cause is known by construction:
//! [`MutantKind::DropWriteBack`] drops the write-back phase of planted reads, the exact
//! step that upgrades the paper's regular register to an atomic one. A
//! 20-fault campaign buries the two faults that actually surface the
//! resulting new/old inversion — a partition that strands a half-written
//! label on one reader, and a writer crash that orphans it — under 18
//! irrelevant late faults; the shrinker must strip the campaign to a
//! ≤2-fault schedule — twice, identically (determinism) — and an emitted
//! artifact must replay the failure digest bit-for-bit after a serialize /
//! parse roundtrip.

use abd_core::msg::RegisterOp;
use abd_core::retransmit::BackoffPolicy;
use abd_core::types::ProcessId;
use abd_repro::simnet::nemesis::liveness_bound;
use abd_repro::simnet::{
    shrink, MutantKind, NemesisSchedule, PlannedFault, ProtocolSpec, Repro, SimConfig,
};

const N: usize = 5;
const BACKOFF_BASE: u64 = 20_000;

/// A 20-fault campaign hiding a 2-fault trigger.
///
/// The trigger: writes launch on a fixed cadence under `think = 2_500`, so
/// a partition cut just after a write's `Update` broadcast leaves the label
/// on node 1 (the writer's partition-mate) while the majority side never
/// hears it; crashing the writer mid-partition aborts the write, and with
/// every read's write-back planted away the stranded label never reaches a
/// quorum. After the heal, a read through node 1 returns the new value and
/// any later read whose quorum misses node 1 returns the old one: a
/// new/old inversion.
///
/// The 18 padding faults all land *after* the inversion window and before
/// the healing horizon — real noise a failing soak would record, none of
/// it load-bearing.
fn planted_campaign() -> NemesisSchedule {
    let mut faults = vec![
        PlannedFault::Partition {
            at: 40_003,
            groups: vec![1, 1, 0, 0, 0],
            heal_at: 340_003,
        },
        PlannedFault::Crash {
            at: 55_003,
            node: ProcessId(0),
            restart_at: 900_000,
        },
    ];
    for i in 0..8u64 {
        let at = 1_000_000 + i * 120_000;
        faults.push(PlannedFault::LossBurst {
            at,
            prob: 0.25,
            until: at + 40_000,
            restore: 0.0,
        });
    }
    for i in 0..5u64 {
        let at = 1_050_000 + i * 150_000;
        faults.push(PlannedFault::Gray {
            at,
            node: ProcessId(1 + (i as usize % 4)),
            factor: 4,
            until: at + 60_000,
        });
    }
    for i in 0..5u64 {
        let at = 2_100_000 + i * 200_000;
        faults.push(PlannedFault::Crash {
            at,
            node: ProcessId(1 + (i as usize % 4)),
            restart_at: at + 80_000,
        });
    }
    NemesisSchedule::from_faults(faults, 3_500_000, vec![0; N], 3)
}

/// The planted-bug artifact for one sim seed.
fn planted_repro(sim_seed: u64) -> Repro {
    let sched = planted_campaign();
    // Closed-loop 20-op scripts at a 2.5µs think time keep the writer
    // continuously busy, so the partition reliably cuts mid-write; the
    // deadline leaves room for every padding fault plus a full backlog.
    let deadline = sched.heal_at()
        + 20 * 8 * 2_500
        + liveness_bound(&BackoffPolicy::new(BACKOFF_BASE), 20_000, 20);
    let mutant = ProtocolSpec::MutantSwmr {
        mutant: MutantKind::DropWriteBack,
        every: 1,
    };
    let mut scripts = vec![(1..=20).map(RegisterOp::Write).collect()];
    scripts.resize(N, vec![RegisterOp::Read; 20]);
    let run = Repro::new(
        "planted-swmr",
        mutant,
        SimConfig::new(sim_seed),
        scripts,
        sched,
        deadline,
    );
    Repro {
        backoff_base: Some(BACKOFF_BASE),
        think: 2_500,
        ..run
    }
}

/// First sim seed whose campaign surfaces the planted bug **as an
/// atomicity violation** (not an incidental timeout). Deterministic:
/// fixed campaign, fixed scan order.
fn first_failing_repro() -> Repro {
    for sim_seed in 0..32 {
        let r = planted_repro(sim_seed);
        if matches!(
            r.run().failure,
            Some(abd_repro::simnet::Failure::Violation(_))
        ) {
            eprintln!("planted bug surfaces at sim seed {sim_seed}");
            return r;
        }
    }
    panic!("no sim seed in 0..32 surfaces the planted write-back bug");
}

#[test]
fn planted_bug_campaign_shrinks_deterministically_to_two_faults_or_fewer() {
    let r = first_failing_repro();
    assert!(
        r.schedule.faults().len() >= 20,
        "campaign must carry >= 20 faults, found {}",
        r.schedule.faults().len()
    );

    let a = shrink(&r).expect("failing artifact must shrink");
    let b = shrink(&r).expect("second shrink of the same artifact");

    assert!(
        a.minimal.schedule.faults().len() <= 2,
        "planted bug must reduce to <= 2 faults, kept {}:\n{}",
        a.minimal.schedule.faults().len(),
        a.minimal.schedule.timeline()
    );
    assert_eq!(a.failure.kind(), "violation", "{:?}", a.failure);
    assert_eq!(
        a.minimal, b.minimal,
        "same artifact must shrink to the same minimal schedule"
    );
    assert_eq!(a.minimal.to_string(), b.minimal.to_string());

    // The minimal artifact is itself a faithful repro: replaying it
    // reproduces its recorded digest and failure kind.
    let replay = a.minimal.run();
    assert_eq!(replay.digest, a.minimal.expected_digest);
    assert_eq!(replay.failure.map(|f| f.kind()), Some("violation"));
}

/// Regenerates `crates/bench/fixtures/planted-campaign.repro`, the
/// known-bad campaign CI shrinks and diffs against the committed golden.
/// Run with `cargo test --test shrink -- --ignored` after changing the
/// campaign, the artifact format, or the simulator's execution order, then
/// refresh the golden with `abd_repro shrink` on it (which writes
/// `planted-campaign.min.repro` beside it).
#[test]
#[ignore = "fixture regeneration — run explicitly, then refresh the golden"]
fn regenerate_planted_fixture() {
    let mut r = first_failing_repro();
    let out = r.run();
    r.expected_digest = out.digest;
    r.reason = out.failure.expect("fixture must fail").to_string();
    let dir = std::path::Path::new("crates/bench/fixtures");
    std::fs::create_dir_all(dir).expect("fixture dir");
    let path = dir.join("planted-campaign.repro");
    std::fs::write(&path, r.to_string()).expect("fixture writes");
    eprintln!("fixture regenerated at {}", path.display());
}

#[test]
fn emitted_artifact_replays_bit_for_bit_after_roundtrip() {
    let mut r = first_failing_repro();
    let original = r.run();
    let failure = original.failure.clone().expect("artifact fails");
    r.expected_digest = original.digest;
    r.reason = failure.to_string();

    let dir = std::path::Path::new("target/test-repro");
    let path = r.save_to(dir).expect("artifact writes");
    let text = std::fs::read_to_string(&path).expect("artifact reads back");
    let parsed: Repro = text.parse().expect("artifact parses");
    assert_eq!(parsed, r, "serialization must preserve the artifact");

    let replay = parsed.run();
    assert_eq!(
        replay.digest, original.digest,
        "replay from disk must reproduce the failure digest bit-for-bit"
    );
    assert_eq!(replay.failure, Some(failure));
}
