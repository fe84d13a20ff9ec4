//! **F7 — search fitness: blind nemesis search over a planted-mutant zoo.**
//!
//! Five deliberately broken SWMR variants — each attacking one load-bearing
//! step of the paper's correctness argument — are hunted by
//! [`blind_search`]: one fresh planner schedule per planner seed, eight
//! independent trials, each with its own window of `BUDGET` planner seeds.
//!
//! The fitness metric is **mean schedules-to-detect** (campaigns run until
//! the oracle first trips), censored at the budget when a trial never
//! detects. The gate is that blind search detects every mutant within
//! budget, and each mutant's first detection round-trips through the full
//! failure-artifact pipeline — `check_or_emit` emits a `.repro` under
//! `target/search-repro/`, the emitted file is re-parsed, shrunk twice,
//! and the minimized artifact must be byte-identical across both shrinks
//! with a stable replay digest. Detections are *replayable evidence*, not
//! just counters. The artifact is written before the gate is checked, so
//! a failing run still records what it measured.
//!
//! Everything comes from the virtual clock and seeded RNGs, so
//! `BENCH_search.json` is byte-reproducible.

use abd_bench::{write_artifact, Table};
use abd_core::msg::RegisterOp;
use abd_simnet::repro::Repro;
use abd_simnet::shrink::shrink;
use abd_simnet::{blind_search, MutantKind, OracleSpec, ProtocolSpec, SearchSpec, SimConfig};

const N: usize = 5;
const BACKOFF_BASE: u64 = 20_000;
const SIM_SEED: u64 = 4;
/// Each client invokes its next operation 10 µs after its own previous one
/// completed.
const THINK: u64 = 10_000;
const OPS: u64 = 150;
const BUDGET: usize = 48;
const TRIALS: [u64; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

/// The zoo: stable artifact name + protocol wiring per mutant.
fn mutants() -> Vec<(&'static str, ProtocolSpec)> {
    vec![
        (
            "dropped-write-back",
            ProtocolSpec::MutantSwmr {
                mutant: MutantKind::DropWriteBack,
                every: 1,
            },
        ),
        (
            "stale-tag-ack",
            ProtocolSpec::MutantSwmr {
                mutant: MutantKind::StaleTagAck,
                every: 12,
            },
        ),
        (
            "off-by-one-quorum",
            ProtocolSpec::MutantSwmr {
                mutant: MutantKind::OffByOneQuorum,
                every: 8,
            },
        ),
        (
            "amnesiac",
            ProtocolSpec::MutantSwmr {
                mutant: MutantKind::Amnesiac,
                every: 0,
            },
        ),
        (
            "non-monotonic-tag",
            ProtocolSpec::MutantSwmr {
                mutant: MutantKind::NonMonotonicTag,
                every: 0,
            },
        ),
    ]
}

/// The shared campaign frame: one dedicated writer racing four readers,
/// scripts long enough that clients stay busy across the whole fault
/// horizon (faults that fire after the workload drains provoke nothing).
fn spec(name: &str, protocol: ProtocolSpec) -> SearchSpec {
    let scripts = (0..N)
        .map(|c| {
            (0..OPS)
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
        name: format!("search-{name}"),
        protocol,
        n: N,
        backoff_base: Some(BACKOFF_BASE),
        sim: SimConfig::new(SIM_SEED),
        scripts,
        think: THINK,
        oracle: OracleSpec::Linearizable,
        deadline_slack: 200_000_000,
    }
}

struct MutantResult {
    name: &'static str,
    blind_mean: f64,
    blind_detections: usize,
    /// First detection, round-tripped: (faults before, faults after
    /// shrinking, minimal artifact's replay digest).
    artifact: Option<(usize, usize, u64)>,
}

/// `check_or_emit` → re-parse the emitted file → shrink twice → replay the
/// minimal artifact twice. Every step must be bit-for-bit stable, proving
/// the detection survives the whole evidence pipeline.
fn round_trip_artifact(detection: Repro) -> (usize, usize, u64) {
    let faults_before = detection.schedule.faults().len();
    let err = detection
        .check_or_emit()
        .expect_err("a detection must fail when replayed");
    let path = err
        .split("repro artifact: ")
        .nth(1)
        .and_then(|s| s.split(" —").next())
        .expect("check_or_emit names the emitted artifact");
    let text = std::fs::read_to_string(path).expect("emitted artifact is readable");
    let parsed: Repro = text.parse().expect("emitted artifact parses");

    let first = shrink(&parsed).expect("emitted artifact shrinks");
    let second = shrink(&parsed).expect("emitted artifact shrinks again");
    assert_eq!(
        first.minimal.to_string(),
        second.minimal.to_string(),
        "shrinking must be deterministic: two runs, one minimal artifact"
    );
    let d1 = first.minimal.run().digest;
    let d2 = first.minimal.run().digest;
    assert_eq!(d1, d2, "minimal artifact must replay bit-identically");
    assert!(
        first.minimal.run().failure.is_some(),
        "minimal artifact must still fail"
    );
    (faults_before, first.minimal.schedule.faults().len(), d1)
}

fn hunt(name: &'static str, protocol: ProtocolSpec) -> MutantResult {
    let s = spec(name, protocol);
    let mut blind_total = 0usize;
    let mut blind_detections = 0usize;
    let mut artifact = None;
    for seed in TRIALS {
        let b = blind_search(&s, seed, BUDGET);
        blind_total += b.campaigns;
        if let Some(det) = b.detection {
            blind_detections += 1;
            if artifact.is_none() {
                artifact = Some(round_trip_artifact(det));
            }
        }
    }
    MutantResult {
        name,
        blind_mean: blind_total as f64 / TRIALS.len() as f64,
        blind_detections,
        artifact,
    }
}

fn main() {
    // Search detections are evidence, not CI litter: keep them out of the
    // soak artifacts' directory.
    std::env::set_var("ABD_REPRO_DIR", "target/search-repro");

    let results: Vec<MutantResult> = mutants()
        .into_iter()
        .map(|(name, protocol)| hunt(name, protocol))
        .collect();

    let mut t = Table::new(
        &format!(
            "F7 — schedules-to-detect, blind search (n={N}, budget {BUDGET}, {} independent \
             trials, censored at budget; sim seed {SIM_SEED}, {OPS} ops/client, think \
             {THINK}ns); each first detection shrunk to a minimal artifact",
            TRIALS.len()
        ),
        &[
            "mutant",
            "blind mean",
            "detections",
            "faults before",
            "faults after",
            "minimal digest",
        ],
    );
    for r in &results {
        let mut row = vec![
            r.name.to_string(),
            format!("{:.2}", r.blind_mean),
            format!("{}/{}", r.blind_detections, TRIALS.len()),
        ];
        row.extend(match r.artifact {
            Some((before, after, digest)) => [
                before.to_string(),
                after.to_string(),
                format!("{digest:#018x}"),
            ],
            None => ["-"; 3].map(String::from),
        });
        t.row(row);
    }
    t.print();
    write_artifact(env!("CARGO_BIN_NAME"), &[&t]);

    for r in &results {
        // A detection always has an artifact: `hunt` round-trips the first.
        assert!(
            r.artifact.is_some(),
            "blind search must detect {} within budget and round-trip it to a minimal artifact",
            r.name
        );
    }
}
