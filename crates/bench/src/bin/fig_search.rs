//! **F7 — search fitness: mutational vs. blind nemesis search over a
//! planted-mutant zoo.**
//!
//! Five deliberately broken SWMR variants — each attacking one load-bearing
//! step of the paper's correctness argument — are hunted by two adversaries
//! under the same campaign budget:
//!
//! * `guided` — [`guided_search`]: corpus + mutation operators over fault
//!   schedules, each candidate derived from earlier ones and admitted once
//!   it has run;
//! * `blind` — [`blind_search`]: one fresh planner schedule per seed, a
//!   plain seed sweep.
//!
//! The fitness metric is **mean schedules-to-detect** (campaigns run until
//! the oracle first trips), censored at the budget when a trial never
//! detects. Which adversary wins a mutant is printed and recorded, not
//! gated: it moves with the simulator seed (EXPERIMENTS F7). The gate is
//! what holds at every seed: guided search detects every mutant within
//! budget, and each mutant's first guided detection round-trips through
//! the full failure-artifact pipeline — `check_or_emit` emits a `.ron`
//! under `target/search-repro/`, the emitted file is re-parsed, shrunk
//! twice, and the minimized artifact must be byte-identical across both
//! shrinks with a stable replay digest. Detections are *replayable
//! evidence*, not just counters. The JSON is written before the gate is
//! checked, so a failing run still records what it measured.
//!
//! Everything comes from the virtual clock and seeded RNGs, so
//! `BENCH_search.json` is byte-reproducible; `--smoke` runs the identical
//! computation (the full run is already cheap) and must leave the JSON
//! unchanged.

use abd_core::msg::RegisterOp;
use abd_simnet::repro::Repro;
use abd_simnet::shrink::shrink;
use abd_simnet::{
    blind_search, guided_search, MutantKind, OracleSpec, ProtocolSpec, SearchSpec, SimConfig,
};

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
        oracle: OracleSpec::AtomicSwmr,
        deadline_slack: 200_000_000,
    }
}

struct MutantResult {
    name: &'static str,
    guided_mean: f64,
    blind_mean: f64,
    guided_detections: usize,
    blind_detections: usize,
    /// First guided detection, round-tripped: (faults before, faults after
    /// shrinking, minimal artifact's replay digest).
    artifact: Option<(usize, usize, u64)>,
}

impl MutantResult {
    fn guided_wins(&self) -> bool {
        self.guided_mean < self.blind_mean
    }
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
    let parsed = Repro::from_ron(&text).expect("emitted artifact parses");

    let first = shrink(&parsed).expect("emitted artifact shrinks");
    let second = shrink(&parsed).expect("emitted artifact shrinks again");
    assert_eq!(
        first.minimal.to_ron(),
        second.minimal.to_ron(),
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
    let mut guided_total = 0usize;
    let mut blind_total = 0usize;
    let mut guided_detections = 0usize;
    let mut blind_detections = 0usize;
    let mut artifact = None;
    for seed in TRIALS {
        let g = guided_search(&s, seed, BUDGET);
        guided_total += g.campaigns;
        if let Some(det) = g.detection {
            guided_detections += 1;
            if artifact.is_none() {
                artifact = Some(round_trip_artifact(det));
            }
        }
        let b = blind_search(&s, seed, BUDGET);
        blind_total += b.campaigns;
        if b.detection.is_some() {
            blind_detections += 1;
        }
    }
    MutantResult {
        name,
        guided_mean: guided_total as f64 / TRIALS.len() as f64,
        blind_mean: blind_total as f64 / TRIALS.len() as f64,
        guided_detections,
        blind_detections,
        artifact,
    }
}

fn mutant_json(r: &MutantResult) -> String {
    let artifact = match r.artifact {
        Some((before, after, digest)) => format!(
            "{{\"faults_before\": {before}, \"faults_after\": {after}, \
             \"min_digest\": \"{digest:#018x}\"}}"
        ),
        None => "null".to_string(),
    };
    format!(
        concat!(
            "    {{\"name\": \"{}\", \"guided_mean\": {:.2}, \"blind_mean\": {:.2}, ",
            "\"guided_detections\": {}, \"blind_detections\": {}, ",
            "\"guided_wins\": {}, \"artifact\": {}}}"
        ),
        r.name,
        r.guided_mean,
        r.blind_mean,
        r.guided_detections,
        r.blind_detections,
        r.guided_wins(),
        artifact,
    )
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // Search detections are evidence, not CI litter: keep them out of the
    // soak artifacts' directory.
    std::env::set_var("ABD_REPRO_DIR", "target/search-repro");

    let results: Vec<MutantResult> = mutants()
        .into_iter()
        .map(|(name, protocol)| hunt(name, protocol))
        .collect();

    println!(
        "F7 — schedules-to-detect, guided vs blind (n={N}, budget {BUDGET}, \
         {} trials, censored at budget)",
        TRIALS.len()
    );
    println!(
        "  {:<22} {:>12} {:>12} {:>10} {:>9}",
        "mutant", "guided mean", "blind mean", "det (g/b)", "winner"
    );
    for r in &results {
        println!(
            "  {:<22} {:>12.2} {:>12.2} {:>10} {:>9}",
            r.name,
            r.guided_mean,
            r.blind_mean,
            format!("{}/{}", r.guided_detections, r.blind_detections),
            if r.guided_wins() { "guided" } else { "blind" },
        );
    }

    let wins = results.iter().filter(|r| r.guided_wins()).count();
    println!(
        "\nguided beats blind on {wins}/{} mutants (reported, not gated)",
        results.len()
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"experiment\": \"F7_search\",\n",
            "  \"n\": {}, \"budget\": {}, \"trials\": {}, \"sim_seed\": {}, ",
            "\"ops_per_client\": {}, \"think_ns\": {},\n",
            "  \"mutants\": [\n{}\n  ],\n",
            "  \"guided_wins\": {}\n",
            "}}\n"
        ),
        N,
        BUDGET,
        TRIALS.len(),
        SIM_SEED,
        OPS,
        THINK,
        results
            .iter()
            .map(mutant_json)
            .collect::<Vec<_>>()
            .join(",\n"),
        wins,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_search.json");
    std::fs::write(path, &json).expect("write BENCH_search.json");
    println!("wrote BENCH_search.json");

    for r in &results {
        // A detection always has an artifact: `hunt` round-trips the first.
        assert!(
            r.artifact.is_some(),
            "guided search must detect {} within budget and round-trip it to a minimal artifact",
            r.name
        );
    }

    if smoke {
        println!("--smoke: full computation ran (it is the smoke test)");
    }
}
