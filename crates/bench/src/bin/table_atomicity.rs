//! **T5 — atomicity across adversarial schedules** (the paper's
//! correctness theorem, plus what the cheaper baselines give up).
//!
//! Thousands of seeded adversarial executions (high-variance delays,
//! duplication, concurrent readers) are run for each protocol variant and
//! every resulting history is checked:
//!
//! * Wing–Gong linearizability (ground truth, all variants);
//! * regularity violations (stale / future reads);
//! * new/old inversions (regular-but-not-atomic anomaly — exactly what the
//!   paper's read write-back eliminates).
//!
//! Expected shape: the ABD variants pass **every** schedule; dropping the
//! write-back keeps regularity but leaks inversions; read-one/write-majority
//! is not even regular. The binary asserts both halves: the ABD rows are
//! violation-free, and every baseline shows the anomaly it is there for —
//! non-linearizable histories on both regular rows, new/old inversions on
//! the single-writer one, stale reads on read-one. All 1 000 schedules per
//! variant run in under a second in release, so CI runs the full table and
//! gates its artifact, `BENCH_atomicity.json`.

use abd_bench::clusters::register_sim;
use abd_bench::{write_artifact, Table};
use abd_core::quorum::{Majority, Threshold};
use abd_core::register::{Label, RegisterConfig};
use abd_core::types::{ProcessId, ReadMode};
use abd_core::{MwmrConfig, SwmrConfig};
use abd_lincheck::wg::DEFAULT_STATE_LIMIT;
use abd_lincheck::{
    check_linearizable_counting_states, check_regular_swmr, find_new_old_inversions, Anomaly,
    CheckResult,
};
use abd_simnet::workload::{run_workload, WorkloadConfig, WriterMode};
use abd_simnet::{LatencyModel, SimConfig};
use std::sync::Arc;

/// Adversarial schedules per variant.
const SEEDS: u64 = 1_000;

#[derive(Default)]
struct Tally {
    schedules: u64,
    linearizable: u64,
    not_linearizable: u64,
    unknown: u64,
    stale_reads: u64,
    inversions: u64,
    /// Completed operations and memoized states of the history whose check
    /// came closest to [`DEFAULT_STATE_LIMIT`].
    hardest: (usize, usize),
}

fn sweep<L: Label>(
    n: usize,
    writers: WriterMode,
    cfg: impl Fn(usize) -> RegisterConfig<L>,
) -> Tally {
    let single_writer = matches!(writers, WriterMode::Single(_));
    let mut tally = Tally::default();
    for seed in 0..SEEDS {
        // Bimodal delays make writes straggle across many fast reads —
        // the window where regular reads can invert and read-one reads go
        // stale.
        let sim_cfg = SimConfig::new(seed)
            .with_latency(LatencyModel::Bimodal {
                fast: 500,
                slow: 80_000,
                slow_prob: 0.25,
            })
            .with_duplication(0.05);
        let wl = WorkloadConfig::new(seed ^ 0xabd, 10, writers).with_write_ratio(0.4);
        let think = 3_000; // spreads zero-duration local reads over the run
        let mut sim = register_sim(n, sim_cfg, &cfg);
        let history = run_workload(&mut sim, &wl, think, 10_000_000_000, true);
        let Some(history) = history else { continue };
        tally.schedules += 1;
        let (verdict, states) = check_linearizable_counting_states(&history, DEFAULT_STATE_LIMIT);
        if states > tally.hardest.1 {
            tally.hardest = (history.len(), states);
        }
        match verdict {
            CheckResult::Linearizable => tally.linearizable += 1,
            CheckResult::NotLinearizable => tally.not_linearizable += 1,
            CheckResult::Unknown => tally.unknown += 1,
        }
        if single_writer {
            tally.stale_reads += check_regular_swmr(&history)
                .iter()
                .filter(|a| matches!(a, Anomaly::StaleRead { .. } | Anomaly::FutureRead { .. }))
                .count() as u64;
            tally.inversions += find_new_old_inversions(&history).len() as u64;
        }
    }
    tally
}

/// Checks one row's tally and appends it to `t`. `anomalies` counts, on a
/// baseline, the anomaly it is there to show, which must be nonzero;
/// `None` marks the paper's protocol, which must show no violation at all.
fn row(t: &mut Table, name: &str, tally: Tally, anomalies: Option<fn(&Tally) -> u64>) {
    match anomalies {
        None => {
            assert_eq!(
                tally.not_linearizable, 0,
                "{name}: the paper's protocol produced a non-linearizable history!"
            );
            assert_eq!(tally.stale_reads, 0);
            assert_eq!(tally.inversions, 0);
        }
        Some(anomalies) => assert!(anomalies(&tally) > 0, "{name}: no anomaly showed"),
    }
    t.row(vec![
        name.to_string(),
        tally.schedules.to_string(),
        tally.linearizable.to_string(),
        format!(
            "{}{}",
            tally.not_linearizable,
            if tally.unknown > 0 {
                format!(" (+{} unknown)", tally.unknown)
            } else {
                String::new()
            }
        ),
        tally.stale_reads.to_string(),
        tally.inversions.to_string(),
        format!("{} states / {} ops", tally.hardest.1, tally.hardest.0),
    ]);
}

fn main() {
    let n = 5;
    let mut t = Table::new(
        &format!("T5 — consistency over {SEEDS} adversarial schedules each (n = {n})"),
        &[
            "variant",
            "schedules",
            "linearizable",
            "NOT linearizable",
            "stale reads",
            "new/old inversions",
            "hardest check",
        ],
    );
    let single = WriterMode::Single(ProcessId(0));
    let swmr = |i| SwmrConfig::new(n, ProcessId(i), ProcessId(0));
    let mwmr = |i| MwmrConfig::new(n, ProcessId(i));
    // Read-one/write-majority: reads answer from one replica (R = 1),
    // writes still reach a majority, and no quorum pair need intersect.
    let read_one = Arc::new(Threshold::new(n, 1, Majority::new(n).quorum_size()));
    row(&mut t, "ABD atomic (SWMR)", sweep(n, single, swmr), None);
    row(
        &mut t,
        "regular, no write-back (SWMR)",
        sweep(n, single, |i| swmr(i).with_read_mode(ReadMode::NoWriteBack)),
        Some(|t| t.not_linearizable.min(t.inversions)),
    );
    row(
        &mut t,
        "read-one/write-majority (SWMR)",
        sweep(n, single, |i| {
            swmr(i)
                .with_quorum(read_one.clone())
                .with_read_mode(ReadMode::NoWriteBack)
        }),
        Some(|t| t.stale_reads),
    );
    row(
        &mut t,
        "ABD atomic (MWMR)",
        sweep(n, WriterMode::All, mwmr),
        None,
    );
    row(
        &mut t,
        "regular, no write-back (MWMR)",
        sweep(n, WriterMode::All, |i| {
            mwmr(i).with_read_mode(ReadMode::NoWriteBack)
        }),
        Some(|t| t.not_linearizable),
    );
    t.print();
    println!(
        "\nABD rows are asserted violation-free and the baselines' anomalies nonzero: they are\nwhat the write-back (and proper quorum intersection) exist to prevent.\n\
         \"hardest check\" is the history that took the linearizability search the most memoized\n\
         states (cap: {DEFAULT_STATE_LIMIT} per history, past which a verdict is \"unknown\")."
    );
    write_artifact(env!("CARGO_BIN_NAME"), &[&t]);
}
