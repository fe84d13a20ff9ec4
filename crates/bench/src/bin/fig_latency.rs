//! **F1 — operation latency tracks message delay, not cluster size.**
//!
//! The emulation waits for quorums, never for all replies, so with
//! identically distributed delays the operation latency is governed by the
//! *median-ish* order statistic of the delay distribution times the number
//! of round trips — essentially flat in `n`. The figure prints two series:
//!
//! * latency vs `n` at a fixed delay distribution (flat-ish lines;
//!   read ≈ 2× write for SWMR);
//! * latency vs the delay scale at fixed `n` (linear in the delay).
//!
//! The binary asserts both shapes: in F1a read/write lies in
//! [`READ_PER_WRITE`] at every `n` and the largest write mean is at most
//! [`WRITE_SPREAD`] times the smallest; in F1b the write mean per unit of
//! `d` lies in [`WRITE_PER_D`].

use abd_bench::clusters::register_sim;
use abd_bench::{us, write_artifact, Stats, Table};
use abd_core::msg::RegisterOp;
use abd_core::types::ProcessId;
use abd_core::SwmrConfig;
use abd_simnet::{LatencyModel, SimConfig};
use std::ops::RangeInclusive;

/// Read mean over write mean at each `n` of F1a: two round trips against
/// one (1.97–2.05 measured).
const READ_PER_WRITE: RangeInclusive<f64> = 1.8..=2.2;
/// Largest over smallest write mean across F1a's `n`: flat in the cluster
/// size (1.13 measured).
const WRITE_SPREAD: f64 = 1.25;
/// Write mean over `d` in F1b: linear in the delay (3.78–3.89 measured).
const WRITE_PER_D: RangeInclusive<f64> = 3.5..=4.2;

fn series(n: usize, lat: LatencyModel, seed: u64) -> (Stats, Stats) {
    let mut sim = register_sim(n, SimConfig::new(seed).with_latency(lat), |i| {
        SwmrConfig::new(n, ProcessId(i), ProcessId(0))
    });
    let mut writes = Vec::new();
    let mut reads = Vec::new();
    for k in 0..200u64 {
        let before = sim.completed().len();
        if k % 2 == 0 {
            sim.invoke(ProcessId(0), RegisterOp::Write(k + 1));
        } else {
            sim.invoke(ProcessId((k as usize) % (n - 1) + 1), RegisterOp::Read);
        }
        assert!(sim.run_until_quiet(u64::MAX / 2));
        let lat = sim.completed()[before].latency();
        if k % 2 == 0 {
            writes.push(lat);
        } else {
            reads.push(lat);
        }
    }
    (
        Stats::from_samples(writes).unwrap(),
        Stats::from_samples(reads).unwrap(),
    )
}

fn main() {
    let lat = LatencyModel::Uniform {
        lo: 5_000,
        hi: 15_000,
    };
    let mut f1a = Table::new(
        "F1a — latency vs n (delay ~ U[5µs, 15µs]); µs",
        &[
            "n",
            "write mean",
            "write p99",
            "read mean",
            "read p99",
            "read/write",
        ],
    );
    let mut write_means = Vec::new();
    for n in [3usize, 5, 9, 15, 21, 31, 51] {
        let (w, r) = series(n, lat, 42);
        let ratio = r.mean / w.mean;
        assert!(
            READ_PER_WRITE.contains(&ratio),
            "F1a: read/write at n = {n} is {ratio:.2}, needs {READ_PER_WRITE:?}"
        );
        write_means.push(w.mean);
        f1a.row(vec![
            n.to_string(),
            us(w.mean),
            us(w.p99),
            us(r.mean),
            us(r.p99),
            format!("{ratio:.2}"),
        ]);
    }
    let spread = write_means.iter().copied().fold(f64::MIN, f64::max)
        / write_means.iter().copied().fold(f64::MAX, f64::min);
    assert!(
        spread <= WRITE_SPREAD,
        "F1a: write means spread {spread:.2}x across n, needs <= {WRITE_SPREAD}"
    );
    f1a.print();

    let mut f1b = Table::new(
        "F1b — latency vs delay scale (n = 7); µs",
        &[
            "delay U[d, 3d], d =",
            "write mean",
            "read mean",
            "read/write",
        ],
    );
    for d in [1_000u64, 5_000, 10_000, 50_000, 100_000] {
        let (w, r) = series(7, LatencyModel::Uniform { lo: d, hi: 3 * d }, 43);
        let per_d = w.mean / d as f64;
        assert!(
            WRITE_PER_D.contains(&per_d),
            "F1b: write mean at d = {d} ns is {per_d:.2} d, needs {WRITE_PER_D:?}"
        );
        f1b.row(vec![
            us(d as f64),
            us(w.mean),
            us(r.mean),
            format!("{:.2}", r.mean / w.mean),
        ]);
    }
    f1b.print();

    println!(
        "\nShape checks: the F1a columns are nearly flat in n (quorum waiting needs no\nstragglers), reads cost ~2x writes (two round trips vs one), and F1b scales\nlinearly with the delay — latency is a property of the network, not the cluster."
    );
    write_artifact(env!("CARGO_BIN_NAME"), &[&f1a, &f1b]);
}
