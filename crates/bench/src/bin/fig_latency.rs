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

use abd_bench::clusters::{swmr_sim, Variant};
use abd_bench::{us, write_artifact, Stats, Table};
use abd_core::msg::RegisterOp;
use abd_core::types::ProcessId;
use abd_simnet::{LatencyModel, SimConfig};

fn series(n: usize, lat: LatencyModel, seed: u64) -> (Stats, Stats) {
    let mut sim = swmr_sim(
        Variant::AtomicSwmr,
        n,
        SimConfig::new(seed).with_latency(lat),
        None,
    );
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
    for n in [3usize, 5, 9, 15, 21, 31, 51] {
        let (w, r) = series(n, lat, 42);
        f1a.row(vec![
            n.to_string(),
            us(w.mean),
            us(w.p99),
            us(r.mean),
            us(r.p99),
            format!("{:.2}", r.mean / w.mean),
        ]);
    }
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
