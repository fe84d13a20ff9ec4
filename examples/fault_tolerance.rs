//! A guided tour of the failure model, in the deterministic simulator:
//! seeded adversarial delays, message duplication, message loss with
//! retransmission, and crashes up to the optimal bound — every run a
//! `Repro` judged atomic afterwards, which would leave a replayable
//! artifact under `target/repro/` if it were not.
//!
//! Run with: `cargo run --release --example fault_tolerance`

use abd_core::types::{Nanos, ProcessId, ReadMode};
use abd_repro::simnet::workload::{WorkloadConfig, WriterMode};
use abd_repro::simnet::{LatencyModel, ProtocolSpec, Repro, SimConfig};

/// One tour stop: the single-writer register on five nodes under `sim`,
/// retransmitting from `backoff_base` if set, with `crash` down from the
/// start (they issue nothing).
fn run_and_check(name: &str, sim: SimConfig, backoff_base: Option<Nanos>, crash: &[usize]) {
    let wl = WorkloadConfig::new(7, 12, WriterMode::Single(ProcessId(0))).with_write_ratio(0.4);
    let mut scripts = wl.generate(5);
    for &i in crash {
        scripts[i].clear();
    }
    let swmr = ProtocolSpec::Swmr {
        read_mode: ReadMode::TwoRound,
    };
    let run = Repro::staggered(name, swmr, sim, scripts, 1, 60_000_000_000);
    let crashes: Vec<(usize, Nanos)> = crash.iter().map(|&i| (i, 0)).collect();
    let out = Repro {
        backoff_base,
        ..run.with_crashes(&crashes)
    }
    .check_or_emit()
    .unwrap_or_else(|e| panic!("{name}: every operation must complete, atomically: {e}"));
    let m = &out.metrics;
    println!(
        "{name:<38} ops={:<4} msgs={:<6} lost={:<5} dup={:<4} atomic=true",
        m.ops_completed, m.sent, m.dropped_loss, m.duplicated
    );
}

fn main() {
    println!("Fault-tolerance tour (n = 5, every run linearizability-checked)\n");

    run_and_check("clean network", SimConfig::new(1), None, &[]);

    let uniform = LatencyModel::Uniform {
        lo: 100,
        hi: 50_000,
    };
    let delays = SimConfig::new(2).with_latency(uniform);
    run_and_check("adversarial delays (x500 variance)", delays, None, &[]);

    let dup = SimConfig::new(3).with_duplication(0.2);
    run_and_check("duplication 20%", dup, None, &[]);

    let loss = SimConfig::new(4).with_loss(0.3);
    run_and_check("loss 30% + retransmission", loss, Some(30_000), &[]);

    let crashes = SimConfig::new(5);
    run_and_check("2 crashes (optimal bound for n=5)", crashes, None, &[3, 4]);

    let bimodal = LatencyModel::Bimodal {
        fast: 1_000,
        slow: 80_000,
        slow_prob: 0.2,
    };
    let everything = SimConfig::new(6)
        .with_latency(bimodal)
        .with_loss(0.15)
        .with_duplication(0.1);
    run_and_check("everything at once", everything, Some(50_000), &[4]);

    println!("\nEvery execution above — reordered, duplicated, lossy, crash-ridden — produced");
    println!("a linearizable history. Change any seed and it still will; that is the theorem.");
}
