//! Property-based integration tests: arbitrary workload shapes, network
//! pathologies and failure patterns — the ABD protocols always produce
//! linearizable histories and respect the resilience bound.
//!
//! Each case is a [`Repro`] judged atomic, so a failing case leaves an
//! artifact under `target/repro/` beside the inputs its message names.

use abd_core::types::{Nanos, ProcessId, ReadMode};
use abd_repro::simnet::workload::{WorkloadConfig, WriterMode};
use abd_repro::simnet::{LatencyModel, ProtocolSpec, Repro, SimConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases per property; case `c` draws its inputs from
/// `SmallRng::seed_from_u64(c)`.
const CASES: u64 = 48;

const SWMR: ProtocolSpec = ProtocolSpec::Swmr {
    read_mode: ReadMode::TwoRound,
};

/// Uniform links of `lo`–`hi` ns.
fn uniform(seed: u64, lo: Nanos, hi: Nanos) -> SimConfig {
    SimConfig::new(seed).with_latency(LatencyModel::Uniform { lo, hi })
}

/// Panics with `inputs` and the artifact's path unless every operation of
/// `run` completed and its history is atomic.
fn assert_atomic(run: Repro, inputs: &str) {
    if let Err(e) = run.check_or_emit() {
        panic!("{inputs}: {e}");
    }
}

/// SWMR ABD stays atomic for arbitrary seeds, cluster sizes, delay ranges,
/// duplication rates and write ratios.
#[test]
fn swmr_always_atomic() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed: u64 = rng.gen();
        let n = rng.gen_range(3usize..8);
        let hi_delay = rng.gen_range(1_000u64..80_000);
        let dup = rng.gen_range(0.0..0.3);
        let write_ratio = rng.gen_range(0.1..0.9);
        let inputs = format!(
            "case {case}: seed {seed}, n {n}, hi_delay {hi_delay}, dup {dup}, write_ratio {write_ratio}"
        );
        let sim = uniform(seed, 100, hi_delay).with_duplication(dup);
        let scripts = WorkloadConfig::new(seed ^ 1, 8, WriterMode::Single(ProcessId(0)))
            .with_write_ratio(write_ratio)
            .generate(n);
        let run = Repro::staggered("prop-swmr", SWMR, sim, scripts, 1, 60_000_000_000);
        assert_atomic(run, &inputs);
    }
}

/// MWMR ABD stays atomic with every processor writing.
#[test]
fn mwmr_always_atomic() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed: u64 = rng.gen();
        let n = rng.gen_range(3usize..7);
        let hi_delay = rng.gen_range(1_000u64..60_000);
        let inputs = format!("case {case}: seed {seed}, n {n}, hi_delay {hi_delay}");
        let scripts = WorkloadConfig::new(seed ^ 2, 6, WriterMode::All)
            .with_write_ratio(0.5)
            .generate(n);
        let mwmr = ProtocolSpec::Mwmr {
            read_mode: ReadMode::TwoRound,
        };
        let sim = uniform(seed, 100, hi_delay);
        let run = Repro::staggered("prop-mwmr", mwmr, sim, scripts, 1, 60_000_000_000);
        assert_atomic(run, &inputs);
    }
}

/// With any minority crash set (crashing at arbitrary times), surviving
/// nodes' operations complete and the history remains atomic. Crashed
/// clients' pending writes are accounted for by the checker.
#[test]
fn minority_crashes_preserve_atomicity_and_liveness() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed: u64 = rng.gen();
        let n = rng.gen_range(3usize..7);
        let len = rng.gen_range(0..3);
        let crash_times: Vec<u64> = (0..len).map(|_| rng.gen_range(0..200_000)).collect();
        let inputs = format!("case {case}: seed {seed}, n {n}, crash_times {crash_times:?}");
        let f_max = n.div_ceil(2) - 1;
        let crashes: Vec<(usize, u64)> = crash_times
            .iter()
            .take(f_max)
            .enumerate()
            .map(|(k, &t)| (n - 1 - k, t))
            .collect();
        // Survivors run scripts; crashed nodes may have ops cut short.
        let wl = WorkloadConfig::new(seed ^ 3, 6, WriterMode::Single(ProcessId(0)));
        let mut scripts = wl.generate(n);
        for &(i, _) in &crashes {
            scripts[i].clear();
        }
        let sim = uniform(seed, 100, 20_000);
        let run = Repro::staggered("prop-crashes", SWMR, sim, scripts, 1, 120_000_000_000);
        assert_atomic(run.with_crashes(&crashes), &inputs);
    }
}

/// Under message loss with retransmission, everything completes and stays
/// atomic.
#[test]
fn lossy_links_with_retransmission_stay_atomic() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed: u64 = rng.gen();
        let loss = rng.gen_range(0.01..0.4);
        let inputs = format!("case {case}: seed {seed}, loss {loss}");
        let scripts =
            WorkloadConfig::new(seed ^ 4, 6, WriterMode::Single(ProcessId(0))).generate(5);
        let sim = uniform(seed, 1_000, 10_000).with_loss(loss);
        let run = Repro::staggered("prop-lossy", SWMR, sim, scripts, 1, 600_000_000_000);
        let run = Repro {
            backoff_base: Some(30_000),
            ..run
        };
        assert_atomic(run, &inputs);
    }
}
