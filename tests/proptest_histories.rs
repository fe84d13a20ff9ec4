//! Property-based integration tests: arbitrary workload shapes, network
//! pathologies and failure patterns — the ABD protocols always produce
//! linearizable histories and respect the resilience bound.

use abd_core::types::ProcessId;
use abd_repro::lincheck::{check_linearizable_with_limit, is_atomic_swmr, CheckResult};
use abd_repro::simnet::workload::{run_workload, WorkloadConfig, WriterMode};
use abd_repro::simnet::{LatencyModel, Sim, SimConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases per property; case `c` draws its inputs from
/// `SmallRng::seed_from_u64(c)`.
const CASES: u64 = 48;

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
        let nodes = (0..n)
            .map(|i| {
                abd_core::swmr::SwmrNode::new(
                    abd_core::presets::atomic_swmr(n, ProcessId(i), ProcessId(0)),
                    0u64,
                )
            })
            .collect();
        let cfg = SimConfig::new(seed)
            .with_latency(LatencyModel::Uniform {
                lo: 100,
                hi: hi_delay,
            })
            .with_duplication(dup);
        let mut sim = Sim::new(cfg, nodes);
        let wl = WorkloadConfig::new(seed ^ 1, 8, WriterMode::Single(ProcessId(0)))
            .with_write_ratio(write_ratio);
        let h = run_workload(&mut sim, &wl, 0, 60_000_000_000, true)
            .unwrap_or_else(|| panic!("{inputs}: failure-free run must complete"));
        assert!(is_atomic_swmr(&h), "{inputs}: non-atomic history:\n{h}");
        assert_eq!(
            check_linearizable_with_limit(&h, 1_000_000),
            CheckResult::Linearizable,
            "{inputs}"
        );
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
        let nodes = (0..n)
            .map(|i| {
                abd_core::mwmr::MwmrNode::new(abd_core::presets::atomic_mwmr(n, ProcessId(i)), 0u64)
            })
            .collect();
        let cfg = SimConfig::new(seed).with_latency(LatencyModel::Uniform {
            lo: 100,
            hi: hi_delay,
        });
        let mut sim = Sim::new(cfg, nodes);
        let wl = WorkloadConfig::new(seed ^ 2, 6, WriterMode::All).with_write_ratio(0.5);
        let h = run_workload(&mut sim, &wl, 0, 60_000_000_000, true)
            .unwrap_or_else(|| panic!("{inputs}: failure-free run must complete"));
        assert_eq!(
            check_linearizable_with_limit(&h, 1_000_000),
            CheckResult::Linearizable,
            "{inputs}: non-linearizable history:\n{h}"
        );
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
        let nodes = (0..n)
            .map(|i| {
                abd_core::swmr::SwmrNode::new(
                    abd_core::presets::atomic_swmr(n, ProcessId(i), ProcessId(0)),
                    0u64,
                )
            })
            .collect();
        let mut sim = Sim::new(
            SimConfig::new(seed).with_latency(LatencyModel::Uniform {
                lo: 100,
                hi: 20_000,
            }),
            nodes,
        );
        for &(node, t) in &crashes {
            sim.crash_at(t, ProcessId(node));
        }
        // Survivors run scripts; crashed nodes may have ops cut short.
        let wl = WorkloadConfig::new(seed ^ 3, 6, WriterMode::Single(ProcessId(0)));
        let mut scripts = wl.generate(n);
        for &(i, _) in &crashes {
            scripts[i].clear();
        }
        let ok = abd_repro::simnet::harness::run_scripts(&mut sim, scripts, 0, 1, 120_000_000_000);
        assert!(
            ok,
            "{inputs}: survivor operations must complete under a minority crash"
        );
        let h = abd_repro::simnet::workload::history_from_sim(0, &sim);
        assert_eq!(
            check_linearizable_with_limit(&h, 1_000_000),
            CheckResult::Linearizable,
            "{inputs}: history: {h}"
        );
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
        let n = 5;
        let nodes = (0..n)
            .map(|i| {
                let cfg = abd_core::presets::atomic_swmr(n, ProcessId(i), ProcessId(0))
                    .with_retransmit(30_000);
                abd_core::swmr::SwmrNode::new(cfg, 0u64)
            })
            .collect();
        let cfg = SimConfig::new(seed)
            .with_latency(LatencyModel::Uniform {
                lo: 1_000,
                hi: 10_000,
            })
            .with_loss(loss);
        let mut sim = Sim::new(cfg, nodes);
        let wl = WorkloadConfig::new(seed ^ 4, 6, WriterMode::Single(ProcessId(0)));
        let h = run_workload(&mut sim, &wl, 0, 600_000_000_000, true)
            .unwrap_or_else(|| panic!("{inputs}: retransmission must push operations through"));
        assert!(is_atomic_swmr(&h), "{inputs}");
    }
}
