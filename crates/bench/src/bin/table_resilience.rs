//! **T3 / T4 — resilience boundary** (the paper's main theorem and its
//! matching impossibility).
//!
//! * T3: every operation completes iff the number of crashed processors
//!   `f` satisfies `f ≤ ⌈n/2⌉ − 1`; at `f ≥ ⌈n/2⌉` operations block
//!   forever. The boundary is exact — the sweep shows OK up to the
//!   paper's bound and STALL immediately above it.
//! * T4: the impossibility is a *partition* argument: split the cluster
//!   into two halves with no majority and operations stall even though
//!   every processor is alive; heal the partition and the stalled
//!   operations complete.

use abd_bench::clusters::register_sim;
use abd_bench::{write_artifact, Table};
use abd_core::msg::RegisterOp;
use abd_core::types::ProcessId;
use abd_core::{MwmrConfig, SwmrConfig};
use abd_simnet::SimConfig;

fn main() {
    let mut t3 = Table::new(
        "T3 — crash-failure sweep (paper: live iff f <= ceil(n/2)-1)",
        &[
            "n",
            "f",
            "paper predicts",
            "SWMR write",
            "SWMR read",
            "MWMR write",
        ],
    );
    for n in [3usize, 4, 5, 7, 9] {
        let f_max = n.div_ceil(2) - 1;
        for f in 0..n {
            let live = f <= f_max;
            // Crash the last f nodes; run a write on p0 and a read on p1.
            let mut sw = register_sim(n, SimConfig::new(1), |i| {
                SwmrConfig::new(n, ProcessId(i), ProcessId(0))
            });
            for i in n - f..n {
                sw.crash_at(0, ProcessId(i));
            }
            sw.invoke_at(10, ProcessId(0), RegisterOp::Write(1));
            let w_ok = sw.run_until_ops_complete(10_000_000_000);
            sw.invoke(ProcessId(1 % (n - f)), RegisterOp::Read);
            let r_ok = sw.run_until_ops_complete(20_000_000_000);

            let mut mw = register_sim(n, SimConfig::new(1), |i| MwmrConfig::new(n, ProcessId(i)));
            for i in n - f..n {
                mw.crash_at(0, ProcessId(i));
            }
            mw.invoke_at(10, ProcessId(0), RegisterOp::Write(1));
            let mw_ok = mw.run_until_ops_complete(10_000_000_000);

            let verdict = |ok: bool| if ok { "OK" } else { "STALL" }.to_string();
            assert_eq!(
                w_ok, live,
                "n={n} f={f}: SWMR write disagrees with the paper"
            );
            assert_eq!(
                r_ok, live,
                "n={n} f={f}: SWMR read disagrees with the paper"
            );
            assert_eq!(
                mw_ok, live,
                "n={n} f={f}: MWMR write disagrees with the paper"
            );
            t3.row(vec![
                n.to_string(),
                f.to_string(),
                if live { "live" } else { "blocked" }.to_string(),
                verdict(w_ok),
                verdict(r_ok),
                verdict(mw_ok),
            ]);
        }
    }
    t3.print();

    let mut t4 = Table::new(
        "T4 — partition argument (n even, split in halves; all processors alive)",
        &["n", "split", "during partition", "after heal"],
    );
    for n in [4usize, 6, 8] {
        // Writer p0 with retransmission so the stalled op survives healing.
        let nodes: Vec<_> = (0..n)
            .map(|i| {
                let cfg = SwmrConfig::new(n, ProcessId(i), ProcessId(0)).with_retransmit(50_000);
                abd_core::swmr::SwmrNode::new(cfg, 0u64)
            })
            .collect();
        let mut sim = abd_simnet::Sim::new(SimConfig::new(3), nodes);
        let groups: Vec<u32> = (0..n).map(|i| if i < n / 2 { 0 } else { 1 }).collect();
        sim.partition_at(0, groups);
        sim.invoke_at(10, ProcessId(0), RegisterOp::Write(7));
        let during = sim.run_until_ops_complete(1_000_000_000);
        assert!(
            !during,
            "n={n}: a half-half split must stall (2f = n impossibility)"
        );
        sim.heal_at(sim.now().max(1_000_000_000) + 1);
        let after = sim.run_until_ops_complete(60_000_000_000);
        assert!(after, "n={n}: healing must release the operation");
        t4.row(vec![
            n.to_string(),
            format!("{}/{}", n / 2, n - n / 2),
            if during { "completed (BUG)" } else { "stalled" }.to_string(),
            if after {
                "completed"
            } else {
                "still stalled (BUG)"
            }
            .to_string(),
        ]);
    }
    t4.print();

    println!(
        "\nAll rows asserted against the paper's predictions — a disagreement aborts the binary."
    );
    write_artifact(env!("CARGO_BIN_NAME"), &[&t3, &t4]);
}
