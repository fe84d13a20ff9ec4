//! **T1 / T2 — message and round complexity** (JACM Theorems on the
//! communication cost of the emulation).
//!
//! Paper claims, with majority quorums on reliable links:
//!
//! * SWMR write: 1 round trip, `2(n−1)` messages;
//! * SWMR read: 2 round trips, `4(n−1)` messages;
//! * MWMR write and read: 2 round trips, `4(n−1)` messages each.
//!
//! Rounds are measured by running under a constant per-message delay `d`
//! and dividing the observed operation latency by `2d` (one round trip =
//! out + back).

use abd_bench::clusters::{measure_op_messages, register_sim};
use abd_bench::{write_artifact, Table};
use abd_core::msg::RegisterOp;
use abd_core::types::{ProcessId, ReadMode};
use abd_core::{MwmrConfig, SwmrConfig};
use abd_simnet::{LatencyModel, SimConfig};

const DELAY: u64 = 1_000; // constant 1µs per message

fn rounds_of<P>(sim: &mut abd_simnet::Sim<P>, op: RegisterOp<u64>, node: usize) -> f64
where
    P: abd_core::context::Protocol<Op = RegisterOp<u64>, Resp = abd_core::msg::RegisterResp<u64>>,
{
    let before = sim.completed().len();
    sim.invoke(ProcessId(node), op);
    assert!(sim.run_until_quiet(u64::MAX / 2));
    let rec = &sim.completed()[before];
    rec.latency() as f64 / (2.0 * DELAY as f64)
}

fn main() {
    let cfg = || SimConfig::new(7).with_latency(LatencyModel::Constant(DELAY));

    let mut t1 = Table::new(
        "T1 — SWMR emulation cost (paper: write 2(n-1) msgs / 1 round, read 4(n-1) msgs / 2 rounds)",
        &["n", "write msgs", "expect", "read msgs", "expect", "write rounds", "read rounds"],
    );
    for n in [3usize, 5, 7, 9, 15, 21, 31] {
        let swmr = |i| SwmrConfig::new(n, ProcessId(i), ProcessId(0));
        let mut sim = register_sim(n, cfg(), swmr);
        let (w, r) = measure_op_messages(&mut sim, 40, 0, 1 % n);
        let mut sim2 = register_sim(n, cfg(), swmr);
        let wr = rounds_of(&mut sim2, RegisterOp::Write(1), 0);
        let rr = rounds_of(&mut sim2, RegisterOp::Read, 1);
        assert_eq!(w, (2 * (n - 1)) as f64, "SWMR write: 2(n-1) msgs");
        assert_eq!(r, (4 * (n - 1)) as f64, "SWMR read: 4(n-1) msgs");
        assert_eq!(wr, 1.0, "SWMR write: 1 round");
        assert_eq!(rr, 2.0, "SWMR read: 2 rounds");
        t1.row(vec![
            n.to_string(),
            format!("{w:.0}"),
            format!("{}", 2 * (n - 1)),
            format!("{r:.0}"),
            format!("{}", 4 * (n - 1)),
            format!("{wr:.1}"),
            format!("{rr:.1}"),
        ]);
    }
    t1.print();

    let mut t2 = Table::new(
        "T2 — MWMR emulation cost (paper: write and read both 4(n-1) msgs / 2 rounds)",
        &[
            "n",
            "write msgs",
            "expect",
            "read msgs",
            "expect",
            "write rounds",
            "read rounds",
        ],
    );
    for n in [3usize, 5, 7, 9, 15, 21, 31] {
        let mwmr = |i| MwmrConfig::new(n, ProcessId(i));
        let mut sim = register_sim(n, cfg(), mwmr);
        let (w, r) = measure_op_messages(&mut sim, 40, 2 % n, 1 % n);
        let mut sim2 = register_sim(n, cfg(), mwmr);
        let wr = rounds_of(&mut sim2, RegisterOp::Write(1), 2 % n);
        let rr = rounds_of(&mut sim2, RegisterOp::Read, 1 % n);
        assert_eq!(w, (4 * (n - 1)) as f64, "MWMR write: 4(n-1) msgs");
        assert_eq!(r, (4 * (n - 1)) as f64, "MWMR read: 4(n-1) msgs");
        assert_eq!(wr, 2.0, "MWMR write: 2 rounds");
        assert_eq!(rr, 2.0, "MWMR read: 2 rounds");
        t2.row(vec![
            n.to_string(),
            format!("{w:.0}"),
            format!("{}", 4 * (n - 1)),
            format!("{r:.0}"),
            format!("{}", 4 * (n - 1)),
            format!("{wr:.1}"),
            format!("{rr:.1}"),
        ]);
    }
    t2.print();

    let mut t2b = Table::new(
        "T2b — fast-path read cost (write-back elided on unanimous quorums: read 2(n-1) msgs / 1 round uncontended)",
        &["n", "variant", "read msgs", "expect", "read rounds", "write msgs"],
    );
    for n in [3usize, 5, 7, 9, 15, 21, 31] {
        let fast_swmr = |i| {
            SwmrConfig::new(n, ProcessId(i), ProcessId(0)).with_read_mode(ReadMode::FastUnanimous)
        };
        let fast_mwmr =
            |i| MwmrConfig::new(n, ProcessId(i)).with_read_mode(ReadMode::FastUnanimous);
        let mut sim = register_sim(n, cfg(), fast_swmr);
        let (w, r) = measure_op_messages(&mut sim, 40, 0, 1 % n);
        let mut sim2 = register_sim(n, cfg(), fast_swmr);
        let _ = rounds_of(&mut sim2, RegisterOp::Write(1), 0);
        let rr = rounds_of(&mut sim2, RegisterOp::Read, 1);
        assert_eq!(w, (2 * (n - 1)) as f64, "fast flag leaves writes alone");
        assert_eq!(
            r,
            (2 * (n - 1)) as f64,
            "uncontended fast read: 2(n-1) msgs"
        );
        assert_eq!(rr, 1.0, "uncontended fast read: 1 round");
        t2b.row(vec![
            n.to_string(),
            "SWMR".into(),
            format!("{r:.0}"),
            format!("{}", 2 * (n - 1)),
            format!("{rr:.1}"),
            format!("{w:.0}"),
        ]);

        let mut sim = register_sim(n, cfg(), fast_mwmr);
        let (w, r) = measure_op_messages(&mut sim, 40, 2 % n, 1 % n);
        let mut sim2 = register_sim(n, cfg(), fast_mwmr);
        let _ = rounds_of(&mut sim2, RegisterOp::Write(1), 2 % n);
        let rr = rounds_of(&mut sim2, RegisterOp::Read, 1 % n);
        assert_eq!(w, (4 * (n - 1)) as f64, "MWMR write keeps both phases");
        assert_eq!(
            r,
            (2 * (n - 1)) as f64,
            "uncontended fast read: 2(n-1) msgs"
        );
        assert_eq!(rr, 1.0, "uncontended fast read: 1 round");
        t2b.row(vec![
            n.to_string(),
            "MWMR".into(),
            format!("{r:.0}"),
            format!("{}", 2 * (n - 1)),
            format!("{rr:.1}"),
            format!("{w:.0}"),
        ]);
    }
    t2b.print();

    println!(
        "\nNote: the regular baseline's read costs only 2(n-1) messages / 1 round —\nwhat the write-back buys is measured in T5 (atomicity) at this price.\nThe fast path (T2b) hits the same 1-round cost without giving up atomicity,\nbut only on quorums that unanimously report the maximum tag."
    );
    write_artifact(env!("CARGO_BIN_NAME"), &[&t1, &t2, &t2b]);
}
