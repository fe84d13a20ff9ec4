//! # abd-bench — the experiment harness
//!
//! One binary per table/figure of `EXPERIMENTS.md` (run with
//! `cargo run --release -p abd-bench --bin <name>`). This library holds
//! the shared plumbing: cluster construction for each protocol variant,
//! latency statistics, and fixed-width table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use abd_core::types::Nanos;

/// Simple order statistics over a sample of latencies.
#[derive(Clone, Debug, PartialEq)]
pub struct Stats {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Maximum.
    pub max: f64,
}

impl Stats {
    /// Computes statistics from raw samples; `None` if empty.
    pub fn from_samples(mut xs: Vec<Nanos>) -> Option<Stats> {
        if xs.is_empty() {
            return None;
        }
        xs.sort_unstable();
        let count = xs.len();
        let mean = xs.iter().sum::<u64>() as f64 / count as f64;
        let pct = |p: f64| -> f64 {
            let idx = ((count as f64 - 1.0) * p).round() as usize;
            xs[idx] as f64
        };
        Some(Stats {
            count,
            mean,
            p50: pct(0.5),
            p99: pct(0.99),
            max: *xs.last().unwrap() as f64,
        })
    }
}

/// A fixed-width text table that renders like the tables in
/// `EXPERIMENTS.md`.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let sep: String = widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("+");
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!(" {:<width$} ", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("|")
        };
        let mut out = String::new();
        out.push_str(&format!("\n== {} ==\n", self.title));
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Renders and prints to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats nanoseconds as microseconds with two decimals.
pub fn us(x: f64) -> String {
    format!("{:.2}", x / 1_000.0)
}

/// What a restarted store of an `n`-node cluster paid to catch up before
/// the Merkle walk was the only transfer: `[messages, bytes, entries]` of
/// one pull and one whole-store snapshot per peer, each peer holding `keys`
/// entries of `entry_bytes` bytes (for a `KvNode<K, V>`,
/// `size_of::<(K, Tag, V)>()`) behind the sync protocol's 16-byte header.
/// Deterministic, so F8 and F2d compare their walks against the closed form.
pub fn bulk_reference(n: usize, keys: u64, entry_bytes: u64) -> [u64; 3] {
    [2, 2 * 16 + keys * entry_bytes, keys].map(|per_peer| (n as u64 - 1) * per_peer)
}

pub mod clusters {
    //! Ready-made cluster builders for each protocol variant.

    use abd_core::msg::{RegisterOp, RegisterResp};
    use abd_core::mwmr::MwmrNode;
    use abd_core::swmr::SwmrNode;
    use abd_core::types::{Nanos, ProcessId};
    use abd_simnet::{Sim, SimConfig};

    /// The protocol variants the experiments sweep.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum Variant {
        /// Atomic single-writer ABD (majority quorums + read write-back).
        AtomicSwmr,
        /// Atomic single-writer ABD with the one-round read fast path
        /// (write-back elided on unanimous query quorums).
        FastSwmr,
        /// Atomic single-writer ABD with relay (1.5-round) reads.
        RelaySwmr,
        /// Regular single-writer baseline (no write-back).
        RegularSwmr,
        /// Read-one/write-majority single-writer baseline (not even regular).
        ReadOneSwmr,
        /// Atomic multi-writer ABD.
        AtomicMwmr,
        /// Atomic multi-writer ABD with the one-round read fast path.
        FastMwmr,
        /// Regular multi-writer baseline (no write-back).
        RegularMwmr,
    }

    impl Variant {
        /// Human-readable name used in table rows.
        pub fn name(&self) -> &'static str {
            match self {
                Variant::AtomicSwmr => "ABD atomic (SWMR)",
                Variant::FastSwmr => "ABD atomic, fast reads (SWMR)",
                Variant::RelaySwmr => "ABD atomic, relay reads (SWMR)",
                Variant::RegularSwmr => "regular, no write-back (SWMR)",
                Variant::ReadOneSwmr => "read-one/write-majority (SWMR)",
                Variant::AtomicMwmr => "ABD atomic (MWMR)",
                Variant::FastMwmr => "ABD atomic, fast reads (MWMR)",
                Variant::RegularMwmr => "regular, no write-back (MWMR)",
            }
        }

        /// Whether this is a single-writer variant.
        pub fn is_single_writer(&self) -> bool {
            matches!(
                self,
                Variant::AtomicSwmr
                    | Variant::FastSwmr
                    | Variant::RelaySwmr
                    | Variant::RegularSwmr
                    | Variant::ReadOneSwmr
            )
        }
    }

    /// Builds an n-node single-writer simulation (writer = p0).
    ///
    /// # Panics
    ///
    /// Panics if `variant` is not a SWMR variant.
    pub fn swmr_sim(
        variant: Variant,
        n: usize,
        sim_cfg: SimConfig,
        retransmit: Option<Nanos>,
    ) -> Sim<SwmrNode<u64>> {
        let nodes = (0..n)
            .map(|i| {
                let mut cfg = match variant {
                    Variant::AtomicSwmr => {
                        abd_core::presets::atomic_swmr(n, ProcessId(i), ProcessId(0))
                    }
                    Variant::FastSwmr => {
                        abd_core::presets::fast_swmr(n, ProcessId(i), ProcessId(0))
                    }
                    Variant::RelaySwmr => {
                        abd_core::presets::relay_swmr(n, ProcessId(i), ProcessId(0))
                    }
                    Variant::RegularSwmr => {
                        abd_core::presets::regular_swmr(n, ProcessId(i), ProcessId(0))
                    }
                    Variant::ReadOneSwmr => {
                        abd_core::presets::read_one_swmr(n, ProcessId(i), ProcessId(0))
                    }
                    _ => panic!("{variant:?} is not a SWMR variant"),
                };
                cfg.retransmit = retransmit.map(abd_core::retransmit::BackoffPolicy::new);
                SwmrNode::new(cfg, 0u64)
            })
            .collect();
        Sim::new(sim_cfg, nodes)
    }

    /// Builds an n-node multi-writer simulation.
    ///
    /// # Panics
    ///
    /// Panics if `variant` is not a MWMR variant.
    pub fn mwmr_sim(
        variant: Variant,
        n: usize,
        sim_cfg: SimConfig,
        retransmit: Option<Nanos>,
    ) -> Sim<MwmrNode<u64>> {
        let nodes = (0..n)
            .map(|i| {
                let mut cfg = match variant {
                    Variant::AtomicMwmr => abd_core::presets::atomic_mwmr(n, ProcessId(i)),
                    Variant::FastMwmr => abd_core::presets::fast_mwmr(n, ProcessId(i)),
                    Variant::RegularMwmr => abd_core::presets::regular_mwmr(n, ProcessId(i)),
                    _ => panic!("{variant:?} is not a MWMR variant"),
                };
                cfg.retransmit = retransmit.map(abd_core::retransmit::BackoffPolicy::new);
                MwmrNode::new(cfg, 0u64)
            })
            .collect();
        Sim::new(sim_cfg, nodes)
    }

    /// Drives `ops` operations (alternating write on `writer` / read on
    /// `reader`), each to completion, and returns per-op message counts
    /// `(write_msgs, read_msgs)` averaged over the run.
    pub fn measure_op_messages<P>(
        sim: &mut Sim<P>,
        ops: usize,
        writer: usize,
        reader: usize,
    ) -> (f64, f64)
    where
        P: abd_core::context::Protocol<Op = RegisterOp<u64>, Resp = RegisterResp<u64>>,
    {
        let mut write_msgs = 0u64;
        let mut writes = 0u64;
        let mut read_msgs = 0u64;
        let mut reads = 0u64;
        for k in 0..ops as u64 {
            let before = sim.metrics().sent;
            if k % 2 == 0 {
                sim.invoke(ProcessId(writer), RegisterOp::Write(k + 1));
                assert!(sim.run_until_quiet(u64::MAX / 2), "write must complete");
                write_msgs += sim.metrics().sent - before;
                writes += 1;
            } else {
                sim.invoke(ProcessId(reader), RegisterOp::Read);
                assert!(sim.run_until_quiet(u64::MAX / 2), "read must complete");
                read_msgs += sim.metrics().sent - before;
                reads += 1;
            }
        }
        (
            write_msgs as f64 / writes.max(1) as f64,
            read_msgs as f64 / reads.max(1) as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_basic() {
        let s = Stats::from_samples(vec![1, 2, 3, 4, 100]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.p50, 3.0);
        assert_eq!(s.max, 100.0);
        assert!(Stats::from_samples(vec![]).is_none());
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(vec!["1".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("bbbb"));
        assert!(r.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn us_formats_microseconds() {
        assert_eq!(us(1_500.0), "1.50");
    }

    #[test]
    fn bulk_reference_reproduces_the_committed_f8_row() {
        // n = 5, 100 000 keys, the 32-byte entries of a `KvNode<u32, u64>`.
        assert_eq!(bulk_reference(5, 100_000, 32), [8, 12_800_128, 400_000]);
    }

    #[test]
    fn message_measurement_matches_theory() {
        use super::clusters::*;
        let mut sim = swmr_sim(Variant::AtomicSwmr, 5, abd_simnet::SimConfig::new(1), None);
        let (w, r) = measure_op_messages(&mut sim, 10, 0, 2);
        assert_eq!(w, 8.0, "write: 2(n-1)");
        assert_eq!(r, 16.0, "read: 4(n-1)");
    }

    #[test]
    fn fast_variant_reads_cost_one_round_uncontended() {
        use super::clusters::*;
        let mut sim = swmr_sim(Variant::FastSwmr, 5, abd_simnet::SimConfig::new(1), None);
        let (w, r) = measure_op_messages(&mut sim, 10, 0, 2);
        assert_eq!(w, 8.0, "write unchanged: 2(n-1)");
        assert_eq!(r, 8.0, "uncontended fast read: 2(n-1)");
        let mut sim = mwmr_sim(Variant::FastMwmr, 5, abd_simnet::SimConfig::new(1), None);
        let (w, r) = measure_op_messages(&mut sim, 10, 0, 2);
        assert_eq!(w, 16.0, "MWMR write keeps both phases: 4(n-1)");
        assert_eq!(r, 8.0, "uncontended fast read: 2(n-1)");
    }
}
