//! # abd-bench — the experiment harness
//!
//! One binary per table/figure of `EXPERIMENTS.md` (run with
//! `cargo run --release -p abd-bench --bin <name>`). This library holds
//! the shared plumbing: a register cluster built from a config per node,
//! latency statistics, fixed-width table rendering, and the one artifact
//! writer. Every deterministic binary hands the [`Table`]s it printed to
//! [`write_artifact`], which writes them to `BENCH_<name>.json` at the
//! workspace root and checks that `EXPERIMENTS.md` quotes them as printed;
//! `ci.sh` runs every binary and fails if an artifact differs from the
//! committed one. `fig_shmem` (F5) prints wall-clock columns, so it writes
//! none.

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
    fn render(&self) -> String {
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

    /// The table as a JSON object of its title, header and rows — the
    /// cells exactly as [`render`](Self::render) prints them, one row per
    /// line.
    fn to_json(&self) -> String {
        let list = |cells: &[String]| {
            let cells: Vec<String> = cells.iter().map(|c| json_str(c)).collect();
            format!("[{}]", cells.join(", "))
        };
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|row| format!("\n      {}", list(row)))
            .collect();
        format!(
            "  {{\n    \"title\": {},\n    \"header\": {},\n    \"rows\": [{}\n    ]\n  }}",
            json_str(&self.title),
            list(&self.header),
            rows.join(","),
        )
    }
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The artifact binary `bin` writes: `BENCH_<name>.json`, where `<name>`
/// is `bin` without its `fig_` or `table_` prefix.
fn artifact_name(bin: &str) -> String {
    let name = ["fig_", "table_"]
        .iter()
        .find_map(|prefix| bin.strip_prefix(prefix))
        .unwrap_or(bin);
    format!("BENCH_{name}.json")
}

/// The title of the first of `tables` that `doc` does not hold as it
/// renders: its lines one after another, trailing whitespace ignored.
fn missing_table<'a>(doc: &str, tables: &[&'a Table]) -> Option<&'a str> {
    let doc: Vec<&str> = doc.lines().map(str::trim_end).collect();
    tables.iter().find_map(|t| {
        let rendered = t.render();
        let block: Vec<&str> = rendered
            .trim_start_matches('\n')
            .lines()
            .map(str::trim_end)
            .collect();
        (!doc.windows(block.len()).any(|w| w == block)).then_some(t.title.as_str())
    })
}

/// Writes `tables` — the ones binary `bin` printed, in order — to
/// `BENCH_<name>.json` at the workspace root, `<name>` being `bin` without
/// its `fig_` or `table_` prefix, as a JSON list with one table row per
/// line, then checks that `EXPERIMENTS.md` quotes each table as printed.
/// Call it as `write_artifact(env!("CARGO_BIN_NAME"), &[..])`.
///
/// # Panics
///
/// Panics if the file cannot be written, if `EXPERIMENTS.md` cannot be
/// read, or if it lacks one of `tables` (naming the table).
pub fn write_artifact(bin: &str, tables: &[&Table]) {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let json: Vec<String> = tables.iter().map(|t| t.to_json()).collect();
    let name = artifact_name(bin);
    std::fs::write(
        format!("{root}/{name}"),
        format!("[\n{}\n]\n", json.join(",\n")),
    )
    .unwrap_or_else(|e| panic!("write {name}: {e}"));
    println!("wrote {name}");
    let doc = std::fs::read_to_string(format!("{root}/EXPERIMENTS.md"))
        .unwrap_or_else(|e| panic!("read EXPERIMENTS.md: {e}"));
    if let Some(title) = missing_table(&doc, tables) {
        panic!("EXPERIMENTS.md does not quote the table \"{title}\" as {bin} printed it");
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
    //! Cluster builders and drivers shared by the experiments.

    use abd_core::msg::{RegisterOp, RegisterResp};
    use abd_core::register::{Label, RegisterConfig, RegisterNode};
    use abd_core::types::ProcessId;
    use abd_simnet::{Sim, SimConfig};

    /// Builds an `n`-node register simulation in which node `i` runs
    /// `cfg(i)` from the initial value `0`.
    pub fn register_sim<L: Label>(
        n: usize,
        sim_cfg: SimConfig,
        cfg: impl Fn(usize) -> RegisterConfig<L>,
    ) -> Sim<RegisterNode<L, u64>> {
        Sim::new(
            sim_cfg,
            (0..n)
                .map(|i| RegisterNode::<L, u64>::new(cfg(i), 0))
                .collect(),
        )
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
    fn artifact_writes_one_row_per_line() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["3".into(), "4".into()]);
        assert_eq!(
            t.to_json(),
            concat!(
                "  {\n",
                "    \"title\": \"demo\",\n",
                "    \"header\": [\"a\", \"b\"],\n",
                "    \"rows\": [\n",
                "      [\"1\", \"2\"],\n",
                "      [\"3\", \"4\"]\n",
                "    ]\n",
                "  }"
            )
        );
    }

    #[test]
    fn artifact_escapes_quotes_backslashes_and_newlines() {
        let mut t = Table::new("say \"hi\"\nto C:\\", &["h"]);
        t.row(vec!["a\\b \"c\"\nd\te".into()]);
        let json = t.to_json();
        assert!(
            json.contains(r#""title": "say \"hi\"\nto C:\\","#),
            "{json}"
        );
        assert!(json.contains(r#"["a\\b \"c\"\nd\u0009e"]"#), "{json}");
        assert_eq!(json.lines().count(), 7, "an escaped newline splits no line");
    }

    #[test]
    fn artifact_name_drops_the_binary_prefix() {
        assert_eq!(artifact_name("fig_throughput"), "BENCH_throughput.json");
        assert_eq!(artifact_name("table_atomicity"), "BENCH_atomicity.json");
    }

    #[test]
    fn experiments_must_quote_each_table_as_printed() {
        let mut t = Table::new("T0 — demo", &["variant", "msgs"]);
        t.row(vec!["ABD".into(), "8".into()]);
        t.row(vec!["a longer name".into(), "16".into()]);
        let printed = t.render();
        assert!(printed.lines().any(|l| l.ends_with(' ')), "{printed}");
        let trimmed: String = printed
            .lines()
            .map(|l| l.trim_end().to_string() + "\n")
            .collect();
        let doc = format!("## T0\n\n```text{trimmed}```\n");
        assert_eq!(missing_table(&doc, &[&t]), None, "{doc}");
        let edited = doc.replacen("| 16", "| 17", 1);
        assert_ne!(edited, doc);
        assert_eq!(missing_table(&edited, &[&t]), Some("T0 — demo"));
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
        use abd_core::types::ProcessId;
        use abd_core::SwmrConfig;
        let mut sim = register_sim(5, abd_simnet::SimConfig::new(1), |i| {
            SwmrConfig::new(5, ProcessId(i), ProcessId(0))
        });
        let (w, r) = measure_op_messages(&mut sim, 10, 0, 2);
        assert_eq!(w, 8.0, "write: 2(n-1)");
        assert_eq!(r, 16.0, "read: 4(n-1)");
    }

    #[test]
    fn fast_variant_reads_cost_one_round_uncontended() {
        use super::clusters::*;
        use abd_core::types::{ProcessId, ReadMode};
        use abd_core::{MwmrConfig, SwmrConfig};
        let mut sim = register_sim(5, abd_simnet::SimConfig::new(1), |i| {
            SwmrConfig::new(5, ProcessId(i), ProcessId(0)).with_read_mode(ReadMode::FastUnanimous)
        });
        let (w, r) = measure_op_messages(&mut sim, 10, 0, 2);
        assert_eq!(w, 8.0, "write unchanged: 2(n-1)");
        assert_eq!(r, 8.0, "uncontended fast read: 2(n-1)");
        let mut sim = register_sim(5, abd_simnet::SimConfig::new(1), |i| {
            MwmrConfig::new(5, ProcessId(i)).with_read_mode(ReadMode::FastUnanimous)
        });
        let (w, r) = measure_op_messages(&mut sim, 10, 0, 2);
        assert_eq!(w, 16.0, "MWMR write keeps both phases: 4(n-1)");
        assert_eq!(r, 8.0, "uncontended fast read: 2(n-1)");
    }
}
