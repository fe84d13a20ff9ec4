//! Register workload generation and history extraction.
//!
//! The experiments all run the same shape of workload: every processor
//! executes a script of reads and writes, with **unique write values** so
//! that the consistency checkers can identify which write each read
//! observed. This module generates those scripts deterministically from a
//! seed and converts finished simulations into [`abd_lincheck`] histories:
//! a register's one, or a key-value store's one per key.

use crate::sim::{OpRecord, Sim};
use abd_core::context::Protocol;
use abd_core::msg::{RegisterOp, RegisterResp};
use abd_core::types::{Consistency, Nanos, ProcessId};
use abd_kv::{KvOp, KvResp};
use abd_lincheck::history::{History, RegAction};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Who is allowed to write.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriterMode {
    /// Only this processor writes (single-writer register). Its write
    /// values are consecutive integers, so value order = write order.
    Single(ProcessId),
    /// Every processor writes (multi-writer register). Values are unique
    /// across clients (`client * 2^32 + k`).
    All,
}

/// Parameters of a generated register workload.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Seed for script generation (independent of the simulator's seed).
    pub seed: u64,
    /// Operations per client.
    pub ops_per_client: usize,
    /// Fraction of operations that are writes, for clients allowed to
    /// write; in `[0, 1]`.
    pub write_ratio: f64,
    /// Single- or multi-writer.
    pub writers: WriterMode,
}

impl WorkloadConfig {
    /// A mixed read/write workload: half the operations of eligible writers
    /// are writes.
    pub fn new(seed: u64, ops_per_client: usize, writers: WriterMode) -> Self {
        WorkloadConfig {
            seed,
            ops_per_client,
            write_ratio: 0.5,
            writers,
        }
    }

    /// Sets the write fraction.
    ///
    /// # Panics
    ///
    /// Panics unless `ratio` is in `[0, 1]`.
    pub fn with_write_ratio(mut self, ratio: f64) -> Self {
        assert!((0.0..=1.0).contains(&ratio), "write ratio must be in [0,1]");
        self.write_ratio = ratio;
        self
    }

    /// Generates one script per client, deterministically from the seed.
    /// Write values are unique across the whole workload and never `0`
    /// (the conventional initial value).
    pub fn generate(&self, n: usize) -> Vec<Vec<RegisterOp<u64>>> {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let mut single_writer_seq = 0u64;
        (0..n)
            .map(|client| {
                let can_write = match self.writers {
                    WriterMode::Single(w) => w.index() == client,
                    WriterMode::All => true,
                };
                let mut k = 0u64;
                (0..self.ops_per_client)
                    .map(|_| {
                        if can_write && rng.gen_bool(self.write_ratio) {
                            match self.writers {
                                WriterMode::Single(_) => {
                                    single_writer_seq += 1;
                                    RegisterOp::Write(single_writer_seq)
                                }
                                WriterMode::All => {
                                    k += 1;
                                    RegisterOp::Write(((client as u64 + 1) << 32) | k)
                                }
                            }
                        } else {
                            RegisterOp::Read
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Rewrites every plain `Read` in `scripts` to `ReadAt(tier)`, leaving
/// writes (and already-tiered reads) untouched. Tier sweeps reuse one
/// generated workload so that the scripts differ *only* in read tier.
pub fn scripts_at_tier(
    scripts: Vec<Vec<RegisterOp<u64>>>,
    tier: Consistency,
) -> Vec<Vec<RegisterOp<u64>>> {
    scripts
        .into_iter()
        .map(|script| {
            script
                .into_iter()
                .map(|op| match op {
                    RegisterOp::Read => RegisterOp::ReadAt(tier),
                    other => other,
                })
                .collect()
        })
        .collect()
}

/// Mixed-tier rewrite: each client's reads become `ReadAt(mostly)` except
/// every `every`th read (1-indexed per client), which becomes
/// `ReadAt(rarely)`. Deterministic, so a mixed workload is replayable.
/// `every = 100` yields the SC-ABD sweet spot: 99% sequential reads with a
/// 1% atomic refresh.
///
/// # Panics
///
/// Panics if `every` is zero.
pub fn scripts_mixed_tier(
    scripts: Vec<Vec<RegisterOp<u64>>>,
    mostly: Consistency,
    rarely: Consistency,
    every: u64,
) -> Vec<Vec<RegisterOp<u64>>> {
    assert!(every > 0, "every must be positive");
    scripts
        .into_iter()
        .map(|script| {
            let mut reads = 0u64;
            script
                .into_iter()
                .map(|op| match op {
                    RegisterOp::Read => {
                        reads += 1;
                        if reads.is_multiple_of(every) {
                            RegisterOp::ReadAt(rarely)
                        } else {
                            RegisterOp::ReadAt(mostly)
                        }
                    }
                    other => other,
                })
                .collect()
        })
        .collect()
}

/// Converts the completed operation records of the clients `keep` accepts
/// into a checker history. Errors (`RegisterResp::Err`) are skipped: a
/// rejected operation never took effect.
fn history_from_records(
    initial: u64,
    records: &[OpRecord<RegisterOp<u64>, RegisterResp<u64>>],
    keep: impl Fn(usize) -> bool,
) -> History<u64> {
    let mut h = History::new(initial);
    for r in records.iter().filter(|r| keep(r.client.index())) {
        match (&r.input, &r.resp) {
            (RegisterOp::Write(v), RegisterResp::WriteOk) => {
                h.push(
                    r.client.index(),
                    RegAction::Write(*v),
                    r.invoked_at,
                    r.completed_at,
                );
            }
            // Tiered reads record identically to plain reads: the history
            // does not care how a value was obtained, only what was seen —
            // the *oracle* chosen for the run encodes the promised tier.
            (RegisterOp::Read | RegisterOp::ReadAt(_), RegisterResp::ReadOk(v)) => {
                h.push(
                    r.client.index(),
                    RegAction::Read(*v),
                    r.invoked_at,
                    r.completed_at,
                );
            }
            _ => {}
        }
    }
    h
}

/// Extracts the full history of a simulation — completed operations plus
/// pending writes (reads that never returned are simply absent).
pub fn history_from_sim<P>(initial: u64, sim: &Sim<P>) -> History<u64>
where
    P: Protocol<Op = RegisterOp<u64>, Resp = RegisterResp<u64>>,
{
    history_of_clients(initial, sim, |_| true)
}

/// [`history_from_sim`] over the clients `keep` accepts only: a Byzantine
/// run's honest clients.
pub(crate) fn history_of_clients<P>(
    initial: u64,
    sim: &Sim<P>,
    keep: impl Fn(usize) -> bool,
) -> History<u64>
where
    P: Protocol<Op = RegisterOp<u64>, Resp = RegisterResp<u64>>,
{
    let mut h = history_from_records(initial, sim.completed(), &keep);
    for (_, client, input, at) in sim.pending_details() {
        if let (RegisterOp::Write(v), true) = (input, keep(client.index())) {
            h.push_pending_write(client.index(), v, at);
        }
    }
    h
}

/// Per-key register histories of a key-value run: completed `Put`s and
/// `Get`s, a `Get` of an unwritten key reading the initial value 0 (so no
/// script may write 0), plus every `Put` that may still take effect — in
/// flight, or aborted by its node's crash — as a pending write.
pub fn kv_histories<K, P>(sim: &Sim<P>) -> BTreeMap<K, History<u64>>
where
    K: Ord + Copy,
    P: Protocol<Op = KvOp<K, u64>, Resp = KvResp<u64>>,
{
    let mut histories = BTreeMap::new();
    for rec in sim.completed() {
        let (key, action) = match (&rec.input, &rec.resp) {
            (KvOp::Put(k, v), KvResp::PutOk) => (*k, RegAction::Write(*v)),
            (KvOp::Get(k) | KvOp::GetAt(k, _), KvResp::GetOk(v)) => {
                (*k, RegAction::Read(v.unwrap_or(0)))
            }
            _ => continue,
        };
        histories
            .entry(key)
            .or_insert_with(|| History::new(0))
            .push(rec.client.index(), action, rec.invoked_at, rec.completed_at);
    }
    for (_, client, input, at) in sim.pending_details() {
        if let KvOp::Put(k, v) = input {
            histories
                .entry(k)
                .or_insert_with(|| History::new(0))
                .push_pending_write(client.index(), v, at);
        }
    }
    histories
}

/// Convenience bundle: run a generated workload on a simulation and return
/// the resulting history. Returns `None` if the deadline passed with
/// operations still pending **and** `require_completion` is set.
pub fn run_workload<P>(
    sim: &mut Sim<P>,
    workload: &WorkloadConfig,
    think: Nanos,
    deadline: Nanos,
    require_completion: bool,
) -> Option<History<u64>>
where
    P: Protocol<Op = RegisterOp<u64>, Resp = RegisterResp<u64>>,
{
    let scripts = workload.generate(sim.n());
    let done = crate::harness::run_scripts(sim, scripts, think, think.max(1), deadline);
    if require_completion && !done {
        return None;
    }
    Some(history_from_sim(0, sim))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use abd_core::swmr::{SwmrConfig, SwmrNode};

    #[test]
    fn generation_is_deterministic_and_unique() {
        let cfg = WorkloadConfig::new(5, 50, WriterMode::All);
        let a = cfg.generate(4);
        let b = cfg.generate(4);
        assert_eq!(a, b);
        let mut values = std::collections::BTreeSet::new();
        for script in &a {
            for op in script {
                if let RegisterOp::Write(v) = op {
                    assert!(values.insert(*v), "duplicate write value {v}");
                    assert_ne!(*v, 0);
                }
            }
        }
        assert!(!values.is_empty());
    }

    #[test]
    fn single_writer_mode_restricts_writes() {
        let cfg = WorkloadConfig::new(9, 30, WriterMode::Single(ProcessId(2)));
        let scripts = cfg.generate(4);
        for (i, script) in scripts.iter().enumerate() {
            let writes = script
                .iter()
                .filter(|o| matches!(o, RegisterOp::Write(_)))
                .count();
            if i == 2 {
                assert!(writes > 0, "the writer must write sometimes");
            } else {
                assert_eq!(writes, 0, "client {i} must not write");
            }
        }
        // Writer values are consecutive 1..=k.
        let vals: Vec<u64> = scripts[2]
            .iter()
            .filter_map(|o| match o {
                RegisterOp::Write(v) => Some(*v),
                _ => None,
            })
            .collect();
        let expect: Vec<u64> = (1..=vals.len() as u64).collect();
        assert_eq!(vals, expect);
    }

    #[test]
    fn write_ratio_extremes() {
        let all_reads = WorkloadConfig::new(1, 20, WriterMode::All).with_write_ratio(0.0);
        assert!(all_reads
            .generate(2)
            .iter()
            .flatten()
            .all(|o| matches!(o, RegisterOp::Read)));
        let all_writes = WorkloadConfig::new(1, 20, WriterMode::All).with_write_ratio(1.0);
        assert!(all_writes
            .generate(2)
            .iter()
            .flatten()
            .all(|o| matches!(o, RegisterOp::Write(_))));
    }

    #[test]
    fn end_to_end_history_is_linearizable() {
        let nodes: Vec<SwmrNode<u64>> = (0..3)
            .map(|i| SwmrNode::new(SwmrConfig::new(3, ProcessId(i), ProcessId(0)), 0))
            .collect();
        let mut sim = Sim::new(SimConfig::new(23), nodes);
        let wl = WorkloadConfig::new(7, 20, WriterMode::Single(ProcessId(0)));
        let h = run_workload(&mut sim, &wl, 50, 1_000_000_000, true).expect("completes");
        assert!(!h.is_empty());
        assert_eq!(
            abd_lincheck::check_linearizable(&h),
            abd_lincheck::CheckResult::Linearizable
        );
        assert!(abd_lincheck::is_atomic_swmr(&h));
        assert!(h.validate_sequential_clients().is_ok());
    }

    #[test]
    fn tier_rewrites_touch_only_plain_reads() {
        let scripts = vec![vec![
            RegisterOp::Read,
            RegisterOp::Write(1),
            RegisterOp::ReadAt(Consistency::Regular),
            RegisterOp::Read,
        ]];
        let tiered = scripts_at_tier(scripts.clone(), Consistency::Sequential);
        assert_eq!(
            tiered[0],
            vec![
                RegisterOp::ReadAt(Consistency::Sequential),
                RegisterOp::Write(1),
                RegisterOp::ReadAt(Consistency::Regular),
                RegisterOp::ReadAt(Consistency::Sequential),
            ]
        );
        // Mixed: with every=2 the second plain read flips to the rare tier.
        let mixed = scripts_mixed_tier(scripts, Consistency::Sequential, Consistency::Atomic, 2);
        assert_eq!(
            mixed[0],
            vec![
                RegisterOp::ReadAt(Consistency::Sequential),
                RegisterOp::Write(1),
                RegisterOp::ReadAt(Consistency::Regular),
                RegisterOp::ReadAt(Consistency::Atomic),
            ]
        );
    }

    #[test]
    fn tiered_reads_land_in_the_history() {
        use crate::sim::OpRecord;
        use abd_core::types::OpId;
        let records = vec![
            OpRecord {
                op: OpId(0),
                client: ProcessId(0),
                input: RegisterOp::Write(3u64),
                resp: RegisterResp::WriteOk,
                invoked_at: 0,
                completed_at: 10,
            },
            OpRecord {
                op: OpId(1),
                client: ProcessId(1),
                input: RegisterOp::ReadAt(Consistency::Sequential),
                resp: RegisterResp::ReadOk(3),
                invoked_at: 20,
                completed_at: 30,
            },
        ];
        let h = history_from_records(0, &records, |_| true);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn a_get_that_observes_an_aborted_put_is_linearizable() {
        use abd_kv::{KvConfig, KvNode};
        let nodes: Vec<KvNode<u32, u64>> = (0..3)
            .map(|i| KvNode::new(KvConfig::new(3, ProcessId(i))))
            .collect();
        let cfg = SimConfig::new(2).with_latency(crate::config::LatencyModel::Constant(1_000));
        let mut sim = Sim::new(cfg, nodes);
        // The put's update round reaches nodes 1 and 2 at 3 000; its node
        // crashes before their acks return, and a later get reads it.
        sim.invoke_at(0, ProcessId(0), KvOp::Put(1, 7));
        sim.crash_at(3_500, ProcessId(0));
        sim.invoke_at(10_000, ProcessId(1), KvOp::Get(1));
        sim.run_until_quiet(1_000_000);
        assert_eq!(sim.aborted_details().len(), 1);
        assert_eq!(sim.completed()[0].resp, KvResp::GetOk(Some(7)));
        let histories = kv_histories(&sim);
        let h = &histories[&1u32];
        assert_eq!(h.pending_writes(), &[(0, 7, 0)]);
        assert_eq!(
            abd_lincheck::check_linearizable(h),
            abd_lincheck::CheckResult::Linearizable
        );
    }

    #[test]
    fn pending_writes_captured_from_stalled_sim() {
        let nodes: Vec<SwmrNode<u64>> = (0..3)
            .map(|i| SwmrNode::new(SwmrConfig::new(3, ProcessId(i), ProcessId(0)), 0))
            .collect();
        let mut sim = Sim::new(SimConfig::new(23), nodes);
        sim.crash_at(0, ProcessId(1));
        sim.crash_at(0, ProcessId(2));
        sim.invoke_at(10, ProcessId(0), RegisterOp::Write(9));
        sim.run_until_quiet(1_000_000);
        let h = history_from_sim(0, &sim);
        assert_eq!(h.len(), 0);
        assert_eq!(h.pending_writes(), &[(0, 9, 10)]);
    }
}
