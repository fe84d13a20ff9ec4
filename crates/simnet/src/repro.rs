//! Failure-repro artifacts: self-contained, replayable records of a
//! failing campaign.
//!
//! When a seeded nemesis soak fails, the seed alone is a poor artifact: it
//! only reproduces the failure through the exact test binary that planned
//! the campaign from it. A [`Repro`] instead freezes everything the replay
//! needs — protocol choice, [`SimConfig`], the **resolved**
//! [`NemesisSchedule`] (explicit faults, not a planner seed), the workload
//! scripts, the failure oracle, and the expected trace digest — into one
//! value that serializes to a RON-subset text file under `target/repro/`.
//! The `abd_repro` CLI (`crates/bench/src/bin/abd_repro.rs`) replays,
//! shrinks ([`crate::shrink`]) and explains these artifacts; any of them
//! reproduces the original execution bit-for-bit because the simulator is
//! deterministic in (config, schedule, scripts).
//!
//! The serializer and parser are hand-rolled (the repo takes no external
//! dependencies): the format is the subset of RON covering named structs,
//! enum variants with named or positional fields, lists, `u64`/`f64`/bool
//! literals, `Some`/`None`, and escaped strings. `0x`-prefixed integers are
//! accepted and used for digests.

use crate::config::{LatencyModel, SimConfig};
use crate::coverage::{Classify, ClassifyOp, CoverageCollector, CoverageSample};
use crate::nemesis::{run_campaign, NemesisSchedule, PlannedFault};
use crate::planted::{AmnesiacKv, MutantKind, MutantSwmr};
use crate::sim::Sim;
use crate::workload::history_from_sim;
use abd_core::batch::Batched;
use abd_core::context::Protocol;
use abd_core::msg::{RegisterOp, RegisterResp};
use abd_core::mwmr::{MwmrConfig, MwmrNode};
use abd_core::retransmit::BackoffPolicy;
use abd_core::swmr::{SwmrConfig, SwmrNode};
use abd_core::types::{Consistency, Nanos, ProcessId, ReadMode, Tag};
use abd_kv::{KvConfig, KvNode, KvOp, KvResp};
use abd_lincheck::history::{History, RegAction};
use abd_lincheck::oracle::{
    AtomicSwmrOracle, HistoryOracle, LinearizableOracle, RegularOracle, SequentialConsistencyOracle,
};
use std::fmt;
use std::path::{Path, PathBuf};

/// Which register construction the campaign ran against.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ProtocolSpec {
    /// Single-writer nodes ([`SwmrNode`]); writer is node 0.
    Swmr {
        /// Read path: two-round, fast-unanimous, or relay.
        read_mode: ReadMode,
    },
    /// Multi-writer nodes ([`MwmrNode`]).
    Mwmr {
        /// Read path: two-round, fast-unanimous, or relay.
        read_mode: ReadMode,
    },
    /// Single-writer nodes under a [`Batched`] coalescing wrapper.
    BatchedSwmr {
        /// Nagle-style flush window in nanoseconds (0 = flush immediately).
        window: Nanos,
        /// Read path: two-round, fast-unanimous, or relay.
        read_mode: ReadMode,
    },
    /// Single-writer nodes carrying one planted defect from the
    /// [`MutantSwmr`] zoo — test fixtures only.
    MutantSwmr {
        /// Which defect every node carries.
        mutant: MutantKind,
        /// Trigger rate for the counted mutants (see [`MutantSwmr::new`]).
        every: u64,
    },
    /// Key-value nodes ([`KvNode`]), one register per key. Script position
    /// `j` of client `c` is one operation on hot key
    /// `preload + (c + j) % hot` — `Write(v)` a `Put`, a read a `Get` at the
    /// same tier — and the oracle judges every hot key's history on its
    /// own. Below the hot keys sit `preload` cold ones on which every node
    /// alone is ahead on its own `1/n`th (writes that reached one replica),
    /// so each reboot's Merkle walks (over `buckets` leaf buckets) find the
    /// whole tree divergent and run for their full depth while the
    /// restarted node serves.
    Kv {
        /// Read path: two-round, fast-unanimous, or relay.
        read_mode: ReadMode,
        /// Contended keys the scripts address.
        hot: u32,
        /// Cold, widely divergent keys preloaded on every node.
        preload: u32,
        /// Leaf buckets of the Merkle sync tree (a power of two ≥ 2).
        buckets: u32,
        /// Whether the nodes lose their store on reboot ([`AmnesiacKv`]) —
        /// test fixtures only.
        amnesiac: bool,
    },
}

impl ProtocolSpec {
    /// The read path the campaign's clients walk, where the spec makes it
    /// configurable. The planted/mutant fixtures are pinned to `TwoRound`
    /// so their known-bad goldens never shift under read-mode changes.
    pub fn read_mode(&self) -> ReadMode {
        match *self {
            ProtocolSpec::Swmr { read_mode }
            | ProtocolSpec::Mwmr { read_mode }
            | ProtocolSpec::BatchedSwmr { read_mode, .. }
            | ProtocolSpec::Kv { read_mode, .. } => read_mode,
            ProtocolSpec::MutantSwmr { .. } => ReadMode::TwoRound,
        }
    }
}

/// How the replay decides "did this run fail?".
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum OracleSpec {
    /// Linear-time single-writer atomicity ([`AtomicSwmrOracle`]).
    AtomicSwmr,
    /// Wing–Gong linearizability search ([`LinearizableOracle`]).
    Linearizable,
    /// Sequential-consistency search ([`SequentialConsistencyOracle`]) —
    /// the tier promised by `Consistency::Sequential` reads.
    Sequential,
    /// Single-writer regularity ([`RegularOracle`]) — the tier promised by
    /// `Consistency::Regular` reads.
    RegularSwmr,
    /// Run the campaign twice from the same seed and compare trace
    /// digests — a divergence means the execution is nondeterministic.
    DigestDivergence,
}

/// Why a replay failed. [`Failure::kind`] tags the failure class; the
/// shrinker only accepts candidates that fail with the **same** class as
/// the original, so it cannot trade an atomicity violation for an
/// unrelated timeout.
#[derive(Clone, PartialEq, Debug)]
pub enum Failure {
    /// Surviving operations missed the liveness deadline.
    Liveness,
    /// The history oracle found a consistency violation.
    Violation(String),
    /// Two same-seed runs produced different trace digests.
    Divergence {
        /// Digest of the first run.
        first: u64,
        /// Digest of the second run.
        second: u64,
    },
}

impl Failure {
    /// Stable failure-class tag (`liveness` / `violation` / `divergence`).
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::Liveness => "liveness",
            Failure::Violation(_) => "violation",
            Failure::Divergence { .. } => "divergence",
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Liveness => write!(f, "surviving operations missed the liveness deadline"),
            Failure::Violation(r) => write!(f, "{r}"),
            Failure::Divergence { first, second } => write!(
                f,
                "same-seed replays diverge: {first:#018x} vs {second:#018x}"
            ),
        }
    }
}

/// The result of replaying a [`Repro`].
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Trace digest of the (first) run.
    pub digest: u64,
    /// Whether every surviving operation completed by the deadline.
    pub completed: bool,
    /// `None` if the run passed its oracle.
    pub failure: Option<Failure>,
    /// The recorded operation histories (completed + pending writes), one
    /// per register: a single one for the register protocols, one per hot
    /// key in key order for [`ProtocolSpec::Kv`].
    pub histories: Vec<History<u64>>,
}

/// A self-contained, replayable record of one campaign execution.
///
/// Equality of two artifacts means bit-identical replays: the simulator's
/// only inputs are these fields.
#[derive(Clone, PartialEq, Debug)]
pub struct Repro {
    /// Short slug naming the originating test (used in file names).
    pub name: String,
    /// Protocol under test.
    pub protocol: ProtocolSpec,
    /// Cluster size.
    pub n: usize,
    /// Retransmission backoff base, if the nodes retransmit.
    pub backoff_base: Option<Nanos>,
    /// Network / scheduler configuration.
    pub sim: SimConfig,
    /// The resolved fault schedule (explicit faults, not a planner seed).
    pub schedule: NemesisSchedule,
    /// Per-client scripts, indexed by node.
    pub scripts: Vec<Vec<RegisterOp<u64>>>,
    /// Closed-loop think time between a completion and the next invocation.
    pub think: Nanos,
    /// Absolute liveness deadline for the campaign.
    pub deadline: Nanos,
    /// Failure predicate applied to the replayed history.
    pub oracle: OracleSpec,
    /// Trace digest the original failing run produced.
    pub expected_digest: u64,
    /// Human-readable description of the original failure.
    pub reason: String,
}

impl Repro {
    /// Replays the artifact once (twice for [`OracleSpec::DigestDivergence`])
    /// and applies its oracle.
    pub fn run(&self) -> ReplayOutcome {
        let (digest, completed, histories) = self.run_once();
        let failure = self.judge(digest, completed, &histories);
        ReplayOutcome {
            digest,
            completed,
            failure,
            histories,
        }
    }

    /// Like [`Repro::run`], but also extracts the campaign's
    /// [`CoverageSample`] through the simulator's observation-only tap —
    /// the replay stays bit-identical to an untapped one.
    pub fn run_with_coverage(&self) -> (ReplayOutcome, CoverageSample) {
        let mut cov = CoverageSample::default();
        let (digest, completed, histories) = self.run_once_cov(Some(&mut cov));
        let failure = self.judge(digest, completed, &histories);
        (
            ReplayOutcome {
                digest,
                completed,
                failure,
                histories,
            },
            cov,
        )
    }

    /// Applies this artifact's oracle to one finished run: a history
    /// oracle judges each register's history on its own, and the first
    /// violation is the failure (named by its key when there are several
    /// registers).
    fn judge(&self, digest: u64, completed: bool, histories: &[History<u64>]) -> Option<Failure> {
        if !completed {
            return Some(Failure::Liveness);
        }
        let oracle: &dyn HistoryOracle<u64> = match self.oracle {
            OracleSpec::AtomicSwmr => &AtomicSwmrOracle,
            OracleSpec::Linearizable => &LinearizableOracle::default(),
            OracleSpec::Sequential => &SequentialConsistencyOracle::default(),
            OracleSpec::RegularSwmr => &RegularOracle,
            OracleSpec::DigestDivergence => {
                let (second, _, _) = self.run_once();
                return (second != digest).then_some(Failure::Divergence {
                    first: digest,
                    second,
                });
            }
        };
        histories.iter().enumerate().find_map(|(i, h)| {
            let reason = oracle.violation(h)?;
            Some(Failure::Violation(match self.protocol {
                ProtocolSpec::Kv { preload, .. } => {
                    format!("key {}: {reason}", preload as usize + i)
                }
                _ => reason,
            }))
        })
    }

    /// Runs the campaign, emitting the artifact to [`Repro::default_dir`]
    /// on failure. The emitted file carries the *observed* digest and
    /// failure reason; the returned error names the file and the CLI
    /// commands that replay and shrink it.
    ///
    /// # Errors
    ///
    /// The failure description, artifact path included, for use as a test
    /// panic message.
    pub fn check_or_emit(mut self) -> Result<ReplayOutcome, String> {
        let out = self.run();
        let Some(failure) = &out.failure else {
            return Ok(out);
        };
        self.expected_digest = out.digest;
        self.reason = failure.to_string();
        let where_to = match self.save_to(&Repro::default_dir()) {
            Ok(path) => format!(
                "repro artifact: {} — replay with `cargo run -q --release -p abd-bench \
                 --bin abd_repro -- replay {}`, minimize with `... shrink {}`",
                path.display(),
                path.display(),
                path.display()
            ),
            Err(e) => format!("(repro artifact could not be written: {e})"),
        };
        Err(format!(
            "campaign '{}' failed: {failure}\n{where_to}",
            self.name
        ))
    }

    /// Where emitted artifacts go: `$ABD_REPRO_DIR` or `target/repro`.
    pub fn default_dir() -> PathBuf {
        std::env::var_os("ABD_REPRO_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("target/repro"))
    }

    /// Writes the artifact as `<dir>/<name>-<sim seed>.ron`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn save_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}-{}.ron", self.name, self.sim.seed));
        std::fs::write(&path, self.to_ron())?;
        Ok(path)
    }

    fn swmr_cfg(&self, i: usize, read_mode: ReadMode) -> SwmrConfig {
        let mut cfg = SwmrConfig::new(self.n, ProcessId(i), ProcessId(0));
        cfg = cfg.with_read_mode(read_mode);
        if let Some(base) = self.backoff_base {
            cfg = cfg.with_backoff(BackoffPolicy::new(base));
        }
        cfg
    }

    /// One deterministic execution: build nodes, apply the schedule, drive
    /// the scripts, extract (digest, completed, history).
    fn run_once(&self) -> (u64, bool, Vec<History<u64>>) {
        self.run_once_cov(None)
    }

    /// [`run_once`](Repro::run_once) with an optional coverage slot filled
    /// through the simulator tap.
    fn run_once_cov(
        &self,
        coverage: Option<&mut CoverageSample>,
    ) -> (u64, bool, Vec<History<u64>>) {
        match self.protocol {
            ProtocolSpec::Swmr { read_mode } => self.drive(
                (0..self.n)
                    .map(|i| SwmrNode::new(self.swmr_cfg(i, read_mode), 0u64))
                    .collect(),
                coverage,
            ),
            ProtocolSpec::Mwmr { read_mode } => self.drive(
                (0..self.n)
                    .map(|i| {
                        let mut cfg =
                            MwmrConfig::new(self.n, ProcessId(i)).with_read_mode(read_mode);
                        if let Some(base) = self.backoff_base {
                            cfg = cfg.with_backoff(BackoffPolicy::new(base));
                        }
                        MwmrNode::new(cfg, 0u64)
                    })
                    .collect(),
                coverage,
            ),
            ProtocolSpec::BatchedSwmr { window, read_mode } => self.drive(
                (0..self.n)
                    .map(|i| Batched::new(SwmrNode::new(self.swmr_cfg(i, read_mode), 0u64), window))
                    .collect(),
                coverage,
            ),
            ProtocolSpec::MutantSwmr { mutant, every } => self.drive(
                (0..self.n)
                    .map(|i| {
                        MutantSwmr::new(
                            SwmrNode::new(self.swmr_cfg(i, ReadMode::TwoRound), 0u64),
                            mutant,
                            every,
                        )
                    })
                    .collect(),
                coverage,
            ),
            ProtocolSpec::Kv {
                read_mode,
                hot,
                preload,
                buckets,
                amnesiac,
            } => {
                let nodes = (0..self.n).map(|i| {
                    let mut cfg = KvConfig::new(self.n, ProcessId(i))
                        .with_read_mode(read_mode)
                        .with_sync_buckets(buckets as usize);
                    if let Some(base) = self.backoff_base {
                        cfg = cfg.with_backoff(BackoffPolicy::new(base));
                    }
                    let mut node = KvNode::new(cfg);
                    for k in 0..preload {
                        node.preload(k, Tag::new(1, ProcessId(0)), 1);
                        if k as usize % self.n == i {
                            node.preload(k, Tag::new(2, ProcessId(i)), 2);
                        }
                    }
                    node
                });
                let scripts = self
                    .scripts
                    .iter()
                    .enumerate()
                    .map(|(c, script)| {
                        script
                            .iter()
                            .enumerate()
                            .map(|(j, op)| {
                                let key = preload + (c + j) as u32 % hot;
                                match *op {
                                    RegisterOp::Write(v) => KvOp::Put(key, v),
                                    RegisterOp::Read => KvOp::Get(key),
                                    RegisterOp::ReadAt(tier) => KvOp::GetAt(key, tier),
                                }
                            })
                            .collect()
                    })
                    .collect();
                if amnesiac {
                    let nodes = nodes.map(AmnesiacKv::new).collect();
                    self.drive_with(nodes, scripts, kv_histories(preload, hot), coverage)
                } else {
                    self.drive_with(
                        nodes.collect(),
                        scripts,
                        kv_histories(preload, hot),
                        coverage,
                    )
                }
            }
        }
    }

    /// [`Repro::drive_with`] for the register protocols, whose scripts run
    /// as written and whose history is the one register's.
    fn drive<P>(
        &self,
        nodes: Vec<P>,
        coverage: Option<&mut CoverageSample>,
    ) -> (u64, bool, Vec<History<u64>>)
    where
        P: Protocol<Op = RegisterOp<u64>, Resp = RegisterResp<u64>>,
        P::Msg: Classify,
    {
        self.drive_with(
            nodes,
            self.scripts.clone(),
            |sim| vec![history_from_sim(0, sim)],
            coverage,
        )
    }

    fn drive_with<P>(
        &self,
        nodes: Vec<P>,
        scripts: Vec<Vec<P::Op>>,
        histories: impl Fn(&Sim<P>) -> Vec<History<u64>>,
        coverage: Option<&mut CoverageSample>,
    ) -> (u64, bool, Vec<History<u64>>)
    where
        P: Protocol,
        P::Msg: Classify,
        P::Op: ClassifyOp + Clone,
        P::Resp: Clone,
    {
        let mut sim = Sim::new(self.sim.clone(), nodes);
        let collector = coverage.is_some().then(|| {
            std::rc::Rc::new(std::cell::RefCell::new(CoverageCollector::new(
                self.n,
                ProcessId(0),
            )))
        });
        if let Some(c) = &collector {
            let c2 = std::rc::Rc::clone(c);
            sim.set_tap(Box::new(move |ev| c2.borrow_mut().observe(&ev)));
        }
        self.schedule.apply(&mut sim);
        let completed = run_campaign(&mut sim, &self.schedule, scripts, self.think, self.deadline);
        if let (Some(slot), Some(c)) = (coverage, collector) {
            *slot = c.borrow().clone().finish(sim.metrics(), sim.trace_digest());
        }
        (sim.trace_digest(), completed, histories(&sim))
    }
}

/// Extracts the per-key register histories of a [`ProtocolSpec::Kv`] run, hot keys
/// `preload..preload + hot` in order: completed operations plus the `Put`s
/// that may still take effect (a `Get` of an unwritten key reads the
/// initial value 0; no script writes 0).
fn kv_histories<P>(preload: u32, hot: u32) -> impl Fn(&Sim<P>) -> Vec<History<u64>>
where
    P: Protocol<Op = KvOp<u32, u64>, Resp = KvResp<u64>>,
{
    move |sim| {
        let mut histories = vec![History::new(0); hot as usize];
        for rec in sim.completed() {
            let (key, action) = match (&rec.input, &rec.resp) {
                (KvOp::Put(k, v), KvResp::PutOk) => (*k, RegAction::Write(*v)),
                (KvOp::Get(k) | KvOp::GetAt(k, _), KvResp::GetOk(v)) => {
                    (*k, RegAction::Read(v.unwrap_or(0)))
                }
                _ => continue,
            };
            histories[(key - preload) as usize].push(
                rec.client.index(),
                action,
                rec.invoked_at,
                rec.completed_at,
            );
        }
        for (_, client, input, at) in sim.pending_details() {
            if let KvOp::Put(k, v) = input {
                histories[(k - preload) as usize].push_pending_write(client.index(), v, at);
            }
        }
        histories
    }
}

// ---------------------------------------------------------------------------
// Serialization (RON subset, hand-rolled)
// ---------------------------------------------------------------------------

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn fault_ron(f: &PlannedFault) -> String {
    match f {
        PlannedFault::Crash {
            at,
            node,
            restart_at,
        } => format!(
            "Crash(at: {at}, node: {}, restart_at: {restart_at})",
            node.0
        ),
        PlannedFault::Partition {
            at,
            groups,
            heal_at,
        } => {
            let gs: Vec<String> = groups.iter().map(u32::to_string).collect();
            format!(
                "Partition(at: {at}, groups: [{}], heal_at: {heal_at})",
                gs.join(", ")
            )
        }
        PlannedFault::LossBurst {
            at,
            prob,
            until,
            restore,
        } => format!("LossBurst(at: {at}, prob: {prob:?}, until: {until}, restore: {restore:?})"),
        PlannedFault::Gray {
            at,
            node,
            factor,
            until,
        } => format!(
            "Gray(at: {at}, node: {}, factor: {factor}, until: {until})",
            node.0
        ),
    }
}

impl Repro {
    /// Serializes the artifact to the RON subset [`Repro::from_ron`] reads.
    pub fn to_ron(&self) -> String {
        let mut s = String::new();
        s.push_str("Repro(\n");
        s.push_str(&format!("    name: \"{}\",\n", esc(&self.name)));
        let mode_field = |m: ReadMode| format!("read_mode: {m:?}");
        let proto = match self.protocol {
            ProtocolSpec::Swmr { read_mode } => format!("Swmr({})", mode_field(read_mode)),
            ProtocolSpec::Mwmr { read_mode } => format!("Mwmr({})", mode_field(read_mode)),
            ProtocolSpec::BatchedSwmr { window, read_mode } => {
                format!("BatchedSwmr(window: {window}, {})", mode_field(read_mode))
            }
            ProtocolSpec::MutantSwmr { mutant, every } => {
                format!("MutantSwmr(mutant: {mutant}, every: {every})")
            }
            ProtocolSpec::Kv {
                read_mode,
                hot,
                preload,
                buckets,
                amnesiac,
            } => format!(
                "Kv({}, hot: {hot}, preload: {preload}, buckets: {buckets}, amnesiac: {amnesiac})",
                mode_field(read_mode)
            ),
        };
        s.push_str(&format!("    protocol: {proto},\n"));
        s.push_str(&format!("    n: {},\n", self.n));
        match self.backoff_base {
            Some(b) => s.push_str(&format!("    backoff_base: Some({b}),\n")),
            None => s.push_str("    backoff_base: None,\n"),
        }
        let latency = match self.sim.latency {
            LatencyModel::Constant(d) => format!("Constant({d})"),
            LatencyModel::Uniform { lo, hi } => format!("Uniform(lo: {lo}, hi: {hi})"),
            LatencyModel::Bimodal {
                fast,
                slow,
                slow_prob,
            } => format!("Bimodal(fast: {fast}, slow: {slow}, slow_prob: {slow_prob:?})"),
        };
        s.push_str("    sim: SimConfig(\n");
        s.push_str(&format!("        seed: {},\n", self.sim.seed));
        s.push_str(&format!("        latency: {latency},\n"));
        s.push_str(&format!("        loss_prob: {:?},\n", self.sim.loss_prob));
        s.push_str(&format!("        dup_prob: {:?},\n", self.sim.dup_prob));
        s.push_str("    ),\n");
        s.push_str("    schedule: NemesisSchedule(\n");
        s.push_str(&format!(
            "        min_alive: {},\n",
            self.schedule.min_alive()
        ));
        s.push_str(&format!("        heal_at: {},\n", self.schedule.heal_at()));
        let skews: Vec<String> = self.schedule.skews().iter().map(u64::to_string).collect();
        s.push_str(&format!("        skews: [{}],\n", skews.join(", ")));
        s.push_str("        faults: [\n");
        for f in self.schedule.faults() {
            s.push_str(&format!("            {},\n", fault_ron(f)));
        }
        s.push_str("        ],\n");
        s.push_str("    ),\n");
        s.push_str("    scripts: [\n");
        for script in &self.scripts {
            let ops: Vec<String> = script
                .iter()
                .map(|op| match op {
                    RegisterOp::Read => "Read".to_string(),
                    // Tiered reads get their own idents; plain `Read` keeps
                    // its pre-tier canonical form byte-for-byte.
                    RegisterOp::ReadAt(Consistency::Atomic) => "ReadAtomic".to_string(),
                    RegisterOp::ReadAt(Consistency::Sequential) => "ReadSC".to_string(),
                    RegisterOp::ReadAt(Consistency::Regular) => "ReadRegular".to_string(),
                    RegisterOp::Write(v) => format!("Write({v})"),
                })
                .collect();
            s.push_str(&format!("        [{}],\n", ops.join(", ")));
        }
        s.push_str("    ],\n");
        s.push_str(&format!("    think: {},\n", self.think));
        s.push_str(&format!("    deadline: {},\n", self.deadline));
        let oracle = match self.oracle {
            OracleSpec::AtomicSwmr => "AtomicSwmr",
            OracleSpec::Linearizable => "Linearizable",
            OracleSpec::Sequential => "Sequential",
            OracleSpec::RegularSwmr => "RegularSwmr",
            OracleSpec::DigestDivergence => "DigestDivergence",
        };
        s.push_str(&format!("    oracle: {oracle},\n"));
        s.push_str(&format!(
            "    expected_digest: {:#018x},\n",
            self.expected_digest
        ));
        s.push_str(&format!("    reason: \"{}\",\n", esc(&self.reason)));
        s.push_str(")\n");
        s
    }

    /// Parses an artifact from [`Repro::to_ron`]'s format.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax or schema problem.
    pub fn from_ron(text: &str) -> Result<Repro, String> {
        let tokens = lex(text)?;
        let mut p = Parser { tokens, pos: 0 };
        let val = p.value()?;
        if p.pos != p.tokens.len() {
            return Err(format!("trailing tokens after artifact: {:?}", p.peek()));
        }
        repro_from_val(&val)
    }
}

// --- lexer ---

#[derive(Clone, PartialEq, Debug)]
enum Tok {
    Ident(String),
    U64(u64),
    F64(f64),
    Str(String),
    LParen,
    RParen,
    LBracket,
    RBracket,
    Colon,
    Comma,
}

fn lex(text: &str) -> Result<Vec<Tok>, String> {
    let mut toks = Vec::new();
    let chars: Vec<char> = text.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        match c {
            c if c.is_whitespace() => i += 1,
            '(' => {
                toks.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                toks.push(Tok::RParen);
                i += 1;
            }
            '[' => {
                toks.push(Tok::LBracket);
                i += 1;
            }
            ']' => {
                toks.push(Tok::RBracket);
                i += 1;
            }
            ':' => {
                toks.push(Tok::Colon);
                i += 1;
            }
            ',' => {
                toks.push(Tok::Comma);
                i += 1;
            }
            '/' if chars.get(i + 1) == Some(&'/') => {
                while i < chars.len() && chars[i] != '\n' {
                    i += 1;
                }
            }
            '"' => {
                i += 1;
                let mut s = String::new();
                loop {
                    match chars.get(i) {
                        None => return Err("unterminated string literal".to_string()),
                        Some('"') => {
                            i += 1;
                            break;
                        }
                        Some('\\') => {
                            match chars.get(i + 1) {
                                Some('\\') => s.push('\\'),
                                Some('"') => s.push('"'),
                                Some('n') => s.push('\n'),
                                other => return Err(format!("bad string escape: {other:?}")),
                            }
                            i += 2;
                        }
                        Some(&c) => {
                            s.push(c);
                            i += 1;
                        }
                    }
                }
                toks.push(Tok::Str(s));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while i < chars.len()
                    && (chars[i].is_ascii_alphanumeric()
                        || chars[i] == '.'
                        || chars[i] == '_'
                        || ((chars[i] == '+' || chars[i] == '-')
                            && matches!(chars.get(i - 1), Some('e') | Some('E'))))
                {
                    i += 1;
                }
                let raw: String = chars[start..i].iter().filter(|&&c| c != '_').collect();
                let tok = if let Some(hex) = raw.strip_prefix("0x").or(raw.strip_prefix("0X")) {
                    Tok::U64(
                        u64::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad hex literal {raw:?}: {e}"))?,
                    )
                } else if raw.contains('.') || raw.contains('e') || raw.contains('E') {
                    Tok::F64(
                        raw.parse::<f64>()
                            .map_err(|e| format!("bad float literal {raw:?}: {e}"))?,
                    )
                } else {
                    Tok::U64(
                        raw.parse::<u64>()
                            .map_err(|e| format!("bad integer literal {raw:?}: {e}"))?,
                    )
                };
                toks.push(tok);
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < chars.len() && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                    i += 1;
                }
                toks.push(Tok::Ident(chars[start..i].iter().collect()));
            }
            c => return Err(format!("unexpected character {c:?}")),
        }
    }
    Ok(toks)
}

// --- parser ---

/// A [`Val::Call`] destructured: `(name, named fields, positional args)`.
type CallParts<'a> = (&'a str, &'a [(String, Val)], &'a [Val]);

/// A parsed RON value. `Call` covers both named-field structs/variants and
/// positional tuples (`Write(1)`); a bare ident (`Read`, `None`) is an
/// argument-less `Call`.
#[derive(Clone, PartialEq, Debug)]
enum Val {
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(String),
    List(Vec<Val>),
    Call {
        name: String,
        named: Vec<(String, Val)>,
        pos: Vec<Val>,
    },
}

struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Result<Tok, String> {
        let t = self
            .tokens
            .get(self.pos)
            .cloned()
            .ok_or_else(|| "unexpected end of input".to_string())?;
        self.pos += 1;
        Ok(t)
    }

    fn expect(&mut self, want: &Tok) -> Result<(), String> {
        let got = self.next()?;
        if &got == want {
            Ok(())
        } else {
            Err(format!("expected {want:?}, found {got:?}"))
        }
    }

    fn value(&mut self) -> Result<Val, String> {
        match self.next()? {
            Tok::U64(u) => Ok(Val::U64(u)),
            Tok::F64(f) => Ok(Val::F64(f)),
            Tok::Str(s) => Ok(Val::Str(s)),
            Tok::LBracket => {
                let mut items = Vec::new();
                loop {
                    if self.peek() == Some(&Tok::RBracket) {
                        self.pos += 1;
                        break;
                    }
                    items.push(self.value()?);
                    if self.peek() == Some(&Tok::Comma) {
                        self.pos += 1;
                    }
                }
                Ok(Val::List(items))
            }
            Tok::Ident(name) => match name.as_str() {
                "true" => Ok(Val::Bool(true)),
                "false" => Ok(Val::Bool(false)),
                _ => {
                    if self.peek() != Some(&Tok::LParen) {
                        return Ok(Val::Call {
                            name,
                            named: Vec::new(),
                            pos: Vec::new(),
                        });
                    }
                    self.pos += 1;
                    let mut named = Vec::new();
                    let mut positional = Vec::new();
                    loop {
                        if self.peek() == Some(&Tok::RParen) {
                            self.pos += 1;
                            break;
                        }
                        // Two-token lookahead distinguishes `field: v`
                        // from a positional value that starts with an
                        // ident (e.g. `Some(Read)`).
                        let is_field = matches!(self.peek(), Some(Tok::Ident(_)))
                            && self.tokens.get(self.pos + 1) == Some(&Tok::Colon);
                        if is_field {
                            let Tok::Ident(field) = self.next()? else {
                                unreachable!("peeked ident");
                            };
                            self.expect(&Tok::Colon)?;
                            named.push((field, self.value()?));
                        } else {
                            positional.push(self.value()?);
                        }
                        if self.peek() == Some(&Tok::Comma) {
                            self.pos += 1;
                        }
                    }
                    Ok(Val::Call {
                        name,
                        named,
                        pos: positional,
                    })
                }
            },
            t => Err(format!("unexpected token {t:?}")),
        }
    }
}

// --- schema ---

impl Val {
    fn as_u64(&self) -> Result<u64, String> {
        match self {
            Val::U64(u) => Ok(*u),
            v => Err(format!("expected an integer, found {v:?}")),
        }
    }

    fn as_f64(&self) -> Result<f64, String> {
        match self {
            Val::F64(f) => Ok(*f),
            Val::U64(u) => Ok(*u as f64),
            v => Err(format!("expected a float, found {v:?}")),
        }
    }

    fn as_bool(&self) -> Result<bool, String> {
        match self {
            Val::Bool(b) => Ok(*b),
            v => Err(format!("expected a bool, found {v:?}")),
        }
    }

    fn as_str(&self) -> Result<&str, String> {
        match self {
            Val::Str(s) => Ok(s),
            v => Err(format!("expected a string, found {v:?}")),
        }
    }

    fn as_list(&self) -> Result<&[Val], String> {
        match self {
            Val::List(items) => Ok(items),
            v => Err(format!("expected a list, found {v:?}")),
        }
    }

    fn as_call(&self, want: Option<&str>) -> Result<CallParts<'_>, String> {
        match self {
            Val::Call { name, named, pos } => {
                if let Some(w) = want {
                    if name != w {
                        return Err(format!("expected {w}(...), found {name}(...)"));
                    }
                }
                Ok((name, named, pos))
            }
            v => Err(format!("expected a struct/variant, found {v:?}")),
        }
    }

    fn field<'a>(&'a self, name: &str) -> Result<&'a Val, String> {
        let (owner, named, _) = self.as_call(None)?;
        named
            .iter()
            .find(|(f, _)| f == name)
            .map(|(_, v)| v)
            .ok_or_else(|| format!("{owner}(...) is missing field `{name}`"))
    }
}

fn node_from(v: &Val) -> Result<ProcessId, String> {
    Ok(ProcessId(v.as_u64()? as usize))
}

fn fault_from_val(v: &Val) -> Result<PlannedFault, String> {
    let (name, _, _) = v.as_call(None)?;
    match name {
        "Crash" => Ok(PlannedFault::Crash {
            at: v.field("at")?.as_u64()?,
            node: node_from(v.field("node")?)?,
            restart_at: v.field("restart_at")?.as_u64()?,
        }),
        "Partition" => Ok(PlannedFault::Partition {
            at: v.field("at")?.as_u64()?,
            groups: v
                .field("groups")?
                .as_list()?
                .iter()
                .map(|g| g.as_u64().map(|u| u as u32))
                .collect::<Result<_, _>>()?,
            heal_at: v.field("heal_at")?.as_u64()?,
        }),
        "LossBurst" => Ok(PlannedFault::LossBurst {
            at: v.field("at")?.as_u64()?,
            prob: v.field("prob")?.as_f64()?,
            until: v.field("until")?.as_u64()?,
            restore: v.field("restore")?.as_f64()?,
        }),
        "Gray" => Ok(PlannedFault::Gray {
            at: v.field("at")?.as_u64()?,
            node: node_from(v.field("node")?)?,
            factor: v.field("factor")?.as_u64()? as u32,
            until: v.field("until")?.as_u64()?,
        }),
        other => Err(format!("unknown fault kind `{other}`")),
    }
}

/// Reads a protocol's read mode, the ident under its `read_mode` field.
fn read_mode_from(p: &Val) -> Result<ReadMode, String> {
    let (name, _, _) = p.field("read_mode")?.as_call(None)?;
    match name {
        "TwoRound" => Ok(ReadMode::TwoRound),
        "FastUnanimous" => Ok(ReadMode::FastUnanimous),
        "Relay" => Ok(ReadMode::Relay),
        other => Err(format!("unknown read mode `{other}`")),
    }
}

fn repro_from_val(v: &Val) -> Result<Repro, String> {
    v.as_call(Some("Repro"))?;

    let protocol = {
        let p = v.field("protocol")?;
        let (name, _, _) = p.as_call(None)?;
        match name {
            "Swmr" => ProtocolSpec::Swmr {
                read_mode: read_mode_from(p)?,
            },
            "Mwmr" => ProtocolSpec::Mwmr {
                read_mode: read_mode_from(p)?,
            },
            "BatchedSwmr" => ProtocolSpec::BatchedSwmr {
                window: p.field("window")?.as_u64()?,
                read_mode: read_mode_from(p)?,
            },
            "MutantSwmr" => {
                let (kind_name, _, _) = p.field("mutant")?.as_call(None)?;
                ProtocolSpec::MutantSwmr {
                    mutant: MutantKind::from_name(kind_name)
                        .ok_or_else(|| format!("unknown mutant `{kind_name}`"))?,
                    every: p.field("every")?.as_u64()?,
                }
            }
            "Kv" => {
                let hot = p.field("hot")?.as_u64()? as u32;
                let buckets = p.field("buckets")?.as_u64()? as u32;
                // A script position addresses hot key `(c + j) % hot`, and
                // `KvNode::new` asserts what it needs of `sync_buckets`.
                if hot == 0 {
                    return Err("Kv: hot must be at least 1".into());
                }
                if !buckets.is_power_of_two() || buckets < 2 {
                    return Err(format!("Kv: buckets {buckets} is not a power of two >= 2"));
                }
                ProtocolSpec::Kv {
                    read_mode: read_mode_from(p)?,
                    hot,
                    preload: p.field("preload")?.as_u64()? as u32,
                    buckets,
                    amnesiac: p.field("amnesiac")?.as_bool()?,
                }
            }
            other => Err(format!("unknown protocol `{other}`"))?,
        }
    };

    let backoff_base = {
        let b = v.field("backoff_base")?;
        let (name, _, pos) = b.as_call(None)?;
        match name {
            "None" => None,
            "Some" => Some(
                pos.first()
                    .ok_or_else(|| "Some(...) needs a value".to_string())?
                    .as_u64()?,
            ),
            other => Err(format!("expected Some/None, found `{other}`"))?,
        }
    };

    let sim = {
        let s = v.field("sim")?;
        s.as_call(Some("SimConfig"))?;
        let l = s.field("latency")?;
        let (lname, _, lpos) = l.as_call(None)?;
        let latency = match lname {
            "Constant" => LatencyModel::Constant(
                lpos.first()
                    .ok_or_else(|| "Constant(...) needs a delay".to_string())?
                    .as_u64()?,
            ),
            "Uniform" => LatencyModel::Uniform {
                lo: l.field("lo")?.as_u64()?,
                hi: l.field("hi")?.as_u64()?,
            },
            "Bimodal" => LatencyModel::Bimodal {
                fast: l.field("fast")?.as_u64()?,
                slow: l.field("slow")?.as_u64()?,
                slow_prob: l.field("slow_prob")?.as_f64()?,
            },
            other => Err(format!("unknown latency model `{other}`"))?,
        };
        SimConfig {
            seed: s.field("seed")?.as_u64()?,
            latency,
            loss_prob: s.field("loss_prob")?.as_f64()?,
            dup_prob: s.field("dup_prob")?.as_f64()?,
        }
    };

    let schedule = {
        let s = v.field("schedule")?;
        s.as_call(Some("NemesisSchedule"))?;
        let faults = s
            .field("faults")?
            .as_list()?
            .iter()
            .map(fault_from_val)
            .collect::<Result<Vec<_>, _>>()?;
        let skews = s
            .field("skews")?
            .as_list()?
            .iter()
            .map(Val::as_u64)
            .collect::<Result<Vec<_>, _>>()?;
        NemesisSchedule::from_faults(
            faults,
            s.field("heal_at")?.as_u64()?,
            skews,
            s.field("min_alive")?.as_u64()? as usize,
        )
    };

    let scripts = v
        .field("scripts")?
        .as_list()?
        .iter()
        .map(|script| {
            script
                .as_list()?
                .iter()
                .map(|op| {
                    let (name, _, pos) = op.as_call(None)?;
                    match name {
                        "Read" => Ok(RegisterOp::Read),
                        "ReadAtomic" => Ok(RegisterOp::ReadAt(Consistency::Atomic)),
                        "ReadSC" => Ok(RegisterOp::ReadAt(Consistency::Sequential)),
                        "ReadRegular" => Ok(RegisterOp::ReadAt(Consistency::Regular)),
                        "Write" => Ok(RegisterOp::Write(
                            pos.first()
                                .ok_or_else(|| "Write(...) needs a value".to_string())?
                                .as_u64()?,
                        )),
                        other => Err(format!("unknown op `{other}`")),
                    }
                })
                .collect::<Result<Vec<_>, String>>()
        })
        .collect::<Result<Vec<_>, _>>()?;

    let oracle = {
        let (name, _, _) = v.field("oracle")?.as_call(None)?;
        match name {
            "AtomicSwmr" => OracleSpec::AtomicSwmr,
            "Linearizable" => OracleSpec::Linearizable,
            "Sequential" => OracleSpec::Sequential,
            "RegularSwmr" => OracleSpec::RegularSwmr,
            "DigestDivergence" => OracleSpec::DigestDivergence,
            other => Err(format!("unknown oracle `{other}`"))?,
        }
    };

    let repro = Repro {
        name: v.field("name")?.as_str()?.to_string(),
        protocol,
        n: v.field("n")?.as_u64()? as usize,
        backoff_base,
        sim,
        schedule,
        scripts,
        think: v.field("think")?.as_u64()?,
        deadline: v.field("deadline")?.as_u64()?,
        oracle,
        expected_digest: v.field("expected_digest")?.as_u64()?,
        reason: v.field("reason")?.as_str()?.to_string(),
    };
    repro
        .schedule
        .validate(repro.n)
        .map_err(|e| format!("schedule invalid: {e}"))?;
    if repro.scripts.len() > repro.n {
        return Err(format!(
            "{} scripts for {} nodes",
            repro.scripts.len(),
            repro.n
        ));
    }
    Ok(repro)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nemesis::NemesisConfig;

    fn sample() -> Repro {
        let faults = vec![
            PlannedFault::Crash {
                at: 100_000,
                node: ProcessId(2),
                restart_at: 400_000,
            },
            PlannedFault::Partition {
                at: 50_000,
                groups: vec![0, 1, 1, 0, 0],
                heal_at: 900_000,
            },
            PlannedFault::LossBurst {
                at: 10_000,
                prob: 0.35,
                until: 90_000,
                restore: 0.0,
            },
            PlannedFault::Gray {
                at: 5_000,
                node: ProcessId(4),
                factor: 3,
                until: 60_000,
            },
        ];
        Repro {
            name: "sample \"quoted\"".to_string(),
            protocol: ProtocolSpec::BatchedSwmr {
                window: 2_000,
                read_mode: ReadMode::FastUnanimous,
            },
            n: 5,
            backoff_base: Some(20_000),
            sim: SimConfig {
                seed: 42,
                latency: LatencyModel::Bimodal {
                    fast: 1_000,
                    slow: 50_000,
                    slow_prob: 0.01,
                },
                loss_prob: 0.05,
                dup_prob: 0.0,
            },
            schedule: NemesisSchedule::from_faults(faults, 1_000_000, vec![0, 1, 2, 3, 4], 3),
            scripts: vec![
                vec![RegisterOp::Write(1), RegisterOp::Write(2)],
                vec![RegisterOp::Read, RegisterOp::Read],
            ],
            think: 5_000,
            deadline: 9_000_000,
            oracle: OracleSpec::AtomicSwmr,
            expected_digest: 0xdead_beef_0123_4567,
            reason: "line one\nline two".to_string(),
        }
    }

    #[test]
    fn ron_roundtrip_preserves_every_field() {
        let r = sample();
        let text = r.to_ron();
        let back = Repro::from_ron(&text).expect("roundtrip parses");
        assert_eq!(back, r);
        // And the reserialization is stable (canonical form).
        assert_eq!(back.to_ron(), text);
    }

    #[test]
    fn parser_rejects_malformed_artifacts() {
        for (text, why) in [
            ("Repro(", "unexpected end"),
            ("Nope(name: \"x\")", "wrong head"),
            ("Repro(name: 3)", "missing fields"),
            ("Repro(name: \"x\" @)", "bad char"),
        ] {
            assert!(Repro::from_ron(text).is_err(), "{why}: {text:?}");
        }
        // A schedule violating its own floor is rejected at parse time.
        let mut r = sample();
        r.schedule = NemesisSchedule::from_faults(
            vec![
                PlannedFault::Crash {
                    at: 10,
                    node: ProcessId(0),
                    restart_at: 100,
                },
                PlannedFault::Crash {
                    at: 11,
                    node: ProcessId(1),
                    restart_at: 100,
                },
                PlannedFault::Crash {
                    at: 12,
                    node: ProcessId(2),
                    restart_at: 100,
                },
            ],
            1_000,
            vec![0; 5],
            3,
        );
        let err = Repro::from_ron(&r.to_ron()).unwrap_err();
        assert!(err.contains("min_alive"), "{err}");
        // So is a `Kv(..)` the run would panic on: no hot key to address,
        // or a bucket count `KvNode::new` refuses.
        let mut r = sample();
        r.protocol = ProtocolSpec::Kv {
            read_mode: ReadMode::TwoRound,
            hot: 2,
            preload: 0,
            buckets: 16,
            amnesiac: false,
        };
        let text = r.to_ron();
        assert!(Repro::from_ron(&text).is_ok());
        for (good, bad, why) in [
            ("hot: 2", "hot: 0", "hot"),
            ("buckets: 16", "buckets: 12", "power of two"),
            ("buckets: 16", "buckets: 1", "power of two"),
        ] {
            let err = Repro::from_ron(&text.replace(good, bad)).unwrap_err();
            assert!(err.contains(why), "{bad}: {err}");
        }
    }

    #[test]
    fn new_protocol_variants_round_trip() {
        for proto in [
            ProtocolSpec::Swmr {
                read_mode: ReadMode::Relay,
            },
            ProtocolSpec::Mwmr {
                read_mode: ReadMode::Relay,
            },
            ProtocolSpec::BatchedSwmr {
                window: 1_500,
                read_mode: ReadMode::Relay,
            },
            ProtocolSpec::MutantSwmr {
                mutant: MutantKind::StaleTagAck,
                every: 2,
            },
            ProtocolSpec::MutantSwmr {
                mutant: MutantKind::NonMonotonicTag,
                every: 0,
            },
            ProtocolSpec::Kv {
                read_mode: ReadMode::Relay,
                hot: 8,
                preload: 2_000,
                buckets: 256,
                amnesiac: false,
            },
            ProtocolSpec::Kv {
                read_mode: ReadMode::FastUnanimous,
                hot: 1,
                preload: 0,
                buckets: 16,
                amnesiac: true,
            },
        ] {
            let mut r = sample();
            r.protocol = proto;
            let text = r.to_ron();
            let back = Repro::from_ron(&text).expect("roundtrip parses");
            assert_eq!(back.protocol, proto);
            assert_eq!(back.to_ron(), text, "canonical form is stable");
        }
        // Every read mode is spelled one way, under `read_mode`.
        let mut r = sample();
        for (mode, field) in [
            (ReadMode::TwoRound, "Mwmr(read_mode: TwoRound)"),
            (ReadMode::FastUnanimous, "Mwmr(read_mode: FastUnanimous)"),
            (ReadMode::Relay, "Mwmr(read_mode: Relay)"),
        ] {
            r.protocol = ProtocolSpec::Mwmr { read_mode: mode };
            assert!(r.to_ron().contains(field), "{}", r.to_ron());
            assert_eq!(Repro::from_ron(&r.to_ron()).unwrap().protocol, r.protocol);
        }
        let old = r.to_ron().replace("read_mode: Relay", "fast_reads: true");
        assert!(Repro::from_ron(&old).is_err(), "one spelling per field");
    }

    #[test]
    fn run_with_coverage_matches_untapped_digest() {
        let sched = NemesisConfig::new(7, 5).plan();
        let scripts: Vec<Vec<RegisterOp<u64>>> = (0..5)
            .map(|c| {
                (0..3u64)
                    .map(|k| {
                        if c == 0 {
                            RegisterOp::Write(k + 1)
                        } else {
                            RegisterOp::Read
                        }
                    })
                    .collect()
            })
            .collect();
        let r = Repro {
            name: "coverage".to_string(),
            protocol: ProtocolSpec::Swmr {
                read_mode: ReadMode::TwoRound,
            },
            n: 5,
            backoff_base: Some(20_000),
            sim: SimConfig::new(99),
            deadline: sched.heal_at() + 200_000_000,
            schedule: sched,
            scripts,
            think: 5_000,
            oracle: OracleSpec::AtomicSwmr,
            expected_digest: 0,
            reason: String::new(),
        };
        let plain = r.run();
        let (tapped, cov) = r.run_with_coverage();
        assert_eq!(
            plain.digest, tapped.digest,
            "observation must not perturb the execution"
        );
        assert!(
            !cov.is_empty(),
            "a fault campaign must light some coverage cells"
        );
        // Deterministic extraction too.
        let (_, cov2) = r.run_with_coverage();
        assert_eq!(cov, cov2);
    }

    #[test]
    fn kv_scripts_spread_over_the_hot_keys_and_are_judged_per_key() {
        // No faults, three clients, two hot keys above a 64-key preload:
        // position j of client c lands on key 64 + (c + j) % 2.
        let r = Repro {
            name: "kv-keys".to_string(),
            protocol: ProtocolSpec::Kv {
                read_mode: ReadMode::TwoRound,
                hot: 2,
                preload: 64,
                buckets: 16,
                amnesiac: false,
            },
            n: 3,
            backoff_base: None,
            sim: SimConfig::new(5),
            schedule: NemesisSchedule::from_faults(Vec::new(), 0, vec![0; 3], 2),
            scripts: vec![
                vec![RegisterOp::Write(10), RegisterOp::Write(11)],
                vec![
                    RegisterOp::Write(20),
                    RegisterOp::ReadAt(Consistency::Sequential),
                ],
                vec![RegisterOp::Read],
            ],
            think: 0,
            deadline: 1_000_000_000,
            oracle: OracleSpec::Linearizable,
            expected_digest: 0,
            reason: String::new(),
        };
        let out = r.run();
        assert!(out.completed && out.failure.is_none(), "{:?}", out.failure);
        let writes = |h: &History<u64>| -> Vec<u64> {
            let mut w: Vec<u64> = h
                .ops()
                .iter()
                .filter_map(|op| match op.action {
                    RegAction::Write(v) => Some(v),
                    RegAction::Read(_) => None,
                })
                .collect();
            w.sort_unstable();
            w
        };
        assert_eq!(out.histories.len(), 2);
        assert_eq!(writes(&out.histories[0]), vec![10]);
        assert_eq!(writes(&out.histories[1]), vec![11, 20]);
        assert_eq!(out.histories[0].ops().len(), 3, "one put, two gets");
    }

    #[test]
    fn hex_and_comments_parse() {
        let r = sample();
        let text = format!("// an emitted artifact\n{}", r.to_ron());
        assert_eq!(
            Repro::from_ron(&text).unwrap().expected_digest,
            r.expected_digest
        );
    }

    /// A small healthy campaign: replay is deterministic and passes its
    /// oracle, so `check_or_emit` writes nothing.
    #[test]
    fn healthy_campaign_replays_deterministically_and_emits_nothing() {
        let sched = NemesisConfig::new(7, 5).plan();
        let scripts: Vec<Vec<RegisterOp<u64>>> = (0..5)
            .map(|c| {
                (0..3u64)
                    .map(|k| {
                        if c == 0 {
                            RegisterOp::Write(k + 1)
                        } else {
                            RegisterOp::Read
                        }
                    })
                    .collect()
            })
            .collect();
        let r = Repro {
            name: "healthy".to_string(),
            protocol: ProtocolSpec::Swmr {
                read_mode: ReadMode::TwoRound,
            },
            n: 5,
            backoff_base: Some(20_000),
            sim: SimConfig::new(99),
            deadline: sched.heal_at() + 200_000_000,
            schedule: sched,
            scripts,
            think: 5_000,
            oracle: OracleSpec::AtomicSwmr,
            expected_digest: 0,
            reason: String::new(),
        };
        let a = r.run();
        let b = r.run();
        assert!(a.completed && a.failure.is_none(), "{:?}", a.failure);
        assert_eq!(a.digest, b.digest, "replays must be bit-identical");
        let out = r.check_or_emit().expect("healthy campaign must not emit");
        assert_eq!(out.digest, a.digest);
    }
}
