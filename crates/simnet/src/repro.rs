//! Failure-repro artifacts: self-contained, replayable records of a
//! failing campaign.
//!
//! When a seeded nemesis soak fails, the seed alone is a poor artifact: it
//! only reproduces the failure through the exact test binary that planned
//! the campaign from it. A [`Repro`] instead freezes everything the replay
//! needs — protocol choice, [`SimConfig`], the **resolved**
//! [`NemesisSchedule`] (explicit faults, not a planner seed), the workload
//! scripts, the failure oracle, and the expected trace digest — into one
//! value that serializes to a text file under `target/repro/`, one field
//! per line (see [`Repro`]'s `Display`).
//! The `abd_repro` CLI (`crates/bench/src/bin/abd_repro.rs`) replays,
//! shrinks ([`crate::shrink`](mod@crate::shrink)) and explains these artifacts; any of them
//! reproduces the original execution bit-for-bit because the simulator is
//! deterministic in (config, schedule, scripts).

use crate::config::{LatencyModel, SimConfig};
use crate::nemesis::{run_campaign, NemesisSchedule, PlannedFault};
use crate::planted::{AmnesiacKv, MutantKind, MutantSwmr};
use crate::sim::Sim;
use crate::workload::{history_from_sim, kv_histories};
use abd_core::batch::Batched;
use abd_core::context::Protocol;
use abd_core::msg::{RegisterOp, RegisterResp};
use abd_core::mwmr::{MwmrConfig, MwmrNode};
use abd_core::retransmit::BackoffPolicy;
use abd_core::swmr::{SwmrConfig, SwmrNode};
use abd_core::types::{Consistency, Nanos, ProcessId, ReadMode, Tag};
use abd_kv::{KvConfig, KvNode, KvOp, KvResp};
use abd_lincheck::history::{History, RegAction};
use abd_lincheck::regularity::{check_regular_swmr, find_new_old_inversions, is_atomic_swmr};
use abd_lincheck::sc::{check_sequential_with_limit, ScCheckResult, DEFAULT_SC_STATE_LIMIT};
use abd_lincheck::wg::{check_linearizable_with_limit, CheckResult};
use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// Which register construction the campaign ran against.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum ProtocolSpec {
    /// Single-writer nodes ([`SwmrNode`]); writer is node 0.
    Swmr {
        /// Read path: two-round, fast-unanimous, relay, or no write-back.
        read_mode: ReadMode,
    },
    /// Multi-writer nodes ([`MwmrNode`]).
    Mwmr {
        /// Read path: two-round, fast-unanimous, relay, or no write-back.
        read_mode: ReadMode,
    },
    /// Single-writer nodes under a [`Batched`] coalescing wrapper.
    BatchedSwmr {
        /// Nagle-style flush window in nanoseconds (0 = flush immediately).
        window: Nanos,
        /// Read path: two-round, fast-unanimous, relay, or no write-back.
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
        /// Read path: two-round, fast-unanimous, relay, or no write-back.
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

/// How the replay decides "did this run fail?": the property each
/// register's history must have.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum OracleSpec {
    /// Atomicity. A history whose writes are one client's, each of a value
    /// no other write and not the initial value holds, is judged by the
    /// linear-time single-writer check ([`is_atomic_swmr`]); any other by
    /// the Wing–Gong search.
    Linearizable,
    /// Sequential consistency, by exact search — the tier promised by
    /// `Consistency::Sequential` reads.
    Sequential,
    /// Single-writer regularity ([`check_regular_swmr`]) — the tier
    /// promised by `Consistency::Regular` reads.
    RegularSwmr,
}

/// Memoized states the Wing–Gong search may explore before it gives up.
const WG_STATE_LIMIT: usize = 1_000_000;

impl OracleSpec {
    /// Every oracle, in declaration order.
    pub(crate) const ALL: [OracleSpec; 3] = [
        OracleSpec::Linearizable,
        OracleSpec::Sequential,
        OracleSpec::RegularSwmr,
    ];

    /// `Some(reason)` if `h` lacks the property. A search that runs out of
    /// its state budget proves nothing, and reads as no violation.
    fn violation(&self, h: &History<u64>) -> Option<String> {
        match self {
            OracleSpec::Linearizable if single_writer_unique_values(h) => {
                if is_atomic_swmr(h) {
                    return None;
                }
                let detail = find_new_old_inversions(h)
                    .into_iter()
                    .next()
                    .map(|a| format!(": {a:?}"))
                    .unwrap_or_default();
                Some(format!("history is not atomic (SWMR checker){detail}"))
            }
            OracleSpec::Linearizable => {
                wg_verdict(check_linearizable_with_limit(h, WG_STATE_LIMIT))
            }
            OracleSpec::Sequential => {
                sc_verdict(check_sequential_with_limit(h, DEFAULT_SC_STATE_LIMIT))
            }
            OracleSpec::RegularSwmr => check_regular_swmr(h)
                .into_iter()
                .next()
                .map(|a| format!("history is not regular (SWMR checker): {a:?}")),
        }
    }
}

/// Whether every write in `h`, completed or pending, is by one client and
/// of a value distinct from every other write's and from the initial
/// value: the histories on which the single-writer check decides
/// atomicity.
fn single_writer_unique_values(h: &History<u64>) -> bool {
    let completed = h.ops().iter().filter_map(|op| match op.action {
        RegAction::Write(v) => Some((op.client, v)),
        RegAction::Read(_) => None,
    });
    let pending = h.pending_writes().iter().map(|&(client, v, _)| (client, v));
    let mut writer = None;
    let mut values = BTreeSet::from([*h.initial()]);
    completed
        .chain(pending)
        .all(|(client, v)| *writer.get_or_insert(client) == client && values.insert(v))
}

fn wg_verdict(result: CheckResult) -> Option<String> {
    match result {
        CheckResult::NotLinearizable => {
            Some("history is not linearizable (Wing-Gong search)".to_string())
        }
        CheckResult::Linearizable | CheckResult::Unknown => None,
    }
}

fn sc_verdict(result: ScCheckResult) -> Option<String> {
    match result {
        ScCheckResult::NotSequential => Some(
            "history is not sequentially consistent (no total order respects program order)"
                .to_string(),
        ),
        ScCheckResult::Sequential | ScCheckResult::Unknown => None,
    }
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
}

impl Failure {
    /// Stable failure-class tag (`liveness` / `violation`).
    pub fn kind(&self) -> &'static str {
        match self {
            Failure::Liveness => "liveness",
            Failure::Violation(_) => "violation",
        }
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Liveness => write!(f, "surviving operations missed the liveness deadline"),
            Failure::Violation(r) => write!(f, "{r}"),
        }
    }
}

/// The result of replaying a [`Repro`].
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Trace digest of the run.
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
    /// Replays the artifact once and applies its oracle.
    pub fn run(&self) -> ReplayOutcome {
        let (digest, completed, histories) = self.run_once();
        let failure = self.judge(completed, &histories);
        ReplayOutcome {
            digest,
            completed,
            failure,
            histories,
        }
    }

    /// Applies this artifact's oracle to one finished run: the oracle
    /// judges each register's history on its own, and the first violation
    /// is the failure (named by its key when there are several registers).
    fn judge(&self, completed: bool, histories: &[History<u64>]) -> Option<Failure> {
        if !completed {
            return Some(Failure::Liveness);
        }
        histories.iter().enumerate().find_map(|(i, h)| {
            let reason = self.oracle.violation(h)?;
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

    /// Writes the artifact as `<dir>/<name>-<sim seed>.repro`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn save_to(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}-{}.repro", self.name, self.sim.seed));
        std::fs::write(&path, self.to_string())?;
        Ok(path)
    }

    /// One deterministic execution: build nodes, apply the schedule, drive
    /// the scripts, extract (digest, completed, history).
    fn run_once(&self) -> (u64, bool, Vec<History<u64>>) {
        // Every protocol retransmits on the artifact's one backoff.
        let retransmit = self.backoff_base.map(BackoffPolicy::new);
        let swmr = |i, read_mode| {
            let mut cfg =
                SwmrConfig::new(self.n, ProcessId(i), ProcessId(0)).with_read_mode(read_mode);
            cfg.retransmit = retransmit;
            SwmrNode::new(cfg, 0u64)
        };
        match self.protocol {
            ProtocolSpec::Swmr { read_mode } => {
                self.drive((0..self.n).map(|i| swmr(i, read_mode)).collect())
            }
            ProtocolSpec::Mwmr { read_mode } => self.drive(
                (0..self.n)
                    .map(|i| {
                        let mut cfg =
                            MwmrConfig::new(self.n, ProcessId(i)).with_read_mode(read_mode);
                        cfg.retransmit = retransmit;
                        MwmrNode::new(cfg, 0u64)
                    })
                    .collect(),
            ),
            ProtocolSpec::BatchedSwmr { window, read_mode } => self.drive(
                (0..self.n)
                    .map(|i| Batched::new(swmr(i, read_mode), window))
                    .collect(),
            ),
            ProtocolSpec::MutantSwmr { mutant, every } => self.drive(
                (0..self.n)
                    .map(|i| MutantSwmr::new(swmr(i, ReadMode::TwoRound), mutant, every))
                    .collect(),
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
                    cfg.retransmit = retransmit;
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
                    self.drive_with(nodes, scripts, hot_key_histories(preload, hot))
                } else {
                    self.drive_with(nodes.collect(), scripts, hot_key_histories(preload, hot))
                }
            }
        }
    }

    /// [`Repro::drive_with`] for the register protocols, whose scripts run
    /// as written and whose history is the one register's.
    fn drive<P>(&self, nodes: Vec<P>) -> (u64, bool, Vec<History<u64>>)
    where
        P: Protocol<Op = RegisterOp<u64>, Resp = RegisterResp<u64>>,
    {
        self.drive_with(nodes, self.scripts.clone(), |sim| {
            vec![history_from_sim(0, sim)]
        })
    }

    fn drive_with<P>(
        &self,
        nodes: Vec<P>,
        scripts: Vec<Vec<P::Op>>,
        histories: impl Fn(&Sim<P>) -> Vec<History<u64>>,
    ) -> (u64, bool, Vec<History<u64>>)
    where
        P: Protocol,
        P::Op: Clone,
        P::Resp: Clone,
    {
        let mut sim = Sim::new(self.sim.clone(), nodes);
        self.schedule.apply(&mut sim);
        let completed = run_campaign(&mut sim, &self.schedule, scripts, self.think, self.deadline);
        (sim.trace_digest(), completed, histories(&sim))
    }
}

/// The per-key histories of a [`ProtocolSpec::Kv`] run ([`kv_histories`]),
/// hot keys `preload..preload + hot` in order.
fn hot_key_histories<P>(preload: u32, hot: u32) -> impl Fn(&Sim<P>) -> Vec<History<u64>>
where
    P: Protocol<Op = KvOp<u32, u64>, Resp = KvResp<u64>>,
{
    move |sim| {
        let mut by_key = kv_histories(sim);
        (preload..preload + hot)
            .map(|k| by_key.remove(&k).unwrap_or_else(|| History::new(0)))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// The artifact format: one field per line
// ---------------------------------------------------------------------------

/// The read modes, in the order a `read_mode=` value is looked up.
const READ_MODES: [ReadMode; 4] = [
    ReadMode::TwoRound,
    ReadMode::FastUnanimous,
    ReadMode::Relay,
    ReadMode::NoWriteBack,
];

/// `key` and its free text (`name`, `reason`) escaped onto one line: `\`
/// as `\\`, a newline as `\n`. An empty text is the bare key.
fn text_line(f: &mut fmt::Formatter<'_>, key: &str, text: &str) -> fmt::Result {
    let text = text.replace('\\', "\\\\").replace('\n', "\\n");
    let space = if text.is_empty() { "" } else { " " };
    writeln!(f, "{key}{space}{text}")
}

/// The artifact as the text [`Repro::from_str`] reads: one `key value` line
/// per scalar field, one `fault <Kind> k=v …` line per fault in schedule
/// order, one `script <op> …` line per client. Enum values are spelled as
/// their variant names. The sample pinned in this module's tests shows
/// every shape of line.
impl fmt::Display for Repro {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        text_line(f, "name", &self.name)?;
        match self.protocol {
            ProtocolSpec::Swmr { read_mode } => {
                writeln!(f, "protocol Swmr read_mode={read_mode:?}")
            }
            ProtocolSpec::Mwmr { read_mode } => {
                writeln!(f, "protocol Mwmr read_mode={read_mode:?}")
            }
            ProtocolSpec::BatchedSwmr { window, read_mode } => writeln!(
                f,
                "protocol BatchedSwmr window={window} read_mode={read_mode:?}"
            ),
            ProtocolSpec::MutantSwmr { mutant, every } => {
                writeln!(f, "protocol MutantSwmr mutant={mutant:?} every={every}")
            }
            ProtocolSpec::Kv {
                read_mode,
                hot,
                preload,
                buckets,
                amnesiac,
            } => writeln!(
                f,
                "protocol Kv read_mode={read_mode:?} hot={hot} preload={preload} \
                 buckets={buckets} amnesiac={amnesiac}"
            ),
        }?;
        writeln!(f, "n {}", self.n)?;
        match self.backoff_base {
            Some(base) => writeln!(f, "backoff_base {base}"),
            None => writeln!(f, "backoff_base none"),
        }?;
        writeln!(f, "seed {}", self.sim.seed)?;
        match self.sim.latency {
            LatencyModel::Constant(delay) => writeln!(f, "latency Constant delay={delay}"),
            LatencyModel::Uniform { lo, hi } => writeln!(f, "latency Uniform lo={lo} hi={hi}"),
            LatencyModel::Bimodal {
                fast,
                slow,
                slow_prob,
            } => writeln!(
                f,
                "latency Bimodal fast={fast} slow={slow} slow_prob={slow_prob:?}"
            ),
        }?;
        writeln!(f, "loss_prob {:?}", self.sim.loss_prob)?;
        writeln!(f, "dup_prob {:?}", self.sim.dup_prob)?;
        writeln!(f, "min_alive {}", self.schedule.min_alive())?;
        writeln!(f, "heal_at {}", self.schedule.heal_at())?;
        f.write_str("skews")?;
        for skew in self.schedule.skews() {
            write!(f, " {skew}")?;
        }
        writeln!(f)?;
        for fault in self.schedule.faults() {
            match fault {
                PlannedFault::Crash {
                    at,
                    node,
                    restart_at,
                } => writeln!(
                    f,
                    "fault Crash at={at} node={} restart_at={restart_at}",
                    node.0
                ),
                PlannedFault::Partition {
                    at,
                    groups,
                    heal_at,
                } => {
                    let groups: Vec<String> = groups.iter().map(u32::to_string).collect();
                    writeln!(
                        f,
                        "fault Partition at={at} groups={} heal_at={heal_at}",
                        groups.join(",")
                    )
                }
                PlannedFault::LossBurst {
                    at,
                    prob,
                    until,
                    restore,
                } => writeln!(
                    f,
                    "fault LossBurst at={at} prob={prob:?} until={until} restore={restore:?}"
                ),
                PlannedFault::Gray {
                    at,
                    node,
                    factor,
                    until,
                } => writeln!(
                    f,
                    "fault Gray at={at} node={} factor={factor} until={until}",
                    node.0
                ),
            }?;
        }
        for script in &self.scripts {
            f.write_str("script")?;
            for op in script {
                match op {
                    RegisterOp::Read => f.write_str(" Read"),
                    RegisterOp::ReadAt(Consistency::Atomic) => f.write_str(" ReadAtomic"),
                    RegisterOp::ReadAt(Consistency::Sequential) => f.write_str(" ReadSC"),
                    RegisterOp::ReadAt(Consistency::Regular) => f.write_str(" ReadRegular"),
                    RegisterOp::Write(v) => write!(f, " Write({v})"),
                }?;
            }
            writeln!(f)?;
        }
        writeln!(f, "think {}", self.think)?;
        writeln!(f, "deadline {}", self.deadline)?;
        writeln!(f, "oracle {:?}", self.oracle)?;
        writeln!(f, "expected_digest {:#018x}", self.expected_digest)?;
        text_line(f, "reason", &self.reason)
    }
}

impl FromStr for Repro {
    type Err = String;

    /// Parses [`Repro`]'s `Display` text. Blank lines and lines starting
    /// with `#` are skipped; every other key appears exactly once. A value
    /// a replay would panic on (a probability out of range, `lo > hi`, a
    /// number too wide for its field, a schedule breaking its own floor) is
    /// an error here.
    fn from_str(text: &str) -> Result<Repro, String> {
        let mut fields = Fields::new("artifact");
        let mut faults = Vec::new();
        let mut scripts = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "fault" => fault_from(rest).map(|fault| faults.push(fault)),
                "script" => rest
                    .split_whitespace()
                    .map(op_from)
                    .collect::<Result<_, _>>()
                    .map(|script| scripts.push(script)),
                _ => fields.insert(key, rest),
            }
            .map_err(|e| format!("line {}: {e}", i + 1))?;
        }

        let backoff_base = match fields.raw("backoff_base")? {
            "none" => None,
            base => Some(parse("backoff_base", base)?),
        };
        let sim = SimConfig {
            seed: fields.take("seed")?,
            latency: latency_from(fields.raw("latency")?)?,
            loss_prob: fields.probability("loss_prob")?,
            dup_prob: fields.probability("dup_prob")?,
        };
        let skews = fields
            .raw("skews")?
            .split_whitespace()
            .map(|skew| parse("skews", skew))
            .collect::<Result<_, _>>()?;
        let schedule = NemesisSchedule::from_faults(
            faults,
            fields.take("heal_at")?,
            skews,
            fields.take("min_alive")?,
        );
        let digest = fields.raw("expected_digest")?;
        let repro = Repro {
            name: unescape(fields.raw("name")?)?,
            protocol: protocol_from(fields.raw("protocol")?)?,
            n: fields.take("n")?,
            backoff_base,
            sim,
            schedule,
            scripts,
            think: fields.take("think")?,
            deadline: fields.take("deadline")?,
            oracle: fields.one_of("oracle", &OracleSpec::ALL)?,
            expected_digest: digest
                .strip_prefix("0x")
                .and_then(|hex| u64::from_str_radix(hex, 16).ok())
                .ok_or_else(|| format!("`expected_digest` {digest:?} is not 0x-prefixed hex"))?,
            reason: unescape(fields.raw("reason")?)?,
        };
        fields.finish()?;
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
}

/// The `key value` lines of an artifact, or the `key=value` words of one
/// variant line: each key given once and taken once, none left over.
struct Fields<'a> {
    /// What the pairs belong to, for error messages.
    owner: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
}

impl<'a> Fields<'a> {
    fn new(owner: &'a str) -> Self {
        Fields {
            owner,
            pairs: Vec::new(),
        }
    }

    fn insert(&mut self, key: &'a str, value: &'a str) -> Result<(), String> {
        if self.pairs.iter().any(|&(k, _)| k == key) {
            return Err(format!("{}: `{key}` given twice", self.owner));
        }
        self.pairs.push((key, value));
        Ok(())
    }

    /// Removes `key` and returns its unparsed value.
    fn raw(&mut self, key: &str) -> Result<&'a str, String> {
        let i = self
            .pairs
            .iter()
            .position(|&(k, _)| k == key)
            .ok_or_else(|| format!("{}: missing `{key}`", self.owner))?;
        Ok(self.pairs.swap_remove(i).1)
    }

    fn take<T: FromStr>(&mut self, key: &str) -> Result<T, String>
    where
        T::Err: fmt::Display,
    {
        parse(key, self.raw(key)?)
    }

    /// A probability in `[0, 1)`, the range `SimConfig::with_loss` and
    /// `with_duplication` enforce.
    fn probability(&mut self, key: &str) -> Result<f64, String> {
        let p: f64 = self.take(key)?;
        if !(0.0..1.0).contains(&p) {
            return Err(format!("`{key}` {p} is not in [0, 1)"));
        }
        Ok(p)
    }

    /// The one of `all` whose variant name is `key`'s value.
    fn one_of<T: Copy + fmt::Debug>(&mut self, key: &str, all: &[T]) -> Result<T, String> {
        let name = self.raw(key)?;
        all.iter()
            .copied()
            .find(|v| format!("{v:?}") == name)
            .ok_or_else(|| format!("unknown {key} `{name}`"))
    }

    fn finish(self) -> Result<(), String> {
        match self.pairs.first() {
            None => Ok(()),
            Some((key, _)) => Err(format!("{}: unknown key `{key}`", self.owner)),
        }
    }
}

/// Parses one value of `what`: a number too wide for its field is an error,
/// not a truncation.
fn parse<T: FromStr>(what: &str, value: &str) -> Result<T, String>
where
    T::Err: fmt::Display,
{
    value
        .parse()
        .map_err(|e| format!("bad `{what}` {value:?}: {e}"))
}

/// Splits a `<Kind> k=v …` line into its kind and its fields.
fn variant_line(line: &str) -> Result<(&str, Fields<'_>), String> {
    let mut words = line.split_whitespace();
    let kind = words.next().ok_or("missing a kind")?;
    let mut fields = Fields::new(kind);
    for word in words {
        let (key, value) = word
            .split_once('=')
            .ok_or_else(|| format!("{kind}: `{word}` is not key=value"))?;
        fields.insert(key, value)?;
    }
    Ok((kind, fields))
}

fn unescape(text: &str) -> Result<String, String> {
    let mut out = String::with_capacity(text.len());
    let mut chars = text.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            other => return Err(format!("bad escape after `\\`: {other:?}")),
        }
    }
    Ok(out)
}

fn protocol_from(line: &str) -> Result<ProtocolSpec, String> {
    let (kind, mut f) = variant_line(line)?;
    let spec = match kind {
        "Swmr" => ProtocolSpec::Swmr {
            read_mode: f.one_of("read_mode", &READ_MODES)?,
        },
        "Mwmr" => ProtocolSpec::Mwmr {
            read_mode: f.one_of("read_mode", &READ_MODES)?,
        },
        "BatchedSwmr" => ProtocolSpec::BatchedSwmr {
            window: f.take("window")?,
            read_mode: f.one_of("read_mode", &READ_MODES)?,
        },
        "MutantSwmr" => ProtocolSpec::MutantSwmr {
            mutant: f.one_of("mutant", &MutantKind::ALL)?,
            every: f.take("every")?,
        },
        "Kv" => {
            let (hot, buckets): (u32, u32) = (f.take("hot")?, f.take("buckets")?);
            // A script position addresses hot key `(c + j) % hot`, and
            // `KvNode::new` asserts what it needs of `sync_buckets`.
            if hot == 0 {
                return Err("Kv: hot must be at least 1".into());
            }
            if !buckets.is_power_of_two() || buckets < 2 {
                return Err(format!("Kv: buckets {buckets} is not a power of two >= 2"));
            }
            ProtocolSpec::Kv {
                read_mode: f.one_of("read_mode", &READ_MODES)?,
                hot,
                preload: f.take("preload")?,
                buckets,
                amnesiac: f.take("amnesiac")?,
            }
        }
        other => return Err(format!("unknown protocol `{other}`")),
    };
    f.finish()?;
    Ok(spec)
}

fn latency_from(line: &str) -> Result<LatencyModel, String> {
    let (kind, mut f) = variant_line(line)?;
    let model = match kind {
        "Constant" => LatencyModel::Constant(f.take("delay")?),
        "Uniform" => {
            let (lo, hi) = (f.take("lo")?, f.take("hi")?);
            if lo > hi {
                return Err(format!("Uniform: lo {lo} > hi {hi}"));
            }
            LatencyModel::Uniform { lo, hi }
        }
        "Bimodal" => {
            let (fast, slow, slow_prob) = (f.take("fast")?, f.take("slow")?, f.take("slow_prob")?);
            if !(0.0..=1.0).contains(&slow_prob) {
                return Err(format!("Bimodal: slow_prob {slow_prob} is not in [0, 1]"));
            }
            LatencyModel::Bimodal {
                fast,
                slow,
                slow_prob,
            }
        }
        other => return Err(format!("unknown latency `{other}`")),
    };
    f.finish()?;
    Ok(model)
}

fn fault_from(line: &str) -> Result<PlannedFault, String> {
    let (kind, mut f) = variant_line(line)?;
    let fault = match kind {
        "Crash" => PlannedFault::Crash {
            at: f.take("at")?,
            node: ProcessId(f.take("node")?),
            restart_at: f.take("restart_at")?,
        },
        "Partition" => PlannedFault::Partition {
            at: f.take("at")?,
            groups: f
                .raw("groups")?
                .split(',')
                .map(|group| parse("groups", group))
                .collect::<Result<_, _>>()?,
            heal_at: f.take("heal_at")?,
        },
        "LossBurst" => PlannedFault::LossBurst {
            at: f.take("at")?,
            prob: f.take("prob")?,
            until: f.take("until")?,
            restore: f.take("restore")?,
        },
        "Gray" => PlannedFault::Gray {
            at: f.take("at")?,
            node: ProcessId(f.take("node")?),
            factor: f.take("factor")?,
            until: f.take("until")?,
        },
        other => return Err(format!("unknown fault `{other}`")),
    };
    f.finish()?;
    Ok(fault)
}

fn op_from(word: &str) -> Result<RegisterOp<u64>, String> {
    Ok(match word {
        "Read" => RegisterOp::Read,
        "ReadAtomic" => RegisterOp::ReadAt(Consistency::Atomic),
        "ReadSC" => RegisterOp::ReadAt(Consistency::Sequential),
        "ReadRegular" => RegisterOp::ReadAt(Consistency::Regular),
        _ => match word
            .strip_prefix("Write(")
            .and_then(|v| v.strip_suffix(')'))
        {
            Some(v) => RegisterOp::Write(parse("Write", v)?),
            None => return Err(format!("unknown op `{word}`")),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nemesis::NemesisConfig;

    /// Six writers of distinct values over one interval: a budget of one
    /// state cannot decide it.
    fn wide_history() -> History<u64> {
        let mut h = History::new(0);
        for c in 0..6 {
            h.push(c, RegAction::Write(c as u64 + 1), 0, 100);
        }
        h
    }

    #[test]
    fn linearizable_picks_its_checker_from_the_history() {
        let judge = |h: &History<u64>| OracleSpec::Linearizable.violation(h);
        let mut clean = History::new(0);
        clean.push(0, RegAction::Write(1), 0, 10);
        clean.push(1, RegAction::Read(1), 20, 30);
        assert_eq!(judge(&clean), None);

        // Two concurrent writers; a reader sees the second value, then the
        // first. W(2) then W(1) linearizes it, but the single-writer check,
        // which orders writes by their start, would convict it.
        let mut two_writers = History::new(0);
        two_writers.push(0, RegAction::Write(1), 0, 100);
        two_writers.push(1, RegAction::Write(2), 0, 100);
        two_writers.push(2, RegAction::Read(2), 10, 20);
        two_writers.push(2, RegAction::Read(1), 30, 40);
        assert!(!is_atomic_swmr(&two_writers));
        assert_eq!(judge(&two_writers), None);

        // One writer, then a stale read after a fresh one.
        let mut stale = clean.clone();
        stale.push(2, RegAction::Read(0), 40, 50);
        let reason = judge(&stale).expect("a stale read is not atomic");
        assert!(
            reason.starts_with("history is not atomic (SWMR checker)"),
            "{reason}"
        );

        // The same stale read with the fresh value written by a second
        // client.
        let mut stale_two_writers = History::new(0);
        stale_two_writers.push(0, RegAction::Write(1), 0, 10);
        stale_two_writers.push(1, RegAction::Write(2), 20, 30);
        stale_two_writers.push(2, RegAction::Read(1), 40, 50);
        assert_eq!(
            judge(&stale_two_writers).as_deref(),
            Some("history is not linearizable (Wing-Gong search)")
        );
    }

    #[test]
    fn regular_reason_names_the_anomaly() {
        let mut h = History::new(0);
        h.push(0, RegAction::Write(1), 0, 10);
        h.push(1, RegAction::Read(7), 20, 30);
        let reason = OracleSpec::RegularSwmr
            .violation(&h)
            .expect("a phantom read");
        assert!(
            reason.contains("not regular") && reason.contains("PhantomValue"),
            "{reason}"
        );
    }

    #[test]
    fn exhausted_search_budget_is_not_a_violation() {
        let result = check_linearizable_with_limit(&wide_history(), 1);
        assert_eq!(result, CheckResult::Unknown);
        assert_eq!(wg_verdict(result), None);
    }

    #[test]
    fn sc_oracle_exhausted_budget_is_not_a_violation() {
        let result = check_sequential_with_limit(&wide_history(), 1);
        assert_eq!(result, ScCheckResult::Unknown);
        assert_eq!(sc_verdict(result), None);
    }

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
            name: "sample \\ \"quoted\"".to_string(),
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
                vec![
                    RegisterOp::Read,
                    RegisterOp::ReadAt(Consistency::Atomic),
                    RegisterOp::ReadAt(Consistency::Sequential),
                    RegisterOp::ReadAt(Consistency::Regular),
                ],
            ],
            think: 5_000,
            deadline: 9_000_000,
            oracle: OracleSpec::Linearizable,
            expected_digest: 0xdead_beef_0123_4567,
            reason: "line one\nline two \\n".to_string(),
        }
    }

    /// The sample's text, pinned: the format a reader of a committed
    /// artifact sees.
    const SAMPLE_TEXT: &str = r#"name sample \\ "quoted"
protocol BatchedSwmr window=2000 read_mode=FastUnanimous
n 5
backoff_base 20000
seed 42
latency Bimodal fast=1000 slow=50000 slow_prob=0.01
loss_prob 0.05
dup_prob 0.0
min_alive 3
heal_at 1000000
skews 0 1 2 3 4
fault Crash at=100000 node=2 restart_at=400000
fault Partition at=50000 groups=0,1,1,0,0 heal_at=900000
fault LossBurst at=10000 prob=0.35 until=90000 restore=0.0
fault Gray at=5000 node=4 factor=3 until=60000
script Write(1) Write(2)
script Read ReadAtomic ReadSC ReadRegular
think 5000
deadline 9000000
oracle Linearizable
expected_digest 0xdeadbeef01234567
reason line one\nline two \\n
"#;

    #[test]
    fn the_sample_writes_its_pinned_text_and_reads_back() {
        assert_eq!(sample().to_string(), SAMPLE_TEXT);
        assert_eq!(SAMPLE_TEXT.parse::<Repro>(), Ok(sample()));
        let commented = format!("# an emitted artifact\n\n{SAMPLE_TEXT}# end\n");
        assert_eq!(commented.parse::<Repro>(), Ok(sample()));
    }

    /// Every variant of every enum the format writes — ops (in the
    /// sample), fault kinds (in the sample), protocols, mutants, read
    /// modes, latency models and oracles — reads back to the value it was
    /// written from, and rewriting that value gives the same text.
    #[test]
    fn every_variant_round_trips_canonically() {
        let mut cases = Vec::new();
        let protocols = READ_MODES
            .into_iter()
            .flat_map(|read_mode| {
                [
                    ProtocolSpec::Swmr { read_mode },
                    ProtocolSpec::Mwmr { read_mode },
                    ProtocolSpec::BatchedSwmr {
                        window: 1_500,
                        read_mode,
                    },
                    ProtocolSpec::Kv {
                        read_mode,
                        hot: 8,
                        preload: 2_000,
                        buckets: 256,
                        amnesiac: read_mode == ReadMode::Relay,
                    },
                ]
            })
            .chain(
                MutantKind::ALL
                    .into_iter()
                    .map(|mutant| ProtocolSpec::MutantSwmr { mutant, every: 2 }),
            );
        for protocol in protocols {
            cases.push(Repro {
                protocol,
                ..sample()
            });
        }
        for latency in [
            LatencyModel::Constant(7_000),
            LatencyModel::Uniform {
                lo: 1_000,
                hi: 10_000,
            },
        ] {
            let mut r = sample();
            r.sim.latency = latency;
            cases.push(r);
        }
        for oracle in OracleSpec::ALL {
            cases.push(Repro { oracle, ..sample() });
        }
        cases.push(Repro {
            name: String::new(),
            backoff_base: None,
            scripts: vec![Vec::new(), vec![RegisterOp::Read]],
            reason: String::new(),
            ..sample()
        });
        for r in cases {
            let text = r.to_string();
            let back: Repro = text.parse().unwrap_or_else(|e| panic!("{e}:\n{text}"));
            assert_eq!(back, r);
            assert_eq!(back.to_string(), text, "canonical form is stable");
        }
    }

    #[test]
    fn parser_rejects_malformed_artifacts() {
        let s = SAMPLE_TEXT;
        let protocol = "protocol BatchedSwmr window=2000 read_mode=FastUnanimous";
        let kv: &str = &s.replace(
            protocol,
            "protocol Kv read_mode=TwoRound hot=2 preload=0 buckets=16 amnesiac=false",
        );
        let mutant: &str = &s.replace(protocol, "protocol MutantSwmr mutant=DropWriteBack every=1");
        assert!(kv.parse::<Repro>().is_ok() && mutant.parse::<Repro>().is_ok());
        // Nodes 0, 1 and 2 down together leave two of five, under the floor.
        let crash = "fault Crash at=100000 node=2 restart_at=400000\n";
        let crashes: &str = &[0, 1, 2]
            .map(|i| crash.replace("=2", &format!("={i}")))
            .concat();
        let six_scripts = "script\nscript\nscript\nscript\nthink";
        for (text, good, bad, why) in [
            (s, s, "", "missing `backoff_base`"),
            (s, "think 5000\n", "", "missing `think`"),
            (s, "n 5", "n five", "bad `n`"),
            (s, "loss_prob 0.05", "loss_prob 5%", "bad `loss_prob`"),
            (s, "node=2", "node=two", "bad `node`"),
            (s, "node=2", "node 2", "not key=value"),
            (s, "0xdeadbeef", "deadbeef", "hex"),
            (s, "name sample", "name \\sample", "bad escape"),
            (kv, "protocol Kv", "protocol KV", "unknown protocol `KV`"),
            (s, "fault Gray", "fault Grey", "unknown fault `Grey`"),
            (s, "ReadSC", "ReadSeq", "unknown op `ReadSeq`"),
            (s, "Write(2)", "Write(2", "unknown op `Write(2`"),
            (
                s,
                "oracle Linearizable",
                "oracle AtomicSwmr",
                "unknown oracle",
            ),
            (kv, "=TwoRound", "=ThreeRound", "unknown read_mode"),
            (mutant, "=DropWriteBack", "=DropAll", "unknown mutant"),
            (s, "latency Bimodal", "latency Normal", "unknown latency"),
            // One spelling per field: the retired `fast_reads` flag is no
            // read mode.
            (
                kv,
                "read_mode=TwoRound",
                "fast_reads=true",
                "missing `read_mode`",
            ),
            (
                kv,
                "amnesiac=false",
                "amnesiac=false fast_reads=1",
                "unknown key",
            ),
            (s, crash, crashes, "min_alive"),
            (s, "think", six_scripts, "6 scripts for 5 nodes"),
            (kv, "hot=2", "hot=0", "hot must be at least 1"),
            (kv, "buckets=16", "buckets=12", "power of two"),
            (kv, "buckets=16", "buckets=1", "power of two"),
            (
                s,
                "think 5000\n",
                "think 5000\nthink 6000\n",
                "`think` given twice",
            ),
            (s, "factor=3", "factor=3 factor=4", "`factor` given twice"),
            (s, "think", "thinking 6000\nthink", "unknown key `thinking`"),
            // What a replay would panic on or silently truncate.
            (s, "loss_prob 0.05", "loss_prob 1.5", "not in [0, 1)"),
            (s, "loss_prob 0.05", "loss_prob NaN", "not in [0, 1)"),
            (s, "dup_prob 0.0", "dup_prob 1.5", "not in [0, 1)"),
            (s, "slow_prob=0.01", "slow_prob=NaN", "not in [0, 1]"),
            (
                s,
                "Bimodal fast=1000 slow=50000 slow_prob=0.01",
                "Uniform lo=10000 hi=1000",
                "lo 10000 > hi 1000",
            ),
            (s, "factor=3", "factor=4294967304", "bad `factor`"),
            (s, "groups=0,1,1", "groups=0,1,4294967297", "bad `groups`"),
            (kv, "hot=2", "hot=4294967298", "bad `hot`"),
            (kv, "preload=0", "preload=4294967296", "bad `preload`"),
            (kv, "buckets=16", "buckets=4294967312", "bad `buckets`"),
        ] {
            assert!(text.contains(good), "{good:?} not in:\n{text}");
            match text.replacen(good, bad, 1).parse::<Repro>() {
                Ok(_) => panic!("{bad:?} in place of {good:?} parses"),
                Err(e) => assert!(e.contains(why), "{bad:?}: {e}"),
            }
        }
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
            oracle: OracleSpec::Linearizable,
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
