//! Nemesis: seeded fault-injection campaigns.
//!
//! A *campaign* is a deterministic schedule of faults — crash→restart
//! cycles, rolling minority partitions, loss bursts, gray failures
//! (per-node latency inflation) — planned entirely from one seed, injected
//! into a [`Sim`], and guaranteed to have healed by
//! [`NemesisSchedule::heal_at`]. The planner maintains the paper's
//! resilience envelope by construction: **at every instant at least
//! [`NemesisConfig::min_alive`] nodes are up** (default: a majority), so
//! the protocols are *required* to stay safe and, after healing, live.
//! Setting [`NemesisConfig::violate_majority`] deliberately steps outside
//! the envelope — the expected observation is blocked operations, which is
//! itself a property worth testing.
//!
//! Campaigns compose with the closed-loop workload driver
//! ([`run_campaign`]): each client runs from its own completions, a client
//! whose node crashes loses its in-flight operation (aborted, kept for
//! histories) and resumes its script `think` after the node rejoins,
//! beside the node's catch-up. After [`heal_at`] every
//! remaining operation must finish within [`liveness_bound`] — a bound
//! derived from the retransmission backoff cap, not a guess.
//!
//! [`heal_at`]: NemesisSchedule::heal_at

use crate::sim::Sim;
use abd_core::context::Protocol;
use abd_core::quorum::majority_threshold;
use abd_core::retransmit::BackoffPolicy;
use abd_core::types::{Nanos, ProcessId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Domain-separation salt so a nemesis seed never collides with the
/// simulator's own RNG stream for the same integer.
const NEMESIS_SALT: u64 = 0x6e65_6d65_7369_7321; // "nemesis!"

/// Rolling minority partitions per campaign.
const PARTITIONS: u64 = 2;
/// Loss bursts per campaign.
const LOSS_BURSTS: u64 = 2;
/// Gray-failure episodes per campaign.
const GRAY_FAILURES: u64 = 1;
/// Peak loss probability during a burst.
const MAX_LOSS: f64 = 0.5;
/// Peak gray latency multiplier.
const MAX_GRAY: u32 = 20;
/// Maximum per-node invocation skew (clock-skewed invokers).
const MAX_SKEW: Nanos = 50_000;

/// One planned fault. All instants are absolute virtual times, and every
/// fault is cleared by its paired end event at or before the schedule's
/// [`NemesisSchedule::heal_at`].
#[derive(Clone, PartialEq, Debug)]
pub enum PlannedFault {
    /// Crash `node` at `at`, reboot it (with protocol catch-up) at
    /// `restart_at`.
    Crash {
        /// Crash instant.
        at: Nanos,
        /// Victim node.
        node: ProcessId,
        /// Reboot instant.
        restart_at: Nanos,
    },
    /// Partition the cluster into `groups` at `at`, heal at `heal_at`. The
    /// planner always leaves one group holding at least a majority.
    Partition {
        /// Partition instant.
        at: Nanos,
        /// Group number per node.
        groups: Vec<u32>,
        /// Heal instant.
        heal_at: Nanos,
    },
    /// Raise the network loss probability to `prob` during `[at, until)`,
    /// then restore `restore`.
    LossBurst {
        /// Burst start.
        at: Nanos,
        /// Loss probability during the burst.
        prob: f64,
        /// Burst end.
        until: Nanos,
        /// Probability restored at `until`.
        restore: f64,
    },
    /// Gray-fail `node` (all its links run `factor`× slower) during
    /// `[at, until)`.
    Gray {
        /// Onset instant.
        at: Nanos,
        /// Sick node.
        node: ProcessId,
        /// Latency multiplier while sick.
        factor: u32,
        /// Recovery instant.
        until: Nanos,
    },
}

impl PlannedFault {
    /// The instant the fault is injected.
    pub(crate) fn start(&self) -> Nanos {
        match self {
            PlannedFault::Crash { at, .. }
            | PlannedFault::Partition { at, .. }
            | PlannedFault::LossBurst { at, .. }
            | PlannedFault::Gray { at, .. } => *at,
        }
    }

    /// The instant the fault has cleared (restart, heal, restore, recover).
    pub(crate) fn end(&self) -> Nanos {
        match self {
            PlannedFault::Crash { restart_at, .. } => *restart_at,
            PlannedFault::Partition { heal_at, .. } => *heal_at,
            PlannedFault::LossBurst { until, .. } => *until,
            PlannedFault::Gray { until, .. } => *until,
        }
    }

    /// A copy with its end instant moved to `end` (clamped to start at
    /// least one nanosecond after the fault begins, so the injection and
    /// its clearing stay distinct events).
    pub(crate) fn with_end(&self, end: Nanos) -> PlannedFault {
        let mut f = self.clone();
        let end = end.max(self.start() + 1);
        match &mut f {
            PlannedFault::Crash { restart_at, .. } => *restart_at = end,
            PlannedFault::Partition { heal_at, .. } => *heal_at = end,
            PlannedFault::LossBurst { until, .. } => *until = end,
            PlannedFault::Gray { until, .. } => *until = end,
        }
        f
    }

    /// One human-readable line for fault timelines.
    pub(crate) fn describe(&self) -> String {
        match self {
            PlannedFault::Crash {
                at,
                node,
                restart_at,
            } => format!(
                "t={at:>10}  crash {node} (restart at {restart_at}, down {})",
                restart_at.saturating_sub(*at)
            ),
            PlannedFault::Partition {
                at,
                groups,
                heal_at,
            } => {
                let isolated: Vec<usize> = groups
                    .iter()
                    .enumerate()
                    .filter(|(_, &g)| g != 0)
                    .map(|(i, _)| i)
                    .collect();
                format!("t={at:>10}  partition isolates {isolated:?} (heal at {heal_at})")
            }
            PlannedFault::LossBurst {
                at,
                prob,
                until,
                restore,
            } => format!("t={at:>10}  loss burst p={prob} (until {until}, restore p={restore})"),
            PlannedFault::Gray {
                at,
                node,
                factor,
                until,
            } => format!("t={at:>10}  gray {node} x{factor} latency (until {until})"),
        }
    }
}

/// Parameters of a fault campaign. Everything is derived deterministically
/// from `seed`; two configs with equal fields plan identical schedules.
///
/// Crash waves rotate through the nodes with enough victims to crash each
/// at least once where `min_alive` leaves room. Every campaign also holds
/// two rolling partitions, two loss bursts (peak 0.5) and one gray failure
/// (up to 20×), and skews each node's invoker by up to 50 µs.
#[derive(Clone, Debug)]
pub struct NemesisConfig {
    /// Seed for fault planning (independent of the simulator's seed).
    pub seed: u64,
    /// Cluster size.
    pub n: usize,
    /// Campaign start time.
    pub start: Nanos,
    /// Campaign length; every fault has healed by `start + duration`.
    pub duration: Nanos,
    /// Minimum nodes alive at every instant (default: majority). Protocols
    /// with larger quorums — e.g. Byzantine masking quorums — should raise
    /// this to their own liveness threshold.
    pub min_alive: usize,
    /// Deliberately crash one node *more* than `min_alive` permits for one
    /// window, to observe blocked operations.
    pub violate_majority: bool,
    /// Number of crash→restart waves.
    pub crash_cycles: usize,
    /// Loss probability outside bursts (restored when a burst ends).
    pub base_loss: f64,
}

impl NemesisConfig {
    /// A full-spectrum campaign over `n` nodes: crash waves covering every
    /// node, rolling partitions, loss bursts and gray failures, majority
    /// alive throughout.
    pub fn new(seed: u64, n: usize) -> Self {
        NemesisConfig {
            seed,
            n,
            start: 0,
            duration: 4_000_000, // 4ms of virtual mayhem
            min_alive: majority_threshold(n),
            violate_majority: false,
            crash_cycles: 4,
            base_loss: 0.0,
        }
    }

    /// Raises the liveness floor (e.g. to a masking-quorum threshold).
    ///
    /// Lowering the floor *below* the majority threshold plans campaigns
    /// outside the paper's `f < n/2` envelope, where safety holds but
    /// liveness does not — exactly what
    /// [`violate_majority`](NemesisConfig::violate_majority) expresses
    /// explicitly. To keep the two modes from being confused,
    /// [`plan`](NemesisConfig::plan) rejects `min_alive` below the majority
    /// threshold unless `violate_majority` is set.
    pub fn with_min_alive(mut self, min_alive: usize) -> Self {
        assert!(min_alive <= self.n, "cannot keep more nodes alive than n");
        self.min_alive = min_alive;
        self
    }

    /// Sets the campaign window.
    pub fn with_window(mut self, start: Nanos, duration: Nanos) -> Self {
        self.start = start;
        self.duration = duration;
        self
    }

    /// Enables the majority-violation window.
    pub fn with_violate_majority(mut self, yes: bool) -> Self {
        self.violate_majority = yes;
        self
    }

    /// Plans the campaign. See `NemesisSchedule::plan`.
    pub fn plan(&self) -> NemesisSchedule {
        NemesisSchedule::plan(self)
    }
}

/// A concrete, inspectable fault schedule plus per-client invoker skews.
#[derive(Clone, PartialEq, Debug)]
pub struct NemesisSchedule {
    faults: Vec<PlannedFault>,
    heal_at: Nanos,
    skews: Vec<Nanos>,
    min_alive: usize,
}

impl NemesisSchedule {
    /// Plans a schedule from `cfg`, deterministically. The planner slots
    /// crash waves so victims of one wave restart strictly before the next
    /// wave crashes anyone — the count of simultaneously-crashed nodes
    /// never exceeds `n - min_alive` (plus one inside the explicit
    /// violation window, if enabled).
    ///
    /// # Panics
    ///
    /// Panics if the window is too short to slot the requested waves, if
    /// `min_alive > n`, or if `min_alive` is below the majority threshold
    /// without [`violate_majority`](NemesisConfig::violate_majority) — a
    /// sub-majority floor silently steps outside the paper's resilience
    /// envelope, which must be an explicit choice.
    pub(crate) fn plan(cfg: &NemesisConfig) -> NemesisSchedule {
        assert!(cfg.min_alive <= cfg.n, "min_alive > n");
        assert!(
            cfg.violate_majority || cfg.min_alive >= majority_threshold(cfg.n),
            "min_alive = {} keeps fewer than a majority of n = {} alive; \
             set violate_majority to step outside the envelope deliberately",
            cfg.min_alive,
            cfg.n
        );
        let n = cfg.n;
        let slots = cfg.crash_cycles.max(1) as u64;
        let slot_len = cfg.duration / slots;
        assert!(slot_len >= 4, "campaign window too short for crash waves");
        let quarter = slot_len / 4;
        let mut rng = SmallRng::seed_from_u64(cfg.seed ^ NEMESIS_SALT);
        let mut faults = Vec::new();

        // Seeded rotation over the nodes so coverage is a property of the
        // plan, not luck.
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }

        let max_down = n.saturating_sub(cfg.min_alive);
        let heal_at = cfg.start + cfg.duration;
        let mut cursor = 0usize;
        for s in 0..slots {
            let slot_start = cfg.start + s * slot_len;
            let last = s + 1 == slots;
            let k = if cfg.violate_majority && last {
                // One wave crashing one node too many: quorums vanish.
                (max_down + 1).min(n)
            } else if max_down == 0 {
                0
            } else {
                // Enough victims per remaining wave to finish the rotation.
                let remaining_nodes = n.saturating_sub(cursor);
                let remaining_slots = (slots - s) as usize;
                rng.gen_range(1..=max_down)
                    .max(remaining_nodes.div_ceil(remaining_slots))
                    .min(max_down)
            };
            for _ in 0..k {
                let node = ProcessId(order[cursor % n]);
                cursor += 1;
                let at = slot_start + rng.gen_range(0..=quarter);
                // Violation-window victims stay down until the campaign
                // heals; normal victims reboot in the slot's third quarter.
                let restart_at = if cfg.violate_majority && last {
                    heal_at
                } else {
                    slot_start + slot_len / 2 + rng.gen_range(0..=quarter)
                };
                faults.push(PlannedFault::Crash {
                    at,
                    node,
                    restart_at,
                });
            }
        }

        // Rolling partitions: serialized (the simulator holds one partition
        // at a time), each isolating a different random minority.
        if n >= 2 {
            let span = cfg.duration / PARTITIONS;
            let max_isolated = (n - majority_threshold(n)).max(1).min(n - 1);
            for p in 0..PARTITIONS {
                let base = cfg.start + p * span;
                let isolated = rng.gen_range(1..=max_isolated);
                let mut groups = vec![0u32; n];
                let first = rng.gen_range(0..n);
                for j in 0..isolated {
                    groups[(first + j) % n] = 1;
                }
                faults.push(PlannedFault::Partition {
                    at: base + span / 4,
                    groups,
                    heal_at: (base + 3 * span / 4).min(heal_at),
                });
            }
        }

        let span = cfg.duration / LOSS_BURSTS;
        for p in 0..LOSS_BURSTS {
            let base = cfg.start + p * span;
            faults.push(PlannedFault::LossBurst {
                at: base + span / 8,
                prob: rng.gen_range(0.1..=MAX_LOSS),
                until: (base + 5 * span / 8).min(heal_at),
                restore: cfg.base_loss,
            });
        }

        let span = cfg.duration / GRAY_FAILURES;
        for p in 0..GRAY_FAILURES {
            let base = cfg.start + p * span;
            faults.push(PlannedFault::Gray {
                at: base + span / 6,
                node: ProcessId(rng.gen_range(0..n)),
                factor: rng.gen_range(2..=MAX_GRAY),
                until: (base + 2 * span / 3).min(heal_at),
            });
        }

        let skews = (0..n).map(|_| rng.gen_range(0..=MAX_SKEW)).collect();
        NemesisSchedule {
            faults,
            heal_at,
            skews,
            min_alive: cfg.min_alive,
        }
    }

    /// Builds a schedule from an **explicit** fault list — the constructor
    /// the shrinker and repro artifacts use, bypassing the seeded planner.
    /// `heal_at` is raised to cover the latest fault end, so the liveness
    /// deadline derived from it stays sound for any fault subset.
    pub fn from_faults(
        faults: Vec<PlannedFault>,
        heal_at: Nanos,
        skews: Vec<Nanos>,
        min_alive: usize,
    ) -> NemesisSchedule {
        let heal_at = faults
            .iter()
            .map(PlannedFault::end)
            .fold(heal_at, Nanos::max);
        NemesisSchedule {
            faults,
            heal_at,
            skews,
            min_alive,
        }
    }

    /// A copy of this schedule with fault `idx` removed (`heal_at`, skews
    /// and the liveness floor are preserved, so replays stay comparable).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn without_fault(&self, idx: usize) -> NemesisSchedule {
        let mut faults = self.faults.clone();
        faults.remove(idx);
        NemesisSchedule {
            faults,
            heal_at: self.heal_at,
            skews: self.skews.clone(),
            min_alive: self.min_alive,
        }
    }

    /// Structural validity over a cluster of `n` nodes: every fault's
    /// endpoints ordered and inside the healing horizon, node ids in range,
    /// partition vectors correctly sized, one skew per node, and the
    /// liveness floor respected. The shrinker re-validates every candidate
    /// it derives, so a transformation bug surfaces as an error here rather
    /// than as a confusing replay.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated property.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        if self.skews.len() != n {
            return Err(format!("{} skews for {n} nodes", self.skews.len()));
        }
        if self.min_alive > n {
            return Err(format!("min_alive {} > n {n}", self.min_alive));
        }
        for (i, f) in self.faults.iter().enumerate() {
            if f.end() <= f.start() {
                return Err(format!(
                    "fault {i} ends at {} <= start {}",
                    f.end(),
                    f.start()
                ));
            }
            if f.end() > self.heal_at {
                return Err(format!(
                    "fault {i} ends at {} after heal_at {}",
                    f.end(),
                    self.heal_at
                ));
            }
            match f {
                PlannedFault::Crash { node, .. } | PlannedFault::Gray { node, .. } => {
                    if node.index() >= n {
                        return Err(format!("fault {i} targets node {node} >= n {n}"));
                    }
                }
                PlannedFault::Partition { groups, .. } => {
                    if groups.len() != n {
                        return Err(format!(
                            "fault {i} has {} groups for {n} nodes",
                            groups.len()
                        ));
                    }
                }
                PlannedFault::LossBurst { prob, restore, .. } => {
                    if !(0.0..=1.0).contains(prob) || !(0.0..=1.0).contains(restore) {
                        return Err(format!("fault {i} has a probability out of [0,1]"));
                    }
                }
            }
        }
        if !self.respects_min_alive(n) {
            return Err(format!(
                "{} nodes simultaneously down exceeds floor min_alive={}",
                self.max_simultaneous_down(),
                self.min_alive
            ));
        }
        Ok(())
    }

    /// The schedule as a human-readable timeline, one fault per line in
    /// injection order.
    pub fn timeline(&self) -> String {
        let mut order: Vec<&PlannedFault> = self.faults.iter().collect();
        order.sort_by_key(|f| (f.start(), f.end()));
        let mut out = String::new();
        for f in &order {
            out.push_str(&f.describe());
            out.push('\n');
        }
        out.push_str(&format!(
            "t={:>10}  campaign healed ({} faults, min_alive {})\n",
            self.heal_at,
            self.faults.len(),
            self.min_alive
        ));
        out
    }

    /// The planned faults (inspectable, e.g. for reporting).
    pub fn faults(&self) -> &[PlannedFault] {
        &self.faults
    }

    /// The configured liveness floor (minimum nodes alive at every instant).
    pub fn min_alive(&self) -> usize {
        self.min_alive
    }

    /// The per-client invocation skews, indexed by node.
    pub fn skews(&self) -> &[Nanos] {
        &self.skews
    }

    /// First instant with every fault cleared: crashes restarted,
    /// partitions healed, loss restored, gray nodes recovered.
    pub fn heal_at(&self) -> Nanos {
        self.heal_at
    }

    /// Per-client invocation skew — campaign clients start their scripts
    /// offset by these amounts, modelling skewed invoker clocks.
    pub fn invoker_skew(&self, node: ProcessId) -> Nanos {
        self.skews[node.index()]
    }

    /// Largest number of nodes simultaneously crashed anywhere in the
    /// schedule (sweep over crash/restart endpoints).
    fn max_simultaneous_down(&self) -> usize {
        let mut edges: Vec<(Nanos, i64)> = Vec::new();
        for f in &self.faults {
            if let PlannedFault::Crash { at, restart_at, .. } = f {
                edges.push((*at, 1));
                edges.push((*restart_at, -1));
            }
        }
        edges.sort(); // restart (-1) sorts before crash (+1) at equal times
        let (mut down, mut worst) = (0i64, 0i64);
        for (_, d) in edges {
            down += d;
            worst = worst.max(down);
        }
        worst as usize
    }

    /// Whether the schedule respects its configured liveness floor.
    pub fn respects_min_alive(&self, n: usize) -> bool {
        self.max_simultaneous_down() <= n - self.min_alive
    }

    /// Injects every planned fault into `sim`.
    ///
    /// # Panics
    ///
    /// Panics if any fault instant is already in the past for `sim`.
    pub fn apply<P>(&self, sim: &mut Sim<P>)
    where
        P: Protocol,
        P::Op: Clone,
    {
        for f in &self.faults {
            match f {
                PlannedFault::Crash {
                    at,
                    node,
                    restart_at,
                } => {
                    sim.crash_at(*at, *node);
                    sim.restart_at(*restart_at, *node);
                }
                PlannedFault::Partition {
                    at,
                    groups,
                    heal_at,
                } => {
                    sim.partition_at(*at, groups.clone());
                    sim.heal_at(*heal_at);
                }
                PlannedFault::LossBurst {
                    at,
                    prob,
                    until,
                    restore,
                } => {
                    sim.set_loss_at(*at, *prob);
                    sim.set_loss_at(*until, *restore);
                }
                PlannedFault::Gray {
                    at,
                    node,
                    factor,
                    until,
                } => {
                    sim.set_gray_at(*at, *node, *factor);
                    sim.set_gray_at(*until, *node, 1);
                }
            }
        }
    }
}

/// How long, after the campaign heals, until every surviving operation must
/// have completed — derived from the retransmission envelope, not guessed.
///
/// One phase stalls at most one full backed-off retransmission interval
/// ([`BackoffPolicy::max_delay`]) before re-probing, then needs a round
/// trip (`2 × max_latency`). An operation is at most two phases, a write a
/// rebooted register rolls forward is one more ahead of its client's next
/// operation, and queued invocations serialize — so the bound scales with
/// the deepest per-client backlog. (A catch-up runs beside the operations,
/// not ahead of them.)
pub fn liveness_bound(policy: &BackoffPolicy, max_latency: Nanos, max_backlog: u64) -> Nanos {
    let round = policy.max_delay() + 2 * max_latency;
    (2 * max_backlog.max(1) + 1) * round
}

/// Runs one script per client under a nemesis campaign: the closed loop of
/// [`crate::harness`], client `c` running on node `c mod n`, invoking its
/// first operation at `now` plus its node's invoker skew and each later one
/// `think` after its own previous operation completed. An operation lost to
/// the node's crash is abandoned (it stays visible to histories via
/// [`Sim::pending_details`]) and the client resumes its script `think` after
/// its node rejoins. Returns `true` if every surviving operation completed
/// by `deadline`.
///
/// The schedule must already be [`apply`](NemesisSchedule::apply)-ed; this
/// only honors the per-node invoker skews and drives the scripts.
pub fn run_campaign<P>(
    sim: &mut Sim<P>,
    schedule: &NemesisSchedule,
    scripts: Vec<Vec<P::Op>>,
    think: Nanos,
    deadline: Nanos,
) -> bool
where
    P: Protocol,
    P::Op: Clone,
{
    let n = sim.n();
    let skew = |c| schedule.invoker_skew(ProcessId(c % n));
    crate::harness::drive(sim, scripts, skew, think, deadline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use abd_core::msg::RegisterOp;
    use abd_core::swmr::{SwmrConfig, SwmrNode};
    use std::collections::BTreeSet;

    #[test]
    fn planning_is_deterministic() {
        let cfg = NemesisConfig::new(7, 5);
        let a = cfg.plan();
        let b = cfg.plan();
        assert_eq!(a.faults(), b.faults());
        assert_ne!(
            a.faults(),
            NemesisConfig::new(8, 5).plan().faults(),
            "different seeds plan different campaigns"
        );
    }

    #[test]
    fn majority_stays_alive_across_many_seeds() {
        for seed in 0..200u64 {
            let cfg = NemesisConfig::new(seed, 5);
            let sched = cfg.plan();
            assert!(
                sched.respects_min_alive(5),
                "seed {seed}: {} down with min_alive {}",
                sched.max_simultaneous_down(),
                cfg.min_alive
            );
        }
    }

    #[test]
    fn coverage_crashes_every_node() {
        for seed in 0..50u64 {
            let sched = NemesisConfig::new(seed, 5).plan();
            let crashed: BTreeSet<usize> = sched
                .faults()
                .iter()
                .filter_map(|f| match f {
                    PlannedFault::Crash { node, .. } => Some(node.index()),
                    _ => None,
                })
                .collect();
            assert_eq!(crashed.len(), 5, "seed {seed} missed a node");
        }
    }

    #[test]
    #[should_panic(expected = "fewer than a majority")]
    fn sub_majority_min_alive_is_rejected_without_violation_mode() {
        // min_alive = 1 of 5 would let the planner crash four nodes while
        // claiming to stay inside the envelope — an explicit opt-in is
        // required (satellite fix: previously accepted silently).
        NemesisConfig::new(1, 5).with_min_alive(1).plan();
    }

    #[test]
    fn sub_majority_min_alive_is_allowed_with_violation_mode() {
        let sched = NemesisConfig::new(1, 5)
            .with_min_alive(2)
            .with_violate_majority(true)
            .plan();
        assert!(sched.max_simultaneous_down() >= 1);
    }

    #[test]
    fn without_fault_removes_exactly_one() {
        let sched = NemesisConfig::new(7, 5).plan();
        let total = sched.faults().len();
        let shrunk = sched.without_fault(0);
        assert_eq!(shrunk.faults().len(), total - 1);
        assert_eq!(shrunk.faults(), &sched.faults()[1..]);
        assert_eq!(shrunk.heal_at(), sched.heal_at());
        assert_eq!(shrunk.skews(), sched.skews());
        assert_eq!(shrunk.min_alive(), sched.min_alive());
        assert!(shrunk.validate(5).is_ok());
    }

    #[test]
    fn from_faults_raises_heal_at_to_cover_every_fault() {
        let faults = vec![PlannedFault::Crash {
            at: 100,
            node: ProcessId(1),
            restart_at: 9_000,
        }];
        let sched = NemesisSchedule::from_faults(faults, 5_000, vec![0; 3], 2);
        assert_eq!(sched.heal_at(), 9_000, "heal_at covers the late restart");
        assert!(sched.validate(3).is_ok());
    }

    #[test]
    fn validate_catches_malformed_schedules() {
        let bad_end = NemesisSchedule::from_faults(
            vec![PlannedFault::Gray {
                at: 50,
                node: ProcessId(0),
                factor: 3,
                until: 50,
            }],
            1_000,
            vec![0; 3],
            2,
        );
        // from_faults cannot repair an inverted interval; validate names it.
        assert!(bad_end.validate(3).unwrap_err().contains("ends at"));

        let bad_node = NemesisSchedule::from_faults(
            vec![PlannedFault::Crash {
                at: 1,
                node: ProcessId(7),
                restart_at: 10,
            }],
            1_000,
            vec![0; 3],
            2,
        );
        assert!(bad_node.validate(3).unwrap_err().contains("node"));

        let bad_groups = NemesisSchedule::from_faults(
            vec![PlannedFault::Partition {
                at: 1,
                groups: vec![0, 1],
                heal_at: 10,
            }],
            1_000,
            vec![0; 3],
            2,
        );
        assert!(bad_groups.validate(3).unwrap_err().contains("groups"));

        let floor_broken = NemesisSchedule::from_faults(
            vec![
                PlannedFault::Crash {
                    at: 1,
                    node: ProcessId(0),
                    restart_at: 100,
                },
                PlannedFault::Crash {
                    at: 2,
                    node: ProcessId(1),
                    restart_at: 100,
                },
            ],
            1_000,
            vec![0; 3],
            2,
        );
        assert!(floor_broken.validate(3).unwrap_err().contains("floor"));

        let wrong_skews = NemesisSchedule::from_faults(vec![], 1_000, vec![0; 2], 2);
        assert!(wrong_skews.validate(3).is_err());
    }

    #[test]
    fn with_end_clamps_to_a_distinct_instant() {
        let f = PlannedFault::Crash {
            at: 500,
            node: ProcessId(2),
            restart_at: 9_000,
        };
        assert_eq!(f.with_end(0).end(), 501, "end clamped past the start");
        assert_eq!(f.with_end(4_000).end(), 4_000);
        assert_eq!(f.with_end(4_000).start(), 500, "start untouched");
    }

    #[test]
    fn timeline_orders_faults_and_reports_healing() {
        let sched = NemesisConfig::new(7, 5).plan();
        let tl = sched.timeline();
        assert!(tl.contains("campaign healed"));
        let starts: Vec<Nanos> = tl
            .lines()
            .filter_map(|l| {
                l.strip_prefix("t=")?
                    .split_whitespace()
                    .next()?
                    .parse()
                    .ok()
            })
            .collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{tl}");
        assert_eq!(starts.len(), sched.faults().len() + 1);
    }

    #[test]
    fn violation_mode_exceeds_the_envelope() {
        let sched = NemesisConfig::new(3, 5).with_violate_majority(true).plan();
        assert!(sched.max_simultaneous_down() >= 3);
        assert!(!sched.respects_min_alive(5));
    }

    #[test]
    fn partitions_always_keep_a_majority_group() {
        for seed in 0..50u64 {
            let sched = NemesisConfig::new(seed, 5).plan();
            for f in sched.faults() {
                if let PlannedFault::Partition { groups, .. } = f {
                    let majority_side = groups.iter().filter(|&&g| g == 0).count();
                    assert!(majority_side >= 3, "seed {seed}: {groups:?}");
                }
            }
        }
    }

    #[test]
    fn campaign_clients_start_at_their_skew_and_think_exactly() {
        const THINK: Nanos = 3_000;
        let nodes: Vec<SwmrNode<u64>> = (0..3)
            .map(|i| SwmrNode::new(SwmrConfig::new(3, ProcessId(i), ProcessId(0)), 0))
            .collect();
        let mut sim = Sim::new(SimConfig::new(8), nodes);
        let skews = vec![0, 7_000, 13_000];
        let sched = NemesisSchedule::from_faults(vec![], 0, skews.clone(), 2);
        let scripts = (0..3)
            .map(|c| {
                (1..=4)
                    .map(|k| match c {
                        0 => RegisterOp::Write(k),
                        _ => RegisterOp::Read,
                    })
                    .collect()
            })
            .collect();
        assert!(run_campaign(
            &mut sim,
            &sched,
            scripts,
            THINK,
            1_000_000_000
        ));
        for (c, skew) in skews.into_iter().enumerate() {
            let mut next = skew;
            for rec in sim.completed().iter().filter(|r| r.client.index() == c) {
                assert_eq!(rec.invoked_at, next, "client {c}");
                next = rec.completed_at + THINK;
            }
        }
        assert_eq!(sim.completed().len(), 12);
    }
}
