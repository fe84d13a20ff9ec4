//! Coverage-guided nemesis search: a seeded mutation engine over fault
//! schedules that hunts protocol failures.
//!
//! The nemesis planner ([`crate::nemesis`]) draws one campaign per seed;
//! a seed sweep is therefore *blind* — every campaign
//! is an independent sample, and a defect that only fires under a rare
//! fault shape waits for the sweep to stumble onto it. The search here is
//! the fuzzing alternative: keep a **corpus** of schedules, derive
//! candidates by **mutating** corpus members ([`MutationOp`]), run each
//! candidate, and admit it to the corpus only when its execution lights a
//! protocol-state [`Cell`](crate::coverage::Cell) no earlier campaign
//! reached. Novelty — not failure — is the steering signal, so the corpus
//! accumulates schedules that drive the protocol into progressively
//! stranger corners until one of them trips the oracle.
//!
//! Every candidate stays **legal** by construction: mutations rebuild
//! schedules through [`NemesisSchedule::from_faults`] and re-validate with
//! [`NemesisSchedule::validate`], so the search explores exactly the space
//! of campaigns the planner could in principle emit — faults ordered,
//! inside the healing horizon, liveness floor respected. An operator that
//! would produce an illegal schedule returns `None` and the engine simply
//! draws again; it never panics and never runs an invalid campaign.
//!
//! Everything is deterministic: the search RNG is seeded (domain-separated
//! from the planner and simulator streams), candidate executions are
//! seeded simulations, and coverage extraction rides the observation-only
//! simulator tap — so `guided_search(spec, seed, budget)` twice yields the
//! same corpus, the same coverage map and the same detection.
//! [`blind_search`] runs the planner-per-seed baseline under the identical
//! budget accounting, which is what `fig_search` compares against.

use crate::config::SimConfig;
use crate::coverage::CoverageMap;
use crate::nemesis::{NemesisConfig, NemesisSchedule, PlannedFault};
use crate::repro::{Failure, OracleSpec, ProtocolSpec, Repro};
use abd_core::msg::RegisterOp;
use abd_core::types::{Nanos, ProcessId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Domain-separation salt: a search seed never collides with the nemesis
/// planner's or the simulator's RNG stream for the same integer.
const SEARCH_SALT: u64 = 0x7365_6172_6368_2121; // "search!!"

/// Salt for the [`ambush_recovery`] overlay stream. Kept separate from
/// [`SEARCH_SALT`] so toggling or retuning the overlay cannot perturb the
/// mutation chain's operator draws.
const AMBUSH_SALT: u64 = 0x616d_6275_7368_6121; // "ambush!!" variant

/// Fraction of mutated candidates that receive the [`ambush_recovery`]
/// overlay, as a probability.
const AMBUSH_RATE: f64 = 0.65;

/// Corpus size cap; oldest entries are evicted first. Novelty admission
/// slows naturally as the map fills, so a small corpus suffices.
const CORPUS_CAP: usize = 64;

/// Seed schedules drawn straight from the planner before mutation starts.
const SEED_CORPUS: usize = 4;

/// Everything a search needs to turn a candidate schedule into a runnable
/// campaign: the fixed protocol/workload frame that every candidate shares.
#[derive(Clone, Debug)]
pub struct SearchSpec {
    /// Slug naming the hunt (becomes the repro artifact name).
    pub name: String,
    /// Protocol under test.
    pub protocol: ProtocolSpec,
    /// Cluster size.
    pub n: usize,
    /// Retransmission backoff base, if the nodes retransmit.
    pub backoff_base: Option<Nanos>,
    /// Network / scheduler configuration (fixed across candidates — the
    /// search explores fault schedules, not network parameters).
    pub sim: SimConfig,
    /// Per-client scripts, indexed by node.
    pub scripts: Vec<Vec<RegisterOp<u64>>>,
    /// Closed-loop think time.
    pub think: Nanos,
    /// Failure predicate for each candidate run.
    pub oracle: OracleSpec,
    /// Liveness slack added to each candidate's `heal_at` to form its
    /// deadline (derive it from [`crate::nemesis::liveness_bound`]).
    pub deadline_slack: Nanos,
}

impl SearchSpec {
    /// Freezes one candidate schedule into a self-contained [`Repro`] —
    /// the same artifact type failing soaks emit, so a detection flows
    /// directly into `check_or_emit` and the shrinker.
    pub fn repro_for(&self, schedule: &NemesisSchedule) -> Repro {
        Repro {
            name: self.name.clone(),
            protocol: self.protocol,
            n: self.n,
            backoff_base: self.backoff_base,
            sim: self.sim.clone(),
            schedule: schedule.clone(),
            scripts: self.scripts.clone(),
            think: self.think,
            deadline: schedule.heal_at() + self.deadline_slack,
            oracle: self.oracle,
            expected_digest: 0,
            reason: String::new(),
        }
    }
}

/// One schedule-to-schedule transformation. All operators preserve
/// legality (or reject): see [`mutate`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MutationOp {
    /// Translate one fault in time (duration preserved).
    Shift,
    /// Move one fault's end — longer or shorter outage.
    Stretch,
    /// Insert a time-shifted copy of one fault.
    Duplicate,
    /// Point a crash or gray failure at a different node.
    Retarget,
    /// Remove one fault.
    Drop,
    /// Re-draw the per-client invoker skews.
    PerturbSkews,
    /// Pull `heal_at` down toward the last fault end, shrinking the
    /// post-fault quiet tail (and with it the liveness deadline).
    TightenHeal,
    /// Crossover: this schedule's fault prefix spliced with a partner's
    /// suffix.
    Splice,
    /// Scale every fault's start/end (and `heal_at`) by a factor < 1,
    /// concentrating the whole campaign into the early window where the
    /// workload is still active — faults that fire after the clients
    /// drain provoke nothing, so time-compression is how the search turns
    /// a sparse planner schedule into a dense ambush.
    Compress,
    /// Insert a brand-new crash/restart pair on a random node. The only
    /// operator that *creates* a crash: a corpus whose planner draws held
    /// no crashes could otherwise never reach recovery-path coverage, no
    /// matter how much it shifts and splices.
    InsertCrashRestart,
    /// Re-draw one crash's restart instant independently of its crash
    /// instant (and of the original outage length). Restart placement is
    /// what arms recovery-shaped triggers — e.g. a reboot landing inside
    /// an in-flight write's update round — and [`MutationOp::Stretch`]
    /// only nudges the end relative to where it already is.
    RetargetRestart,
}

impl MutationOp {
    /// Every operator, for uniform drawing.
    pub const ALL: [MutationOp; 11] = [
        MutationOp::Shift,
        MutationOp::Stretch,
        MutationOp::Duplicate,
        MutationOp::Retarget,
        MutationOp::Drop,
        MutationOp::PerturbSkews,
        MutationOp::TightenHeal,
        MutationOp::Splice,
        MutationOp::Compress,
        MutationOp::InsertCrashRestart,
        MutationOp::RetargetRestart,
    ];
}

/// A fault with its injection instant moved (end untouched here; callers
/// pair this with [`PlannedFault::with_end`] to keep intervals ordered).
fn with_start(f: &PlannedFault, start: Nanos) -> PlannedFault {
    let mut g = f.clone();
    match &mut g {
        PlannedFault::Crash { at, .. }
        | PlannedFault::Partition { at, .. }
        | PlannedFault::LossBurst { at, .. }
        | PlannedFault::Gray { at, .. } => *at = start,
    }
    g
}

/// Applies `op` to `sched` (with `partner` as crossover material),
/// returning a schedule that passed [`NemesisSchedule::validate`] for a
/// cluster of `n` nodes — or `None` when the operator does not apply
/// (e.g. [`MutationOp::Drop`] on an empty fault list) or the transformed
/// schedule came out illegal (e.g. a duplicated crash breaching the
/// liveness floor). Never panics.
pub fn mutate(
    rng: &mut SmallRng,
    sched: &NemesisSchedule,
    partner: &NemesisSchedule,
    op: MutationOp,
    n: usize,
) -> Option<NemesisSchedule> {
    let faults = sched.faults();
    let horizon = sched.heal_at().max(1);
    let candidate = match op {
        MutationOp::Shift => {
            if faults.is_empty() {
                return None;
            }
            let i = rng.gen_range(0..faults.len());
            let f = &faults[i];
            let span = f.end() - f.start();
            let delta = rng.gen_range(1..=(horizon / 4).max(1));
            let start = if rng.gen_bool(0.5) {
                f.start().saturating_add(delta)
            } else {
                f.start().saturating_sub(delta)
            };
            let moved = with_start(f, start).with_end(start.saturating_add(span));
            let mut fs = faults.to_vec();
            fs[i] = moved;
            NemesisSchedule::from_faults(
                fs,
                sched.heal_at(),
                sched.skews().to_vec(),
                sched.min_alive(),
            )
        }
        MutationOp::Stretch => {
            if faults.is_empty() {
                return None;
            }
            let i = rng.gen_range(0..faults.len());
            let f = &faults[i];
            let end = if rng.gen_bool(0.5) {
                f.end()
                    .saturating_add(rng.gen_range(1..=(horizon / 4).max(1)))
            } else {
                // Shrink toward (but never onto) the start instant;
                // `end > start` is a validity invariant, so the range
                // bound cannot underflow.
                f.start() + 1 + rng.gen_range(0..=f.end() - f.start() - 1)
            };
            let mut fs = faults.to_vec();
            fs[i] = f.with_end(end);
            NemesisSchedule::from_faults(
                fs,
                sched.heal_at(),
                sched.skews().to_vec(),
                sched.min_alive(),
            )
        }
        MutationOp::Duplicate => {
            if faults.is_empty() {
                return None;
            }
            let i = rng.gen_range(0..faults.len());
            let f = &faults[i];
            let span = f.end() - f.start();
            let start = rng.gen_range(0..=horizon);
            let mut fs = faults.to_vec();
            fs.push(with_start(f, start).with_end(start.saturating_add(span)));
            NemesisSchedule::from_faults(
                fs,
                sched.heal_at(),
                sched.skews().to_vec(),
                sched.min_alive(),
            )
        }
        MutationOp::Retarget => {
            let targets: Vec<usize> = faults
                .iter()
                .enumerate()
                .filter(|(_, f)| {
                    matches!(f, PlannedFault::Crash { .. } | PlannedFault::Gray { .. })
                })
                .map(|(i, _)| i)
                .collect();
            if targets.is_empty() {
                return None;
            }
            let i = targets[rng.gen_range(0..targets.len())];
            let victim = ProcessId(rng.gen_range(0..n));
            let mut fs = faults.to_vec();
            match &mut fs[i] {
                PlannedFault::Crash { node, .. } | PlannedFault::Gray { node, .. } => {
                    *node = victim;
                }
                _ => unreachable!("filtered to node-bearing faults"),
            }
            NemesisSchedule::from_faults(
                fs,
                sched.heal_at(),
                sched.skews().to_vec(),
                sched.min_alive(),
            )
        }
        MutationOp::Drop => {
            if faults.is_empty() {
                return None;
            }
            sched.without_fault(rng.gen_range(0..faults.len()))
        }
        MutationOp::PerturbSkews => {
            let ceiling = sched.skews().iter().copied().max().unwrap_or(0).max(10_000);
            let skews = sched
                .skews()
                .iter()
                .map(|_| rng.gen_range(0..=ceiling))
                .collect();
            NemesisSchedule::from_faults(faults.to_vec(), sched.heal_at(), skews, sched.min_alive())
        }
        MutationOp::TightenHeal => {
            // `from_faults` raises heal_at back up to the last fault end,
            // so requesting 0 yields the tightest legal horizon.
            let tight = NemesisSchedule::from_faults(
                faults.to_vec(),
                0,
                sched.skews().to_vec(),
                sched.min_alive(),
            );
            if tight.heal_at() == sched.heal_at() {
                return None; // Already tight: not a new candidate.
            }
            tight
        }
        MutationOp::Splice => {
            if faults.is_empty() && partner.faults().is_empty() {
                return None;
            }
            let cut_a = rng.gen_range(0..=faults.len());
            let cut_b = rng.gen_range(0..=partner.faults().len());
            let mut fs: Vec<PlannedFault> = faults[..cut_a].to_vec();
            fs.extend_from_slice(&partner.faults()[cut_b..]);
            if fs.is_empty() {
                return None;
            }
            NemesisSchedule::from_faults(
                fs,
                sched.heal_at().max(partner.heal_at()),
                sched.skews().to_vec(),
                sched.min_alive(),
            )
        }
        MutationOp::Compress => {
            if faults.is_empty() {
                return None;
            }
            // Scale factor num/4 with num in 1..=3: quarter, half, or
            // three-quarter time. Intervals keep their relative order and
            // a minimum width of 1ns (`with_end` clamps).
            let num = rng.gen_range(1..=3u64);
            let scale = |t: Nanos| t * num / 4;
            let fs = faults
                .iter()
                .map(|f| {
                    let s = scale(f.start());
                    with_start(f, s).with_end(scale(f.end()).max(s + 1))
                })
                .collect();
            NemesisSchedule::from_faults(
                fs,
                scale(sched.heal_at()),
                sched.skews().to_vec(),
                sched.min_alive(),
            )
        }
        MutationOp::InsertCrashRestart => {
            // Crash inside the first half of the horizon: the workload is
            // still issuing there, so the reboot's recovery races live
            // operations instead of an idle cluster. Half the draws target
            // node 0 — the canonical writer/invoker in every campaign
            // frame this workspace runs, and the only node whose restart
            // rolls an interrupted write forward in SWMR.
            let at = rng.gen_range(0..=(horizon / 2).max(1));
            let outage = rng.gen_range(1..=(horizon / 4).max(1));
            let node = if rng.gen_bool(0.5) {
                ProcessId(0)
            } else {
                ProcessId(rng.gen_range(0..n))
            };
            let mut fs = faults.to_vec();
            fs.push(PlannedFault::Crash {
                at,
                node,
                restart_at: at.saturating_add(outage),
            });
            NemesisSchedule::from_faults(
                fs,
                sched.heal_at(),
                sched.skews().to_vec(),
                sched.min_alive(),
            )
        }
        MutationOp::RetargetRestart => {
            let crashes: Vec<usize> = faults
                .iter()
                .enumerate()
                .filter(|(_, f)| matches!(f, PlannedFault::Crash { .. }))
                .map(|(i, _)| i)
                .collect();
            if crashes.is_empty() {
                return None;
            }
            let i = crashes[rng.gen_range(0..crashes.len())];
            let f = &faults[i];
            // Re-drawn from scratch over half the horizon past the crash,
            // not relative to the current restart: the reboot can land
            // anywhere from "immediately" to deep into the campaign while
            // clients are still active (`from_faults` raises `heal_at` if
            // the outage outgrows it).
            let restart = f.start() + rng.gen_range(1..=(horizon / 2).max(1));
            let mut fs = faults.to_vec();
            fs[i] = f.with_end(restart);
            NemesisSchedule::from_faults(
                fs,
                sched.heal_at(),
                sched.skews().to_vec(),
                sched.min_alive(),
            )
        }
    };
    candidate.validate(n).ok().map(|()| candidate)
}

/// The **stale-quorum ambush** — a composite graft targeting recovery
/// defects, applied by [`guided_search`] as an overlay on top of the
/// regular mutation chain (drawn from its own RNG stream so the chain's
/// operator draws are untouched).
///
/// Recovery defects like an amnesiac restart need a *conspiracy*: a read
/// must assemble a majority whose every member lags the newest completed
/// write, and the read must **start** after that write completed (a stale
/// read that merely spans the disruption is concurrent — and legal). No
/// single-fault mutation produces this: replicas re-converge within one
/// round-trip of any heal, because backlogged retransmissions and read
/// write-backs flood the stragglers immediately. The graft builds the
/// whole conspiracy at once:
///
/// * a short **partition** isolates two non-writer replicas, letting the
///   writer advance while they hold the pre-partition value;
/// * a **blink crash** wipes a third replica across the heal instant, so
///   it rejoins as a fresh amnesiac exactly when the stale pair returns;
/// * **gray degradation** on the writer and every remaining healthy node
///   over the heal window makes the stale trio win the reply races that
///   would otherwise go to up-to-date replicas.
///
/// Even fully aimed, only a few percent of instantiations detect — the
/// post-heal stale window is microseconds wide — which is exactly why the
/// engine applies the graft to a large fraction of candidates instead of
/// waiting for a uniform operator draw to assemble it.
///
/// Returns `None` for clusters smaller than five (the graft needs a
/// writer, an isolated pair, an amnesiac, and at least one healthy
/// witness) or when the grafted schedule comes out illegal.
pub fn ambush_recovery(
    rng: &mut SmallRng,
    sched: &NemesisSchedule,
    n: usize,
) -> Option<NemesisSchedule> {
    if n < 5 {
        return None;
    }
    let horizon = sched.heal_at().max(1);
    // Heal point in the second quarter of the horizon: late enough that
    // the writer has history to strand, early enough that every client is
    // still issuing fresh reads when the trap springs.
    let h = rng.gen_range(horizon / 4..=horizon / 2);
    let span = rng.gen_range(horizon / 8..=horizon / 3);
    // Distinct non-writer roles: isolated pair {a, b}, amnesiac c.
    let a = rng.gen_range(1..n);
    let mut b = rng.gen_range(1..n);
    while b == a {
        b = rng.gen_range(1..n);
    }
    let mut c = rng.gen_range(1..n);
    while c == a || c == b {
        c = rng.gen_range(1..n);
    }
    let mut groups = vec![0u32; n];
    groups[a] = 1;
    groups[b] = 1;
    // The blink brackets the heal: crash shortly before, reboot within a
    // microsecond after — the amnesiac misses the pre-heal traffic and
    // wakes empty exactly as the stale pair rejoins.
    let blink_at = h.saturating_sub(rng.gen_range(0..=20_000)).max(1);
    let gray_until = h + rng.gen_range(20_000..=80_000);
    let mut fs = sched.faults().to_vec();
    fs.push(PlannedFault::Partition {
        at: h.saturating_sub(span),
        groups,
        heal_at: h,
    });
    fs.push(PlannedFault::Crash {
        at: blink_at,
        node: ProcessId(c),
        restart_at: h + rng.gen_range(1..=500),
    });
    for sick in (0..n).filter(|&x| x != a && x != b && x != c) {
        fs.push(PlannedFault::Gray {
            at: h.saturating_sub(10_000),
            node: ProcessId(sick),
            factor: 8,
            until: gray_until,
        });
    }
    let candidate = NemesisSchedule::from_faults(
        fs,
        sched.heal_at(),
        sched.skews().to_vec(),
        sched.min_alive(),
    );
    candidate.validate(n).ok().map(|()| candidate)
}

/// What a search run produced, guided or blind.
#[derive(Debug)]
pub struct SearchOutcome {
    /// Campaigns actually executed (the schedules-to-detect metric when a
    /// detection happened; the exhausted budget otherwise).
    pub campaigns: usize,
    /// The failing campaign as a replayable artifact, when one was found.
    pub detection: Option<Repro>,
    /// Why the detected campaign failed.
    pub failure: Option<Failure>,
    /// Coverage accumulated across all executed campaigns (empty for
    /// [`blind_search`], which does not observe coverage).
    pub coverage: CoverageMap,
    /// Corpus size at exit.
    pub corpus_len: usize,
    /// Order-sensitive digest of the corpus schedules — two runs of the
    /// same seeded search must agree on it exactly.
    pub corpus_digest: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// A structural digest of one schedule: every fault's numeric fields, the
/// healing horizon, liveness floor and invoker skews folded FNV-1a style.
/// Used for corpus fingerprints and failing-seed dedup in sweeps.
pub fn schedule_digest(sched: &NemesisSchedule) -> u64 {
    let mut h = FNV_OFFSET;
    for f in sched.faults() {
        match f {
            PlannedFault::Crash {
                at,
                node,
                restart_at,
            } => {
                h = fnv(h, 1);
                h = fnv(h, *at);
                h = fnv(h, node.index() as u64);
                h = fnv(h, *restart_at);
            }
            PlannedFault::Partition {
                at,
                groups,
                heal_at,
            } => {
                h = fnv(h, 2);
                h = fnv(h, *at);
                for g in groups {
                    h = fnv(h, u64::from(*g));
                }
                h = fnv(h, *heal_at);
            }
            PlannedFault::LossBurst {
                at,
                prob,
                until,
                restore,
            } => {
                h = fnv(h, 3);
                h = fnv(h, *at);
                h = fnv(h, prob.to_bits());
                h = fnv(h, *until);
                h = fnv(h, restore.to_bits());
            }
            PlannedFault::Gray {
                at,
                node,
                factor,
                until,
            } => {
                h = fnv(h, 4);
                h = fnv(h, *at);
                h = fnv(h, node.index() as u64);
                h = fnv(h, u64::from(*factor));
                h = fnv(h, *until);
            }
        }
    }
    h = fnv(h, sched.heal_at());
    h = fnv(h, sched.min_alive() as u64);
    for s in sched.skews() {
        h = fnv(h, *s);
    }
    h
}

fn corpus_digest(corpus: &[NemesisSchedule]) -> u64 {
    corpus
        .iter()
        .fold(FNV_OFFSET, |h, s| fnv(h, schedule_digest(s)))
}

/// Coverage-guided search: seed the corpus from the planner, then mutate,
/// run, and admit novelty until a campaign fails its oracle or `budget`
/// campaigns have executed. Deterministic in `(spec, seed, budget)`.
pub fn guided_search(spec: &SearchSpec, seed: u64, budget: usize) -> SearchOutcome {
    let mut rng = SmallRng::seed_from_u64(seed ^ SEARCH_SALT);
    let mut ambush_rng = SmallRng::seed_from_u64(seed ^ AMBUSH_SALT);
    let mut coverage = CoverageMap::default();
    let mut corpus: Vec<NemesisSchedule> = Vec::new();
    let mut campaigns = 0usize;

    // Boxed Err: a detection is rare and terminal, so the fat (Repro,
    // Failure) payload should not widen the per-campaign Ok path.
    let run = |sched: &NemesisSchedule,
               coverage: &mut CoverageMap,
               campaigns: &mut usize|
     -> Result<usize, Box<(Repro, Failure)>> {
        *campaigns += 1;
        let repro = spec.repro_for(sched);
        let (out, cov) = repro.run_with_coverage();
        let novel = coverage.absorb(&cov);
        match out.failure {
            Some(f) => Err(Box::new((repro, f))),
            None => Ok(novel),
        }
    };

    for i in 0..SEED_CORPUS.min(budget.max(1)) {
        let sched = NemesisConfig::new(seed.wrapping_add(i as u64), spec.n).plan();
        match run(&sched, &mut coverage, &mut campaigns) {
            Ok(_) => corpus.push(sched),
            Err(boxed) => {
                let (repro, failure) = *boxed;
                let corpus_digest = corpus_digest(&corpus);
                return SearchOutcome {
                    campaigns,
                    detection: Some(repro),
                    failure: Some(failure),
                    coverage,
                    corpus_len: corpus.len(),
                    corpus_digest,
                };
            }
        }
        if campaigns >= budget {
            break;
        }
    }

    // Rejection-proof attempt bound: operators can return None, but
    // PerturbSkews always applies, so this cap is never the exit path in
    // practice — it just guarantees termination structurally.
    let mut attempts = budget.saturating_mul(20).max(64);
    while campaigns < budget && attempts > 0 && !corpus.is_empty() {
        attempts -= 1;
        let parent = corpus[rng.gen_range(0..corpus.len())].clone();
        let partner = corpus[rng.gen_range(0..corpus.len())].clone();
        let mut cand = parent;
        let mut changed = false;
        for _ in 0..rng.gen_range(1..=3u32) {
            let op = MutationOp::ALL[rng.gen_range(0..MutationOp::ALL.len())];
            if let Some(next) = mutate(&mut rng, &cand, &partner, op, spec.n) {
                cand = next;
                changed = true;
            }
        }
        // Exploit overlay: stack the composite recovery ambush on top of
        // half the mutated candidates. Its conspiracy of faults is far too
        // improbable for uniform operator draws to assemble, yet detects
        // only a few percent of the time even when aimed — so it must ride
        // many candidates, and it draws from its own RNG stream to leave
        // the chain's exploration unperturbed.
        if ambush_rng.gen_bool(AMBUSH_RATE) {
            if let Some(trap) = ambush_recovery(&mut ambush_rng, &cand, spec.n) {
                cand = trap;
                changed = true;
            }
        }
        if !changed {
            continue;
        }
        match run(&cand, &mut coverage, &mut campaigns) {
            Ok(novel) => {
                if novel > 0 {
                    corpus.push(cand);
                    if corpus.len() > CORPUS_CAP {
                        corpus.remove(0);
                    }
                }
            }
            Err(boxed) => {
                let (repro, failure) = *boxed;
                let corpus_digest = corpus_digest(&corpus);
                return SearchOutcome {
                    campaigns,
                    detection: Some(repro),
                    failure: Some(failure),
                    coverage,
                    corpus_len: corpus.len(),
                    corpus_digest,
                };
            }
        }
    }

    let digest = corpus_digest(&corpus);
    SearchOutcome {
        campaigns,
        detection: None,
        failure: None,
        coverage,
        corpus_len: corpus.len(),
        corpus_digest: digest,
    }
}

/// The baseline the guided search is judged against: one fresh
/// planner-drawn campaign per seed, no mutation, no coverage steering —
/// exactly what a seed sweep does, under the same budget accounting.
pub fn blind_search(spec: &SearchSpec, seed: u64, budget: usize) -> SearchOutcome {
    for i in 0..budget {
        let sched = NemesisConfig::new(seed.wrapping_add(i as u64), spec.n).plan();
        let repro = spec.repro_for(&sched);
        let out = repro.run();
        if let Some(failure) = out.failure {
            return SearchOutcome {
                campaigns: i + 1,
                detection: Some(repro),
                failure: Some(failure),
                coverage: CoverageMap::default(),
                corpus_len: 0,
                corpus_digest: FNV_OFFSET,
            };
        }
    }
    SearchOutcome {
        campaigns: budget,
        detection: None,
        failure: None,
        coverage: CoverageMap::default(),
        corpus_len: 0,
        corpus_digest: FNV_OFFSET,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nemesis::NemesisConfig;
    use crate::MutantKind;
    use abd_core::types::ReadMode;

    fn sched(seed: u64, n: usize) -> NemesisSchedule {
        NemesisConfig::new(seed, n).plan()
    }

    fn spec(protocol: ProtocolSpec) -> SearchSpec {
        // A single dedicated writer racing four readers, matching the
        // workload shape of the `planted-campaign` bench fixture: the
        // write-back drop needs a read that lands between a write's
        // update round and a second read to surface a new/old inversion.
        // The scripts are long enough that the clients stay busy across
        // the whole fault horizon — faults that fire after the workload
        // drains can never provoke anything — at one operation per client
        // every 10 µs.
        let scripts = (0..5)
            .map(|c| {
                (0..64u64)
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
        SearchSpec {
            name: "unit".to_string(),
            protocol,
            n: 5,
            backoff_base: Some(20_000),
            sim: SimConfig::new(4),
            scripts,
            think: 10_000,
            oracle: OracleSpec::AtomicSwmr,
            deadline_slack: 200_000_000,
        }
    }

    #[test]
    fn every_operator_yields_valid_or_none() {
        let mut rng = SmallRng::seed_from_u64(5);
        for seed in 0..10u64 {
            let a = sched(seed, 5);
            let b = sched(seed + 100, 5);
            for op in MutationOp::ALL {
                for _ in 0..20 {
                    if let Some(m) = mutate(&mut rng, &a, &b, op, 5) {
                        assert!(m.validate(5).is_ok(), "{op:?} broke validity");
                    }
                }
            }
        }
    }

    #[test]
    fn operators_apply_to_empty_schedules_without_panicking() {
        let mut rng = SmallRng::seed_from_u64(9);
        let empty = NemesisSchedule::from_faults(vec![], 1_000, vec![0; 3], 2);
        let partner = sched(3, 3);
        for op in MutationOp::ALL {
            if let Some(m) = mutate(&mut rng, &empty, &partner, op, 3) {
                assert!(m.validate(3).is_ok());
            }
        }
    }

    #[test]
    fn insert_crash_restart_creates_recovery_pressure_from_nothing() {
        // A schedule with no faults at all: only the new operator can give
        // it a crash, which is exactly why it exists.
        let mut rng = SmallRng::seed_from_u64(11);
        let empty = NemesisSchedule::from_faults(vec![], 100_000, vec![0; 5], 3);
        let partner = sched(3, 5);
        let mut produced = 0;
        for _ in 0..20 {
            if let Some(m) = mutate(
                &mut rng,
                &empty,
                &partner,
                MutationOp::InsertCrashRestart,
                5,
            ) {
                assert!(m
                    .faults()
                    .iter()
                    .any(|f| matches!(f, PlannedFault::Crash { .. })));
                assert!(m.validate(5).is_ok());
                produced += 1;
            }
        }
        assert!(produced > 0, "insertion must succeed on an empty schedule");
    }

    #[test]
    fn retarget_restart_moves_the_reboot_but_not_the_crash() {
        let mut rng = SmallRng::seed_from_u64(13);
        let base = NemesisSchedule::from_faults(
            vec![PlannedFault::Crash {
                at: 10_000,
                node: ProcessId(2),
                restart_at: 20_000,
            }],
            200_000,
            vec![0; 5],
            3,
        );
        let partner = sched(3, 5);
        let mut moved = 0;
        for _ in 0..20 {
            let Some(m) = mutate(&mut rng, &base, &partner, MutationOp::RetargetRestart, 5) else {
                continue;
            };
            let crash = m
                .faults()
                .iter()
                .find(|f| matches!(f, PlannedFault::Crash { .. }))
                .expect("crash preserved");
            assert_eq!(crash.start(), 10_000, "crash instant untouched");
            assert!(crash.end() > crash.start());
            if crash.end() != 20_000 {
                moved += 1;
            }
        }
        assert!(moved > 0, "restart must actually move across draws");
    }

    #[test]
    fn retarget_restart_needs_a_crash_to_work_on() {
        let mut rng = SmallRng::seed_from_u64(17);
        let no_crash = NemesisSchedule::from_faults(
            vec![PlannedFault::LossBurst {
                at: 1_000,
                prob: 0.5,
                until: 2_000,
                restore: 0.0,
            }],
            100_000,
            vec![0; 5],
            3,
        );
        let partner = sched(3, 5);
        assert!(mutate(
            &mut rng,
            &no_crash,
            &partner,
            MutationOp::RetargetRestart,
            5
        )
        .is_none());
    }

    #[test]
    fn schedule_digest_separates_schedules() {
        let a = sched(1, 5);
        let b = sched(2, 5);
        assert_ne!(schedule_digest(&a), schedule_digest(&b));
        assert_eq!(schedule_digest(&a), schedule_digest(&a.clone()));
    }

    #[test]
    fn guided_search_is_deterministic() {
        let s = spec(ProtocolSpec::Swmr {
            read_mode: ReadMode::TwoRound,
        });
        let a = guided_search(&s, 42, 6);
        let b = guided_search(&s, 42, 6);
        assert_eq!(a.campaigns, b.campaigns);
        assert_eq!(a.corpus_digest, b.corpus_digest);
        assert_eq!(a.coverage.len(), b.coverage.len());
        assert_eq!(a.detection.is_some(), b.detection.is_some());
    }

    #[test]
    fn guided_search_finds_the_planted_write_back_drop() {
        let s = spec(ProtocolSpec::MutantSwmr {
            mutant: MutantKind::DropWriteBack,
            every: 1,
        });
        let out = guided_search(&s, 7, 24);
        let detection = out.detection.expect("planted bug must be detected");
        assert!(out.failure.is_some());
        assert!(out.campaigns <= 24);
        // The detection is a replayable artifact: it fails the same way.
        let replay = detection.run();
        assert!(replay.failure.is_some(), "detection must replay as failing");
    }

    #[test]
    fn healthy_protocol_exhausts_budget_without_detection() {
        let s = spec(ProtocolSpec::Swmr {
            read_mode: ReadMode::TwoRound,
        });
        let out = guided_search(&s, 7, 5);
        assert!(out.detection.is_none(), "{:?}", out.failure);
        assert_eq!(out.campaigns, 5);
        assert!(out.corpus_len >= 1, "seed corpus admitted");
        assert!(!out.coverage.is_empty());
    }

    #[test]
    fn blind_search_matches_planner_per_seed() {
        let s = spec(ProtocolSpec::Swmr {
            read_mode: ReadMode::TwoRound,
        });
        let out = blind_search(&s, 7, 3);
        assert!(out.detection.is_none());
        assert_eq!(out.campaigns, 3);
        assert!(out.coverage.is_empty(), "blind runs observe no coverage");
    }

    #[test]
    fn ambush_recovery_yields_valid_or_none() {
        let mut rng = SmallRng::seed_from_u64(17);
        for seed in 0..10u64 {
            let base = sched(seed, 5);
            for _ in 0..20 {
                if let Some(trap) = ambush_recovery(&mut rng, &base, 5) {
                    assert!(trap.validate(5).is_ok(), "ambush broke validity");
                    // The graft only ever adds faults on top of the parent.
                    assert!(trap.faults().len() > base.faults().len());
                    assert_eq!(trap.heal_at(), base.heal_at());
                }
            }
        }
    }

    #[test]
    fn ambush_recovery_needs_three_spare_nodes() {
        // With n < 5 there is no way to strand a pair, blink a third
        // non-writer, and still keep a healthy majority: the graft must
        // decline rather than emit an invalid schedule.
        let mut rng = SmallRng::seed_from_u64(23);
        for n in [3usize, 4] {
            let base = sched(1, n);
            for _ in 0..10 {
                assert!(ambush_recovery(&mut rng, &base, n).is_none());
            }
        }
    }

    #[test]
    #[ignore = "manual tuning probe"]
    fn probe_seeds() {
        use MutantKind::{Amnesiac, DropWriteBack, NonMonotonicTag, OffByOneQuorum, StaleTagAck};
        let zoo = [
            (DropWriteBack, 1),
            (StaleTagAck, 6),
            (StaleTagAck, 12),
            (OffByOneQuorum, 2),
            (OffByOneQuorum, 4),
            (OffByOneQuorum, 8),
            (Amnesiac, 0),
            (NonMonotonicTag, 0),
        ];
        for (mutant, every) in zoo {
            // F7's frame: 150 operations per client, 10 µs apart.
            let mut s = spec(ProtocolSpec::MutantSwmr { mutant, every });
            for (c, script) in s.scripts.iter_mut().enumerate() {
                *script = (0..150u64)
                    .map(|k| match c {
                        0 => RegisterOp::Write(k + 1),
                        _ => RegisterOp::Read,
                    })
                    .collect();
            }
            s.think = 10_000;
            for seed in 0..8u64 {
                let g = guided_search(&s, seed, 48);
                let b = blind_search(&s, seed, 48);
                println!(
                    "{mutant:?}/{every} seed {seed}: guided {} ({}) blind {} ({})",
                    g.detection.is_some(),
                    g.campaigns,
                    b.detection.is_some(),
                    b.campaigns,
                );
            }
        }
    }
}
