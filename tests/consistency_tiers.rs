//! Integration: the consistency-tier oracle battery proves its own
//! discriminating power, both directions.
//!
//! Three planted defects, one per tier boundary, each driven through a
//! full campaign and judged by *every* tier's oracle on the same
//! execution:
//!
//! * [`MutantKind::DropWriteBack`] produces a **cross-client**
//!   new/old inversion — an atomicity violation that sequential
//!   consistency and regularity both tolerate (no real-time order between
//!   clients, and the inverted value's write is still pending);
//! * [`MutantKind::ScStashRead`] re-serves a node's first-ever read, so
//!   one client observes new-then-old against its **own** program order —
//!   a sequential-consistency violation that regularity tolerates while
//!   the newer write hangs un-completed behind the writer's crash;
//! * [`MutantKind::PhantomRead`] forges a value no writer ever wrote —
//!   below even regularity, so every tier's oracle must convict.
//!
//! The `oracle_selftest_` tests are the CI gate: a checker weakening that
//! lets a planted violation through, or an over-strict checker that
//! convicts a legal weaker-tier history, fails here before any nemesis
//! soak would notice.

use abd_core::msg::RegisterOp;
use abd_core::retransmit::BackoffPolicy;
use abd_core::types::ProcessId;
use abd_repro::simnet::nemesis::liveness_bound;
use abd_repro::simnet::{
    Failure, MutantKind, NemesisSchedule, OracleSpec, PlannedFault, ProtocolSpec, Repro, SimConfig,
};

const N: usize = 5;
const BACKOFF_BASE: u64 = 20_000;

/// Judges `base`'s execution with `oracle` (the execution itself is a
/// pure function of the other fields, so swapping the oracle re-judges
/// the *same* trace).
fn judge(base: &Repro, oracle: OracleSpec) -> Option<Failure> {
    let mut r = base.clone();
    r.oracle = oracle;
    r.run().failure
}

fn is_violation(f: &Option<Failure>) -> bool {
    matches!(f, Some(Failure::Violation(_)))
}

fn deadline_for(sched: &NemesisSchedule) -> u64 {
    sched.heal_at() + liveness_bound(&BackoffPolicy::new(BACKOFF_BASE), 20_000, 8)
}

/// Single-writer scripts: client 0 writes `writes` unique values, every
/// other client reads `reads` times.
fn scripts(writes: u64, reads: u64) -> Vec<Vec<RegisterOp<u64>>> {
    let mut scripts = vec![(1..=writes).map(RegisterOp::Write).collect()];
    scripts.resize(N, vec![RegisterOp::Read; reads as usize]);
    scripts
}

/// The cross-client inversion campaign: reads never write back
/// ([`MutantKind::DropWriteBack`]), a partition strands a half-written
/// label on the writer's partition-mate, and a writer crash aborts the
/// write — after the heal, reads through the mate see the new value while
/// quorums that miss it keep serving the old one.
fn inversion_repro(sim_seed: u64) -> Repro {
    let sched = NemesisSchedule::from_faults(
        vec![
            PlannedFault::Partition {
                at: 40_003,
                groups: vec![1, 1, 0, 0, 0],
                heal_at: 340_003,
            },
            PlannedFault::Crash {
                at: 55_003,
                node: ProcessId(0),
                restart_at: 900_000,
            },
        ],
        1_000_000,
        vec![0; N],
        3,
    );
    let deadline = deadline_for(&sched);
    Repro {
        name: "tier-inversion".to_string(),
        protocol: ProtocolSpec::MutantSwmr {
            mutant: MutantKind::DropWriteBack,
            every: 1,
        },
        n: N,
        backoff_base: Some(BACKOFF_BASE),
        sim: SimConfig::new(sim_seed),
        schedule: sched,
        scripts: scripts(20, 20),
        think: 2_500,
        deadline,
        oracle: OracleSpec::Linearizable,
        expected_digest: 0,
        reason: String::new(),
    }
}

/// The same-client inversion campaign: every node pins its first read
/// ([`MutantKind::ScStashRead`]) and re-serves it on every third read,
/// while the writer is crashed mid-second-write — the newer value
/// propagates through read write-backs, but its own write never
/// completes, so dragging a client back to the first value is
/// regular-legal yet breaks the client's program order.
fn stash_repro(sim_seed: u64) -> Repro {
    let sched = NemesisSchedule::from_faults(
        vec![PlannedFault::Crash {
            at: 20_000,
            node: ProcessId(0),
            restart_at: 900_000,
        }],
        1_000_000,
        vec![0; N],
        N - 1,
    );
    let deadline = deadline_for(&sched);
    Repro {
        name: "tier-stash".to_string(),
        protocol: ProtocolSpec::MutantSwmr {
            mutant: MutantKind::ScStashRead,
            every: 3,
        },
        n: N,
        backoff_base: Some(BACKOFF_BASE),
        sim: SimConfig::new(sim_seed),
        schedule: sched,
        scripts: scripts(2, 8),
        think: 5_000,
        deadline,
        oracle: OracleSpec::Sequential,
        expected_digest: 0,
        reason: String::new(),
    }
}

/// The phantom campaign needs no faults at all: every second read on a
/// node is replaced with a forged top-bit value no writer ever produced.
fn phantom_repro(sim_seed: u64) -> Repro {
    let sched = NemesisSchedule::from_faults(vec![], 0, vec![0; N], N);
    Repro {
        name: "tier-phantom".to_string(),
        protocol: ProtocolSpec::MutantSwmr {
            mutant: MutantKind::PhantomRead,
            every: 2,
        },
        n: N,
        backoff_base: Some(BACKOFF_BASE),
        sim: SimConfig::new(sim_seed),
        schedule: sched,
        scripts: scripts(6, 6),
        think: 5_000,
        deadline: 60_000_000,
        oracle: OracleSpec::RegularSwmr,
        expected_digest: 0,
        reason: String::new(),
    }
}

/// First seed where `make`'s campaign is convicted by its own oracle
/// while every oracle in `must_pass` acquits the identical trace.
/// Deterministic: fixed campaigns, fixed scan order.
fn first_discriminating_seed(
    make: impl Fn(u64) -> Repro,
    must_pass: &[OracleSpec],
) -> (u64, Repro) {
    for seed in 0..64 {
        let r = make(seed);
        if !is_violation(&judge(&r, r.oracle)) {
            continue;
        }
        if must_pass.iter().all(|&o| judge(&r, o).is_none()) {
            eprintln!("campaign '{}' discriminates at sim seed {seed}", r.name);
            return (seed, r);
        }
    }
    panic!("no seed in 0..64 separates the tiers for this campaign");
}

#[test]
fn oracle_selftest_atomic_convicts_cross_client_inversion_weaker_tiers_acquit() {
    let (_, r) = first_discriminating_seed(
        inversion_repro,
        &[OracleSpec::Sequential, OracleSpec::RegularSwmr],
    );
    // Re-assert the full row explicitly so a failure names the oracle.
    assert!(
        is_violation(&judge(&r, OracleSpec::Linearizable)),
        "atomic oracle must convict the planted cross-client inversion"
    );
    assert_eq!(
        judge(&r, OracleSpec::Sequential),
        None,
        "sequential consistency tolerates cross-client new/old inversion"
    );
    assert_eq!(
        judge(&r, OracleSpec::RegularSwmr),
        None,
        "regularity tolerates reads concurrent with the aborted write"
    );
}

#[test]
fn oracle_selftest_sequential_convicts_stash_read_regular_acquits() {
    let (_, r) = first_discriminating_seed(stash_repro, &[OracleSpec::RegularSwmr]);
    assert!(
        is_violation(&judge(&r, OracleSpec::Sequential)),
        "sequential oracle must convict the same-client inversion"
    );
    assert_eq!(
        judge(&r, OracleSpec::RegularSwmr),
        None,
        "regularity tolerates the stash while the newer write is pending"
    );
    // Hierarchy sanity: what breaks sequential consistency breaks
    // atomicity too.
    assert!(
        is_violation(&judge(&r, OracleSpec::Linearizable)),
        "atomic oracle must also convict the same-client inversion"
    );
}

#[test]
fn oracle_selftest_every_tier_convicts_phantom_reads() {
    // A forged value is below even regularity, so there is no acquitting
    // tier: scan only for the weakest oracle's conviction, then demand
    // unanimity.
    let (seed, r) = first_discriminating_seed(phantom_repro, &[]);
    for oracle in [
        OracleSpec::RegularSwmr,
        OracleSpec::Sequential,
        OracleSpec::Linearizable,
    ] {
        assert!(
            is_violation(&judge(&r, oracle)),
            "seed {seed}: {oracle:?} must convict a phantom read"
        );
    }
}
