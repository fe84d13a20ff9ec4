//! Property-based tests of the shared-memory algorithms against sequential
//! models, plus cross-substrate agreement checks.

use abd_repro::shmem::array::LocalAtomicArray;
use abd_repro::shmem::counter::Counter;
use abd_repro::shmem::maxreg::MaxRegister;
use abd_repro::shmem::renaming::Renaming;
use abd_repro::shmem::snapshot::{Segment, SnapshotObject};
use abd_repro::shmem::sw2mw::{MwCell, MwRegister};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Cases per property; case `c` draws its inputs from
/// `SmallRng::seed_from_u64(c)`.
const CASES: u64 = 256;

/// A counter driven by an arbitrary interleaving of per-process increments
/// equals the sequential sum.
#[test]
fn counter_matches_sequential_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let len = rng.gen_range(1..200);
        let ops: Vec<usize> = (0..len).map(|_| rng.gen_range(0..4)).collect();
        let n = 4;
        let regs = LocalAtomicArray::new(n, 0u64);
        let mut handles: Vec<Counter<_>> = (0..n).map(|i| Counter::new(i, regs.clone())).collect();
        let mut model = 0u64;
        for &p in &ops {
            handles[p].increment();
            model += 1;
            assert_eq!(handles[0].value(), model, "case {case}: ops {ops:?}");
        }
    }
}

/// The max register equals the maximum of all writes, regardless of which
/// process wrote what.
#[test]
fn maxreg_matches_sequential_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let len = rng.gen_range(1..200);
        let ops: Vec<(usize, u64)> = (0..len)
            .map(|_| (rng.gen_range(0..3), rng.gen_range(0..1000)))
            .collect();
        let regs = LocalAtomicArray::new(3, 0u64);
        let mut handles: Vec<MaxRegister<_>> =
            (0..3).map(|i| MaxRegister::new(i, regs.clone())).collect();
        let mut model = 0u64;
        for &(p, v) in &ops {
            handles[p].write_max(v);
            model = model.max(v);
            assert_eq!(handles[p].read(), model, "case {case}: ops {ops:?}");
        }
    }
}

/// The multi-writer register from single-writer registers always reads as
/// the last write, under any sequential interleaving of writers.
#[test]
fn sw2mw_register_matches_sequential_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let len = rng.gen_range(1..150);
        let ops: Vec<(usize, u32)> = (0..len).map(|_| (rng.gen_range(0..4), rng.gen())).collect();
        let regs = LocalAtomicArray::new(4, MwCell::initial(0u32));
        let mut handles: Vec<MwRegister<u32, _>> =
            (0..4).map(|i| MwRegister::new(i, regs.clone())).collect();
        for &(p, v) in &ops {
            handles[p].write(v);
            assert_eq!(handles[(p + 1) % 4].read(), v, "case {case}: ops {ops:?}");
        }
    }
}

/// Sequential snapshot updates are immediately visible and scans always
/// reflect exactly the latest update per segment.
#[test]
fn snapshot_matches_sequential_model() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let len = rng.gen_range(1..150);
        let ops: Vec<(usize, u16)> = (0..len).map(|_| (rng.gen_range(0..3), rng.gen())).collect();
        let n = 3;
        let regs = LocalAtomicArray::new(n, Segment::initial(n, 0u16));
        let mut handles: Vec<SnapshotObject<u16, _>> = (0..n)
            .map(|i| SnapshotObject::new(i, regs.clone()))
            .collect();
        let mut model = vec![0u16; n];
        for &(p, v) in &ops {
            handles[p].update(v);
            model[p] = v;
            assert_eq!(
                handles[(p + 1) % n].scan(),
                model,
                "case {case}: ops {ops:?}"
            );
        }
    }
}

/// Renaming with arbitrary distinct original names hands out distinct names
/// within the 2k-1 space, in any participation order.
#[test]
fn renaming_names_are_distinct_and_small() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let k = rng.gen_range(2..6);
        let mut originals: Vec<u64> = Vec::new();
        while originals.len() < k {
            let name: u64 = rng.gen();
            if !originals.contains(&name) {
                originals.push(name);
            }
        }
        let regs = LocalAtomicArray::new(k, Segment::initial(k, None));
        let mut names = Vec::new();
        for (i, &orig) in originals.iter().enumerate() {
            let mut r = Renaming::new(i, orig, regs.clone());
            names.push(r.acquire());
        }
        let inputs = format!("case {case}: originals {originals:?}, names {names:?}");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), k, "duplicate names, {inputs}");
        assert!(
            names.iter().all(|&nm| (1..=2 * k - 1).contains(&nm)),
            "names out of 2k-1 space, {inputs}"
        );
    }
}

/// Algorithms behave identically over any `RegisterArray`: run the same
/// deterministic script over local registers twice (fresh arrays) and
/// compare the full observable trace.
#[test]
fn deterministic_scripts_are_substrate_independent() {
    let script: Vec<(usize, u64)> = (0..60)
        .map(|i| (i % 3, (i as u64).wrapping_mul(2654435761) % 1000))
        .collect();
    let run = || {
        let regs = LocalAtomicArray::new(3, 0u64);
        let mut maxes: Vec<MaxRegister<_>> =
            (0..3).map(|i| MaxRegister::new(i, regs.clone())).collect();
        let mut trace = Vec::new();
        for &(p, v) in &script {
            maxes[p].write_max(v);
            trace.push(maxes[p].read());
        }
        trace
    };
    assert_eq!(run(), run());
}
