//! Integration: the operation path does not touch the heap.
//!
//! Once a cluster is warm, an operation driven through
//! `harness::run_scripts` — `Sim::step`, the protocol handlers, a
//! `PhaseTracker` per phase, the driver's round loop — allocates nothing of
//! its own. What is left, and what the budget of 64 allocations per 20 000
//! operations covers, is amortised growth: `Sim`'s `completed` vector
//! doubling as the records accumulate (five times from 1 000 to 21 000),
//! the event heap should a burst outgrow its warm capacity, and the one
//! vector of script queues `run_scripts` builds per call. A regression that
//! allocates per phase or per round costs thousands, not dozens.
//!
//! The counter is a `#[global_allocator]` wrapped around `System`, which
//! needs `unsafe`; it lives in this integration-test crate so that every
//! library crate keeps its `forbid(unsafe_code)`. It counts per thread, so
//! the two tests can run side by side.

use abd_core::context::Protocol;
use abd_core::msg::RegisterOp;
use abd_core::mwmr::{MwmrConfig, MwmrNode};
use abd_core::types::{ProcessId, ReadMode, Tag};
use abd_kv::{KvConfig, KvNode, KvOp};
use abd_repro::simnet::harness::run_scripts;
use abd_repro::simnet::{LatencyModel, Sim, SimConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Calls that obtained or grew a block on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count() {
        // A thread may still allocate while its locals are torn down.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method hands its arguments to `System` unchanged and returns
// what `System` returned, so `System`'s guarantees carry over; the counter is
// a const-initialised thread-local `Cell` with no destructor, so touching it
// neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 5;
const WARM_UP_OPS: usize = 1_000;
const MEASURED_OPS: usize = 20_000;
const BUDGET: u64 = 64;
const KEYS: u64 = 256;
const DEADLINE: u64 = u64::MAX / 4;

/// Runs `WARM_UP_OPS` fault-free operations through `run_scripts`, then
/// `MEASURED_OPS` more, and returns how often the second call allocated.
/// `op(c, j)` is client `c`'s `j`-th operation.
fn allocations_when_warm<P>(nodes: Vec<P>, op: impl Fn(usize, usize) -> P::Op) -> u64
where
    P: Protocol,
    P::Op: Clone,
{
    let scripts = |from: usize, len: usize| -> Vec<Vec<P::Op>> {
        (0..N)
            .map(|c| (from..from + len).map(|j| op(c, j)).collect())
            .collect()
    };
    let latency = LatencyModel::Uniform {
        lo: 1_000,
        hi: 20_000,
    };
    let mut sim = Sim::new(SimConfig::new(7).with_latency(latency), nodes);
    assert!(run_scripts(
        &mut sim,
        scripts(0, WARM_UP_OPS / N),
        0,
        0,
        DEADLINE
    ));
    let measured = scripts(WARM_UP_OPS / N, MEASURED_OPS / N);
    let before = ALLOCATIONS.get();
    assert!(run_scripts(&mut sim, measured, 0, 0, DEADLINE));
    let spent = ALLOCATIONS.get() - before;
    assert_eq!(sim.completed().len(), WARM_UP_OPS + MEASURED_OPS);
    spent
}

#[test]
fn kv_operations_allocate_nothing_once_warm() {
    let nodes: Vec<KvNode<u64, u64>> = (0..N)
        .map(|i| {
            let cfg = KvConfig::new(N, ProcessId(i)).with_read_mode(ReadMode::TwoRound);
            let mut node = KvNode::new(cfg);
            for k in 0..KEYS {
                node.preload(k, Tag::new(1, ProcessId(0)), k);
            }
            node
        })
        .collect();
    // One put in five, every client walking the key space at its own offset.
    let spent = allocations_when_warm(nodes, |c, j| {
        let key = (j * N + c) as u64 % KEYS;
        if j % 5 == c {
            KvOp::Put(key, (j * N + c) as u64 + KEYS)
        } else {
            KvOp::Get(key)
        }
    });
    assert!(
        spent <= BUDGET,
        "{MEASURED_OPS} warm KV operations allocated {spent} times (budget {BUDGET})"
    );
}

#[test]
fn register_operations_allocate_nothing_once_warm() {
    let nodes: Vec<MwmrNode<u64>> = (0..N)
        .map(|i| MwmrNode::new(MwmrConfig::new(N, ProcessId(i)), 0))
        .collect();
    let spent = allocations_when_warm(nodes, |c, j| {
        if j % 5 == c {
            RegisterOp::Write((j * N + c) as u64 + 1)
        } else {
            RegisterOp::Read
        }
    });
    assert!(
        spent <= BUDGET,
        "{MEASURED_OPS} warm register operations allocated {spent} times (budget {BUDGET})"
    );
}
