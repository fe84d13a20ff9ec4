//! **F5 — the portability dividend and its price.**
//!
//! The paper's punchline: any wait-free shared-memory algorithm runs
//! unchanged on message passing. This figure runs the `abd-shmem`
//! algorithms (counter, max-register, atomic snapshot) over two register
//! substrates:
//!
//! * process-local atomic registers (the shared-memory model), and
//! * ABD-emulated registers on a 3-node thread cluster (`abd-runtime`),
//!
//! and reports wall-clock cost per operation together with the number of
//! register operations each algorithm operation expands to — the cost
//! model the paper's complexity section predicts: `shared-memory ops ×
//! emulation round trips`. It asserts the portability claim: each
//! algorithm operation issues as many register operations on the ABD
//! substrate as on the local one.
//!
//! Unlike every other experiment binary, F5 writes no `BENCH_*.json`: its
//! cost columns are wall-clock microseconds on OS threads, which no two
//! runs repeat, so a committed artifact could only drift. `ci.sh` still
//! runs it for the assertion.

use abd_bench::{us, Stats, Table};
use abd_runtime::client::{spawn_kv_cluster, KvRegisterArray, KvStoreClient};
use abd_runtime::cluster::Jitter;
use abd_shmem::array::{LocalAtomicArray, RegisterArray};
use abd_shmem::counter::Counter;
use abd_shmem::maxreg::MaxRegister;
use abd_shmem::snapshot::{Segment, SnapshotObject};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const N_PROCS: usize = 3;
const ITERS: u64 = 200;

/// Wraps a register array, counting reads and writes.
#[derive(Clone, Debug)]
struct Counting<R> {
    inner: R,
    reads: Arc<AtomicU64>,
    writes: Arc<AtomicU64>,
}

impl<R> Counting<R> {
    fn new(inner: R) -> Self {
        Counting {
            inner,
            reads: Arc::new(AtomicU64::new(0)),
            writes: Arc::new(AtomicU64::new(0)),
        }
    }
    fn ops(&self) -> u64 {
        self.reads.load(Ordering::Relaxed) + self.writes.load(Ordering::Relaxed)
    }
}

impl<V: Clone, R: RegisterArray<V>> RegisterArray<V> for Counting<R> {
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn read(&mut self, i: usize) -> V {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read(i)
    }
    fn write(&mut self, i: usize, v: V) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.write(i, v);
    }
}

fn bench_op<F: FnMut()>(mut f: F) -> Stats {
    let mut samples = Vec::with_capacity(ITERS as usize);
    for _ in 0..ITERS {
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_nanos() as u64);
    }
    Stats::from_samples(samples).unwrap()
}

/// One algorithm operation measured on one substrate: its name, register
/// operations per call, and wall-clock cost.
type Row = (&'static str, f64, Stats);

fn counter_rows<R: RegisterArray<u64> + Clone>(arr: R) -> Vec<Row> {
    let arr = Counting::new(arr);
    let mut c = Counter::new(0, arr.clone());
    let inc = bench_op(|| c.increment());
    let inc_ops = arr.ops() as f64 / ITERS as f64;
    let before = arr.ops();
    let val = bench_op(|| {
        c.value();
    });
    let val_ops = (arr.ops() - before) as f64 / ITERS as f64;
    vec![
        ("counter.increment", inc_ops, inc),
        ("counter.value", val_ops, val),
    ]
}

fn maxreg_rows<R: RegisterArray<u64> + Clone>(arr: R) -> Vec<Row> {
    let arr = Counting::new(arr);
    let mut m = MaxRegister::new(0, arr.clone());
    let mut v = 0;
    let w = bench_op(|| {
        v += 1;
        m.write_max(v);
    });
    let w_ops = arr.ops() as f64 / ITERS as f64;
    let before = arr.ops();
    let r = bench_op(|| {
        m.read();
    });
    let r_ops = (arr.ops() - before) as f64 / ITERS as f64;
    vec![("maxreg.write_max", w_ops, w), ("maxreg.read", r_ops, r)]
}

fn snapshot_rows<R: RegisterArray<Segment<u64>> + Clone>(arr: R) -> Vec<Row> {
    let arr = Counting::new(arr);
    let mut s = SnapshotObject::new(0, arr.clone());
    let mut v = 0;
    let upd = bench_op(|| {
        v += 1;
        s.update(v);
    });
    let upd_ops = arr.ops() as f64 / ITERS as f64;
    let before = arr.ops();
    let scan = bench_op(|| {
        s.scan();
    });
    let scan_ops = (arr.ops() - before) as f64 / ITERS as f64;
    vec![
        ("snapshot.update", upd_ops, upd),
        ("snapshot.scan", scan_ops, scan),
    ]
}

fn main() {
    let mut t = Table::new(
        "F5 — shared-memory algorithms over local vs ABD-emulated registers (3 replicas)",
        &[
            "algorithm / op",
            "substrate",
            "register ops/op",
            "mean µs",
            "p99 µs",
        ],
    );

    let kv_cluster_u64 = spawn_kv_cluster::<u64, u64>(3, Jitter::None);
    // Separate cluster for the max-register so key spaces do not overlap.
    let kv_cluster_u64b = spawn_kv_cluster::<u64, u64>(3, Jitter::None);
    let kv_cluster_seg = spawn_kv_cluster::<u64, Segment<u64>>(3, Jitter::None);

    for (local, abd) in [
        (
            counter_rows(LocalAtomicArray::new(N_PROCS, 0u64)),
            counter_rows(KvRegisterArray::new(
                KvStoreClient::new(kv_cluster_u64.client(0)),
                N_PROCS,
                0u64,
            )),
        ),
        (
            maxreg_rows(LocalAtomicArray::new(N_PROCS, 0u64)),
            maxreg_rows(KvRegisterArray::new(
                KvStoreClient::new(kv_cluster_u64b.client(0)),
                N_PROCS,
                0u64,
            )),
        ),
        (
            snapshot_rows(LocalAtomicArray::new(
                N_PROCS,
                Segment::initial(N_PROCS, 0u64),
            )),
            snapshot_rows(KvRegisterArray::new(
                KvStoreClient::new(kv_cluster_seg.client(0)),
                N_PROCS,
                Segment::initial(N_PROCS, 0u64),
            )),
        ),
    ] {
        for (substrate, rows) in [("local registers", &local), ("ABD emulation", &abd)] {
            for (op, ops_per, s) in rows {
                t.row(vec![
                    op.to_string(),
                    substrate.to_string(),
                    format!("{ops_per:.0}"),
                    us(s.mean),
                    us(s.p99),
                ]);
            }
        }
        // The portability claim: the algorithm is the same code on both
        // substrates, so it issues the same register operations.
        for ((op, local_ops, _), (_, abd_ops, _)) in local.iter().zip(&abd) {
            assert_eq!(
                local_ops, abd_ops,
                "{op}: register ops/op differ between the local and the ABD substrate"
            );
        }
    }

    t.print();
    println!(
        "\nShape checks: register ops per algorithm operation are identical on both\nsubstrates (asserted: the algorithms are untouched — the paper's portability claim);\nwall-clock cost scales by the emulation's round trips per register op.\nScan costs ~2n register reads (clean double collect), update ~scan + 2."
    );
}
