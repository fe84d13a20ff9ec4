//! Integration: the same protocols on real OS threads — concurrent
//! clients, wall-clock histories checked for linearizability, crash
//! tolerance, and the shared-memory algorithms running over the emulation.

use abd_core::context::ReadPathCounters;
use abd_core::msg::{RegisterOp, RegisterResp};
use abd_core::mwmr::{MwmrConfig, MwmrNode};
use abd_core::phase::{NodeEdges, PhaseEdges};
use abd_core::types::ProcessId;
use abd_repro::lincheck::{check_linearizable, CheckResult, History, RegAction};
use abd_repro::runtime::client::{spawn_kv_cluster, KvRegisterArray, KvStoreClient};
use abd_repro::runtime::cluster::{Cluster, HistoryRecorder, Jitter};
use abd_repro::shmem::counter::Counter;
use abd_repro::shmem::snapshot::{Segment, SnapshotObject};
use abd_repro::simnet::{Sim, SimConfig};
use std::sync::Arc;

fn mwmr_cluster(n: usize, jitter: Jitter) -> Cluster<MwmrNode<u64>> {
    Cluster::spawn(
        (0..n)
            .map(|i| MwmrNode::new(MwmrConfig::new(n, ProcessId(i)), 0u64))
            .collect(),
        jitter,
    )
}

#[test]
fn threaded_history_is_linearizable() {
    let n = 3;
    let cluster = Arc::new(mwmr_cluster(
        n,
        Jitter::Uniform {
            lo: 1_000,
            hi: 100_000,
        },
    ));
    let recorder: HistoryRecorder<RegAction<u64>> = HistoryRecorder::new();
    let mut joins = Vec::new();
    for t in 0..n {
        let client = cluster.client(t);
        let rec = recorder.clone();
        joins.push(std::thread::spawn(move || {
            for k in 0..40u64 {
                let v = ((t as u64 + 1) << 32) | k;
                let (resp, s, e) = client.invoke_timed(RegisterOp::Write(v));
                assert_eq!(resp, RegisterResp::WriteOk);
                rec.record(t, RegAction::Write(v), s, e);
                let (resp, s, e) = client.invoke_timed(RegisterOp::Read);
                let RegisterResp::ReadOk(got) = resp else {
                    panic!("bad read")
                };
                rec.record(t, RegAction::Read(got), s, e);
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let mut h = History::new(0u64);
    for (c, a, s, e) in recorder.take() {
        h.push(c, a, s, e);
    }
    assert_eq!(h.len(), 240);
    h.validate_sequential_clients()
        .expect("per-client sequentiality");
    assert_eq!(
        check_linearizable(&h),
        CheckResult::Linearizable,
        "real-thread history must be linearizable"
    );
}

#[test]
fn runtime_counts_a_script_as_the_simulator_does() {
    // A fault-free two-round MWMR script, one operation at a time: each
    // node's counters, read on its own thread, sum to the simulator's.
    let script = [
        (0, RegisterOp::Write(1)),
        (1, RegisterOp::Read),
        (2, RegisterOp::Write(2)),
        (0, RegisterOp::Read),
        (2, RegisterOp::Read),
    ];
    let cluster = mwmr_cluster(3, Jitter::None);
    let nodes = (0..3)
        .map(|i| MwmrNode::new(MwmrConfig::new(3, ProcessId(i)), 0u64))
        .collect();
    let mut sim = Sim::new(SimConfig::new(1), nodes);
    for (node, op) in script {
        let on_threads = cluster.client(node).invoke(op.clone());
        sim.invoke(ProcessId(node), op);
        assert!(sim.run_until_quiet(1_000_000_000));
        assert_eq!(Some(&on_threads), sim.completed().last().map(|r| &r.resp));
    }
    let (counters, edges): (Vec<ReadPathCounters>, Vec<NodeEdges>) =
        (0..3).map(|i| cluster.stats(i)).unzip();
    let counted = sim.read_path_metrics();
    assert_eq!(counters.into_iter().sum::<ReadPathCounters>(), counted);
    assert_eq!(counted.write_backs, 3, "every read wrote back");
    assert!(edges.iter().all(|e| e.engine != PhaseEdges::default()));
}

#[test]
fn kv_store_concurrent_sessions_agree() {
    let cluster = Arc::new(spawn_kv_cluster::<String, u64>(5, Jitter::None));
    let mut joins = Vec::new();
    for t in 0..5usize {
        let kv = KvStoreClient::new(cluster.client(t));
        joins.push(std::thread::spawn(move || {
            for i in 0..30u64 {
                kv.put(format!("k{}", i % 7), (t as u64) * 1000 + i);
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    // After quiescence, all nodes return the same value per key.
    let a = KvStoreClient::new(cluster.client(0));
    let b = KvStoreClient::new(cluster.client(4));
    for i in 0..7 {
        let key = format!("k{i}");
        assert_eq!(
            a.get(key.clone()),
            b.get(key.clone()),
            "nodes disagree on {key}"
        );
        assert!(a.get(key).is_some());
    }
}

#[test]
fn kv_survives_minority_crash_under_load() {
    let cluster = Arc::new(spawn_kv_cluster::<u64, u64>(5, Jitter::None));
    let kv = KvStoreClient::new(cluster.client(0));
    kv.put(1, 1);
    // Crash two replicas while writers are running.
    let c = Arc::clone(&cluster);
    let crasher = std::thread::spawn(move || {
        c.crash(3);
        c.crash(4);
    });
    for i in 0..200u64 {
        kv.put(i % 16, i);
    }
    crasher.join().unwrap();
    for i in 0..16u64 {
        assert!(kv.get(i).is_some(), "key {i} lost after crash");
    }
}

#[test]
fn snapshot_over_emulated_registers_never_tears() {
    let n_procs = 2;
    let cluster = Arc::new(spawn_kv_cluster::<u64, Segment<(u64, u64)>>(
        3,
        Jitter::None,
    ));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut joins = Vec::new();
    for p in 0..n_procs {
        let cluster = Arc::clone(&cluster);
        let stop = Arc::clone(&stop);
        joins.push(std::thread::spawn(move || {
            let regs = KvRegisterArray::new(
                KvStoreClient::new(cluster.client(p)),
                n_procs,
                Segment::initial(n_procs, (0, 0)),
            );
            let mut obj = SnapshotObject::new(p, regs);
            let mut v = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                v += 1;
                obj.update((v, v));
            }
        }));
    }
    let regs = KvRegisterArray::new(
        KvStoreClient::new(cluster.client(2)),
        n_procs,
        Segment::initial(n_procs, (0, 0)),
    );
    let mut scanner = SnapshotObject::new(0, regs);
    let mut last = vec![(0u64, 0u64); n_procs];
    for _ in 0..25 {
        let snap = scanner.scan();
        for (p, &(a, b)) in snap.iter().enumerate() {
            assert_eq!(a, b, "torn pair at segment {p}");
            assert!(a >= last[p].0, "segment {p} regressed");
        }
        last = snap;
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for j in joins {
        j.join().unwrap();
    }
}

#[test]
fn counter_over_emulated_registers_loses_nothing() {
    let n_procs = 4;
    let cluster = Arc::new(spawn_kv_cluster::<u64, u64>(3, Jitter::None));
    let mut joins = Vec::new();
    for p in 0..n_procs {
        let cluster = Arc::clone(&cluster);
        joins.push(std::thread::spawn(move || {
            let regs =
                KvRegisterArray::new(KvStoreClient::new(cluster.client(p % 3)), n_procs, 0u64);
            let mut c = Counter::new(p, regs);
            for _ in 0..25 {
                c.increment();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let regs = KvRegisterArray::new(KvStoreClient::new(cluster.client(0)), n_procs, 0u64);
    let mut c = Counter::new(0, regs);
    assert_eq!(c.value(), n_procs as u64 * 25);
}
