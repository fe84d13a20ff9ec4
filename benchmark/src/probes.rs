//! Per-layer micro-probes that need no workload: the channel stub the
//! runtime is built on, the runtime's own hops with trivial protocols, the
//! `Effects` buffer, the Merkle tree, and the checkers. Each reaches its
//! layer through public functions only.

use crate::fifo::kv_nodes;
use crate::ops::XorShift;
use crate::stats::{median_f64, process_cpu_ns, Report};
use abd_core::context::{Effects, Protocol, TimerKey};
use abd_core::merkle::MerkleTree;
use abd_core::types::{OpId, ProcessId, ReadMode, Tag};
use abd_lincheck::history::{History, RegAction};
use abd_lincheck::regularity::check_regular_swmr;
use abd_lincheck::sc::{check_sequential_with_limit, ScCheckResult};
use abd_lincheck::wg::{check_linearizable_with_limit, CheckResult};
use abd_runtime::cluster::{Cluster, Jitter};
use crossbeam::channel::{unbounded, Receiver, Sender};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median of `rounds` timings of `f`, each in nanoseconds per iteration.
fn median_ns_per_iter(rounds: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let per_round: Vec<f64> = (0..rounds)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median_f64(&per_round)
}

/// Spins for a random 0–250 µs. A closed loop that calls again the instant
/// its reply arrives always finds the other thread still awake, just back
/// from handling the last call, and never pays the wake-up being measured;
/// a real client arrives at any phase of the receiver's poll cycle. Spinning
/// (not sleeping) keeps this thread's timers from aligning with the
/// receiver's.
fn arrive_at_random_phase(rng: &mut XorShift) {
    let pause = Duration::from_nanos(rng.below(250_000));
    let t0 = Instant::now();
    while t0.elapsed() < pause {
        std::hint::spin_loop();
    }
}

// ---------------------------------------------------------------- crossbeam

/// A thread that answers every message on `rx` with one on `tx`, waiting
/// with whatever `wait` does; exits when `rx` disconnects.
fn responder(
    wait: fn(&Receiver<u64>, &Receiver<u64>) -> Option<u64>,
) -> (Sender<u64>, Receiver<u64>, std::thread::JoinHandle<()>) {
    let (to_tx, to_rx) = unbounded::<u64>();
    let (back_tx, back_rx) = unbounded::<u64>();
    let handle = std::thread::spawn(move || {
        // A second, silent channel: the runtime's node loop selects over
        // two receivers, and so does this probe.
        let (_idle_tx, idle_rx) = unbounded::<u64>();
        while let Some(v) = wait(&to_rx, &idle_rx) {
            if back_tx.send(v).is_err() {
                return;
            }
        }
    });
    (to_tx, back_rx, handle)
}

fn wait_recv(rx: &Receiver<u64>, _idle: &Receiver<u64>) -> Option<u64> {
    rx.recv().ok()
}

fn wait_select(rx: &Receiver<u64>, idle: &Receiver<u64>) -> Option<u64> {
    loop {
        crossbeam::channel::select! {
            recv(rx) -> m => return m.ok(),
            recv(idle) -> m => { let _ = m; },
            default(Duration::from_millis(50)) => {},
        }
    }
}

/// Median one-way wake-up through a responder thread: half the round trip
/// of a message there (waking the responder the probed way) and back (a
/// plain blocking `recv` here), minus nothing — the return leg is the
/// `recv` path in both probes, so their difference is the `select!` cost.
fn wake_us(wait: fn(&Receiver<u64>, &Receiver<u64>) -> Option<u64>, pings: usize) -> f64 {
    let (tx, rx, handle) = responder(wait);
    let mut rng = XorShift::new(pings as u64);
    let mut rtts: Vec<f64> = Vec::with_capacity(pings);
    for i in 0..pings as u64 + 50 {
        arrive_at_random_phase(&mut rng);
        let t0 = Instant::now();
        tx.send(i).expect("responder alive");
        let back = rx.recv().expect("responder alive");
        assert_eq!(back, i);
        if i >= 50 {
            rtts.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    drop(tx);
    handle.join().expect("responder panicked");
    median_f64(&rtts)
}

fn crossbeam_probes(out: &mut Report) {
    let (tx, rx) = unbounded::<u64>();
    let ns = median_ns_per_iter(7, 200_000, || {
        tx.send(black_box(1)).expect("receiver alive");
        black_box(rx.try_recv().expect("just sent"));
    });
    out.timing("crossbeam.channel.send_recv_ns", "ns", ns, 7 * 200_000);

    let recv_rtt = wake_us(wait_recv, 3_000);
    // Both legs block in `recv`: one wake-up is half the round trip.
    out.timing(
        "crossbeam.channel.recv_wake_us",
        "us",
        recv_rtt / 2.0,
        3_000,
    );
    let select_rtt = wake_us(wait_select, 3_000);
    // The return leg is a `recv` wake-up, measured just above.
    out.timing(
        "crossbeam.channel.select_wake_us",
        "us",
        select_rtt - recv_rtt / 2.0,
        3_000,
    );
}

// ------------------------------------------------------------------ runtime

/// Answers inside `on_invoke`: a client call costs the command hop and the
/// reply hop and nothing else.
struct Null(ProcessId);

impl Protocol for Null {
    type Msg = ();
    type Op = ();
    type Resp = ();
    fn id(&self) -> ProcessId {
        self.0
    }
    fn on_invoke(&mut self, op: OpId, _input: (), fx: &mut Effects<(), ()>) {
        fx.respond(op, ());
    }
    fn on_message(&mut self, _from: ProcessId, _msg: (), _fx: &mut Effects<(), ()>) {}
}

/// Node 0 pings node 1 and answers when the pong is back: the null call
/// plus two network hops.
struct Echo {
    me: ProcessId,
    waiting: Option<OpId>,
}

#[derive(Clone, Debug)]
enum EchoMsg {
    Ping,
    Pong,
}

impl Protocol for Echo {
    type Msg = EchoMsg;
    type Op = ();
    type Resp = ();
    fn id(&self) -> ProcessId {
        self.me
    }
    fn on_invoke(&mut self, op: OpId, _input: (), fx: &mut Effects<EchoMsg, ()>) {
        self.waiting = Some(op);
        fx.send(ProcessId(1), EchoMsg::Ping);
    }
    fn on_message(&mut self, from: ProcessId, msg: EchoMsg, fx: &mut Effects<EchoMsg, ()>) {
        match msg {
            EchoMsg::Ping => fx.send(from, EchoMsg::Pong),
            EchoMsg::Pong => {
                if let Some(op) = self.waiting.take() {
                    fx.respond(op, ());
                }
            }
        }
    }
}

/// Arms a timer on invoke and answers when it fires.
struct Alarm {
    me: ProcessId,
    waiting: Option<OpId>,
}

const ALARM_NS: u64 = 1_000_000;

impl Protocol for Alarm {
    type Msg = ();
    type Op = ();
    type Resp = ();
    fn id(&self) -> ProcessId {
        self.me
    }
    fn on_invoke(&mut self, op: OpId, _input: (), fx: &mut Effects<(), ()>) {
        self.waiting = Some(op);
        fx.set_timer(TimerKey(1), ALARM_NS);
    }
    fn on_message(&mut self, _from: ProcessId, _msg: (), _fx: &mut Effects<(), ()>) {}
    fn on_timer(&mut self, _key: TimerKey, fx: &mut Effects<(), ()>) {
        if let Some(op) = self.waiting.take() {
            fx.respond(op, ());
        }
    }
}

/// Median latency in µs of `calls` unit invocations on node 0, after 50
/// untimed ones.
fn call_us<P>(cluster: &Cluster<P>, calls: usize) -> f64
where
    P: Protocol<Op = (), Resp = ()> + Send + 'static,
{
    let client = cluster.client(0);
    let mut rng = XorShift::new(calls as u64);
    let mut lat = Vec::with_capacity(calls);
    for i in 0..calls + 50 {
        arrive_at_random_phase(&mut rng);
        let t0 = Instant::now();
        client.invoke(());
        if i >= 50 {
            lat.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    median_f64(&lat)
}

fn echo_cluster(jitter: Jitter) -> Cluster<Echo> {
    Cluster::spawn(
        (0..2)
            .map(|i| Echo {
                me: ProcessId(i),
                waiting: None,
            })
            .collect(),
        jitter,
    )
}

fn runtime_probes(out: &mut Report) {
    let null_us = call_us(
        &Cluster::spawn(vec![Null(ProcessId(0))], Jitter::None),
        2_000,
    );
    out.timing("runtime.cluster.invoke_null_us", "us", null_us, 2_000);
    let echo_us = call_us(&echo_cluster(Jitter::None), 2_000);
    out.timing("runtime.cluster.echo_rtt_us", "us", echo_us, 2_000);
    out.value(
        "runtime.cluster.net_hop_us",
        "us",
        (echo_us - null_us) / 2.0,
    );

    let alarm = Cluster::spawn(
        vec![Alarm {
            me: ProcessId(0),
            waiting: None,
        }],
        Jitter::None,
    );
    let fired_us = call_us(&alarm, 200);
    drop(alarm);
    out.timing(
        "runtime.cluster.timer_lag_us",
        "us",
        fired_us - ALARM_NS as f64 / 1e3 - null_us,
        200,
    );

    let spawns: Vec<f64> = (0..9)
        .map(|_| {
            let t0 = Instant::now();
            drop(Cluster::spawn(
                kv_nodes(5, 0, ReadMode::TwoRound),
                Jitter::None,
            ));
            t0.elapsed().as_nanos() as f64 / 1e6
        })
        .collect();
    out.timing(
        "runtime.cluster.spawn_ms",
        "ms",
        median_f64(&spawns),
        spawns.len(),
    );

    // What five idle node threads cost the two cores they share with the
    // clients: process CPU time per wall second, in percent of one core.
    let idle = Cluster::spawn(kv_nodes(5, 0, ReadMode::TwoRound), Jitter::None);
    std::thread::sleep(Duration::from_millis(50));
    let (cpu0, t0) = (process_cpu_ns(), Instant::now());
    std::thread::sleep(Duration::from_millis(500));
    let (cpu1, wall) = (process_cpu_ns(), t0.elapsed().as_nanos() as f64);
    drop(idle);
    out.value(
        "runtime.cluster.idle_cpu_pct",
        "%",
        (cpu1 - cpu0) as f64 / wall * 100.0,
    );

    const DELAY_NS: u64 = 200_000;
    let delayed_us = call_us(
        &echo_cluster(Jitter::Uniform {
            lo: DELAY_NS,
            hi: DELAY_NS,
        }),
        1_000,
    );
    out.timing(
        "runtime.delay.added_us",
        "us",
        delayed_us - 2.0 * DELAY_NS as f64 / 1e3 - echo_us,
        1_000,
    );
}

// --------------------------------------------------------------------- core

fn core_probes(out: &mut Report) {
    let ns = median_ns_per_iter(7, 200_000, || {
        let mut fx: Effects<u64, u64> = Effects::new();
        for to in 0..4 {
            fx.send(ProcessId(to), black_box(7));
        }
        for (to, m) in fx.sends.drain(..) {
            black_box((to, m));
        }
    });
    out.timing("core.context.effects_ns", "ns", ns, 7 * 200_000);

    let mut tree = MerkleTree::new(1024);
    let mut seq = 0u64;
    let ns = median_ns_per_iter(7, 200_000, || {
        seq += 1;
        let kh = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        tree.apply_delta(
            black_box(kh),
            Some(Tag::new(seq, ProcessId(0))),
            Some(Tag::new(seq + 1, ProcessId(1))),
        );
    });
    black_box(tree.root());
    out.timing("core.merkle.apply_delta_ns", "ns", ns, 7 * 200_000);
}

// ----------------------------------------------------------------- lincheck

/// A linearizable single-key history of `len` operations at five-client
/// concurrency: operation `i` takes effect at time `100 i`, client `i % 5`
/// issues it, and its interval reaches up to 240 either side — so about
/// five operations overlap at any instant while each client stays
/// sequential. Client 0 writes `i`; the others read the latest write.
pub fn synthetic_history(len: usize, seed: u64) -> History<u64> {
    let mut rng = XorShift::new(seed);
    let mut h = History::new(0u64);
    let mut current = 0u64;
    for i in 0..len as u64 {
        let at = 1_000 + 100 * i;
        let (start, end) = (at - rng.below(240), at + rng.below(240));
        let client = (i % 5) as usize;
        if client == 0 {
            current = i + 1;
            h.push(client, RegAction::Write(current), start, end);
        } else {
            h.push(client, RegAction::Read(current), start, end);
        }
    }
    h
}

fn lincheck_probes(seed: u64, out: &mut Report) {
    const LIMIT: usize = 50_000_000;
    for (name, len, histories) in [
        ("lincheck.wg.us_per_op_64", 64usize, 200u64),
        ("lincheck.wg.us_per_op_256", 256, 40),
        ("lincheck.wg.us_per_op_1024", 1024, 5),
    ] {
        let per_op: Vec<f64> = (0..histories)
            .map(|i| {
                let h = synthetic_history(len, seed ^ i);
                let t0 = Instant::now();
                let verdict = check_linearizable_with_limit(black_box(&h), LIMIT);
                let us = t0.elapsed().as_nanos() as f64 / 1e3;
                if verdict != CheckResult::Linearizable {
                    out.problem(format!(
                        "{name}: checker said {verdict:?} on a linearizable history"
                    ));
                }
                us / len as f64
            })
            .collect();
        out.timing(name, "us", median_f64(&per_op), per_op.len());
    }

    let per_op: Vec<f64> = (0..200u64)
        .map(|i| {
            let h = synthetic_history(64, seed ^ i);
            let t0 = Instant::now();
            let verdict = check_sequential_with_limit(black_box(&h), LIMIT);
            let us = t0.elapsed().as_nanos() as f64 / 1e3;
            if verdict != ScCheckResult::Sequential {
                out.problem(format!(
                    "lincheck.sc: checker said {verdict:?} on a linearizable history"
                ));
            }
            us / 64.0
        })
        .collect();
    out.timing(
        "lincheck.sc.us_per_op_64",
        "us",
        median_f64(&per_op),
        per_op.len(),
    );

    let per_op: Vec<f64> = (0..40u64)
        .map(|i| {
            let h = synthetic_history(1024, seed ^ i);
            let t0 = Instant::now();
            let anomalies = check_regular_swmr(black_box(&h));
            let us = t0.elapsed().as_nanos() as f64 / 1e3;
            if !anomalies.is_empty() {
                out.problem(format!(
                    "lincheck.regularity: {} anomalies on an atomic history",
                    anomalies.len()
                ));
            }
            us / 1024.0
        })
        .collect();
    out.timing(
        "lincheck.regularity.us_per_op_1024",
        "us",
        median_f64(&per_op),
        per_op.len(),
    );
}

/// Every workload-independent per-layer metric.
pub fn report(seed: u64, out: &mut Report) {
    crossbeam_probes(out);
    runtime_probes(out);
    crate::fifo::report(seed, out);
    core_probes(out);
    crate::simcamp::report_step_probes(seed, out);
    crate::simcamp::report_sync_counts(seed, out);
    lincheck_probes(seed, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_histories_are_linearizable_and_concurrent() {
        let h = synthetic_history(256, 9);
        assert_eq!(h.len(), 256);
        assert!(h.validate_sequential_clients().is_ok());
        assert_eq!(
            check_linearizable_with_limit(&h, 10_000_000),
            CheckResult::Linearizable
        );
        let overlapping = h.ops().windows(2).filter(|w| w[1].start < w[0].end).count();
        assert!(overlapping > 64, "only {overlapping} neighbours overlap");
    }

    #[test]
    fn trivial_protocols_answer_on_the_runtime() {
        assert!(call_us(&Cluster::spawn(vec![Null(ProcessId(0))], Jitter::None), 10) > 0.0);
        assert!(call_us(&echo_cluster(Jitter::None), 10) > 0.0);
    }
}
