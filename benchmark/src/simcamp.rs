//! The `sim-campaign` workload: what a developer running nemesis or search
//! campaigns pays. No threads, no channels — `KvNode`s inside `Sim`, scripts
//! through `harness::run_scripts`, then the per-key linearizability check.
//! Handlers and `Sim::step` do all the work here and the runtime none.

use crate::check::{check_per_key, KeyedOp, Tally};
use crate::fifo::kv_nodes;
use crate::ops::{preload_value, sub_seed, KvProtocol, OpStream, CLIENT_TAILS};
use crate::stats::{median_f64, percentile_sorted, Report};
use crate::traced::{self, ClientSpan, Traced};
use abd_core::types::{ProcessId, ReadMode};
use abd_kv::{KvNode, KvOp, KvResp};
use abd_simnet::harness::run_scripts;
use abd_simnet::sim::TapKind;
use abd_simnet::{LatencyModel, Sim, SimConfig};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

pub const NAME: &str = "sim-campaign";
pub const N: usize = 5;
const KEYS: u64 = 1024;
const SCRIPT_OPS: usize = 40_000;
const PUT_PCT: u64 = 20;
/// Link delay in virtual nanoseconds. Every latency this workload reports
/// is in this virtual time: it moves with the protocol's rounds and never
/// with the speed of the machine.
const LATENCY: LatencyModel = LatencyModel::Uniform {
    lo: 1_000,
    hi: 20_000,
};
/// Far beyond any campaign's virtual length; reaching it means a stall.
const DEADLINE: u64 = u64::MAX / 4;
/// Crash–recover cycles in the recovery epilogue of campaign 0, and the
/// degraded puts in each.
const EPILOGUE_CYCLES: usize = 15;
const EPILOGUE_PUTS: usize = 64;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;

type Scripts = Vec<Vec<KvOp<u64, u64>>>;

fn scripts(seed: u64) -> Scripts {
    (0..N)
        .map(|c| {
            OpStream::new(seed, c, KEYS, PUT_PCT)
                .take(SCRIPT_OPS)
                .collect()
        })
        .collect()
}

/// The campaign's nodes, every key preloaded.
fn nodes() -> Vec<KvNode<u64, u64>> {
    kv_nodes(N, KEYS, ReadMode::TwoRound)
}

/// One campaign's set-up: its scripts and a simulator over `nodes`.
fn set_up<P: KvProtocol>(seed: u64, nodes: Vec<P>) -> (Sim<P>, Scripts) {
    let cfg = SimConfig::new(seed).with_latency(LATENCY);
    (Sim::new(cfg, nodes), scripts(seed))
}

/// Events the simulator processed so far: every message that reached its
/// target's queue slot, every invocation, every timer that fired.
fn events<P: KvProtocol>(sim: &Sim<P>) -> u64 {
    let m = sim.metrics();
    m.delivered + m.dropped_crash + m.dropped_partition + m.ops_invoked + m.timer_fires
}

/// Runs the scripts and checks the campaign's outputs: every scripted op
/// completed, and every key's history prefix is linearizable.
fn run_and_check<P: KvProtocol>(
    sim: &mut Sim<P>,
    scripts: Scripts,
    tally: &mut Tally,
    out: &mut Report,
) -> u64 {
    let scripted: u64 = scripts.iter().map(|s| s.len() as u64).sum();
    let drained = run_scripts(sim, scripts, 0, 0, DEADLINE);
    let done = sim.metrics().ops_completed;
    out.attempted += scripted;
    out.failed += scripted - done.min(scripted);
    if !drained {
        out.problem(format!(
            "{NAME}: scripts did not drain ({done} of {scripted} ops)"
        ));
    }
    let ops: Vec<KeyedOp> = sim
        .completed()
        .iter()
        .filter_map(|r| {
            let (key, is_put, value) = match (&r.input, &r.resp) {
                (KvOp::Put(k, v), KvResp::PutOk) => (*k, true, *v),
                (KvOp::Get(k), KvResp::GetOk(Some(v))) => (*k, false, *v),
                _ => return None,
            };
            Some(KeyedOp {
                key,
                client: r.client.index(),
                is_put,
                value,
                start: r.invoked_at,
                end: r.completed_at,
            })
        })
        .collect();
    if ops.len() as u64 != done {
        out.failed += done - ops.len() as u64;
        out.problem(format!(
            "{NAME}: {} responses of the wrong shape",
            done - ops.len() as u64
        ));
    }
    check_per_key(NAME, &ops, preload_value, tally, out);
    done
}

/// Virtual-time latency percentile of one kind of operation, in µs.
fn virtual_us<P: KvProtocol>(sim: &Sim<P>, puts: bool, p: f64) -> (f64, usize) {
    let mut v: Vec<u64> = sim
        .completed()
        .iter()
        .filter(|r| matches!(r.input, KvOp::Put(..)) == puts)
        .map(|r| r.latency())
        .collect();
    v.sort_unstable();
    (percentile_sorted(&v, p) as f64 / 1e3, v.len())
}

/// One crash–recover cycle in a simulator: crash `victim` now, run `puts`
/// through node 0 while it is down, restart it, and read the last written
/// key through it. Returns the virtual nanoseconds from the restart to that
/// first served `Get`, or what went wrong.
fn recovery_cycle<P: KvProtocol>(
    sim: &mut Sim<P>,
    victim: ProcessId,
    puts: Vec<KvOp<u64, u64>>,
) -> Result<u64, String> {
    let Some(KvOp::Put(key, want)) = puts.last().cloned() else {
        unreachable!("a 100% put stream yields puts");
    };
    sim.crash_at(sim.now(), victim);
    if !run_scripts(sim, vec![puts], 0, 0, DEADLINE) {
        return Err("degraded puts did not complete".into());
    }
    let restarted = sim.now();
    sim.restart_at(restarted, victim);
    sim.invoke_at(restarted, victim, KvOp::Get(key));
    sim.run_until_ops_complete(DEADLINE);
    match sim.completed().last() {
        Some(served) if served.client == victim && served.resp == KvResp::GetOk(Some(want)) => {
            Ok(served.completed_at - restarted)
        }
        other => Err(format!(
            "restarted node served {:?}, want the acknowledged {want}",
            other.map(|r| &r.resp)
        )),
    }
}

/// The recovery epilogue: the median over [`EPILOGUE_CYCLES`] crash–recover
/// cycles of the last node, in virtual nanoseconds.
fn recovery_epilogue<P: KvProtocol>(sim: &mut Sim<P>, seed: u64, out: &mut Report) -> f64 {
    let mut stream = OpStream::new(seed, N, KEYS, 100);
    let mut recoveries = Vec::new();
    for _ in 0..EPILOGUE_CYCLES {
        let puts = stream.by_ref().take(EPILOGUE_PUTS).collect();
        match recovery_cycle(sim, ProcessId(N - 1), puts) {
            Ok(ns) => recoveries.push(ns as f64),
            Err(what) => out.problem(format!("{NAME}: {what}")),
        }
    }
    if recoveries.is_empty() {
        return 0.0;
    }
    median_f64(&recoveries)
}

/// Campaign 0 with the recovery epilogue, whose virtual-time figures are
/// the workload's latency metrics: they depend on the seed alone, not on
/// how many campaigns the window had time for.
struct Zero {
    digest: u64,
    /// `(µs, samples)` of the median get and the median put.
    latency_us: [(f64, usize); 2],
    recovery_ns: f64,
}

fn campaign_zero(seed: u64, tally: &mut Tally, out: &mut Report) -> Zero {
    let (mut sim, scripts) = set_up(sub_seed(seed, 0), nodes());
    run_and_check(&mut sim, scripts, tally, out);
    let latency_us = [false, true].map(|puts| virtual_us(&sim, puts, 50.0));
    let recovery_ns = recovery_epilogue(&mut sim, seed, out);
    Zero {
        digest: sim.trace_digest(),
        latency_us,
        recovery_ns,
    }
}

/// The timed run (`--trace 0`).
pub fn run(seed: u64, window: Duration, out: &mut Report) {
    let mut tally = Tally::default();
    // Twice: the same seed must give the same execution.
    let zero = campaign_zero(seed, &mut tally, out);
    let replay = campaign_zero(seed, &mut tally, out);
    if zero.digest != replay.digest {
        out.problem(format!(
            "{NAME}: campaign 0 replayed with digest {:#x}, first run had {:#x}",
            replay.digest, zero.digest
        ));
    }
    for (name, (v, n)) in ["get_p50_us", "put_p50_us"]
        .into_iter()
        .zip(zero.latency_us)
    {
        out.timing(name, "us", v, n);
    }
    out.timing("recovery_ms", "ms", zero.recovery_ns / 1e6, EPILOGUE_CYCLES);

    let mut setups = Vec::new();
    for i in 0..SETUPS {
        let t0 = Instant::now();
        std::hint::black_box(set_up(sub_seed(seed, i as u64), nodes()));
        setups.push(t0.elapsed().as_secs_f64());
    }

    let mut rates = Vec::new();
    let begun = Instant::now();
    let mut campaign = 1u64;
    while begun.elapsed() < window {
        let t0 = Instant::now();
        let (mut sim, scripts) = set_up(sub_seed(seed, campaign), nodes());
        let done = run_and_check(&mut sim, scripts, &mut tally, out);
        rates.push(done as f64 / t0.elapsed().as_secs_f64());
        campaign += 1;
    }
    out.timing("ops_per_s", "1/s", median_f64(&rates), rates.len());
    out.value("peak_rss_mb", "MiB", crate::stats::peak_rss_mb());
    out.timing("setup_s", "s", median_f64(&setups), setups.len());
    tally.note(NAME, out);
}

/// Wall time of `run_scripts` alone on a fresh campaign, with its counters.
struct Stepped {
    wall_ns: f64,
    events: u64,
    sent: u64,
    ops: u64,
}

fn step_cost<P: KvProtocol>(sim: &mut Sim<P>, scripts: Scripts) -> Stepped {
    let t0 = Instant::now();
    let drained = run_scripts(sim, scripts, 0, 0, DEADLINE);
    let wall_ns = t0.elapsed().as_nanos() as f64;
    assert!(drained, "a fault-free campaign always drains");
    Stepped {
        wall_ns,
        events: events(sim),
        sent: sim.metrics().sent,
        ops: sim.metrics().ops_completed,
    }
}

/// The traced run (`--trace 1`): one plain and one traced campaign of the
/// same seed.
pub fn run_traced(seed: u64, trace_file: &std::path::Path, out: &mut Report) {
    let seed0 = sub_seed(seed, 0);
    let mut tally = Tally::default();
    let (mut sim, scripts) = set_up(seed0, nodes());
    let t0 = Instant::now();
    let done = run_and_check(&mut sim, scripts, &mut tally, out);
    let plain_rate = done as f64 / t0.elapsed().as_secs_f64();
    for (name, puts, p) in CLIENT_TAILS {
        let (v, n) = virtual_us(&sim, puts, p);
        out.timing(name, "us", v, n);
    }
    drop(sim);

    let epoch = Instant::now();
    let (wrapped, sink) = Traced::wrap_all(nodes(), epoch);
    let (mut sim, scripts) = set_up(seed0, wrapped);
    // The simulator's tap stands in for the client: it sees each invocation
    // just before `on_invoke` and each completion just after the handler
    // that answered, on the same wall clock as the spans.
    let clients: Rc<RefCell<Vec<ClientSpan>>> = Rc::default();
    let open: Rc<RefCell<std::collections::HashMap<u64, usize>>> = Rc::default();
    {
        let (clients, open) = (Rc::clone(&clients), Rc::clone(&open));
        sim.set_tap(Box::new(move |ev| {
            let now = epoch.elapsed().as_nanos() as u64;
            match ev.kind {
                TapKind::Invoke { op, input } => {
                    let mut c = clients.borrow_mut();
                    open.borrow_mut().insert(op.0, c.len());
                    c.push(ClientSpan {
                        node: ev.target.index(),
                        start: now,
                        end: now,
                        is_put: matches!(input, KvOp::Put(..)),
                    });
                }
                TapKind::Complete { op } => {
                    if let Some(i) = open.borrow_mut().remove(&op.0) {
                        clients.borrow_mut()[i].end = now;
                    }
                }
                _ => {}
            }
        }));
    }
    let t0 = Instant::now();
    let done = run_and_check(&mut sim, scripts, &mut tally, out);
    tally.note(NAME, out);
    let traced_rate = done as f64 / t0.elapsed().as_secs_f64();
    drop(sim); // hands the nodes' spans to the sink
    let spans = traced::take_spans(&sink, N);
    let clients = clients.take();
    let summary = traced::analyze(&spans, &clients);
    if let Err(e) = traced::write_jsonl(trace_file, &spans, &clients) {
        out.problem(format!("could not write {}: {e}", trace_file.display()));
    }
    traced::report(NAME, &summary, traced_rate / plain_rate, out);
}

/// A small campaign: a tenth of the workload's script length.
fn small_campaign<P: KvProtocol>(seed: u64, nodes: Vec<P>) -> (Sim<P>, Scripts) {
    let (sim, mut scripts) = set_up(seed, nodes);
    for s in &mut scripts {
        s.truncate(SCRIPT_OPS / 10);
    }
    (sim, scripts)
}

/// The `simnet.sim.*` probes: stepping cost and exact per-op counts, from
/// small campaigns of one seed.
pub fn report_step_probes(seed: u64, out: &mut Report) {
    let seed = sub_seed(seed, 0);
    let mut per_event = |name: &'static str, s: &Stepped| {
        out.timing(name, "ns", s.wall_ns / s.events as f64, s.events as usize);
    };

    let (mut sim, scripts) = small_campaign(seed, nodes());
    let plain = step_cost(&mut sim, scripts);
    per_event("simnet.sim.step_ns", &plain);

    let (mut sim, scripts) = small_campaign(seed, nodes());
    sim.set_tap(Box::new(|ev| {
        std::hint::black_box(&ev);
    }));
    per_event("simnet.sim.step_tap_ns", &step_cost(&mut sim, scripts));

    let (mut sim, scripts) = small_campaign(seed, nodes());
    sim.set_trace(true, 1024);
    per_event("simnet.sim.step_trace_ns", &step_cost(&mut sim, scripts));

    // The simulator's own share of a step: the untraced campaign's time
    // minus the time a traced replay (same seed, same execution) spent
    // inside handlers. The wrapper's own overhead stays out of it.
    let (wrapped, sink) = Traced::wrap_all(nodes(), Instant::now());
    let (mut sim, scripts) = small_campaign(seed, wrapped);
    step_cost(&mut sim, scripts);
    drop(sim); // hands the nodes' spans to the sink
    let handler_ns: u64 = traced::take_spans(&sink, N)
        .iter()
        .flatten()
        .map(|s| s.end - s.start)
        .sum();
    out.timing(
        "simnet.sim.step_self_ns",
        "ns",
        (plain.wall_ns - handler_ns as f64) / plain.events as f64,
        plain.events as usize,
    );

    out.exact(
        "simnet.sim.events_per_op",
        plain.events as f64 / plain.ops as f64,
    );
    out.exact(
        "simnet.sim.msgs_per_op",
        plain.sent as f64 / plain.ops as f64,
    );
}

/// `simnet.sync.*`: the sync traffic of one crash–recover cycle of the
/// `kv-crash-recover` shape, replayed in the simulator where it can be
/// counted exactly.
pub fn report_sync_counts(seed: u64, out: &mut Report) {
    let shape = crate::kv::CRASH_RECOVER;
    let puts = shape.cycle_ops.expect("the crash-recover shape cycles");
    let nodes = kv_nodes(shape.n, shape.keys, ReadMode::TwoRound);
    let mut sim = Sim::new(SimConfig::new(seed).with_latency(LATENCY), nodes);
    let script = OpStream::new(seed, 0, shape.keys, 100).take(puts).collect();
    if let Err(what) = recovery_cycle(&mut sim, ProcessId(shape.n - 1), script) {
        out.problem(format!("simnet.sync: {what}"));
    }
    // The walk may still be repairing after the first read was served.
    sim.run_until_quiet(DEADLINE);
    let m = sim.read_path_metrics();
    out.exact("simnet.sync.recovery_msgs", m.recovery_msgs as f64);
    out.exact("simnet.sync.recovery_bytes", m.recovery_bytes as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn short_scripts(seed: u64) -> Scripts {
        let mut s = scripts(seed);
        for script in &mut s {
            script.truncate(300);
        }
        s
    }

    #[test]
    fn traced_nodes_answer_exactly_like_bare_nodes() {
        let (mut bare, _) = set_up(11, nodes());
        assert!(run_scripts(&mut bare, short_scripts(11), 0, 0, DEADLINE));

        let (wrapped, sink) = Traced::wrap_all(nodes(), Instant::now());
        let (mut traced, _) = set_up(11, wrapped);
        assert!(run_scripts(&mut traced, short_scripts(11), 0, 0, DEADLINE));

        let answers = |done: &[abd_simnet::OpRecord<KvOp<u64, u64>, KvResp<u64>>]| {
            done.iter()
                .map(|r| (r.op, r.client, r.resp.clone(), r.invoked_at, r.completed_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(answers(bare.completed()), answers(traced.completed()));
        assert_eq!(bare.trace_digest(), traced.trace_digest());

        // One root per operation: every op has exactly one invoke span, and
        // every rooted span names an op that was invoked.
        let ops = traced.completed().len();
        drop(traced);
        let spans = traced::take_spans(&sink, N);
        let invokes: Vec<u64> = spans
            .iter()
            .flatten()
            .filter(|s| s.kind == traced::SpanKind::Invoke)
            .map(|s| s.root)
            .collect();
        let mut unique = invokes.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(invokes.len(), ops);
        assert_eq!(unique.len(), ops);
        for s in spans.iter().flatten() {
            if s.root != traced::NONE {
                assert!(unique.binary_search(&s.root).is_ok());
            }
            if s.kind == traced::SpanKind::Message {
                assert_ne!(s.parent, traced::NONE, "a message has a sender span");
            }
        }
        let answered = spans
            .iter()
            .flatten()
            .filter(|s| s.responded.is_some())
            .count();
        assert_eq!(answered, ops, "each op is answered by exactly one span");
    }

    #[test]
    fn a_tiny_window_reports_and_checks_clean() {
        let mut out = Report::default();
        run(5, Duration::from_millis(1), &mut out);
        assert!(out.correct(), "{:?}", out.problems);
        assert_eq!(out.failed, 0);
        assert!(out.get("get_p50_us").unwrap() > 0.0);
        assert!(out.get("recovery_ms").unwrap() > 0.0);
    }
}
