//! The three `kv-*` workloads: closed-loop clients against a `KvNode`
//! cluster hosted by `abd-runtime` on real threads, timed by the wall clock.

use crate::check::{check_per_key, KeyedOp, Tally};
use crate::fifo::kv_nodes;
use crate::ops::{preload_value, stream_hash, KvProtocol, OpStream, CLIENT_TAILS};
use crate::stats::{
    highest_supported_percentile, median_f64, percentile_sorted, sliced_percentile, Report,
};
use crate::traced::{self, ClientSpan, Traced};
use abd_core::types::ReadMode;
use abd_kv::{KvNode, KvOp, KvResp};
use abd_runtime::cluster::{Client, Cluster, Jitter};
use std::time::{Duration, Instant};

/// What distinguishes one `kv-*` workload from another.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    pub name: &'static str,
    pub n: usize,
    pub jitter: Jitter,
    /// Closed-loop clients; client `c` is bound to node `c`.
    pub clients: usize,
    pub put_pct: u64,
    /// Key space, all of it preloaded on every node before `Cluster::spawn`.
    pub keys: u64,
    /// `Some(ops)`: the crash–recover schedule runs *inside* the window, one
    /// driver issuing `ops` degraded puts and `ops` healthy gets per cycle.
    /// `None`: a few crash–recover cycles run *after* the window, so the
    /// workload still says what recovery costs at its store size and delay.
    pub cycle_ops: Option<usize>,
}

pub const READ_HEAVY: Shape = Shape {
    name: "kv-read-heavy",
    n: 3,
    jitter: Jitter::None,
    // One client: with two, the five threads oversubscribe the two cores and
    // every latency moved twice as much from run to run. Contention is
    // `kv-write-contended`'s subject; this workload's is the cost of a hop.
    clients: 1,
    put_pct: 5,
    keys: 4096,
    cycle_ops: None,
};

pub const WRITE_CONTENDED: Shape = Shape {
    name: "kv-write-contended",
    n: 5,
    // A constant 200 µs per link through `runtime::delay`: a random delay
    // made p99 wander from run to run, a constant one does not.
    jitter: Jitter::Uniform {
        lo: 200_000,
        hi: 200_000,
    },
    clients: 2,
    put_pct: 50,
    keys: 8,
    cycle_ops: None,
};

pub const CRASH_RECOVER: Shape = Shape {
    name: "kv-crash-recover",
    n: 3,
    jitter: Jitter::None,
    clients: 1,
    put_pct: 50,
    // Above `sync_threshold`, so recovery runs the Merkle walk.
    keys: 20_000,
    cycle_ops: Some(256),
};

/// Untimed operations each client issues before the window opens. Fixed
/// work, not fixed time, so set-up time moves when the system gets slower.
const WARMUP_OPS: usize = 200;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Crash–recover cycles after the window on workloads without `cycle_ops`,
/// and the degraded puts in each.
const POST_CYCLES: usize = 40;
const POST_CYCLE_PUTS: usize = 32;
/// No operation of these workloads should take anywhere near this long; one
/// that does is counted as failed.
const OP_TIMEOUT: Duration = Duration::from_secs(5);
/// Shortest latency slice, and the fewest samples a slice should hold.
const MIN_SLICE_NS: u64 = 1_000_000_000;
const SLICE_SAMPLES: usize = 200;
/// Operations per client kept whole for the linearizability check (the
/// head of the session, warm-up included).
const CHECKED_OPS: usize = 8_192;
/// Latency samples per second of window a client's log has room for before
/// it must grow — almost three times what any client reaches today.
const SAMPLE_ROOM_PER_S: usize = 8_000;
/// Set in a sample's latency word when the operation was a put.
const PUT_BIT: u32 = 1 << 31;

/// One client operation as the generator saw it.
#[derive(Clone, Copy, Debug)]
struct Rec {
    node: usize,
    /// Nanoseconds since the run's epoch.
    start: u64,
    end: u64,
    key: u64,
    /// Value written, or value read (`None`: absent key or failed op).
    value: Option<u64>,
    is_put: bool,
    ok: bool,
}

/// What one client keeps of the operations it issued. Its memory does not
/// depend on how fast the system is: `peak_rss_mb` is an end-to-end metric,
/// and a log that grew with throughput would report every speed-up as a
/// memory regression. So the whole record is kept for the first
/// [`CHECKED_OPS`] only, and of the rest eight bytes each, in buffers
/// sized and touched before the window opens.
struct Log {
    checked: Vec<Rec>,
    /// Every operation's client span; kept only in traced runs, where
    /// memory is not measured.
    spans: Option<Vec<ClientSpan>>,
    /// Bounds of the timed window, nanoseconds since the epoch, once open.
    window: Option<(u64, u64)>,
    /// `[end offset into the window in µs, latency in ns | PUT_BIT]` of the
    /// successful operations that ran inside the window.
    samples: Vec<[u32; 2]>,
    /// Operations started at or after the window opened, and how many of
    /// them failed.
    attempted: u64,
    failed: u64,
}

impl Log {
    fn new(tracing: bool) -> Self {
        let mut checked = Vec::new();
        checked.reserve_exact(CHECKED_OPS);
        Log {
            checked,
            spans: tracing.then(Vec::new),
            window: None,
            samples: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn open_window(&mut self, from: u64, to: u64) {
        self.window = Some((from, to));
        let room = ((to - from) / 1_000_000_000 + 1) as usize * SAMPLE_ROOM_PER_S;
        // A non-zero fill: zeroed pages would stay untouched until used.
        self.samples = vec![[1; 2]; room];
        self.samples.clear();
    }

    fn push(&mut self, rec: Rec) {
        if self.checked.len() < CHECKED_OPS {
            self.checked.push(rec);
        }
        if let Some(spans) = &mut self.spans {
            spans.push(ClientSpan {
                node: rec.node,
                start: rec.start,
                end: rec.end,
                is_put: rec.is_put,
            });
        }
        let Some((from, to)) = self.window else {
            return;
        };
        if rec.start < from {
            return;
        }
        self.attempted += 1;
        if !rec.ok {
            self.failed += 1;
        } else if rec.end <= to {
            // Latencies stay below the 5 s timeout, so bit 31 is free.
            let latency = (rec.end - rec.start).min(u64::from(PUT_BIT - 1)) as u32;
            let kind = if rec.is_put { PUT_BIT } else { 0 };
            self.samples
                .push([((rec.end - from) / 1_000) as u32, latency | kind]);
        }
    }
}

fn invoke<P: KvProtocol>(client: &Client<P>, op: KvOp<u64, u64>, epoch: Instant) -> Rec {
    let (key, put_value) = match &op {
        KvOp::Get(k) | KvOp::GetAt(k, _) => (*k, None),
        KvOp::Put(k, v) => (*k, Some(*v)),
    };
    let start = epoch.elapsed().as_nanos() as u64;
    let resp = client.try_invoke_for(op, OP_TIMEOUT);
    let end = epoch.elapsed().as_nanos() as u64;
    let (value, ok) = match (put_value, resp) {
        (Some(v), Some(KvResp::PutOk)) => (Some(v), true),
        (None, Some(KvResp::GetOk(v))) => (v, v.is_some()),
        _ => (put_value, false),
    };
    Rec {
        node: client.node().index(),
        start,
        end,
        key,
        value,
        is_put: put_value.is_some(),
        ok,
    }
}

/// One crash–recover cycle on the cluster's last node: crash it, write
/// `puts` keys through node 0 while it is down, restart it, and time
/// `restart` → its first served `Get`. The key read is the last one
/// written, so the answer shows whether the node caught up before serving.
/// Returns the recovery time in nanoseconds, or what the node got wrong.
fn recovery_cycle<P: KvProtocol>(
    cluster: &Cluster<P>,
    stream: &mut OpStream,
    puts: usize,
    epoch: Instant,
    log: &mut Log,
) -> Result<f64, String> {
    let victim = cluster.n() - 1;
    let c0 = cluster.client(0);
    cluster.crash(victim);
    let mut last = None;
    for _ in 0..puts {
        let (key, value) = (stream.next_key(), stream.next_value());
        let rec = invoke(&c0, KvOp::Put(key, value), epoch);
        if rec.ok {
            last = Some((key, value));
        }
        log.push(rec);
    }
    let (key, want) = last.unwrap_or((0, preload_value(0)));
    let restarted = Instant::now();
    cluster.restart(victim);
    let rec = invoke(&cluster.client(victim), KvOp::Get(key), epoch);
    let recovery_ns = restarted.elapsed().as_nanos() as f64;
    log.push(rec);
    if rec.ok && rec.value != Some(want) {
        return Err(format!(
            "restarted node {victim} served key {key} = {:?}, older than the acknowledged {want}",
            rec.value
        ));
    }
    Ok(recovery_ns)
}

/// A spawned, warmed-up cluster with its clients' op streams and logs.
struct Session<P: KvProtocol> {
    cluster: Cluster<P>,
    streams: Vec<OpStream>,
    logs: Vec<Log>,
}

/// One set-up: spawn the cluster over preloaded nodes and warm it up.
fn set_up<P: KvProtocol>(
    nodes: Vec<P>,
    shape: &Shape,
    seed: u64,
    epoch: Instant,
    tracing: bool,
) -> Session<P> {
    let cluster = Cluster::spawn(nodes, shape.jitter);
    let mut streams: Vec<OpStream> = (0..shape.clients)
        .map(|c| OpStream::new(seed, c, shape.keys, shape.put_pct))
        .collect();
    let mut logs: Vec<Log> = (0..shape.clients).map(|_| Log::new(tracing)).collect();
    for (c, (stream, log)) in streams.iter_mut().zip(&mut logs).enumerate() {
        let client = cluster.client(c);
        for op in stream.by_ref().take(WARMUP_OPS) {
            log.push(invoke(&client, op, epoch));
        }
    }
    Session {
        cluster,
        streams,
        logs,
    }
}

/// What one measured window produced, beside the session's logs.
struct Window {
    /// Length in nanoseconds.
    len: u64,
    recovery_ns: Vec<f64>,
    stale: Vec<String>,
}

impl Window {
    fn recovered(&mut self, cycle: Result<f64, String>) {
        match cycle {
            Ok(ns) => self.recovery_ns.push(ns),
            Err(what) => self.stale.push(what),
        }
    }
}

/// Runs the shape's load on a warmed-up session for `window`.
fn drive<P: KvProtocol>(
    session: &mut Session<P>,
    shape: &Shape,
    window: Duration,
    epoch: Instant,
) -> Window {
    let Session {
        cluster,
        streams,
        logs,
    } = session;
    let len = window.as_nanos() as u64;
    let from = epoch.elapsed().as_nanos() as u64;
    let to = from + len;
    for log in logs.iter_mut() {
        log.open_window(from, to);
    }
    let open = move || (epoch.elapsed().as_nanos() as u64) < to;
    let mut w = Window {
        len,
        recovery_ns: Vec::new(),
        stale: Vec::new(),
    };

    if let Some(ops) = shape.cycle_ops {
        let (stream, log) = (&mut streams[0], &mut logs[0]);
        let c0 = cluster.client(0);
        while open() {
            w.recovered(recovery_cycle(cluster, stream, ops, epoch, log));
            for _ in 0..ops {
                let key = stream.next_key();
                log.push(invoke(&c0, KvOp::Get(key), epoch));
            }
        }
    } else {
        std::thread::scope(|s| {
            for (c, (stream, log)) in streams.iter_mut().zip(logs.iter_mut()).enumerate() {
                let client = cluster.client(c);
                s.spawn(move || {
                    while open() {
                        let op = stream.next().expect("op streams are endless");
                        log.push(invoke(&client, op, epoch));
                    }
                });
            }
        });
    }
    w
}

fn nodes_of(shape: &Shape) -> Vec<KvNode<u64, u64>> {
    kv_nodes(shape.n, shape.keys, ReadMode::TwoRound)
}

/// The window's latency samples of one kind from every client, as
/// `(end offset, latency)` in nanoseconds.
fn latencies(logs: &[Log], puts: bool) -> Vec<(u64, u64)> {
    logs.iter()
        .flat_map(|l| &l.samples)
        .filter(|[_, word]| (word & PUT_BIT != 0) == puts)
        .map(|[at_us, word]| (u64::from(*at_us) * 1_000, u64::from(word & !PUT_BIT)))
        .collect()
}

/// Completed operations per second: the median over one-second slices of
/// the window of the completions in each. A stall of the sandbox (a vCPU
/// descheduled for some milliseconds) lowers the slices it hits, not the
/// median; the whole-window mean moved twice as much from run to run.
fn ops_per_s(logs: &[Log], w: &Window) -> f64 {
    let slices = (w.len / MIN_SLICE_NS).max(1);
    let width = w.len / slices;
    let mut done = vec![0u64; slices as usize];
    for (at, _) in latencies(logs, false)
        .into_iter()
        .chain(latencies(logs, true))
    {
        if let Some(slot) = done.get_mut((at / width) as usize) {
            *slot += 1;
        }
    }
    let rates: Vec<f64> = done
        .iter()
        .map(|d| *d as f64 / (width as f64 / 1e9))
        .collect();
    median_f64(&rates)
}

/// Tallies attempts and failures and runs the output checks on a window.
fn check_window(shape: &Shape, logs: &[Log], w: &Window, out: &mut Report) {
    out.attempted += logs.iter().map(|l| l.attempted).sum::<u64>();
    out.failed += logs.iter().map(|l| l.failed).sum::<u64>();
    for s in &w.stale {
        out.problem(s.clone());
    }
    let ops: Vec<KeyedOp> = logs
        .iter()
        .flat_map(|l| &l.checked)
        .filter(|r| r.ok)
        .map(|r| KeyedOp {
            key: r.key,
            client: r.node,
            is_put: r.is_put,
            value: r.value.unwrap_or(u64::MAX),
            start: r.start,
            end: r.end,
        })
        .collect();
    let mut tally = Tally::default();
    check_per_key(shape.name, &ops, preload_value, &mut tally, out);
    tally.note(shape.name, out);
}

/// The timed run (`--trace 0`): every end-to-end metric of one workload.
pub fn run(shape: &Shape, seed: u64, window: Duration, out: &mut Report) {
    let epoch = Instant::now();
    // Set up several times and keep the last session: one set-up is a few
    // hundred milliseconds of thread spawning and warm-up, too short to
    // repeat well alone.
    let mut setups = Vec::new();
    let mut session = None;
    for _ in 0..SETUPS {
        drop(session.take());
        let t0 = Instant::now();
        session = Some(set_up(nodes_of(shape), shape, seed, epoch, false));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut session = session.expect("at least one set-up");

    let mut w = drive(&mut session, shape, window, epoch);
    if shape.cycle_ops.is_none() {
        let mut stream = OpStream::new(seed, shape.clients, shape.keys, 100);
        for _ in 0..POST_CYCLES {
            w.recovered(recovery_cycle(
                &session.cluster,
                &mut stream,
                POST_CYCLE_PUTS,
                epoch,
                &mut session.logs[0],
            ));
        }
    }
    let logs = session.logs;
    drop(session.cluster);

    out.value("ops_per_s", "1/s", ops_per_s(&logs, &w));
    for (name, puts) in [("get_p50_us", false), ("put_p50_us", true)] {
        let samples = latencies(&logs, puts);
        let ns = sliced_percentile(&samples, w.len, MIN_SLICE_NS, SLICE_SAMPLES, 50.0);
        out.timing(name, "us", ns / 1e3, samples.len());
    }
    out.timing(
        "recovery_ms",
        "ms",
        median_f64(&w.recovery_ns) / 1e6,
        w.recovery_ns.len(),
    );
    out.value("peak_rss_mb", "MiB", crate::stats::peak_rss_mb());
    out.timing("setup_s", "s", median_f64(&setups), setups.len());
    out.note(format!(
        "{}: seed {seed} gives client 0 the op stream {:#018x} (FNV-1a of its first 1000 ops)",
        shape.name,
        stream_hash(OpStream::new(seed, 0, shape.keys, shape.put_pct), 1000)
    ));
    check_window(shape, &logs, &w, out);
}

/// The traced run (`--trace 1`): an untraced and a traced window of the
/// same length on fresh clusters, the `trace.*` metrics from the second,
/// the un-gated tail from the first, and the trace file.
pub fn run_traced(
    shape: &Shape,
    seed: u64,
    window: Duration,
    trace_file: &std::path::Path,
    out: &mut Report,
) {
    let epoch = Instant::now();
    let mut plain = set_up(nodes_of(shape), shape, seed, epoch, false);
    let plain_w = drive(&mut plain, shape, window, epoch);
    drop(plain.cluster);
    check_window(shape, &plain.logs, &plain_w, out);

    let (nodes, sink) = Traced::wrap_all(nodes_of(shape), epoch);
    let mut traced = set_up(nodes, shape, seed, epoch, true);
    let traced_w = drive(&mut traced, shape, window, epoch);
    // Dropping the cluster joins the node threads, which hands their spans
    // to the sink.
    drop(traced.cluster);
    check_window(shape, &traced.logs, &traced_w, out);
    let spans = traced::take_spans(&sink, shape.n);
    let clients: Vec<ClientSpan> = traced
        .logs
        .iter()
        .flat_map(|l| l.spans.iter().flatten().copied())
        .collect();
    let summary = traced::analyze(&spans, &clients);
    if let Err(e) = traced::write_jsonl(trace_file, &spans, &clients) {
        out.problem(format!("could not write {}: {e}", trace_file.display()));
    }

    // The tail of the untraced window, as far out as the sample supports.
    for (name, puts, want) in CLIENT_TAILS {
        let mut v: Vec<u64> = latencies(&plain.logs, puts)
            .into_iter()
            .map(|(_, ns)| ns)
            .collect();
        v.sort_unstable();
        let p = highest_supported_percentile(v.len())
            .unwrap_or(50.0)
            .min(want);
        out.timing(name, "us", percentile_sorted(&v, p) as f64 / 1e3, v.len());
        if p < want {
            out.note(format!(
                "{name}: {} samples keep ten beyond p{p} only, reported at p{p}",
                v.len()
            ));
        }
    }
    let overhead = ops_per_s(&traced.logs, &traced_w) / ops_per_s(&plain.logs, &plain_w);
    traced::report(shape.name, &summary, overhead, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_window_completes_and_checks_clean() {
        let mut out = Report::default();
        run(&READ_HEAVY, 3, Duration::from_millis(300), &mut out);
        assert!(out.correct(), "{:?}", out.problems);
        assert_eq!(out.failed, 0);
        assert!(out.get("ops_per_s").unwrap() > 0.0);
        assert!(out.get("recovery_ms").unwrap() > 0.0);
    }

    #[test]
    fn crash_recover_cycles_inside_the_window() {
        let mut out = Report::default();
        run(&CRASH_RECOVER, 3, Duration::from_millis(300), &mut out);
        assert!(out.correct(), "{:?}", out.problems);
        assert_eq!(out.failed, 0);
        assert!(out.get("put_p50_us").unwrap() > 0.0);
    }
}
