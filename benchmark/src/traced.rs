//! `Traced<P>`: a protocol wrapper (same shape as `abd_core::Batched`) that
//! records one span per handler call and threads causality through the
//! wire, plus the analysis that turns the spans of a run into the `trace.*`
//! metrics. The spans are taken here, around the calls into the protocol;
//! nothing inside `crates/` knows about them.

use crate::stats::{median_f64, percentile_sorted, Report};
use abd_core::context::{Effects, Protocol, TimerKey};
use abd_core::types::{OpId, ProcessId};
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// `root`/`parent` of work no client operation caused (boot, recovery sync,
/// timers).
pub const NONE: u64 = u64::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SpanKind {
    Start,
    Invoke,
    Message,
    Timer,
    Restart,
}

impl SpanKind {
    fn name(self) -> &'static str {
        match self {
            SpanKind::Start => "start",
            SpanKind::Invoke => "invoke",
            SpanKind::Message => "message",
            SpanKind::Timer => "timer",
            SpanKind::Restart => "restart",
        }
    }
}

/// One handler call on one node.
#[derive(Clone, Debug)]
pub struct Span {
    /// `node << 40 | per-node sequence`; unique in the run.
    pub id: u64,
    pub node: usize,
    pub kind: SpanKind,
    /// Nanoseconds since the run's epoch.
    pub start: u64,
    pub end: u64,
    /// The span whose send this handler consumed ([`NONE`] for an invoke).
    pub parent: u64,
    /// The client operation this work serves ([`NONE`] if none).
    pub root: u64,
    /// Messages the handler emitted.
    pub sends: u32,
    /// The operation the handler answered, if it answered one.
    pub responded: Option<u64>,
}

/// Wire message of a traced protocol: the inner message plus its causes.
#[derive(Clone, Debug)]
pub struct TMsg<M> {
    pub root: u64,
    pub parent: u64,
    pub inner: M,
}

/// Where nodes leave their spans when the host drops them.
pub type SpanSink = Arc<Mutex<Vec<Span>>>;

pub struct Traced<P: Protocol> {
    inner: P,
    epoch: Instant,
    seq: u64,
    spans: Vec<Span>,
    sink: SpanSink,
}

impl<P: Protocol> Traced<P> {
    pub fn new(inner: P, epoch: Instant, sink: SpanSink) -> Self {
        Traced {
            inner,
            epoch,
            seq: 0,
            spans: Vec::new(),
            sink,
        }
    }

    /// Wraps every node of a cluster, sharing one epoch and one sink.
    pub fn wrap_all(nodes: Vec<P>, epoch: Instant) -> (Vec<Self>, SpanSink) {
        let sink: SpanSink = Arc::default();
        let wrapped = nodes
            .into_iter()
            .map(|p| Traced::new(p, epoch, Arc::clone(&sink)))
            .collect();
        (wrapped, sink)
    }

    fn handle(
        &mut self,
        kind: SpanKind,
        parent: u64,
        root: u64,
        fx: &mut Effects<TMsg<P::Msg>, P::Resp>,
        call: impl FnOnce(&mut P, &mut Effects<P::Msg, P::Resp>),
    ) {
        let mut inner_fx = Effects::new();
        let start = self.epoch.elapsed().as_nanos() as u64;
        call(&mut self.inner, &mut inner_fx);
        let end = self.epoch.elapsed().as_nanos() as u64;
        let node = self.inner.id().index();
        let id = (node as u64) << 40 | self.seq;
        self.seq += 1;
        self.spans.push(Span {
            id,
            node,
            kind,
            start,
            end,
            parent,
            root,
            sends: inner_fx.sends.len() as u32,
            responded: inner_fx.responses.first().map(|(op, _)| op.0),
        });
        for (to, inner) in inner_fx.sends {
            fx.send(
                to,
                TMsg {
                    root,
                    parent: id,
                    inner,
                },
            );
        }
        fx.timers.extend(inner_fx.timers);
        fx.responses.extend(inner_fx.responses);
    }
}

impl<P: Protocol> Drop for Traced<P> {
    fn drop(&mut self) {
        // A poisoned sink only means another node's thread panicked; the
        // spans already in it are still whole.
        let mut sink = self
            .sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        sink.append(&mut self.spans);
    }
}

impl<P: Protocol> Protocol for Traced<P> {
    type Msg = TMsg<P::Msg>;
    type Op = P::Op;
    type Resp = P::Resp;

    fn id(&self) -> ProcessId {
        self.inner.id()
    }

    fn on_start(&mut self, fx: &mut Effects<Self::Msg, Self::Resp>) {
        self.handle(SpanKind::Start, NONE, NONE, fx, |p, fx| p.on_start(fx));
    }

    fn on_invoke(&mut self, op: OpId, input: Self::Op, fx: &mut Effects<Self::Msg, Self::Resp>) {
        self.handle(SpanKind::Invoke, NONE, op.0, fx, |p, fx| {
            p.on_invoke(op, input, fx)
        });
    }

    fn on_message(
        &mut self,
        from: ProcessId,
        msg: Self::Msg,
        fx: &mut Effects<Self::Msg, Self::Resp>,
    ) {
        let TMsg {
            root,
            parent,
            inner,
        } = msg;
        self.handle(SpanKind::Message, parent, root, fx, |p, fx| {
            p.on_message(from, inner, fx)
        });
    }

    fn on_timer(&mut self, key: TimerKey, fx: &mut Effects<Self::Msg, Self::Resp>) {
        self.handle(SpanKind::Timer, NONE, NONE, fx, |p, fx| p.on_timer(key, fx));
    }

    fn on_restart(&mut self, fx: &mut Effects<Self::Msg, Self::Resp>) {
        self.handle(SpanKind::Restart, NONE, NONE, fx, |p, fx| p.on_restart(fx));
    }
}

/// The client's view of one operation, on the spans' clock.
#[derive(Clone, Copy, Debug)]
pub struct ClientSpan {
    pub node: usize,
    pub start: u64,
    pub end: u64,
    pub is_put: bool,
}

/// What a traced run says about where an operation's time goes.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Operations whose client span was matched to a complete span tree.
    pub ops: usize,
    pub handler_us_per_op: f64,
    pub handler_calls_per_op: f64,
    pub msgs_per_op: f64,
    pub hops_per_op: f64,
    pub cmd_hop_p50_us: f64,
    pub reply_hop_p50_us: f64,
    pub hop_wait_p50_us: f64,
    pub hop_wait_p99_us: f64,
    pub hop_wait_mean_us: f64,
    pub wait_share: f64,
    pub late_msgs_ratio: f64,
    /// Median client latency of the matched gets (µs), for the accounting
    /// the README explains.
    pub get_p50_us: f64,
    /// Means over the matched operations (µs): client latency, command hop,
    /// reply hop, and handler time on the critical path. With the mean hop
    /// wait they add up exactly, which medians of a skewed wait do not.
    pub latency_mean_us: f64,
    pub cmd_hop_mean_us: f64,
    pub reply_hop_mean_us: f64,
    pub path_handler_mean_us: f64,
    /// Invoke spans that found no client span, or whose tree was broken.
    pub unmatched: usize,
}

/// Takes the spans out of a sink, grouped by node in handler order.
pub fn take_spans(sink: &SpanSink, n: usize) -> Vec<Vec<Span>> {
    let all = std::mem::take(
        &mut *sink
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    let mut by_node: Vec<Vec<Span>> = vec![Vec::new(); n];
    for s in all {
        by_node[s.node].push(s);
    }
    for v in &mut by_node {
        v.sort_by_key(|s| s.id);
    }
    by_node
}

fn lookup(by_node: &[Vec<Span>], id: u64) -> Option<&Span> {
    by_node
        .get((id >> 40) as usize)?
        .get((id & ((1 << 40) - 1)) as usize)
}

/// Pairs client spans with invoke spans by per-node sequence (the k-th
/// invocation a client sent to a node is the k-th `on_invoke` that node
/// ran) and walks each operation's critical path: from the handler that
/// answered, back through `parent` links, to the invoke.
pub fn analyze(by_node: &[Vec<Span>], clients: &[ClientSpan]) -> TraceSummary {
    let n = by_node.len();
    let mut answered_by = std::collections::HashMap::new();
    let mut handler_ns_total = 0u64;
    let mut calls = 0usize;
    let mut sends = 0u64;
    for s in by_node.iter().flatten() {
        handler_ns_total += s.end - s.start;
        calls += 1;
        sends += u64::from(s.sends);
        if let Some(op) = s.responded {
            answered_by.insert(op, s.id);
        }
    }

    let mut per_node_clients: Vec<Vec<ClientSpan>> = vec![Vec::new(); n];
    for c in clients {
        per_node_clients[c.node].push(*c);
    }

    let mut ops = 0usize;
    let mut unmatched = 0usize;
    let mut hops_total = 0u64;
    let mut cmd_hops = Vec::new();
    let mut reply_hops = Vec::new();
    let mut hop_waits = Vec::new();
    let mut get_lat = Vec::new();
    let mut wait_ns = 0u64;
    let mut latency_ns = 0u64;
    let mut path_handler_ns = 0u64;
    // When each answered operation's reply left its handler.
    let mut answered_at = std::collections::HashMap::new();

    for (node, spans) in by_node.iter().enumerate() {
        let invokes = spans.iter().filter(|s| s.kind == SpanKind::Invoke);
        for (k, inv) in invokes.enumerate() {
            let Some(client) = per_node_clients[node].get(k) else {
                unmatched += 1;
                continue;
            };
            let Some(last) = answered_by
                .get(&inv.root)
                .and_then(|id| lookup(by_node, *id))
            else {
                unmatched += 1;
                continue;
            };
            // Walk back to the invoke, collecting the waits between spans.
            let mut waits = Vec::new();
            let mut on_path_ns = inv.end - inv.start;
            let mut cur = last;
            let mut whole = true;
            while cur.id != inv.id {
                on_path_ns += cur.end - cur.start;
                let Some(parent) = lookup(by_node, cur.parent) else {
                    whole = false;
                    break;
                };
                waits.push(cur.start.saturating_sub(parent.end));
                cur = parent;
            }
            let in_order = client.start <= inv.start && last.end <= client.end;
            if !whole || !in_order {
                unmatched += 1;
                continue;
            }
            ops += 1;
            answered_at.insert(inv.root, last.end);
            hops_total += waits.len() as u64;
            let cmd = inv.start - client.start;
            let reply = client.end - last.end;
            wait_ns += cmd + reply + waits.iter().sum::<u64>();
            latency_ns += client.end - client.start;
            path_handler_ns += on_path_ns;
            cmd_hops.push(cmd);
            reply_hops.push(reply);
            hop_waits.extend(waits);
            if !client.is_put {
                get_lat.push((client.end - client.start) as f64 / 1e3);
            }
        }
    }

    let mut late = 0u64;
    let mut rooted = 0u64;
    for s in by_node.iter().flatten() {
        if s.kind == SpanKind::Message && s.root != NONE {
            rooted += 1;
            if answered_at.get(&s.root).is_some_and(|at| s.start > *at) {
                late += 1;
            }
        }
    }

    let p_us = |v: &mut Vec<u64>, p: f64| {
        if v.is_empty() {
            return 0.0;
        }
        v.sort_unstable();
        percentile_sorted(v, p) as f64 / 1e3
    };
    let per_op = |x: f64| if ops == 0 { 0.0 } else { x / ops as f64 };
    TraceSummary {
        ops,
        handler_us_per_op: per_op(handler_ns_total as f64 / 1e3),
        handler_calls_per_op: per_op(calls as f64),
        msgs_per_op: per_op(sends as f64),
        hops_per_op: per_op(hops_total as f64),
        cmd_hop_p50_us: p_us(&mut cmd_hops, 50.0),
        reply_hop_p50_us: p_us(&mut reply_hops, 50.0),
        hop_wait_mean_us: if hop_waits.is_empty() {
            0.0
        } else {
            hop_waits.iter().sum::<u64>() as f64 / hop_waits.len() as f64 / 1e3
        },
        cmd_hop_mean_us: per_op(cmd_hops.iter().sum::<u64>() as f64 / 1e3),
        reply_hop_mean_us: per_op(reply_hops.iter().sum::<u64>() as f64 / 1e3),
        latency_mean_us: per_op(latency_ns as f64 / 1e3),
        path_handler_mean_us: per_op(path_handler_ns as f64 / 1e3),
        hop_wait_p50_us: p_us(&mut hop_waits.clone(), 50.0),
        hop_wait_p99_us: p_us(&mut hop_waits, 99.0),
        wait_share: if latency_ns == 0 {
            0.0
        } else {
            wait_ns as f64 / latency_ns as f64
        },
        late_msgs_ratio: if rooted == 0 {
            0.0
        } else {
            late as f64 / rooted as f64
        },
        get_p50_us: if get_lat.is_empty() {
            0.0
        } else {
            median_f64(&get_lat)
        },
        unmatched,
    }
}

/// Most lines a trace file gets; a 5 s traced window leaves a few hundred
/// thousand spans, and the head of the run reads the same as the rest.
const TRACE_FILE_CAP: usize = 200_000;

/// Writes the client spans and handler spans as JSON lines.
pub fn write_jsonl(
    path: &std::path::Path,
    by_node: &[Vec<Span>],
    clients: &[ClientSpan],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let id_or_null = |v: u64| {
        if v == NONE {
            "null".to_string()
        } else {
            v.to_string()
        }
    };
    let mut seqs = vec![0usize; by_node.len()];
    for c in clients.iter().take(TRACE_FILE_CAP / 8) {
        writeln!(
            out,
            "{{\"client\": {}, \"seq\": {}, \"op\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            c.node,
            seqs[c.node],
            if c.is_put { "put" } else { "get" },
            c.start,
            c.end
        )?;
        seqs[c.node] += 1;
    }
    let mut spans: Vec<&Span> = by_node.iter().flatten().collect();
    spans.sort_by_key(|s| s.start);
    for s in spans.iter().take(TRACE_FILE_CAP) {
        writeln!(
            out,
            "{{\"span\": {}, \"node\": {}, \"kind\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}, \"root\": {}, \"sends\": {}, \"responded\": {}}}",
            s.id,
            s.node,
            s.kind.name(),
            s.start,
            s.end,
            id_or_null(s.parent),
            id_or_null(s.root),
            s.sends,
            s.responded.map_or("null".to_string(), |op| op.to_string())
        )?;
    }
    out.flush()
}

/// Reports a summary as the `trace.*` metrics. `overhead` is traced ÷
/// untraced throughput of two otherwise equal windows.
pub fn report(what: &str, s: &TraceSummary, overhead: f64, out: &mut Report) {
    if s.unmatched * 100 > s.ops {
        out.problem(format!(
            "{what}: {} of {} traced operations could not be matched to a span tree",
            s.unmatched,
            s.ops + s.unmatched
        ));
    }
    out.timing("trace.handler_us_per_op", "us", s.handler_us_per_op, s.ops);
    out.value(
        "trace.handler_calls_per_op",
        "count",
        s.handler_calls_per_op,
    );
    out.value("trace.msgs_per_op", "count", s.msgs_per_op);
    out.value("trace.hops_per_op", "count", s.hops_per_op);
    out.timing("trace.cmd_hop_p50_us", "us", s.cmd_hop_p50_us, s.ops);
    out.timing("trace.reply_hop_p50_us", "us", s.reply_hop_p50_us, s.ops);
    out.timing("trace.hop_wait_p50_us", "us", s.hop_wait_p50_us, s.ops);
    out.timing("trace.hop_wait_p99_us", "us", s.hop_wait_p99_us, s.ops);
    out.timing("trace.hop_wait_mean_us", "us", s.hop_wait_mean_us, s.ops);
    out.value("trace.wait_share", "ratio", s.wait_share);
    out.value("trace.late_msgs_ratio", "ratio", s.late_msgs_ratio);
    out.value("trace.overhead_ratio", "ratio", overhead);
    out.note(format!(
        "{what}: traced get p50 {:.2} us; medians: cmd + hops x hop_wait + reply + handlers = {:.2} us",
        s.get_p50_us,
        s.cmd_hop_p50_us
            + s.hops_per_op * s.hop_wait_p50_us
            + s.reply_hop_p50_us
            + s.handler_us_per_op
    ));
    out.note(format!(
        "{what}: traced mean latency {:.2} us; means: cmd {:.2} + hops {:.2} x hop_wait {:.2} + reply {:.2} + handlers on path {:.2} = {:.2} us",
        s.latency_mean_us,
        s.cmd_hop_mean_us,
        s.hops_per_op,
        s.hop_wait_mean_us,
        s.reply_hop_mean_us,
        s.path_handler_mean_us,
        s.cmd_hop_mean_us
            + s.hops_per_op * s.hop_wait_mean_us
            + s.reply_hop_mean_us
            + s.path_handler_mean_us
    ));
}
