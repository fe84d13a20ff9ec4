//! The `core` and `kv` handler probes: protocol state machines driven
//! directly by a single-threaded FIFO network — no channels, no simulator,
//! no clock but the stopwatch around the whole batch — so the number is the
//! handlers' own cost (plus a `VecDeque` push and pop per message), and the
//! message counts are exact.

use crate::ops::{preload_value, XorShift};
use crate::stats::Report;
use abd_core::batch::Batched;
use abd_core::context::{Effects, Protocol};
use abd_core::msg::{RegisterOp, RegisterResp};
use abd_core::mwmr::{MwmrConfig, MwmrNode};
use abd_core::swmr::{SwmrConfig, SwmrNode};
use abd_core::types::{Consistency, OpId, ProcessId, ReadMode, Tag};
use abd_kv::{KvConfig, KvNode, KvOp, KvResp};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Cluster size of every handler probe.
pub const N: usize = 5;
/// Keys preloaded into the KV probes' stores.
const KEYS: u64 = 1024;
/// Operations timed per probe (after a tenth as many untimed).
const OPS: usize = 20_000;

/// `n` protocol nodes joined by one FIFO queue; every message is delivered,
/// in send order, before the next operation starts.
pub struct Fifo<P: Protocol> {
    nodes: Vec<P>,
    queue: VecDeque<(ProcessId, ProcessId, P::Msg)>,
    next_op: u64,
    /// Messages sent since construction.
    pub msgs: u64,
}

impl<P: Protocol> Fifo<P> {
    pub fn new(mut nodes: Vec<P>) -> Self {
        let mut queue = VecDeque::new();
        let mut msgs = 0;
        for node in &mut nodes {
            let mut fx = Effects::new();
            node.on_start(&mut fx);
            let from = node.id();
            msgs += fx.sends.len() as u64;
            queue.extend(fx.sends.into_iter().map(|(to, m)| (from, to, m)));
        }
        let mut fifo = Fifo {
            nodes,
            queue,
            next_op: 0,
            msgs,
        };
        fifo.drain(None);
        fifo
    }

    /// Invokes `input` on `node` and delivers messages until none is left.
    /// Returns the operation's response, if it completed. Timers are not
    /// armed: on a loss-free FIFO network nothing ever needs one.
    pub fn run_op(&mut self, node: usize, input: P::Op) -> Option<P::Resp> {
        let op = OpId(self.next_op);
        self.next_op += 1;
        let mut fx = Effects::new();
        self.nodes[node].on_invoke(op, input, &mut fx);
        let mut resp = self.absorb(ProcessId(node), fx, op);
        if let Some(r) = self.drain(Some(op)) {
            resp = Some(r);
        }
        resp
    }

    fn absorb(
        &mut self,
        from: ProcessId,
        fx: Effects<P::Msg, P::Resp>,
        want: OpId,
    ) -> Option<P::Resp> {
        self.msgs += fx.sends.len() as u64;
        self.queue
            .extend(fx.sends.into_iter().map(|(to, m)| (from, to, m)));
        fx.responses
            .into_iter()
            .find_map(|(op, r)| (op == want).then_some(r))
    }

    fn drain(&mut self, want: Option<OpId>) -> Option<P::Resp> {
        let mut resp = None;
        while let Some((from, to, msg)) = self.queue.pop_front() {
            let mut fx = Effects::new();
            self.nodes[to.index()].on_message(from, msg, &mut fx);
            let got = self.absorb(to, fx, want.unwrap_or(OpId(u64::MAX)));
            if got.is_some() {
                resp = got;
            }
        }
        resp
    }
}

/// Outcome of one handler probe.
pub struct HandlerCost {
    pub ns_per_op: f64,
    /// Messages per operation; exact (every timed op sent the same number).
    pub msgs_per_op: u64,
    pub ops: usize,
}

/// Runs `OPS / 10` untimed then `OPS` timed operations from `next` and
/// checks each with `ok`. Panics if an operation does not complete or the
/// message count is not the same whole number for every operation — both
/// are bugs in the probe's assumptions, not measurements.
fn time_ops<P: Protocol>(
    fifo: &mut Fifo<P>,
    mut next: impl FnMut() -> (usize, P::Op),
    ok: impl Fn(&P::Resp) -> bool,
) -> HandlerCost {
    let mut run = |fifo: &mut Fifo<P>, count: usize| {
        for _ in 0..count {
            let (node, op) = next();
            let resp = fifo.run_op(node, black_box(op));
            assert!(resp.as_ref().is_some_and(&ok), "handler probe got {resp:?}");
            black_box(resp);
        }
    };
    run(fifo, OPS / 10);
    let before = fifo.msgs;
    let t0 = Instant::now();
    run(fifo, OPS);
    let ns = t0.elapsed().as_nanos() as f64;
    let msgs = fifo.msgs - before;
    assert_eq!(
        msgs % OPS as u64,
        0,
        "message count is not a whole number per operation"
    );
    HandlerCost {
        ns_per_op: ns / OPS as f64,
        msgs_per_op: msgs / OPS as u64,
        ops: OPS,
    }
}

/// A preloaded `n`-node KV cluster on the FIFO network.
pub fn kv_fifo(mode: ReadMode) -> Fifo<KvNode<u64, u64>> {
    Fifo::new(kv_nodes(N, KEYS, mode))
}

/// `n` KV nodes reading in `mode` (`KvConfig::new` defaults otherwise), each
/// preloaded with keys `0..keys` at tag `1@p0`.
pub fn kv_nodes(n: usize, keys: u64, mode: ReadMode) -> Vec<KvNode<u64, u64>> {
    (0..n)
        .map(|i| {
            let mut node = KvNode::new(KvConfig::new(n, ProcessId(i)).with_read_mode(mode));
            for k in 0..keys {
                node.preload(k, Tag::new(1, ProcessId(0)), preload_value(k));
            }
            node
        })
        .collect()
}

fn kv_probe(mode: ReadMode, seed: u64, make: impl Fn(u64, u64) -> KvOp<u64, u64>) -> HandlerCost {
    let mut fifo = kv_fifo(mode);
    let mut rng = XorShift::new(seed);
    let mut value = 1u64 << 48;
    time_ops(
        &mut fifo,
        || {
            value += 1;
            ((rng.below(N as u64)) as usize, make(rng.below(KEYS), value))
        },
        |r| matches!(r, KvResp::GetOk(Some(_)) | KvResp::PutOk),
    )
}

fn register_probe<P>(nodes: Vec<P>, node: usize, write: bool) -> HandlerCost
where
    P: Protocol<Op = RegisterOp<u64>, Resp = RegisterResp<u64>>,
{
    let mut fifo = Fifo::new(nodes);
    let mut value = 0u64;
    time_ops(
        &mut fifo,
        || {
            value += 1;
            let op = if write {
                RegisterOp::Write(value)
            } else {
                RegisterOp::Read
            };
            (node, op)
        },
        RegisterResp::is_ok,
    )
}

fn swmr_nodes() -> Vec<SwmrNode<u64>> {
    (0..N)
        .map(|i| SwmrNode::new(SwmrConfig::new(N, ProcessId(i), ProcessId(0)), 0))
        .collect()
}

fn mwmr_nodes() -> Vec<MwmrNode<u64>> {
    (0..N)
        .map(|i| MwmrNode::new(MwmrConfig::new(N, ProcessId(i)), 0))
        .collect()
}

/// Every `core.*` and `kv.node.*` handler metric.
pub fn report(seed: u64, out: &mut Report) {
    let c = register_probe(swmr_nodes(), 0, true);
    out.timing("core.swmr.write_ns", "ns", c.ns_per_op, c.ops);
    let c = register_probe(swmr_nodes(), 1, false);
    out.timing("core.swmr.read_ns", "ns", c.ns_per_op, c.ops);
    let c = register_probe(mwmr_nodes(), 1, true);
    out.timing("core.mwmr.write_ns", "ns", c.ns_per_op, c.ops);
    let c = register_probe(mwmr_nodes(), 1, false);
    out.timing("core.mwmr.read_ns", "ns", c.ns_per_op, c.ops);

    let put = kv_probe(ReadMode::TwoRound, seed, KvOp::Put);
    out.timing("kv.node.put_ns", "ns", put.ns_per_op, put.ops);
    let get = kv_probe(ReadMode::TwoRound, seed, |k, _| KvOp::Get(k));
    out.timing("kv.node.get_ns", "ns", get.ns_per_op, get.ops);
    let fast = kv_probe(ReadMode::FastUnanimous, seed, |k, _| KvOp::Get(k));
    out.timing("kv.node.get_fast_ns", "ns", fast.ns_per_op, fast.ops);
    let relay = kv_probe(ReadMode::Relay, seed, |k, _| KvOp::Get(k));
    out.timing("kv.node.get_relay_ns", "ns", relay.ns_per_op, relay.ops);
    let sc = kv_probe(ReadMode::TwoRound, seed, |k, _| {
        KvOp::GetAt(k, Consistency::Sequential)
    });
    out.timing("kv.node.get_sc_ns", "ns", sc.ns_per_op, sc.ops);
    let regular = kv_probe(ReadMode::TwoRound, seed, |k, _| {
        KvOp::GetAt(k, Consistency::Regular)
    });
    out.timing(
        "kv.node.get_regular_ns",
        "ns",
        regular.ns_per_op,
        regular.ops,
    );
    out.exact("kv.node.put_msgs", put.msgs_per_op as f64);
    out.exact("kv.node.get_msgs", get.msgs_per_op as f64);
    out.exact("kv.node.get_fast_msgs", fast.msgs_per_op as f64);
    out.exact("kv.node.get_relay_msgs", relay.msgs_per_op as f64);

    let mut batched = Fifo::new(
        kv_nodes(N, KEYS, ReadMode::TwoRound)
            .into_iter()
            .map(|node| Batched::new(node, 0))
            .collect(),
    );
    let mut rng = XorShift::new(seed);
    let mut value = 1u64 << 48;
    let c = time_ops(
        &mut batched,
        || {
            value += 1;
            (
                rng.below(N as u64) as usize,
                KvOp::Put(rng.below(KEYS), value),
            )
        },
        |r| matches!(r, KvResp::PutOk),
    );
    out.timing("core.batch.put_ns", "ns", c.ns_per_op, c.ops);
    out.exact("core.batch.put_msgs", c.msgs_per_op as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msgs_of(mode: ReadMode, op: KvOp<u64, u64>) -> u64 {
        let mut fifo = kv_fifo(mode);
        let before = fifo.msgs;
        assert!(fifo.run_op(2, op).is_some());
        fifo.msgs - before
    }

    #[test]
    fn fifo_counts_match_the_protocols_formulas() {
        let n = N as u64;
        assert_eq!(msgs_of(ReadMode::TwoRound, KvOp::Put(3, 99)), 4 * (n - 1));
        assert_eq!(msgs_of(ReadMode::TwoRound, KvOp::Get(3)), 4 * (n - 1));
        assert_eq!(msgs_of(ReadMode::FastUnanimous, KvOp::Get(3)), 2 * (n - 1));
        assert_eq!(msgs_of(ReadMode::Relay, KvOp::Get(3)), n * n - 1);
    }

    #[test]
    fn fifo_returns_what_was_written() {
        let mut fifo = kv_fifo(ReadMode::TwoRound);
        assert_eq!(
            fifo.run_op(0, KvOp::Get(7)),
            Some(KvResp::GetOk(Some(preload_value(7))))
        );
        assert_eq!(fifo.run_op(1, KvOp::Put(7, 1234)), Some(KvResp::PutOk));
        assert_eq!(
            fifo.run_op(4, KvOp::Get(7)),
            Some(KvResp::GetOk(Some(1234)))
        );
    }
}
