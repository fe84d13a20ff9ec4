//! **F6 — fast-path reads + batched quorum messaging: throughput and
//! per-operation cost.**
//!
//! A closed-loop multi-client, multi-key workload against the replicated
//! key-value store, in five configurations on the deterministic simulator.
//! Its twenty clients, four per node, run on the harness's one closed loop
//! ([`run_scripts`]), each from its own completions, so a read path that
//! saves rounds shows in the throughput column:
//!
//! * `baseline` — every `Get` runs both phases (query + write-back);
//! * `fast` — `Get`s elide the write-back when the query quorum
//!   unanimously reports the maximum tag (and forms a write quorum);
//! * `fast+batched` — fast reads plus [`Batched`] transport wrapping:
//!   same-window messages to the same peer coalesce into one envelope;
//! * `relay` — `Get`s run the one-and-a-half-round relay read (servers
//!   forward tags to each other and reply to the reader directly);
//! * `relay+batched` — relay reads plus windowed [`Batched`] transport,
//!   which is what absorbs the relay's O(n²) server-to-server fan-out.
//!
//! A **consistency-tier section** (T-series) reruns the same closed loop
//! with reads demoted below atomic: `regular` serves every `Get` at
//! [`Consistency::Regular`] (query round, no write-back), and
//! `sc-mixed` issues 99% of reads at [`Consistency::Sequential`]
//! (served locally, zero rounds) with every 100th read kept atomic —
//! the SC-ABD deployment shape. Both rows are gated on msgs/op and
//! rounds/op reductions against the all-atomic baseline.
//!
//! Throughput is gated too: `fast`, `relay` and `regular` each complete
//! more kops per virtual second than `baseline`, `sc-mixed` more than
//! `regular`, and `fast` pays write-backs where a get overlaps a put.
//!
//! Before the workload, the binary asserts the micro-costs the fast path
//! claims: an uncontended fast read is **1 round / `2(n−1)` messages** on
//! SWMR, MWMR, and the store (baseline atomic reads: 2 rounds /
//! `4(n−1)`).
//!
//! A **contended-writer section** then measures the read modes where they
//! differ: reads staged to overlap an in-flight write. `FastUnanimous`
//! loses its unanimity precondition there and degrades to the full
//! two-round read, while `Relay` completes in 1.5 rounds regardless —
//! the gates table carries rounds-per-read for both, gated at
//! `relay <= 1.6` and `fast >= 1.9`.
//!
//! Every table comes from the virtual clock and message counters, so
//! `BENCH_throughput.json`, which holds them, is byte-reproducible. It is
//! written before the gates are checked, so a failing run still records
//! what it measured.

use abd_bench::clusters::{mwmr_sim, swmr_sim, Variant};
use abd_bench::{write_artifact, Table};
use abd_core::batch::Batched;
use abd_core::context::{Protocol, ReadPathCounters, ReadPathStats};
use abd_core::msg::RegisterOp;
use abd_core::types::{Consistency, Nanos, ProcessId, ReadMode};
use abd_kv::{KvConfig, KvNode, KvOp, KvResp};
use abd_simnet::harness::run_scripts;
use abd_simnet::{LatencyModel, Metrics, Sim, SimConfig};

const N: usize = 5;
const DELAY: Nanos = 1_000; // constant 1µs per message
const CLIENTS_PER_NODE: usize = 4;
const OPS_PER_CLIENT: usize = 25;
const KEYS: u64 = 8;
const WRITE_PCT: u64 = 20;
const BATCH_WINDOW: Nanos = 500;
/// In the `sc-mixed` tier row, every `ATOMIC_EVERY`-th read is atomic;
/// the rest run at the sequential tier (99% SC / 1% atomic).
const ATOMIC_EVERY: u64 = 100;

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    *s
}

fn gen_op(rng: &mut u64) -> KvOp<u64, u64> {
    let key = xorshift(rng) % KEYS;
    if xorshift(rng) % 100 < WRITE_PCT {
        KvOp::Put(key, xorshift(rng) % 1_000)
    } else {
        KvOp::Get(key)
    }
}

/// Same op mix as [`gen_op`], but reads are demoted: every read runs at
/// `tier` except each `ATOMIC_EVERY`-th one, which stays atomic.
/// `atomic_every = 0` demotes every read unconditionally.
fn gen_op_tiered(
    rng: &mut u64,
    reads: &mut u64,
    tier: Consistency,
    atomic_every: u64,
) -> KvOp<u64, u64> {
    match gen_op(rng) {
        KvOp::Get(key) => {
            *reads += 1;
            let cons = if atomic_every > 0 && reads.is_multiple_of(atomic_every) {
                Consistency::Atomic
            } else {
                tier
            };
            KvOp::GetAt(key, cons)
        }
        put => put,
    }
}

fn sim_cfg(seed: u64) -> SimConfig {
    SimConfig::new(seed).with_latency(LatencyModel::Constant(DELAY))
}

fn kv_nodes(mode: ReadMode) -> Vec<KvNode<u64, u64>> {
    (0..N)
        .map(|i| KvNode::new(KvConfig::new(N, ProcessId(i)).with_read_mode(mode)))
        .collect()
}

struct RunResult {
    metrics: Metrics,
    reads: ReadPathCounters,
    makespan: Nanos,
}

impl RunResult {
    fn msgs_per_op(&self) -> f64 {
        self.metrics.msgs_per_op().expect("ops completed")
    }

    fn rounds_per_op(&self) -> f64 {
        self.metrics.mean_op_latency().expect("ops completed") / (2.0 * DELAY as f64)
    }

    fn kops_per_virtual_sec(&self) -> f64 {
        self.metrics.ops_completed as f64 / (self.makespan as f64 / 1e9) / 1e3
    }
}

/// Runs `CLIENTS_PER_NODE` closed-loop clients per node on the harness's
/// one loop, each issuing `OPS_PER_CLIENT` operations over `KEYS` keys from
/// `gen`: a completion at once invokes its client's next operation, so
/// operations overlap and same-window sends can coalesce.
fn run_closed_loop<P>(
    sim: &mut Sim<P>,
    mut gen: impl FnMut(&mut u64) -> KvOp<u64, u64>,
) -> RunResult
where
    P: Protocol<Op = KvOp<u64, u64>, Resp = KvResp<u64>> + ReadPathStats,
{
    let clients = N * CLIENTS_PER_NODE;
    let mut rng = 0x5eed_f00d_u64;
    let scripts = (0..clients)
        .map(|_| (0..OPS_PER_CLIENT).map(|_| gen(&mut rng)).collect())
        .collect();
    assert!(
        run_scripts(sim, scripts, 0, 0, u64::MAX / 2),
        "workload stalled"
    );
    let metrics = sim.metrics().clone();
    assert_eq!(
        metrics.ops_completed,
        (clients * OPS_PER_CLIENT) as u64,
        "every client op completed"
    );
    RunResult {
        metrics,
        reads: sim.read_path_metrics(),
        makespan: sim.now(),
    }
}

/// The micro-costs the fast path claims, as exact assertions: after a
/// completed write has settled, a fast read is one round trip of
/// `2(n−1)` messages on every protocol that supports the flag.
fn uncontended_fast_reads() -> Table {
    let mut sim = swmr_sim(Variant::FastSwmr, N, sim_cfg(2), None);
    sim.invoke(ProcessId(0), RegisterOp::Write(1));
    assert!(sim.run_until_quiet(u64::MAX / 2));
    let before = sim.metrics().sent;
    sim.invoke(ProcessId(3), RegisterOp::Read);
    assert!(sim.run_until_quiet(u64::MAX / 2));
    let swmr = (sim.metrics().sent - before, sim.completed()[1].latency());

    let mut sim = mwmr_sim(Variant::FastMwmr, N, sim_cfg(3), None);
    sim.invoke(ProcessId(1), RegisterOp::Write(1));
    assert!(sim.run_until_quiet(u64::MAX / 2));
    let before = sim.metrics().sent;
    sim.invoke(ProcessId(2), RegisterOp::Read);
    assert!(sim.run_until_quiet(u64::MAX / 2));
    let mwmr = (sim.metrics().sent - before, sim.completed()[1].latency());

    let mut sim = Sim::new(sim_cfg(4), kv_nodes(ReadMode::FastUnanimous));
    sim.invoke(ProcessId(0), KvOp::Put(1, 9));
    assert!(sim.run_until_quiet(u64::MAX / 2));
    let before = sim.metrics().sent;
    sim.invoke(ProcessId(3), KvOp::Get(1));
    assert!(sim.run_until_quiet(u64::MAX / 2));
    assert_eq!(sim.read_path_metrics().fast_reads, 1);
    let kv = (sim.metrics().sent - before, sim.completed()[1].latency());

    let peers = 2 * (N as u64 - 1);
    let mut t = Table::new(
        &format!("F6 — uncontended fast read after a settled write (n={N}, delay {DELAY}ns)"),
        &["protocol", "read msgs", "2(n-1)", "read rounds"],
    );
    for (protocol, (msgs, latency)) in [("SWMR", swmr), ("MWMR", mwmr), ("KV", kv)] {
        assert_eq!(msgs, peers, "{protocol} fast read msgs");
        assert_eq!(latency, 2 * DELAY, "{protocol} fast read: 1 round");
        t.row(vec![
            protocol.to_string(),
            msgs.to_string(),
            peers.to_string(),
            (latency / (2 * DELAY)).to_string(),
        ]);
    }
    t
}

/// Mean rounds per read when every read overlaps an in-flight write.
///
/// The staging is exact and deterministic: a settled write `W1`, then the
/// writer invokes `W2` at `t = 2·DELAY` (adopting the new tag locally the
/// moment it is invoked, a full `DELAY` before any server hears of it).
/// Each measured read is invoked so its queries arrive strictly inside
/// that disagreement window — the writer answers with `W2`'s tag, every
/// other server with `W1`'s. `FastUnanimous` thereby loses its unanimity
/// precondition and pays the write-back round; `Relay` never needed it.
fn contended_read_rounds(variant: Variant) -> f64 {
    let offsets = [1_200, 1_400, 1_600, 1_800];
    let mut total: Nanos = 0;
    for (i, off) in offsets.into_iter().enumerate() {
        let mut sim = swmr_sim(variant, N, sim_cfg(10 + i as u64), None);
        sim.invoke(ProcessId(0), RegisterOp::Write(1));
        sim.invoke_at(2 * DELAY, ProcessId(0), RegisterOp::Write(2));
        let read = sim.invoke_at(off, ProcessId(3), RegisterOp::Read);
        assert!(sim.run_until_quiet(u64::MAX / 2));
        let rec = sim
            .completed()
            .iter()
            .find(|r| r.op == read)
            .expect("contended read completed");
        total += rec.latency();
    }
    total as f64 / offsets.len() as f64 / (2.0 * DELAY as f64)
}

fn main() {
    let micro = uncontended_fast_reads();
    micro.print();

    let fast_contended = contended_read_rounds(Variant::FastSwmr);
    let relay_contended = contended_read_rounds(Variant::RelaySwmr);

    let mut base_sim = Sim::new(sim_cfg(1), kv_nodes(ReadMode::TwoRound));
    let base = run_closed_loop(&mut base_sim, gen_op);
    let mut fast_sim = Sim::new(sim_cfg(1), kv_nodes(ReadMode::FastUnanimous));
    let fast = run_closed_loop(&mut fast_sim, gen_op);
    let mut batched_sim = Sim::new(
        sim_cfg(1),
        kv_nodes(ReadMode::FastUnanimous)
            .into_iter()
            .map(|node| Batched::new(node, BATCH_WINDOW))
            .collect::<Vec<_>>(),
    );
    let batched = run_closed_loop(&mut batched_sim, gen_op);
    let mut relay_sim = Sim::new(sim_cfg(1), kv_nodes(ReadMode::Relay));
    let relay = run_closed_loop(&mut relay_sim, gen_op);
    let mut relay_batched_sim = Sim::new(
        sim_cfg(1),
        kv_nodes(ReadMode::Relay)
            .into_iter()
            .map(|node| Batched::new(node, BATCH_WINDOW))
            .collect::<Vec<_>>(),
    );
    let relay_batched = run_closed_loop(&mut relay_batched_sim, gen_op);

    // T-series: consistency tiers on the plain (unbatched, two-round
    // atomic) cluster, so the only variable is the read tier itself.
    let mut regular_sim = Sim::new(sim_cfg(1), kv_nodes(ReadMode::TwoRound));
    let mut regular_reads_issued = 0u64;
    let regular = run_closed_loop(&mut regular_sim, |rng| {
        gen_op_tiered(rng, &mut regular_reads_issued, Consistency::Regular, 0)
    });
    let mut mixed_sim = Sim::new(sim_cfg(1), kv_nodes(ReadMode::TwoRound));
    let mut mixed_reads_issued = 0u64;
    let mixed = run_closed_loop(&mut mixed_sim, |rng| {
        gen_op_tiered(
            rng,
            &mut mixed_reads_issued,
            Consistency::Sequential,
            ATOMIC_EVERY,
        )
    });

    let mut table = Table::new(
        &format!(
            "F6 — closed-loop KV workload (n={N}, {CLIENTS_PER_NODE} clients/node x \
             {OPS_PER_CLIENT} ops, {KEYS} keys, {WRITE_PCT}% puts, delay {DELAY}ns, \
             batch window {BATCH_WINDOW}ns; sc-mixed keeps every {ATOMIC_EVERY}th read atomic)"
        ),
        &[
            "variant",
            "ops",
            "sent",
            "msgs/op",
            "rounds/op",
            "fast reads",
            "relay reads",
            "write-backs",
            "sc reads",
            "regular reads",
            "makespan ns",
            "kops/virt-s",
        ],
    );
    for (name, r) in [
        ("baseline", &base),
        ("fast", &fast),
        ("fast+batched", &batched),
        ("relay", &relay),
        ("relay+batched", &relay_batched),
        ("regular", &regular),
        ("sc-mixed(99/1)", &mixed),
    ] {
        table.row(vec![
            name.to_string(),
            r.metrics.ops_completed.to_string(),
            r.metrics.sent.to_string(),
            format!("{:.3}", r.msgs_per_op()),
            format!("{:.3}", r.rounds_per_op()),
            r.reads.fast_reads.to_string(),
            r.reads.relay_reads.to_string(),
            r.reads.write_backs.to_string(),
            r.reads.sc_reads.to_string(),
            r.reads.regular_reads.to_string(),
            r.makespan.to_string(),
            format!("{:.2}", r.kops_per_virtual_sec()),
        ]);
    }
    table.print();

    // Each demotion must pay off against the all-atomic baseline, in
    // messages AND rounds; batching must absorb what it claims to.
    let below = |r: &RunResult, of: &RunResult| (1.0 - r.msgs_per_op() / of.msgs_per_op()) * 100.0;
    let (reduction, relay_absorbed) = (below(&batched, &base), below(&relay_batched, &relay));
    let (regular_reduction, mixed_reduction) = (below(&regular, &base), below(&mixed, &base));
    let mixed_rounds_ratio = mixed.rounds_per_op() / base.rounds_per_op();
    let at_least =
        |what, x: f64, prec, bound: f64| (what, format!("{x:.prec$}"), ">=", bound, x >= bound);
    let at_most =
        |what, x: f64, prec, bound: f64| (what, format!("{x:.prec$}"), "<=", bound, x <= bound);
    let checks = [
        at_least(
            "FastUnanimous rounds/read, contended writer",
            fast_contended,
            3,
            1.9,
        ),
        at_most(
            "Relay rounds/read, contended writer",
            relay_contended,
            3,
            1.6,
        ),
        at_least("fast+batched msgs/op below baseline, %", reduction, 1, 20.0),
        at_least(
            "relay+batched msgs/op below relay, %",
            relay_absorbed,
            1,
            20.0,
        ),
        at_least(
            "regular msgs/op below baseline, %",
            regular_reduction,
            1,
            25.0,
        ),
        at_least(
            "sc-mixed(99/1) msgs/op below baseline, %",
            mixed_reduction,
            1,
            50.0,
        ),
        at_most(
            "sc-mixed(99/1) rounds/op over baseline's",
            mixed_rounds_ratio,
            3,
            0.5,
        ),
    ];
    let mut gates = Table::new(
        &format!("F6 — gates (SWMR n={N} for the contended reads)"),
        &["gate", "measured", "bound"],
    );
    for (what, measured, op, bound, _) in &checks {
        gates.row(vec![
            what.to_string(),
            measured.clone(),
            format!("{op} {bound}"),
        ]);
    }
    gates.print();
    write_artifact(env!("CARGO_BIN_NAME"), &[&micro, &table, &gates]);

    for (what, measured, op, bound, ok) in &checks {
        assert!(
            ok,
            "F6 gate failed: {what} is {measured}, needs {op} {bound}"
        );
    }
    assert!(base.reads.fast_reads == 0, "baseline never elides");
    assert!(fast.reads.fast_reads > 0, "fast path must fire");
    assert!(relay.reads.relay_reads > 0, "relay path must fire");
    assert!(relay.reads.write_backs == 0, "relay reads never write back");
    // The demoted paths must actually have carried the reads.
    assert!(regular.reads.regular_reads > 0, "regular tier must fire");
    assert!(
        regular.reads.write_backs == 0,
        "regular reads never write back"
    );
    assert!(mixed.reads.sc_reads > 0, "SC tier must fire");
    assert!(
        mixed.reads.write_backs > 0,
        "the 1% atomic reads must still pay their write-backs"
    );
    // Throughput: each client runs from its own completions, so a read
    // path that saves rounds shortens the makespan, and a get that
    // overlaps a put on its key pays the write-back fast reads elide.
    for (name, r) in [("fast", &fast), ("relay", &relay), ("regular", &regular)] {
        assert!(
            r.kops_per_virtual_sec() > base.kops_per_virtual_sec(),
            "{name} must out-run the two-round baseline"
        );
    }
    assert!(
        mixed.kops_per_virtual_sec() > regular.kops_per_virtual_sec(),
        "sc-mixed must out-run regular"
    );
    assert!(
        fast.reads.write_backs > 0,
        "gets overlapping puts must pay their write-backs"
    );
}
