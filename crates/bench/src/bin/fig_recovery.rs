//! **F8 — divergence-proportional recovery: bulk snapshot vs Merkle walk.**
//!
//! A rebooted replica must repair whatever it missed. Pulling a snapshot
//! from every peer pays for the whole store no matter how little actually
//! diverged; that transfer is deterministic, so its row here is the closed
//! form ([`abd_bench::bulk_reference`]), not a run. The Merkle walk
//! (`SyncDiffReq` → `SyncEntries`, repeated) descends the digest tree
//! instead, pruning every subtree whose digest already matches, so the
//! transfer cost is proportional to the *divergence*, not the store.
//!
//! The experiment: an `n = 5` cluster whose replicas each hold 100 000
//! keys. The four survivors hold `k` newer tags the rebooted node lacks
//! (`k ∈ {1, 1 000, 50 000}`); the node restarts and catches up, once per
//! staleness. The bulk reference stands beside `k = 1` (its worst case:
//! maximal store, minimal divergence).
//!
//! Gates (the binary asserts them, ci.sh pins the artifact):
//!
//! * at `k = 1` the walk moves **≥ 99 %** fewer sync bytes than bulk;
//! * at `k = 1` the walk's message count is logarithmic in the store —
//!   bounded by `(n−1) · 4·log₂(buckets)`, against bulk's
//!   2 messages per peer but `O(store)` bytes;
//! * walk messages, bytes and entries all grow monotonically with `k`:
//!   the protocol spends in proportion to what actually diverged;
//! * every walk finishes within `log₂(buckets) + 1` sequential round trips
//!   (`rounds`): a recovery walk issues a whole tree level at once, so
//!   recovery *time* does not grow with divergence the way its traffic
//!   does. `caught_up_us` is the virtual time from restart to the read-quorum
//!   catch-up being complete (a read quorum of walks finished);
//! * the rebooted node **serves while it catches up**: a `Get` of the
//!   newest stale key invoked on it at the restart instant returns the new
//!   value within two round trips at the configured link latency
//!   (`first_get_us`, measured in a second run of the same scenario so the
//!   catch-up rows stay event-for-event what they were), on every row.
//!
//! Everything runs on the virtual clock with seeded RNGs, so
//! `BENCH_recovery.json`, which holds the table and its gates, is
//! byte-reproducible. It is written before the gates are checked, so a
//! failing run still records what it measured.

use abd_bench::{bulk_reference, write_artifact, Table};
use abd_core::types::{ProcessId, Tag};
use abd_kv::{KvConfig, KvNode, KvOp, KvResp};
use abd_simnet::{LatencyModel, Sim, SimConfig};

const N: usize = 5;
const KEYS: u32 = 100_000;
const BUCKETS: usize = 1024;
const SIM_SEED: u64 = 9;

const CRASH_AT: u64 = 1_000;
const RESTART_AT: u64 = 2_000;

/// How far behind its peers the rebooted node is, one row each.
const STALE: [u32; 3] = [1, 1_000, 50_000];

/// Sync-meter deltas for one crash/restart recovery.
struct Measured {
    /// Keys the rebooted node was behind on.
    stale: u32,
    msgs: u64,
    bytes: u64,
    entries: u64,
    /// Most sequential round trips any of the rebooted node's walks took.
    rounds: u64,
    /// Virtual time from restart until the read-quorum catch-up is
    /// complete.
    caught_up_us: f64,
    /// Latency of a `Get` of the newest stale key invoked on the rebooted
    /// node at the restart instant (second run, same scenario).
    first_get_us: f64,
}

/// The value the survivors hold for stale key `k`.
fn newer(k: u32) -> u64 {
    1_000_000 + u64::from(k)
}

/// An `N`-node cluster preloaded with `KEYS` keys, the last node `stale`
/// keys behind its peers and scheduled to crash and reboot.
fn cluster(stale: u32) -> Sim<KvNode<u32, u64>> {
    let mut nodes: Vec<KvNode<u32, u64>> = (0..N)
        .map(|i| KvNode::new(KvConfig::new(N, ProcessId(i)).with_sync_buckets(BUCKETS)))
        .collect();
    for node in &mut nodes {
        for k in 0..KEYS {
            node.preload(k, Tag::new(1, ProcessId(0)), u64::from(k));
        }
    }
    // The survivors adopt `stale` newer writes the rebooted node misses.
    for node in nodes.iter_mut().take(N - 1) {
        for k in 0..stale {
            node.preload(k, Tag::new(2, ProcessId(1)), newer(k));
        }
    }
    let mut sim = Sim::new(SimConfig::new(SIM_SEED), nodes);
    sim.crash_at(CRASH_AT, ProcessId(N - 1));
    sim.restart_at(RESTART_AT, ProcessId(N - 1));
    sim
}

/// Latency of a `Get` of the newest stale key invoked on the rebooted node
/// the instant it restarts; the `Get` must return the survivors' value.
fn first_get_us(stale: u32) -> f64 {
    let mut sim = cluster(stale);
    let key = stale - 1;
    sim.invoke_at(RESTART_AT, ProcessId(N - 1), KvOp::Get(key));
    assert!(
        sim.run_until_ops_complete(600_000_000_000),
        "first get completes (stale {stale})"
    );
    let get = &sim.completed()[0];
    assert_eq!(
        get.resp,
        KvResp::GetOk(Some(newer(key))),
        "first get returns the newest value (stale {stale})"
    );
    get.latency() as f64 / 1e3
}

/// Reboot the stale node of [`cluster`] and read the sync meters once the
/// cluster quiesces.
fn recover(stale: u32) -> Measured {
    let mut sim = cluster(stale);
    sim.run_until(RESTART_AT);
    assert!(sim.node(N - 1).is_recovering(), "rebooted node catches up");
    let mut caught_up_at = None;
    while sim.step() {
        if caught_up_at.is_none() && !sim.node(N - 1).is_recovering() {
            caught_up_at = Some(sim.now());
        }
        assert!(
            sim.now() < 600_000_000_000,
            "recovery quiesces (stale {stale})"
        );
    }
    let caught_up_at = caught_up_at.expect("rebooted node finished catch-up");
    for k in 0..stale {
        assert_eq!(
            sim.node(N - 1).local_entry(&k).map(|(_, v)| *v),
            Some(newer(k)),
            "stale key {k} repaired"
        );
    }
    let m = sim.read_path_metrics();
    Measured {
        stale,
        msgs: m.recovery_msgs,
        bytes: m.recovery_bytes,
        entries: m.sync_entries_sent,
        rounds: sim.node(N - 1).max_walk_rounds(),
        caught_up_us: (caught_up_at - RESTART_AT) as f64 / 1e3,
        first_get_us: first_get_us(stale),
    }
}

fn main() {
    let entry_bytes = std::mem::size_of::<(u32, Tag, u64)>() as u64;
    let bulk = bulk_reference(N, u64::from(KEYS), entry_bytes);
    let walks = STALE.map(recover);

    let mut table = Table::new(
        &format!(
            "F8 — recovery cost vs divergence (n = {N}, {KEYS} keys, {BUCKETS} buckets, \
             sim seed {SIM_SEED})"
        ),
        &[
            "mode",
            "stale keys",
            "sync msgs",
            "sync bytes",
            "entries",
            "rounds",
            "caught up us",
            "first get us",
        ],
    );
    let mut bulk_row = vec!["bulk (closed form)".to_string(), "1".to_string()];
    bulk_row.extend(bulk.map(|x| x.to_string()));
    bulk_row.extend(["-"; 3].map(String::from));
    table.row(bulk_row);
    for r in &walks {
        table.row(vec![
            "merkle".to_string(),
            r.stale.to_string(),
            r.msgs.to_string(),
            r.bytes.to_string(),
            r.entries.to_string(),
            r.rounds.to_string(),
            format!("{:.3}", r.caught_up_us),
            format!("{:.3}", r.first_get_us),
        ]);
    }
    table.print();

    // Gate 1: at one stale key the walk must move ≥ 99 % fewer bytes.
    let reduction = 100.0 * (1.0 - walks[0].bytes as f64 / bulk[1] as f64);
    // Gate 2: one stale key costs O(log store) messages — each peer's walk
    // descends one root-to-leaf path, two messages per level.
    let log2_buckets = BUCKETS.trailing_zeros() as u64;
    let msg_bound = (N as u64 - 1) * 4 * log2_buckets;
    // Gate 3: the walk's spend grows with divergence, on every meter.
    let monotone = walks.windows(2).all(|pair| {
        pair[0].msgs < pair[1].msgs
            && pair[0].bytes < pair[1].bytes
            && pair[0].entries < pair[1].entries
    });
    // Gate 4: a walk is one round trip per tree level (log2(buckets) + 1
    // levels), however wide the divergence. Gate 5: the rebooted node
    // serves while it catches up — its first get costs a query round and a
    // write-back, never the catch-up.
    let round_bound = log2_buckets + 1;
    let LatencyModel::Uniform { hi: hop_max, .. } = SimConfig::new(SIM_SEED).latency else {
        panic!("F8 runs on the default uniform links");
    };
    let first_get_bound = 4.0 * hop_max as f64 / 1e3;
    let rounds = walks.iter().map(|w| w.rounds).max().expect("three walks");
    let first_get = walks.iter().map(|w| w.first_get_us).fold(0.0, f64::max);
    let checks = [
        (
            "sync bytes below bulk at 1 stale key, %",
            format!("{reduction:.2}"),
            ">= 99".to_string(),
            reduction >= 99.0,
        ),
        (
            "sync msgs at 1 stale key",
            walks[0].msgs.to_string(),
            format!("<= {msg_bound}"),
            walks[0].msgs <= msg_bound,
        ),
        (
            "sync msgs, bytes and entries grow with stale keys",
            monotone.to_string(),
            "true".to_string(),
            monotone,
        ),
        (
            "most rounds of any walk",
            rounds.to_string(),
            format!("<= {round_bound}"),
            rounds <= round_bound,
        ),
        (
            "slowest first get, us",
            format!("{first_get:.3}"),
            format!("<= {first_get_bound:.3}"),
            first_get <= first_get_bound,
        ),
    ];
    let mut gates = Table::new("F8 — gates", &["gate", "measured", "bound"]);
    for (what, measured, bound, _) in &checks {
        gates.row(vec![what.to_string(), measured.clone(), bound.clone()]);
    }
    gates.print();
    write_artifact(env!("CARGO_BIN_NAME"), &[&table, &gates]);

    for (what, measured, bound, ok) in &checks {
        assert!(ok, "F8 gate failed: {what} is {measured}, needs {bound}");
    }
}
