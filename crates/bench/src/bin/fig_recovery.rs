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
//! Gates (the binary asserts them, ci.sh pins the JSON):
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
//!   catch-up being complete (a read quorum of walks finished); the
//!   `previous` block keeps the same two figures measured with the
//!   stop-and-wait walker (one 32-node batch in flight per walk) this
//!   replaced — its rounds count the root-digest handshake every walk then
//!   opened with;
//! * the rebooted node **serves while it catches up**: a `Get` of the
//!   newest stale key invoked on it at the restart instant returns the new
//!   value within two round trips at the configured link latency
//!   (`first_get_us`, measured in a second run of the same scenario so the
//!   catch-up rows stay event-for-event what they were), on every row. The
//!   `previous` block keeps what that `Get` cost while invocations queued
//!   behind the catch-up.
//!
//! Everything runs on the virtual clock with seeded RNGs, so
//! `BENCH_recovery.json` is byte-reproducible; `--smoke` runs the
//! identical computation (the full run is already cheap in release) and
//! must leave the JSON unchanged.

use abd_bench::{bulk_reference, Table};
use abd_core::types::{ProcessId, Tag};
use abd_kv::{KvConfig, KvNode, KvOp, KvResp};
use abd_simnet::{LatencyModel, Sim, SimConfig};

const N: usize = 5;
const KEYS: u32 = 100_000;
const BUCKETS: usize = 1024;
const SIM_SEED: u64 = 9;

const CRASH_AT: u64 = 1_000;
const RESTART_AT: u64 = 2_000;

/// `(stale, sync_msgs, rounds, caught_up_us)` of the Merkle rows with the
/// stop-and-wait walker, measured at the parent of the commit that
/// pipelined the walk (this binary, this seed, the same round counter
/// added to that commit's walker).
const PREVIOUS: [(u32, u64, u64, f64); 3] = [
    (1, 92, 12, 130.840),
    (1_000, 504, 63, 666.211),
    (50_000, 552, 69, 740.553),
];

/// `first_get_us` of the Merkle rows while invocations queued until the
/// catch-up finished, measured at the parent of the commit that removed
/// that gate (this binary, this seed): the row's `caught_up_us` of that
/// run, then one `Get`.
const PREVIOUS_FIRST_GET_US: [f64; 3] = [150.023, 185.025, 174.743];

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
    let smoke = std::env::args().any(|a| a == "--smoke");

    let entry_bytes = std::mem::size_of::<(u32, Tag, u64)>() as u64;
    let bulk @ [bulk_msgs, bulk_bytes, bulk_entries] =
        bulk_reference(N, u64::from(KEYS), entry_bytes);
    let walks = PREVIOUS.map(|(stale, ..)| recover(stale));

    let mut table = Table::new(
        "F8 — recovery cost vs divergence (n = 5, 100k-key store, 1024 buckets)",
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

    let mut before = Table::new(
        "F8 — the same walks, stop-and-wait (previous) vs one round trip per level",
        &[
            "stale keys",
            "msgs before",
            "msgs now",
            "rounds before",
            "rounds now",
            "caught up us before",
            "caught up us now",
        ],
    );
    for ((k, msgs, rounds, caught_up_us), w) in PREVIOUS.iter().zip(&walks) {
        before.row(vec![
            k.to_string(),
            msgs.to_string(),
            w.msgs.to_string(),
            rounds.to_string(),
            w.rounds.to_string(),
            format!("{caught_up_us:.3}"),
            format!("{:.3}", w.caught_up_us),
        ]);
    }
    before.print();

    let mut gate = Table::new(
        "F8 — first get on the rebooted node: queued behind the catch-up (previous) vs served at once",
        &["stale keys", "first get us before", "first get us now"],
    );
    for (r, before) in walks.iter().zip(PREVIOUS_FIRST_GET_US) {
        gate.row(vec![
            r.stale.to_string(),
            format!("{before:.3}"),
            format!("{:.3}", r.first_get_us),
        ]);
    }
    gate.print();

    // Gate 1: at one stale key the walk must move ≥ 99 % fewer bytes.
    let reduction = 100.0 * (1.0 - walks[0].bytes as f64 / bulk_bytes as f64);
    assert!(
        reduction >= 99.0,
        "walk must cut sync bytes by ≥ 99 % at 1 stale key; got {reduction:.2} %"
    );
    // Gate 2: one stale key costs O(log store) messages — each peer's walk
    // descends one root-to-leaf path, two messages per level.
    let log2_buckets = BUCKETS.trailing_zeros() as u64;
    let msg_bound = (N as u64 - 1) * 4 * log2_buckets;
    assert!(
        walks[0].msgs <= msg_bound,
        "1-stale walk must stay within {msg_bound} messages; got {}",
        walks[0].msgs
    );
    // Gate 3: the walk's spend grows with divergence, on every meter.
    for pair in walks.windows(2) {
        assert!(
            pair[0].msgs < pair[1].msgs
                && pair[0].bytes < pair[1].bytes
                && pair[0].entries < pair[1].entries,
            "walk cost must grow monotonically with staleness"
        );
    }
    // Gate 4: a walk is one round trip per tree level (log2(buckets) + 1
    // levels), however wide the divergence. Gate 5: the rebooted node
    // serves while it catches up — its first get costs a query round and a
    // write-back, never the catch-up.
    let round_bound = log2_buckets + 1;
    let LatencyModel::Uniform { hi: hop_max, .. } = SimConfig::new(SIM_SEED).latency else {
        panic!("F8 runs on the default uniform links");
    };
    let first_get_bound = 4.0 * hop_max as f64 / 1e3;
    for w in &walks {
        assert!(
            w.rounds <= round_bound,
            "walk at {} stale keys must finish within {round_bound} round trips; took {}",
            w.stale,
            w.rounds
        );
        assert!(
            w.first_get_us <= first_get_bound,
            "first get at {} stale keys must finish within two round trips \
             ({first_get_bound} us); took {} us",
            w.stale,
            w.first_get_us
        );
    }

    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"F8_recovery\",\n");
    json.push_str(&format!(
        "  \"n\": {N}, \"keys\": {KEYS}, \"buckets\": {BUCKETS}, \"sim_seed\": {SIM_SEED},\n"
    ));
    json.push_str("  \"rows\": [\n");
    let mut measured = vec![format!(
        "    {{\"mode\": \"bulk\", \"stale\": 1, \"sync_msgs\": {bulk_msgs}, \
         \"sync_bytes\": {bulk_bytes}, \"entries\": {bulk_entries}, \
         \"source\": \"closed form\"}}"
    )];
    measured.extend(walks.iter().map(|r| {
        format!(
            "    {{\"mode\": \"merkle\", \"stale\": {}, \"sync_msgs\": {}, \
             \"sync_bytes\": {}, \"entries\": {}, \"rounds\": {}, \"caught_up_us\": {:.3}, \
             \"first_get_us\": {:.3}}}",
            r.stale, r.msgs, r.bytes, r.entries, r.rounds, r.caught_up_us, r.first_get_us
        )
    }));
    json.push_str(&measured.join(",\n"));
    json.push_str("\n  ],\n");
    json.push_str(
        "  \"previous\": {\"walker\": \"stop-and-wait, opened by a root-digest handshake\", \
         \"rows\": [\n",
    );
    let previous: Vec<String> = PREVIOUS
        .iter()
        .map(|(k, msgs, rounds, caught_up_us)| {
            format!(
                "    {{\"mode\": \"merkle\", \"stale\": {k}, \"sync_msgs\": {msgs}, \
                 \"rounds\": {rounds}, \"caught_up_us\": {caught_up_us:.3}}}"
            )
        })
        .collect();
    json.push_str(&previous.join(",\n"));
    json.push_str("\n  ],\n");
    json.push_str("  \"invocations\": \"queued until caught up\", \"first_get_us\": [");
    let gated: Vec<String> = PREVIOUS_FIRST_GET_US
        .iter()
        .map(|us| format!("{us:.3}"))
        .collect();
    json.push_str(&gated.join(", "));
    json.push_str("]},\n");
    json.push_str(&format!(
        "  \"byte_reduction_pct_at_1_stale\": {reduction:.2},\n"
    ));
    json.push_str(&format!(
        "  \"msg_bound_at_1_stale\": {msg_bound}, \"round_bound\": {round_bound}, \
         \"first_get_bound_us\": {first_get_bound:.3}, \"monotone_in_staleness\": true\n}}\n"
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_recovery.json");
    std::fs::write(path, &json).expect("write BENCH_recovery.json");
    println!("wrote BENCH_recovery.json");
    println!("byte reduction at 1 stale key: {reduction:.2} % (gate: >= 99 %)");
    if smoke {
        println!("--smoke: full computation ran (it is the smoke test)");
    }
}
