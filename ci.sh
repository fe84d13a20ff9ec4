#!/usr/bin/env bash
# Local CI: every gate the repo holds itself to, cheapest first.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> abd-lint (protocol-invariant static analysis, JSON artifact + phase graphs)"
mkdir -p target/lint
rm -f target/lint/*.dot
# The linter exits non-zero on findings; the gate below reports them with
# a pointer to the artifact instead of dying silently on this line.
cargo run -q -p abd-lint -- --json --dot-dir target/lint > target/lint/findings.json || true
grep -q '"schema_version": 2' target/lint/findings.json \
  || { echo "findings.json lost its schema_version field"; exit 1; }
grep -q '"count": 0' target/lint/findings.json \
  || { echo "unsuppressed lint findings — see target/lint/findings.json"; exit 1; }
# Every committed golden is diffed against a freshly extracted graph, and
# every extracted graph has a golden: a deleted phase-spec cannot leave an
# orphan behind, a new one cannot go unpinned.
[ "$(cd crates/lint/goldens && ls *.dot)" = "$(cd target/lint && ls *.dot)" ] \
  || { echo "crates/lint/goldens/ and the declared phase-specs name different graphs"; exit 1; }
for golden in crates/lint/goldens/*.dot; do
  diff -u "$golden" "target/lint/$(basename "$golden")" \
    || { echo "extracted phase graph '$(basename "$golden" .dot)' drifted from the committed golden"; exit 1; }
done

echo "==> one operation path (the quorum-operation engine is the only copy)"
# Every protocol in the workspace — the registers, the store, the Byzantine
# and bounded-label variants, reconfiguration — runs the engine's rounds;
# none may grow a `Pending` of its own back, nor a catch-up round beside the
# engine's (the register's is a read it invokes on itself).
pending=$(grep -rl 'enum Pending' crates --include='*.rs' | grep -v '/fixtures/' | tr '\n' ' ' || true)
[ "$pending" = "crates/core/src/engine.rs " ] \
  || { echo "enum Pending is declared in: $pending— crates/core/src/engine.rs holds the one copy"; exit 1; }
recovery=$(grep -rl 'struct Recovery' crates --include='*.rs' | grep -v '/fixtures/' | tr '\n' ' ' || true)
[ -z "$recovery" ] \
  || { echo "struct Recovery is declared in: $recovery— a catch-up is a read of the engine's, not a round of its own"; exit 1; }
# The register shell owns no round: no tracker, no retry schedule of its own
# (`retransmissions()` still reads the engine's counter).
if sed '/^#\[cfg(test)\]/,$d' crates/core/src/register.rs | grep -nE 'PhaseTracker|rtx\.(arm|fire|disarm)'; then
  echo "crates/core/src/register.rs runs a round of its own again; rounds are crates/core/src/engine.rs's"; exit 1
fi
defs=$(grep -rl 'fn relay_observe' crates --include='*.rs' | wc -l)
[ "$defs" -eq 1 ] \
  || { echo "fn relay_observe is defined in $defs files under crates/; the engine's is the one copy"; exit 1; }
# Its seven message shapes are declared once too: `RegisterMsg` is an alias of
# `engine::Msg` and `KvMsg` nests it under `Op`.
decls=$(grep -rlE '^\s*RelayFwd \{' crates --include='*.rs' | tr '\n' ' ' || true)
[ "$decls" = "crates/core/src/engine.rs " ] \
  || { echo "the RelayFwd shape is declared in: $decls— engine::Msg is the one wire format of the operation path"; exit 1; }
# A shell that names a relay shape is translating the engine's messages
# variant by variant again (a `From<Msg<..>>` impl or a re-tagging `match`).
for f in crates/core/src/register.rs crates/kv/src/node.rs; do
  if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE 'fast_read_allowed\(|Msg::RelayFwd \{'; then
    echo "$f holds a piece of the operation path again; it belongs in crates/core/src/engine.rs"; exit 1
  fi
done
# One behaviour, no knob: every register rolls an interrupted write forward
# and serves beside its catch-up, and the simulator's links reorder freely.
if grep -rnE 'write_epilogue|with_fifo' crates src tests examples --include='*.rs'; then
  echo "a deleted knob is named again: the roll-forward is always on, and links are never FIFO"; exit 1
fi

# The store adds one exchange to it, the sync walk's: a catch-up is walks, a
# walk is `SyncDiffReq` / `SyncEntries`. No second transfer, no handshake,
# no knob choosing between them.
shapes=$(sed '/^#\[cfg(test)\]/,$d' crates/kv/src/node.rs | sed -n '/^pub enum KvMsg/,/^}/p' \
  | grep -oE '^    [A-Z][A-Za-z]*' | tr -d ' ' | tr '\n' ' ')
[ "$shapes" = "Op SyncDiffReq SyncEntries " ] \
  || { echo "KvMsg declares the shapes: $shapes— expected Op, SyncDiffReq, SyncEntries"; exit 1; }
if grep -rnE 'SyncPull|SyncState|SyncDigest|sync_threshold' crates src tests examples --include='*.rs'; then
  echo "the bulk pull, the digest handshake or their knob is named again; the Merkle walk is the one state transfer"; exit 1
fi

echo "==> link delay is held where the message lands (no delayer thread)"
# A message between two nodes carries the time it is due; its receiver holds
# it beside its timers. No thread of its own injects the delay.
if grep -rnE 'Delayer|delayer_main|abd-delayer|mod delay' crates src tests examples --include='*.rs' \
  | grep -v '^crates/lint/fixtures/'; then
  echo "a delayer is named again; the receiving node holds a delayed message (crates/runtime/src/cluster.rs)"; exit 1
fi

echo "==> one node host (crash, timers and restart are abd_core::host::NodeHost's; Sim and node_main drive it)"
# Above their tests, the drivers call no protocol callback and apply no timer
# command: the host does both. planted.rs is exempt: its mutants are
# protocols wrapping a protocol, not drivers.
for f in $(find crates/simnet/src crates/runtime/src -name '*.rs' | sort); do
  [ "$f" = crates/simnet/src/planted.rs ] && continue
  if sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nE '\.on_(start|invoke|message|timer|restart)\(|TimerCmd::'; then
    echo "$f drives a protocol or its timers itself; that is crates/core/src/host.rs's job"; exit 1
  fi
done
if grep -rn 'struct NodeSlot' crates src tests examples benchmark/src --include='*.rs'; then
  echo "struct NodeSlot is declared again; a node is a NodeHost (crates/core/src/host.rs)"; exit 1
fi

echo "==> the crossbeam stub waits on a Condvar, never sleeps"
# Its `select!` waits on its first arm's channel, so a command wakes a node at
# once; a sleep between polls would quietly bring back the command hop's
# ≈ 100 µs. Its tests may sleep.
if sed '/^#\[cfg(test)\]/,$d' vendor/crossbeam/src/channel.rs | grep -nE 'thread::sleep|\bsleep\('; then
  echo "vendor/crossbeam/src/channel.rs sleeps again; wait on the channel's Condvar (recv_timeout) instead"; exit 1
fi

echo "==> vendor/ holds no stub without a caller"
for dep in $(cd vendor && ls -d */ | tr -d /); do
  grep -q "^$dep = { path = \"vendor/$dep\"" Cargo.toml \
    && grep -qE "^$dep(\.workspace = true| = \{ workspace = true)" Cargo.toml crates/*/Cargo.toml \
    || { echo "vendor/$dep is not a [workspace.dependencies] entry that some member uses; delete the stub with its last caller"; exit 1; }
done

echo "==> cargo test --workspace"
cargo test -q --workspace

echo "==> nemesis smoke (fixed-seed fault campaign, replay-checked)"
cargo test -q --test nemesis fixed_seed

echo "==> relay nemesis smoke (relay read mode under crash waves and partitions)"
cargo test -q --test nemesis relay_

echo "==> per-tier nemesis smoke (sequential / regular / mixed-tier campaigns under faults)"
cargo test -q --test nemesis tier_

echo "==> oracle self-test gate (each tier's checker convicts its planted violation, weaker tiers acquit)"
cargo test -q --test consistency_tiers oracle_selftest_

echo "==> recovery nemesis smoke (recovery golden trace pinned + anti-entropy sweep races crash waves + pipelined wide-divergence walks under loss and duplication + restarted stores and registers serving during catch-up, and the amnesiac store and replica those campaigns must convict)"
cargo test -q --test nemesis kv_recovery_trace_digest_is_pinned
cargo test -q --test nemesis anti_entropy
cargo test -q --test nemesis merkle_recovery_pipelined_
cargo test -q --test nemesis kv_serves_during_catch_up_
cargo test -q --test nemesis register_serves_during_catch_up_

echo "==> reconfiguration campaign smoke (100 seeds x three read modes: 5 % loss + 5 % duplication, a member's blink crash, a partition laid over the second of three reconfigurations; every operation completes, every key linearizable, double-run digests equal)"
cargo test -q --test reconfiguration reconfig_campaign_ -- --nocapture

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> lincheck smoke (release: a 40 000-op history decided in one call, convicted with a stale read planted, 64 dangling pending writes; a search gone super-linear again times out)"
cargo test -q --release -p abd-lincheck --test scale --no-run
timeout 120 cargo test -q --release -p abd-lincheck --test scale \
  || { echo "lincheck smoke failed or timed out: the linearizability search is no longer near-linear"; exit 1; }

echo "==> T5 atomicity gate (300 schedules per variant: ABD rows violation-free, each baseline shows its anomaly)"
ABD_T5_SEEDS=300 cargo run -q --release -p abd-bench --bin table_atomicity

echo "==> repro shrink gate (known-bad fixture must minimize to the committed golden)"
cargo run -q --release -p abd-bench --bin abd_repro -- shrink \
  crates/bench/fixtures/planted-campaign.ron -o target/planted-campaign.min.ron
diff -u crates/bench/fixtures/planted-campaign.min.ron target/planted-campaign.min.ron \
  || { echo "shrinker output drifted from the committed golden minimal artifact"; exit 1; }

echo "==> repro explain gate (relay artifacts must name the relay read path)"
cargo run -q --release -p abd-bench --bin abd_repro -- explain \
  crates/bench/fixtures/relay-campaign.ron > target/relay-explain.txt
grep -q 'Invoke -> RelayRead -> Done' target/relay-explain.txt \
  || { echo "abd_repro explain lost the relay read-path line"; exit 1; }

echo "==> throughput bench smoke (fast-path + batching + consistency-tier gates, regenerates BENCH_throughput.json)"
cargo run -q --release -p abd-bench --bin fig_throughput
git diff --exit-code -- BENCH_throughput.json \
  || { echo "BENCH_throughput.json drifted from the checked-in artifact"; exit 1; }

echo "==> search bench smoke (guided search detects every mutant and round-trips each to a minimal artifact; guided vs blind reported; regenerates BENCH_search.json)"
cargo run -q --release -p abd-bench --bin fig_search -- --smoke
git diff --exit-code -- BENCH_search.json \
  || { echo "BENCH_search.json drifted from the checked-in artifact"; exit 1; }

echo "==> recovery bench smoke (Merkle-vs-bulk byte/message gates + one round trip per tree level + first get within two round trips of the reboot, regenerates BENCH_recovery.json)"
cargo run -q --release -p abd-bench --bin fig_recovery -- --smoke
git diff --exit-code -- BENCH_recovery.json \
  || { echo "BENCH_recovery.json drifted from the checked-in artifact"; exit 1; }

echo "==> benchmark self-test (benchmark/check.sh: two --quick passes, metric names/units vs BENCHMARK.json, exact counts repeat)"
benchmark/check.sh

echo "==> benchmark/ not dirtied (a PR that claims a gain may not change it, and a build counts)"
git diff --exit-code -- benchmark/ \
  || { echo "benchmark/ has unstaged changes. If it is benchmark/Cargo.lock: run.sh builds without --locked, so a new dependency edge between crates/* makes every build rewrite the committed lock file (PR 16 met this with lincheck -> core) — remove the edge, e.g. share the file by #[path], rather than commit the lock"; exit 1; }

echo "ci.sh: all gates green"
