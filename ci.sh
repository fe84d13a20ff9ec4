#!/usr/bin/env bash
# Local CI: every gate the repo holds itself to, cheapest first.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --no-deps --workspace prints no warning"
# A broken, private or ambiguous intra-doc link is rustdoc's warning; an
# output filename collision is cargo's own, which RUSTDOCFLAGS cannot deny,
# so the gate reads the command's output.
doc_out=$(cargo doc --no-deps --workspace 2>&1)
if grep -E '^warning' <<<"$doc_out"; then
  echo "$doc_out"; echo "cargo doc warns; mend the link or the doc target it names"; exit 1
fi

echo "==> DESIGN §5's module map names every source file"
# Each .rs file under crates/*/src, tests/ and examples/ (lib.rs, main.rs and
# mod.rs aside) is named in its own block of the map: a crate's file by its
# path below src/, a test or an example by its file name. A block runs from
# its unindented header line (`crates/<name>`, `tests/`, `examples/`) to the
# next unindented line.
map=$(sed -n '/^## 5\. /,/^## 6\. /p' DESIGN.md)
unnamed=""
for f in $(find crates/*/src tests examples -name '*.rs' ! -name lib.rs ! -name main.rs ! -name mod.rs | sort); do
  case "$f" in
    crates/*) block=$(cut -d/ -f1-2 <<<"$f"); rel=${f#*/src/} ;;
    *) block=${f%%/*}/; rel=${f#*/} ;;
  esac
  rows=$(awk -v b="$block" '/^[^ ]/ { on = index($0, b) == 1 } on' <<<"$map")
  grep -qE "(^|[[:space:](])(src/)?${rel//./\\.}([^[:alnum:]_]|$)" <<<"$rows" || unnamed+="$f "
done
[ -z "$unnamed" ] \
  || { echo "DESIGN §5's module map does not name: $unnamed— give each file a row in its block"; exit 1; }

echo "==> deleted names stay deleted (one row per tombstone: pattern, paths, why)"
# Each row is a `grep -rnE` pattern, the paths it searches and the message a
# match fails with, after a comment saying what replaced the name. A deletion
# that must stay deleted is one more row; the gates further down check shapes
# and counts, which a pattern cannot.
tombstones=(
  # The retired linter: determinism and clock discipline are each crate's
  # clippy.toml, the handlers' totality #[deny], and the phase graphs consts
  # checked against the transitions runs take (tests/engine_identity.rs).
  'abd-lint|abd_lint|phase-spec|crates/lint'
  'crates src tests examples'
  "the hand-written linter is named again; its rules live in clippy.toml, #[deny] attributes, ci.sh and tests (DESIGN §9)"
  # A repro artifact is one `key value` field per line (Repro's Display and
  # FromStr): no RON subset, lexer or recursive parser, and no oracle no
  # artifact used.
  'enum Tok|fn lex\b|struct Parser|to_ron|from_ron|DigestDivergence'
  'crates src tests examples'
  "a deleted name of the old artifact reader is back; an artifact is read by Repro's FromStr (crates/simnet/src/repro.rs)"
  # An experiment's artifact is the tables it prints: every deterministic
  # binary writes BENCH_<name>.json through abd_bench::write_artifact, at its
  # one size.
  '--smoke|ABD_T5_SEEDS|variant_json|mutant_json|PREVIOUS_FIRST_GET_US'
  'crates src tests examples'
  "a deleted name of the old experiment output is back; a binary hands the Tables it printed to abd_bench::write_artifact"
  # A register cluster is built from its config alone: a variant is the
  # RegisterConfig builder chain it is, written at its call site.
  'presets::|mod presets|enum Variant'
  'crates src tests examples'
  "a preset alias or a variant enum is back; build the cluster from RegisterConfig's builders (DESIGN §6)"
  # Membership is static (DESIGN §16), and a property test draws case `c` from
  # `SmallRng::seed_from_u64(c)`, naming the case and its inputs.
  'RcNode|requorum|RcMsg|mod reconfig|proptest!|prop_assert'
  'crates src tests examples'
  "a deleted name of reconfiguration or of the proptest stub is back; membership is static (DESIGN §16) and a property test is a seeded loop over SmallRng"
  # One behaviour, no knob: the roll-forward, free reordering, a backoff set
  # by its base alone, the planner's fixed fault mix and skews, Batched's
  # fixed window, a down runtime node refusing its own invocations, counters
  # read through counters() alone, and a tap reporting what its users read.
  'write_epilogue|with_fifo|with_backoff|BackoffPolicy::fixed|with_jitter|cover_all_nodes|\.partitions\b|partitions: usize|loss_bursts|gray_failures|max_loss|max_gray|max_skew|Batched::adaptive|adapt_cap|GROW_LOAD|SHRINK_LOAD|is_crashed|partition_active|TapKind::TimerFire|TapKind::Crash|fn fast_reads\('
  'crates src tests examples benchmark/src --include=*.rs'
  "a deleted knob is named again: the roll-forward is always on, links are never FIFO, a backoff is BackoffPolicy::new(base), the planner's fault mix is fixed, Batched's window is fixed, a down runtime node refuses its own invocations, counters are read through ReadPathStats::counters(), and the tap has no timer-fire or crash event"
  # The Merkle walk is the store's one state transfer: no bulk pull, digest
  # handshake or knob between them.
  'SyncPull|SyncState|SyncDigest|sync_threshold'
  'crates src tests examples --include=*.rs'
  "the bulk pull, the digest handshake or their knob is named again; the Merkle walk is the one state transfer"
  # One sync policy: a walk runs when a node reboots. No background sweep, no
  # knob and no timer key of its own.
  'anti_entropy|SWEEP_KEY|on_sweep|arm_sweep|sweep_next'
  'crates src tests examples'
  "the background anti-entropy sweep is named again; a KvNode walks its peers when it reboots, and only then (DESIGN §15)"
  # FastHasher hashes the Merkle tree too, a ProcSet is one word, a read
  # without write-back is ReadMode::NoWriteBack, a latency is an OpRecord's,
  # and a verdict is OracleSpec::violation's (no oracle types in lincheck).
  'FnvHasher|FNV_PRIME|Words::Heap|read_write_back|total_op_latency|mean_op_latency|HistoryOracle|AtomicSwmrOracle|LinearizableOracle|SequentialConsistencyOracle|RegularOracle|OracleSpec::AtomicSwmr'
  'crates src tests examples'
  "a deleted name is back: hash with abd_core::fasthash::FastHasher, a ProcSet is one u64, a read without write-back is ReadMode::NoWriteBack, a latency is an OpRecord's, and a campaign's verdict is OracleSpec::violation's (crates/simnet/src/repro.rs), with OracleSpec::Linearizable for atomicity"
  # Link delay is held where the message lands, beside its receiver's timers:
  # no thread of its own injects it.
  'Delayer|delayer_main|abd-delayer|mod delay'
  'crates src tests examples --include=*.rs'
  "a delayer is named again; the receiving node holds a delayed message (crates/runtime/src/cluster.rs)"
  # A node is a NodeHost, which Sim and node_main drive.
  'struct NodeSlot'
  'crates src tests examples benchmark/src --include=*.rs'
  "struct NodeSlot is declared again; a node is a NodeHost (crates/core/src/host.rs)"
  # A judged simulated run is a Repro (Repro::staggered for a sweep,
  # ProtocolSpec::Byzantine / Bounded for those registers): the sweeps that
  # moved onto it keep no cluster builder or history copy of their own.
  # (engine_identity.rs' pinned variant rows build their own nodes.)
  '\b(bounded_cluster|history_of|byz_nodes|sim_over|byz_cluster|honest_history|cluster_cfg)\b|fn cluster\('
  'tests/atomicity_sweep.rs tests/bounded_protocol.rs tests/byzantine.rs tests/kv_linearizable.rs tests/proptest_histories.rs tests/nemesis.rs examples'
  "a per-file sweep driver is back; a judged run is a Repro (crates/simnet/src/repro.rs), and only the loops DESIGN §10 lists keep a Sim of their own"
)
# A path word like --include=*.rs is grep's glob, not the shell's.
set -f
for ((i = 0; i < ${#tombstones[@]}; i += 3)); do
  # The paths are words: unquoted on purpose.
  if grep -rnE -e "${tombstones[i]}" ${tombstones[i + 1]}; then
    echo "${tombstones[i + 2]}"; exit 1
  fi
done
set +f

echo "==> quorum sizes come from crates/core/src/quorum.rs (no open-coded majority arithmetic)"
# A majority open-coded as `n / 2 + 1` or `div_ceil(2)` is a threshold
# nobody checks; quorum.rs's constructors check theirs once. Non-test,
# non-comment lines of the protocol crates. One halving is exempt: the
# bounded-label cycle's comparison window is half the cycle, not a quorum.
halvings=$(for f in $(find crates/core/src crates/kv/src -name '*.rs' ! -path crates/core/src/quorum.rs | sort); do
  sed '/^#\[cfg(test)\]/,$d' "$f" | sed 's://.*$::' | grep -nE '/\s*2\b|div_ceil\(2\)' | sed "s|^|$f:|"
done | grep -vE '^crates/core/src/bounded/label\.rs:[0-9]+: +let window = modulus / 2 - 1;$' || true)
[ -z "$halvings" ] \
  || { echo "$halvings"; echo "open-coded quorum arithmetic; use abd_core::quorum::majority_threshold or masking_threshold"; exit 1; }

echo "==> one operation path (the quorum-operation engine is the only copy)"
# Every protocol in the workspace — the registers, the store, the Byzantine
# and bounded-label variants — runs the engine's rounds;
# none may grow a `Pending` of its own back, nor a catch-up round beside the
# engine's (the register's is a read it invokes on itself).
pending=$(grep -rl 'enum Pending' crates --include='*.rs' | tr '\n' ' ' || true)
[ "$pending" = "crates/core/src/engine.rs " ] \
  || { echo "enum Pending is declared in: $pending— crates/core/src/engine.rs holds the one copy"; exit 1; }
recovery=$(grep -rl 'struct Recovery' crates --include='*.rs' | tr '\n' ' ' || true)
[ -z "$recovery" ] \
  || { echo "struct Recovery is declared in: $recovery— a catch-up is a read of the engine's, not a round of its own"; exit 1; }
# The register shell owns no round: no tracker, no retry schedule of its own
# (its `counters()` carry the engine's re-send count).
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
# The store adds one exchange to it, the sync walk's: a catch-up is walks, a
# walk is `SyncDiffReq` / `SyncEntries`. No second transfer, no handshake,
# no knob choosing between them.
shapes=$(sed '/^#\[cfg(test)\]/,$d' crates/kv/src/node.rs | sed -n '/^pub enum KvMsg/,/^}/p' \
  | grep -oE '^    [A-Z][A-Za-z]*' | tr -d ' ' | tr '\n' ' ')
[ "$shapes" = "Op SyncDiffReq SyncEntries " ] \
  || { echo "KvMsg declares the shapes: $shapes— expected Op, SyncDiffReq, SyncEntries"; exit 1; }

echo "==> one table per KV replica (entries live in their Merkle buckets; no hash map or key index beside them)"
# KvStore is the digest tree and its leaf buckets of (key, tag, value):
# adopt updates an entry in place or pushes it onto its bucket, then applies
# the digest delta itself. The hash map that once held the entries a second
# time, and the helper that kept the two in step, are gone.
if grep -rnE '\bdigest_update\b' crates src tests examples benchmark/src --include='*.rs' \
  || grep -nE 'HashMap<K, \(Tag, V\)' crates/kv/src/node.rs; then
  echo "a second copy of the KV replica's entries is back; an entry lives in its Merkle bucket (KvStore::buckets) and adopt applies its digest delta"; exit 1
fi
deltas=$(sed '/^#\[cfg(test)\]/,$d' crates/kv/src/node.rs | grep -c 'apply_delta(' || true)
[ "$deltas" -eq 1 ] \
  || { echo "crates/kv/src/node.rs calls apply_delta $deltas times above its tests; the store's adopt is the one caller"; exit 1; }

echo "==> one owner for crash and retry bookkeeping (Engine::on_restart hands back the interrupted write; a node counts its own re-sends)"
# The engine says what a crash leaves: on_restart returns the write caught in
# its update round, which the register resumes (Engine::resume_write) and the
# store drops. A node's re-sends are ReadPathCounters::retransmissions, filled
# from its Retransmitter and read through counters(): the simulator keeps no
# count of its own, and no node type has an accessor beside counters().
if grep -rnE 'write_in_flight|restart_round' crates src tests examples benchmark/src --include='*.rs' \
  || grep -nE '^\s*(pub\s+)?retransmissions\s*:' crates/simnet/src/metrics.rs \
  || grep -rnE 'fn retransmissions\b' crates src tests examples benchmark/src --include='*.rs' | grep -v '^crates/core/src/retransmit\.rs:'; then
  echo "a deleted name of the crash or retry bookkeeping is back: Engine::on_restart returns the interrupted write, and a node's re-sends are ReadPathCounters::retransmissions (Retransmitter::retransmissions is the one accessor)"; exit 1
fi

echo "==> one checker budget (outside crates/lincheck and benchmark/, a caller takes the checker's default)"
# A caller with no reason to pick a Wing–Gong or SC state cap calls
# check_linearizable / check_sequential, which search up to the checker's own
# default; T5 counts states under wg::DEFAULT_STATE_LIMIT. The exemptions are
# repro.rs' two exhaustion tests, which need a one-state budget to run out.
budgets=$(for f in $(grep -rlE 'check_(linearizable|sequential)_(with_limit|counting_states)' crates src tests examples --include='*.rs' | grep -v '^crates/lincheck/' | sort); do
  perl -0777 -ne 'my $a = qr/(?:[^,()]|\([^()]*\))+/; while (/check_(?:linearizable|sequential)_(?:with_limit|counting_states)\s*\(\s*$a,\s*($a?)\s*,?\s*\)/g) { my $b = $1; (my $m = $&) =~ s/\s+/ /g; print "$ARGV: $m\n" unless $b eq "DEFAULT_STATE_LIMIT" }' "$f"
done | grep -vxE 'crates/simnet/src/repro\.rs: check_(linearizable|sequential)_with_limit\(&wide_history\(\), 1\)' || true)
[ -z "$budgets" ] \
  || { echo "$budgets"; echo "a checker budget is chosen at a call site; call check_linearizable / check_sequential (or pass wg::DEFAULT_STATE_LIMIT to check_linearizable_counting_states)"; exit 1; }

echo "==> the nemesis search is blind sampling (no coverage map, no corpus, no mutation)"
# Independent blind trials detect the mutant zoo as often as the mutational
# search did, at every simulator seed (EXPERIMENTS F7), so the mutation
# operators, the recovery ambush, the corpus and the coverage cells that once
# steered it are gone; the simulator's tap stays for its other users.
if [ -e crates/simnet/src/coverage.rs ] \
  || grep -rnE 'coverage\.rs|CoverageMap|CoverageCollector|CoverageSample|run_with_coverage|ClassifyOp|guided_search|MutationOp|ambush_recovery|corpus_digest|schedule_digest' \
    crates src tests examples benchmark/src --include='*.rs'; then
  echo "the mutational search or its coverage map is back; a search is blind_search's independent windows of planner seeds (crates/simnet/src/search.rs)"; exit 1
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

echo "==> one event queue (Sim's key heap over a payload slab; a BinaryHeap lives only in its tests, as the reference)"
if sed '/^#\[cfg(test)\]/,$d' crates/simnet/src/sim.rs | grep -n 'BinaryHeap'; then
  echo "crates/simnet/src/sim.rs names BinaryHeap above its tests; Sim's events are EventQueue's"; exit 1
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

echo "==> every pub fn under crates/*/src is named outside its crate's library or in a doc example (by name only: a name as common as \`new\` passes unseen)"
# A public function that only its own crate calls is surface without a user:
# make it pub(crate), gate it with #[cfg(test)] beside the tests that read
# it, or delete it. A name counts as used when a file outside the crate's
# library names it (another crate, the root package's src/, tests/ or
# examples/, benchmark/src, or the crate's own src/bin/ and tests/), or when
# a ``` example in a /// or //! comment of its own file does. The match is by
# name only, so a name common enough to appear elsewhere — `new`, `len`,
# `iter` — passes unseen; the compiler's privacy errors are the exact test.
uncalled=""
for f in $(find crates/*/src -name '*.rs' | sort); do
  # The files that do not count as users: the crate's library, or, for a
  # binary under src/bin/, the binary itself.
  case "$f" in
    */src/bin/*) own="^\Q$f\E$" ;;
    *) own="^${f%%/src/*}/src/(?!bin/)" ;;
  esac
  examples=$(awk '/^[ \t]*\/\/[\/!]/ { if (index($0, "```")) { on = !on; next } if (on) print; next } { on = 0 }' "$f")
  for fn in $(grep -oP '^\s*pub fn \K\w+' "$f" | sort -u); do
    grep -qw "$fn" <<<"$examples" && continue
    users=$(grep -rlw --include='*.rs' "$fn" crates src tests examples benchmark/src | grep -vP "$own" || true)
    [ -n "$users" ] || uncalled+="$f:$fn "
  done
done
[ -z "$uncalled" ] \
  || { echo "nothing outside their crate's library (a binary's: outside the binary) names these public functions: $uncalled— make each pub(crate), gate it with #[cfg(test)], or delete it"; exit 1; }

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

echo "==> recovery nemesis smoke (recovery golden trace pinned + pipelined wide-divergence walks under loss, duplication, crash waves and partitions + restarted stores and registers serving during catch-up, and the amnesiac store and replica those campaigns must convict)"
cargo test -q --test nemesis kv_recovery_trace_digest_is_pinned
cargo test -q --test nemesis merkle_recovery_pipelined_
cargo test -q --test nemesis kv_serves_during_catch_up_
cargo test -q --test nemesis register_serves_during_catch_up_

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> examples (each release binary runs to exit 0)"
cargo build -q --release --examples
for src in examples/*.rs; do
  ex=$(basename "$src" .rs)
  echo "--> $ex"
  "target/release/examples/$ex" > /dev/null \
    || { echo "example $ex exited non-zero"; exit 1; }
done

echo "==> lincheck smoke (release: a 40 000-op history decided in one call, convicted with a stale read planted, 64 dangling pending writes; a search gone super-linear again times out)"
cargo test -q --release -p abd-lincheck --test scale --no-run
timeout 120 cargo test -q --release -p abd-lincheck --test scale \
  || { echo "lincheck smoke failed or timed out: the linearizability search is no longer near-linear"; exit 1; }

echo "==> repro shrink gate (known-bad fixture must minimize to the committed golden)"
cargo run -q --release -p abd-bench --bin abd_repro -- shrink \
  crates/bench/fixtures/planted-campaign.repro -o target/planted-campaign.min.repro
diff -u crates/bench/fixtures/planted-campaign.min.repro target/planted-campaign.min.repro \
  || { echo "shrinker output drifted from the committed golden minimal artifact"; exit 1; }

echo "==> repro explain gate (relay artifacts must name the relay read path)"
cargo run -q --release -p abd-bench --bin abd_repro -- explain \
  crates/bench/fixtures/relay-campaign.repro > target/relay-explain.txt
grep -q 'Invoke -> RelayRead -> Done' target/relay-explain.txt \
  || { echo "abd_repro explain lost the relay read-path line"; exit 1; }

echo "==> Byzantine and bounded repro gates (each committed conviction replays to its digest, shrinks to an artifact that does too, and explains)"
for fixture in byzantine-forger bounded-held; do
  for step in "replay crates/bench/fixtures/$fixture.repro" \
    "shrink crates/bench/fixtures/$fixture.repro -o target/$fixture.min.repro" \
    "replay target/$fixture.min.repro" "explain crates/bench/fixtures/$fixture.repro"; do
    # A step is words: unquoted on purpose.
    cargo run -q --release -p abd-bench --bin abd_repro -- $step > /dev/null \
      || { echo "abd_repro $step failed"; exit 1; }
  done
done

echo "==> experiments (every table/figure binary runs its asserts; each deterministic one rewrites its BENCH_<name>.json, which must equal the committed file, and EXPERIMENTS.md must quote its tables)"
# The twelve deterministic binaries write the tables they print through
# abd_bench::write_artifact, which panics when EXPERIMENTS.md does not quote
# one of them line for line (trailing whitespace aside); fig_shmem (F5)
# prints wall-clock columns, so it runs for its assertion and writes
# nothing. A changed artifact and a new untracked one both fail.
for src in crates/bench/src/bin/table_*.rs crates/bench/src/bin/fig_*.rs; do
  bin=$(basename "$src" .rs)
  echo "--> $bin"
  cargo run -q --release -p abd-bench --bin "$bin"
done
drift=$(git status --porcelain -- 'BENCH_*.json')
[ -z "$drift" ] \
  || { echo "$drift"; git diff -- 'BENCH_*.json'; echo "a BENCH_*.json artifact differs from the committed tree or is not tracked; if the change is meant, commit the regenerated file"; exit 1; }

echo "==> benchmark self-test (benchmark/check.sh: two --quick passes, metric names/units vs BENCHMARK.json, exact counts repeat)"
benchmark/check.sh

echo "==> benchmark/ not dirtied (a PR that claims a gain may not change it, and a build counts)"
git diff --exit-code -- benchmark/ \
  || { echo "benchmark/ has unstaged changes. If it is benchmark/Cargo.lock: run.sh builds without --locked, so a new dependency edge between crates/* makes every build rewrite the committed lock file (PR 16 met this with lincheck -> core) — remove the edge, e.g. share the file by #[path], rather than commit the lock"; exit 1; }

echo "ci.sh: all gates green"
