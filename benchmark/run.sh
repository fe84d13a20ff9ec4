#!/usr/bin/env bash
# The benchmark's one command. Builds the package offline in release mode,
# then either
#
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       runs that workload once (this is what BENCHMARK.json's `command`
#       invokes) and prints the metrics, the result object last; or
#
#   run.sh [--seed <n>] [--seconds <s>] [--quick]
#       runs every workload, timed then traced, each in a fresh process,
#       and also writes out/results.json and out/<workload>-trace<t>.txt.
#       --quick uses 2 s windows: for self-tests (check.sh), not for numbers.
#
# Run it from the repo root or from anywhere: paths are resolved from this
# file, and nothing outside this directory (and cargo's target dir) is
# written.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/abd-benchmark"

seed=1
seconds=20
single=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  case "${args[i]}" in
    --workload) single=1 ;;
    --seed) seed="${args[i + 1]:?--seed needs a value}" ;;
    --seconds) seconds="${args[i + 1]:?--seconds needs a value}" ;;
    --quick) seconds=2 ;;
  esac
done

mkdir -p "$here/out"
if ((single)); then
  exec "$bin" "$@" --out "$here/out"
fi

workloads=(kv-read-heavy kv-write-contended kv-crash-recover sim-campaign)
status=0
runs=()
for w in "${workloads[@]}"; do
  for t in 0 1; do
    echo "== $w --seed $seed --seconds $seconds --trace $t"
    log="$here/out/$w-trace$t.txt"
    if ! "$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$t" \
      --out "$here/out" > "$log"; then
      echo "!! $w --trace $t failed its checks" >&2
      status=1
    fi
    grep -v '^{' "$log" || true
    runs+=("{\"workload\": \"$w\", \"trace\": $t, \"result\": $(tail -n 1 "$log")}")
  done
done
{
  echo "{\"seed\": $seed, \"seconds\": $seconds, \"runs\": ["
  for ((i = 0; i < ${#runs[@]}; i++)); do
    sep=","
    ((i == ${#runs[@]} - 1)) && sep=""
    echo "  ${runs[i]}$sep"
  done
  echo "]}"
} > "$here/out/results.json"
echo "results: $here/out/results.json"
exit "$status"
