#!/usr/bin/env bash
# Self-test of the benchmark's wiring, not a measurement: runs every
# workload twice with 2 s windows (run.sh --quick, same seed) and fails if
#   - a metric named in BENCHMARK.json is not printed, or one is printed
#     that is not named there (end-to-end on --trace 0, per-layer on 1),
#   - a metric name falls outside [A-Za-z0-9_.-]+ or a unit does not match
#     the one declared,
#   - a run reports failed operations or wrong outputs,
#   - a metric marked [exact] differs between the two runs.
# Not wired into ci.sh: that file is outside this directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-1}"

for round in 1 2; do
  "$here/run.sh" --quick --seed "$seed" > /dev/null
  rm -rf "$here/out/check-$round"
  mkdir -p "$here/out/check-$round"
  cp "$here/out/results.json" "$here"/out/*-trace[01].txt "$here/out/check-$round/"
done

python3 - "$here" <<'PY'
import json, re, sys
here = sys.argv[1]
bench = json.load(open(f"{here}/../BENCHMARK.json"))
declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
workloads = [w["name"] for w in bench["workloads"]]
problems = []
rounds = [json.load(open(f"{here}/out/check-{r}/results.json")) for r in (1, 2)]

for r, results in enumerate(rounds, 1):
    seen = {(run["workload"], run["trace"]) for run in results["runs"]}
    for w in workloads:
        for t in (0, 1):
            if (w, t) not in seen:
                problems.append(f"round {r}: no run of {w} --trace {t}")
    for run in results["runs"]:
        where = f"round {r} {run['workload']} --trace {run['trace']}"
        res, want = run["result"], declared[run["trace"]]
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{where}: result keys are {sorted(res)}")
        if not res["correct"] or res["failed"] != 0 or res["attempted"] < 1:
            problems.append(f"{where}: correct={res['correct']} failed={res['failed']} attempted={res['attempted']}")
        for name in sorted(set(want) - set(res["metrics"])):
            problems.append(f"{where}: {name} is in BENCHMARK.json but was not printed")
        for name, m in res["metrics"].items():
            if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name):
                problems.append(f"{where}: bad metric name {name!r}")
            if name not in want:
                problems.append(f"{where}: {name} was printed but is not in BENCHMARK.json")
            elif m["unit"] != want[name]:
                problems.append(f"{where}: {name} printed in {m['unit']}, declared in {want[name]}")

def exact(round_, workload, trace):
    out = {}
    for line in open(f"{here}/out/check-{round_}/{workload}-trace{trace}.txt"):
        f = line.split()
        if len(f) == 4 and f[3] == "[exact]":
            out[f[0]] = f[2]
    return out

compared = 0
for w in workloads:
    a, b = exact(1, w, 1), exact(2, w, 1)
    if not a:
        problems.append(f"{w}: no [exact] metric printed")
    for name in sorted(set(a) | set(b)):
        compared += 1
        if a.get(name) != b.get(name):
            problems.append(f"{w}: exact metric {name} was {a.get(name)} then {b.get(name)}")

for p in problems:
    print("check.sh:", p)
print(f"check.sh: {len(problems)} problems; {compared} exact values compared across two runs")
sys.exit(1 if problems else 0)
PY
