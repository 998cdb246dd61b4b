#!/usr/bin/env bash
# Two full sets of runs of the same commit, back to back. Prints, per
# end-to-end metric x workload, the relative difference between the sets
# against the metric's bound in BENCHMARK.json, and fails if any exceeds
# it, if any run reported failed operations, or if a sim_digest differs
# between the sets or between a workload's traced and untraced runs.
# With `passes` > 1 each set is that many passes of run.sh and a metric's
# value is the median over them (a noisy shared host needs that).
#
#   benchmark/agree.sh [seed] [seconds] [passes]      (defaults: 12, 30, 1)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-12}"
seconds="${2:-30}"
passes="${3:-1}"
mkdir -p "$here/out"
a="$here/out/agree-a.jsonl"
b="$here/out/agree-b.jsonl"
for set in "$a" "$b"; do
    : >"$set"
    for ((i = 0; i < passes; i++)); do
        "$here/run.sh" "$seed" "$seconds" >>"$set"
    done
done

python3 - "$here/../BENCHMARK.json" "$a" "$b" <<'PY'
import json, sys
from statistics import median

decl = json.load(open(sys.argv[1]))
sets = [[json.loads(line) for line in open(p)] for p in sys.argv[2:4]]
bad = 0
digests = {}
for runs in sets:
    for r in runs:
        digests.setdefault(r["workload"], set()).add(r["sim_digest"])
        if r["ops_failed"]:
            print(f"FAIL {r['workload']} trace={r['trace']}: {r['ops_failed']} failed operations")
            bad += 1
for w, seen in sorted(digests.items()):
    if len(seen) != 1:
        print(f"FAIL {w}: sim_digest differs across runs: {sorted(seen)}")
        bad += 1

def untraced(runs):
    """workload -> metric -> median value over the set's passes"""
    seen = {}
    for r in runs:
        if not r["trace"]:
            for name, m in r["metrics"].items():
                seen.setdefault(r["workload"], {}).setdefault(name, []).append(m["value"])
    return {w: {name: median(v) for name, v in ms.items()} for w, ms in seen.items()}

first, second = untraced(sets[0]), untraced(sets[1])
print(f"{'workload':<14}{'metric':<13}{'first':>16}{'second':>16}{'worse by':>10}{'bound':>7}")
for m in decl["end_to_end"]:
    for w in (x["name"] for x in decl["workloads"]):
        x, y = first[w][m["name"]], second[w][m["name"]]
        worse = (x - y) / x if m["better"] == "higher" else (y - x) / x
        ok = abs(worse) <= m["bound"]
        bad += not ok
        print(f"{w:<14}{m['name']:<13}{x:>16.4f}{y:>16.4f}{worse:>+10.3f}{m['bound']:>7.2f}"
              f"{'' if ok else '  FAIL'}")
sys.exit(1 if bad else 0)
PY
