#!/usr/bin/env bash
# Alternating benchmark pairs, parent commit against the working tree
# (PERF.md, "Measuring a claim"). Builds the parent's `benchmark` binary
# from `git archive <parent-rev>` in `$tmp/parent` and the working tree's
# from a snapshot of it (tracked files plus untracked ones git does not
# ignore, as they stand on disk) in `$tmp/change`, then runs `--workload W --seed S --seconds T
# --trace 0` on each side `pairs` times, alternating which side goes
# first, every run from its own empty working directory. Prints every
# run's throughput / peak_rss_mb / setup_s / sim_digest / failed, then per
# metric each side's median and quartiles and the pairs the change won,
# then per metric whether PERF.md's gain-claim rule holds (ahead in nine
# tenths of the pairs, medians further apart than the parent's
# quartiles), and the no-regression verdict: whether the change's median
# is worse than the parent's, relative to the parent's, by no more than
# the metric's `bound` in BENCHMARK.json — "unresolved" where the
# parent's inter-quartile range, relative to its median, is wider than
# the bound, unless every change run reads better than every parent
# run. Exits 1 if any two runs' sim_digests differ or any run failed an
# operation; the verdicts do not change the exit status.
#
# Both sides are built from checkouts of one path length, since the
# benchmark bakes its checkout path in at compile time: a change built in
# place and a parent built elsewhere read apart on identical code. Both
# sides run from paths of one length too: the binaries are copied to
# `$tmp/bin/parent` and `$tmp/bin/change`, and the runs work in
# `$tmp/run/001`, `002`, …. A program's peak_rss_mb can follow the
# length of the binary's path and of its working directory:
# `fleet_mixed`'s had two modes ~1.1 MiB apart while its shards kept
# per-shard residency vectors (PERF.md, "One residency table per fleet
# run").
#
# Given a metric-name prefix (e.g. `defenses.m`), it then makes three
# `--trace 1` runs per side, each as long as a pair's run, alternating
# which side goes first, and prints every per-layer row whose name
# starts with the prefix: each side's median and min-max over its three
# runs, and the ratio of the medians. One traced run per side is no
# comparison: on a shared 2-core host a row can read several times
# apart between two runs of one binary, so read a difference only where
# the two sides' ranges stay apart. With `pairs` 0 it runs the traced
# rows only.
#
#   scripts/bench-pairs.sh <parent-rev> <workload> <pairs> [seconds] [seed] [prefix]
#                                                  (defaults: 30, 12, none)
#
# The temporary directory (both checkouts, their builds, the run
# directories) is made with `mktemp -d`, so TMPDIR chooses where it goes;
# it is removed on exit.
set -euo pipefail
if [[ $# -lt 3 || $# -gt 6 ]]; then
    echo "usage: $0 <parent-rev> <workload> <pairs> [seconds] [seed] [prefix]" >&2
    exit 2
fi
rev="$1"
workload="$2"
pairs="$3"
seconds="${4:-30}"
seed="${5:-12}"
prefix="${6:-}"
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/parent" "$tmp/change"
git -C "$root" archive "$rev" | tar -x -C "$tmp/parent"
# The working tree as it stands: a file deleted on disk but still in the
# index is left out.
(cd "$root" && git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do if [[ -e "$f" ]]; then printf '%s\0' "$f"; fi; done |
    tar --null -T - -cf -) | tar -x -C "$tmp/change"
build() {
    cargo build --release --offline --locked --quiet --manifest-path "$1/benchmark/Cargo.toml"
}
build "$tmp/parent"
build "$tmp/change"
mkdir -p "$tmp/bin" "$tmp/run"
cp "$tmp/parent/benchmark/target/release/benchmark" "$tmp/bin/parent"
cp "$tmp/change/benchmark/target/release/benchmark" "$tmp/bin/change"
declare -A bin=([parent]="$tmp/bin/parent" [change]="$tmp/bin/change")
# One fresh working directory per run, all of one depth and name length.
nrun=0
rundir() {
    nrun=$((nrun + 1))
    cwd="$(printf '%s/run/%03d' "$tmp" "$nrun")"
    mkdir "$cwd"
}
# A traced run writes here, under the checkout its binary was built from.
declare -A trace=(
    [parent]="$tmp/parent/benchmark/out/trace-$workload.json"
    [change]="$tmp/change/benchmark/out/trace-$workload.json"
)

runs="$tmp/runs.jsonl"
: >"$runs"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do
        rundir
        out="$(cd "$cwd" && "${bin[$side]}" --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0)"
        report="${out%%$'\n'*}" # the first line is the descriptive report
        printf '{"pair":%d,"side":"%s","report":%s}\n' "$i" "$side" "$report" >>"$runs"
    done
done
traced=3
mkdir -p "$tmp/traces"
if [[ -n "$prefix" ]]; then
    for ((i = 1; i <= traced; i++)); do
        if ((i % 2)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            rundir
            (cd "$cwd" && "${bin[$side]}" --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 1 >/dev/null)
            cp "${trace[$side]}" "$tmp/traces/$side-$i.json"
        done
    done
fi

python3 - "$runs" "$rev" "$workload" "$seed" "$root/BENCHMARK.json" "$prefix" \
    "$tmp/traces" <<'PY'
import json, sys
from glob import glob
from statistics import median, quantiles

runs = [json.loads(line) for line in open(sys.argv[1])]
rev, workload, seed = sys.argv[2:5]
end_to_end = {m["name"]: m for m in json.load(open(sys.argv[5]))["end_to_end"]}
metrics = ["throughput", "peak_rss_mb", "setup_s"]
prefix = sys.argv[6]

def table(heads, rows):
    """Print `rows` under `heads`, each column as wide as its widest
    cell: the first left-aligned, the rest right-aligned two apart."""
    widths = [max([len(h)] + [len(r[i]) for r in rows]) for i, h in enumerate(heads)]
    for cells in [heads, *rows]:
        print(cells[0].ljust(widths[0]) + "".join(f"  {c:>{w}}" for c, w in zip(cells[1:], widths[1:])))

def traced_rows():
    if not prefix:
        return
    side_runs = {
        side: [json.load(open(f))["run"]["metrics"] for f in sorted(glob(f"{sys.argv[7]}/{side}-*.json"))]
        for side in ("parent", "change")
    }
    rows = sorted({k for runs in side_runs.values() for m in runs for k in m if k.startswith(prefix)})
    n = len(side_runs["parent"])
    print()
    print(f"traced rows {prefix}*: {n} --trace 1 runs per side, median (min-max)")
    lines = []
    for k in rows:
        meds, cells = [], [k]
        for side in ("parent", "change"):
            v = [m[k]["value"] for m in side_runs[side] if k in m]
            meds.append(median(v) if v else None)
            cells.append(f"{median(v):.2f} ({min(v):.2f}-{max(v):.2f})" if v else "-")
        p, c = meds
        cells.append(f"{c / p:.3f}" if p and c is not None else "-")
        lines.append(cells)
    table(["row", "parent", "change", "ratio"], lines)

if not runs:
    traced_rows()
    sys.exit(0)

print(f"{workload} seed {seed}: parent {rev} against the working tree, {len(runs) // 2} pairs")
print(f"{'pair':>4} {'side':<7}" + "".join(f"{m:>14}" for m in metrics) + f"{'sim_digest':>20}{'failed':>8}")
for r in runs:
    rep = r["report"]
    cells = "".join(f"{rep['metrics'][m]['value']:>14.4f}" for m in metrics)
    print(f"{r['pair']:>4} {r['side']:<7}{cells}{rep['sim_digest']:>20}{rep['ops_failed']:>8}")

def values(side, m):
    return [r["report"]["metrics"][m]["value"] for r in runs if r["side"] == side]

def spread(v):
    q1, _, q3 = quantiles(v, n=4, method="inclusive") if len(v) > 1 else (v[0], v[0], v[0])
    return f"{median(v):.4f} ({q1:.4f}-{q3:.4f})"

print()
summary, verdicts = [], []
for m in metrics:
    p, c = values("parent", m), values("change", m)
    sign = 1 if end_to_end[m]["better"] == "higher" else -1
    won = sum(sign * (y - x) > 0 for x, y in zip(p, c))
    delta = (median(c) - median(p)) / median(p)
    summary.append([m, spread(p), spread(c), f"{delta:+.3f}", f"{won}/{len(p)}"])
    # PERF.md's claim rule: ahead in nine tenths of the pairs (a tie is a
    # win for neither side), and the medians further apart, in the better
    # direction, than the parent's quartiles.
    q1, _, q3 = quantiles(p, n=4, method="inclusive") if len(p) > 1 else (p[0],) * 3
    gap = sign * (median(c) - median(p))
    holds = 10 * won >= 9 * len(p) and gap > q3 - q1
    verdicts.append(
        f"{m:<13}gain claim {'holds' if holds else 'does not hold'}: "
        f"won {won}/{len(p)} (needs {-(-9 * len(p) // 10)}), "
        f"medians {gap:+.4f} apart in the better direction against a parent IQR of {q3 - q1:.4f}"
    )
    # The no-regression rule: the change's median worse than the
    # parent's, as a share of the parent's, by no more than the bound;
    # unresolved where the parent's own spread is wider than the bound,
    # unless every change run reads better than every parent run.
    bound = end_to_end[m]["bound"]
    worse = -gap / median(p)
    iqr = (q3 - q1) / median(p)
    if iqr > bound and not min(sign * y for y in c) > max(sign * x for x in p):
        bound_verdict = "unresolved"
    else:
        bound_verdict = "holds" if worse <= bound else "FAILS"
    verdicts.append(
        f"{m:<13}no-regression bound {bound_verdict}: median worse by {worse:+.4f} of the "
        f"parent's against a bound of {bound:.2f}, parent IQR {iqr:.4f} of its median"
    )
table(["metric", "parent median (quartiles)", "change median (quartiles)", "change", "won"], summary)
print()
print("\n".join(verdicts))
traced_rows()

bad = 0
digests = sorted({r["report"]["sim_digest"] for r in runs})
if len(digests) != 1:
    print(f"FAIL sim_digest differs across runs: {digests}")
    bad += 1
failed = sum(r["report"]["ops_failed"] for r in runs)
if failed:
    print(f"FAIL {failed} failed operations")
    bad += 1
sys.exit(1 if bad else 0)
PY
