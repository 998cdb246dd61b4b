#!/usr/bin/env bash
# Byte-compare the benchmark experiment outputs against committed goldens.
#
# Guards the refactor invariants: any change to the shared shaping/pacing
# path or the defense layer that alters simulated behavior shows up here
# as a diff, even if every unit test still passes. The goldens were
# produced with the exact invocations in the table below; a STOB_JSON_OUT
# dump never carries wall-clock fields, so it is deterministic across
# machines and thread counts. table2, defense_matrix and multipath are
# each run at 1 and 4 threads to pin the fan-out determinism contract
# (table2's pair is what holds the parallel `collect_dataset` stage at
# the CLI), and so is table1, whose measured-overhead rows hold
# `run_overheads`, and so is attacks, the k-FP RF vote beside full k-FP
# (leaf k-NN) and feature k-NN that EXPERIMENTS.md's attack table reads
# (tests/attack_table.rs asserts that reading on the golden). The
# fleet's report (work counts + emission checksum + telemetry totals, no
# timings) is held the same way: the quick population at 1 and 4
# threads, the full 1M-flow population at 1 thread (thread-invariance
# stays with the quick pair) — the fleet's cross-commit gate. How fast any of this runs is not checked here: that
# is the layered benchmark's job (BENCHMARK.json, benchmark/README.md).
# The fault suite's report (fault_matrix: every fault scenario x defense
# through the real stack, auditor on, exit 1 on any violation; its JSON
# never carries timings) is held here too, and only here: two runs that
# both equal the committed file are equal to each other, so this is also
# CI's 1-vs-4-thread determinism check under faults. `set -e` stops on a
# violation.
#
# Usage: scripts/check-golden.sh
# On a mismatch it prints the command that regenerates that golden; run
# it only after an *intentional* behavior change.
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

# One comparison per row: golden, STOB_THREADS, stob-bench bin, its args.
# The fleet writes its report through --checks-out, every other bin
# through STOB_JSON_OUT.
rows=(
    "tests/golden/table2.json          1  table2          12 25 2 7"
    "tests/golden/table2.json          4  table2          12 25 2 7"
    "tests/golden/defense_matrix.json  1  defense_matrix  6 10 2 7"
    "tests/golden/defense_matrix.json  4  defense_matrix  6 10 2 7"
    "tests/golden/multipath.json       1  multipath       12 30 10 11"
    "tests/golden/multipath.json       4  multipath       12 30 10 11"
    "tests/golden/fleet_quick.json     1  fleet           --quick"
    "tests/golden/fleet_quick.json     4  fleet           --quick"
    "tests/golden/fleet_full.json      1  fleet"
    "tests/golden/fault_matrix.json    1  fault_matrix"
    "tests/golden/fault_matrix.json    4  fault_matrix"
    "tests/golden/table1.json          1  table1          6 7"
    "tests/golden/table1.json          4  table1          6 7"
    "tests/golden/attacks.json         1  attacks         12 25 2 7"
    "tests/golden/attacks.json         4  attacks         12 25 2 7"
)

# The command that writes `$1`'s output for bin `$2` with args `$3...`.
command_for() {
    local dest="$1" bin="$2"
    shift 2
    local run=(cargo run --release --locked -p stob-bench --bin "$bin" -- "$@")
    if [[ $bin == fleet ]]; then
        echo "${run[*]} --checks-out $dest"
    else
        echo "STOB_JSON_OUT=$dest ${run[*]}"
    fi
}

for row in "${rows[@]}"; do
    read -r golden threads bin rest <<<"$row"
    read -ra args <<<"$rest"
    label="$bin${args[*]:+ ${args[*]}} ($threads thread$([[ $threads == 1 ]] || echo s))"
    env STOB_THREADS="$threads" bash -c "$(command_for "$out" "$bin" "${args[@]}")" >/dev/null
    if ! cmp "$golden" "$out"; then
        echo "check-golden: $golden diverged from the current build ($label)." >&2
        echo "If the behavior change is intentional, regenerate the golden with" >&2
        echo "  STOB_THREADS=1 $(command_for "$golden" "$bin" "${args[@]}")" >&2
        exit 1
    fi
    echo "check-golden: $label output is byte-identical to $golden"
done
