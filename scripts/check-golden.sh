#!/usr/bin/env bash
# Byte-compare the benchmark experiment outputs against committed goldens.
#
# Guards the refactor invariants: any change to the shared shaping/pacing
# path or the defense layer that alters simulated behavior shows up here
# as a diff, even if every unit test still passes. The goldens were
# produced with the exact invocations in the table below; every bin
# writes its report to the file STOB_JSON_OUT names, and that dump never
# carries wall-clock fields, so it is deterministic across machines and
# thread counts. Each golden is run at 1 and 4 threads (the full 1M-flow
# fleet included: it takes about a second at 4), and two runs that both
# equal the committed file are equal to each other, so this is also the
# fan-out determinism check of every harness:
#
# - table2, defense_matrix, multipath, attacks: the k-FP experiments
#   (table2's pair holds the parallel feature extraction and forest
#   stages behind the serial `collect_dataset` page loads at the CLI;
#   tests/attack_table.rs asserts EXPERIMENTS.md's attack-table reading
#   on attacks.json);
# - cc_ident, openworld: the extension attacks, CC identification
#   (§5.2) and open-world k-FP, plain and defended
#   (tests/extension_claims.rs asserts EXPERIMENTS.md's reading of both);
# - table1: the measured-overhead rows of `run_overheads`;
# - figure3, ablations: the goodput sweeps of Figure 3 and the ablations
#   (tests/goodput_claims.rs asserts the paper's claims on them);
# - fleet: the fleet's report (work counts + emission checksum +
#   telemetry totals), the fleet's cross-commit gate;
# - fault_matrix: the fault suite, every fault scenario x defense through
#   the real stack, auditor on;
# - chaos --quick: the recovery soak, which exits 1 on a violation, a
#   visit panic, a recovery-on completion rate below its floor or a
#   recovery-off blackout baseline that stops failing.
#
# `set -e` stops on any bin's own failing exit. How fast any of this runs
# is not checked here: that is the layered benchmark's job
# (BENCHMARK.json, benchmark/README.md).
#
# Usage: scripts/check-golden.sh
# On a mismatch it prints the command that regenerates that golden; run
# it only after an *intentional* behavior change.
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

# One comparison per row: golden, STOB_THREADS, stob-bench bin, its args.
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
    "tests/golden/fleet_full.json      4  fleet"
    "tests/golden/fault_matrix.json    1  fault_matrix"
    "tests/golden/fault_matrix.json    4  fault_matrix"
    "tests/golden/table1.json          1  table1          6 7"
    "tests/golden/table1.json          4  table1          6 7"
    "tests/golden/attacks.json         1  attacks         12 25 2 7"
    "tests/golden/attacks.json         4  attacks         12 25 2 7"
    "tests/golden/figure3.json         1  figure3"
    "tests/golden/figure3.json         4  figure3"
    "tests/golden/ablations.json       1  ablations"
    "tests/golden/ablations.json       4  ablations"
    "tests/golden/chaos_quick.json     1  chaos           --quick"
    "tests/golden/chaos_quick.json     4  chaos           --quick"
    "tests/golden/cc_ident.json        1  cc_ident"
    "tests/golden/cc_ident.json        4  cc_ident"
    "tests/golden/openworld.json       1  openworld"
    "tests/golden/openworld.json       4  openworld"
)

# The command that writes `$1`'s output for bin `$2` with args `$3...`.
command_for() {
    local dest="$1" bin="$2"
    shift 2
    echo "STOB_JSON_OUT=$dest cargo run --release --locked -p stob-bench --bin $bin -- $*"
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
