#!/usr/bin/env bash
# Byte-compare the benchmark experiment outputs against committed goldens.
#
# Guards the refactor invariants: any change to the shared shaping/pacing
# path or the defense layer that alters simulated behavior shows up here
# as a diff, even if every unit test still passes. The goldens were
# produced with the exact invocations below; a STOB_JSON_OUT dump never
# carries wall-clock fields, so it is deterministic across machines and
# thread counts. table2, defense_matrix and multipath are each run at 1
# and 4 threads to pin the fan-out determinism contract (table2's pair
# is what holds the parallel `collect_dataset` stage at the CLI), and so
# is table1, whose measured-overhead rows hold `run_overheads`. The
# fleet's report (work counts + emission checksum + telemetry totals, no
# timings) is held the same way: the quick population at 1 and 4
# threads, the full 1M-flow population at 1 thread (thread-invariance
# stays with the quick pair) — the fleet's cross-commit gate. How fast
# any of this runs is not checked here: that is the layered benchmark's
# job (BENCHMARK.json, benchmark/README.md). The fault suite's report
# (fault_matrix: every fault scenario x defense through the real stack,
# auditor on, exit 1 on any violation; its JSON never carries timings) is
# held here too, and only here: two runs that both equal the committed
# file are equal to each other, so this is also CI's 1-vs-4-thread
# determinism check under faults. `set -e` stops on a violation.
#
# Usage: scripts/check-golden.sh
# To regenerate after an *intentional* behavior change:
#   STOB_THREADS=1 STOB_JSON_OUT=tests/golden/table2.json \
#     cargo run --release --locked -p stob-bench --bin table2 -- 12 25 2 7
#   STOB_THREADS=1 STOB_JSON_OUT=tests/golden/defense_matrix.json \
#     cargo run --release --locked -p stob-bench --bin defense_matrix -- 6 10 2 7
#   STOB_THREADS=1 STOB_JSON_OUT=tests/golden/multipath.json \
#     cargo run --release --locked -p stob-bench --bin multipath -- 12 30 10 11
#   STOB_THREADS=1 cargo run --release --locked -p stob-bench --bin fleet -- \
#     --quick --checks-out tests/golden/fleet_quick.json
#   STOB_THREADS=1 cargo run --release --locked -p stob-bench --bin fleet -- \
#     --checks-out tests/golden/fleet_full.json
#   STOB_THREADS=1 STOB_JSON_OUT=tests/golden/fault_matrix.json \
#     cargo run --release --locked -p stob-bench --bin fault_matrix
#   STOB_THREADS=1 STOB_JSON_OUT=tests/golden/table1.json \
#     cargo run --release --locked -p stob-bench --bin table1 -- 6 7
set -euo pipefail
cd "$(dirname "$0")/.."

out="$(mktemp)"
trap 'rm -f "$out"' EXIT

check() {
    local golden="$1"
    local label="$2"
    if ! cmp "$golden" "$out"; then
        echo "check-golden: $golden diverged from the current build ($label)." >&2
        echo "If the behavior change is intentional, regenerate the golden" >&2
        echo "(see the header of scripts/check-golden.sh)." >&2
        exit 1
    fi
    echo "check-golden: $label output is byte-identical to $golden"
}

STOB_THREADS=1 STOB_JSON_OUT="$out" \
    cargo run --release --locked -p stob-bench --bin table2 -- 12 25 2 7
check tests/golden/table2.json "table2 (1 thread)"

STOB_THREADS=4 STOB_JSON_OUT="$out" \
    cargo run --release --locked -p stob-bench --bin table2 -- 12 25 2 7
check tests/golden/table2.json "table2 (4 threads)"

STOB_THREADS=1 STOB_JSON_OUT="$out" \
    cargo run --release --locked -p stob-bench --bin defense_matrix -- 6 10 2 7
check tests/golden/defense_matrix.json "defense_matrix (1 thread)"

STOB_THREADS=4 STOB_JSON_OUT="$out" \
    cargo run --release --locked -p stob-bench --bin defense_matrix -- 6 10 2 7
check tests/golden/defense_matrix.json "defense_matrix (4 threads)"

STOB_THREADS=1 STOB_JSON_OUT="$out" \
    cargo run --release --locked -p stob-bench --bin multipath -- 12 30 10 11
check tests/golden/multipath.json "multipath (1 thread)"

STOB_THREADS=4 STOB_JSON_OUT="$out" \
    cargo run --release --locked -p stob-bench --bin multipath -- 12 30 10 11
check tests/golden/multipath.json "multipath (4 threads)"

STOB_THREADS=1 cargo run --release --locked -p stob-bench --bin fleet -- \
    --quick --checks-out "$out"
check tests/golden/fleet_quick.json "fleet --quick (1 thread)"

STOB_THREADS=4 cargo run --release --locked -p stob-bench --bin fleet -- \
    --quick --checks-out "$out"
check tests/golden/fleet_quick.json "fleet --quick (4 threads)"

STOB_THREADS=1 cargo run --release --locked -p stob-bench --bin fleet -- \
    --checks-out "$out"
check tests/golden/fleet_full.json "fleet full mode (1 thread)"

STOB_THREADS=1 STOB_JSON_OUT="$out" \
    cargo run --release --locked -p stob-bench --bin fault_matrix >/dev/null
check tests/golden/fault_matrix.json "fault_matrix (1 thread)"

STOB_THREADS=4 STOB_JSON_OUT="$out" \
    cargo run --release --locked -p stob-bench --bin fault_matrix >/dev/null
check tests/golden/fault_matrix.json "fault_matrix (4 threads)"

STOB_THREADS=1 STOB_JSON_OUT="$out" \
    cargo run --release --locked -p stob-bench --bin table1 -- 6 7 >/dev/null
check tests/golden/table1.json "table1 (1 thread)"

STOB_THREADS=4 STOB_JSON_OUT="$out" \
    cargo run --release --locked -p stob-bench --bin table1 -- 6 7 >/dev/null
check tests/golden/table1.json "table1 (4 threads)"
