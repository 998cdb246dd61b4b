#!/usr/bin/env bash
# check-chaos: hold the recovery-runtime robustness gate.
#
#   1. Run the chaos soak (`chaos --quick`) at STOB_THREADS=1. The bin
#      itself exits 1 if any audit invariant is violated, any visit
#      panics, the recovery-off blackout baseline stops failing (which
#      would make the gate vacuous), or recovery-on completion drops
#      below the committed floor.
#   2. Re-run at STOB_THREADS=4 and byte-compare both deterministic JSON
#      reports with the committed tests/golden/chaos_quick.json, so the
#      watchdog/backoff/breaker machinery can become neither
#      thread-count-dependent nor different from the last commit's.
#
# Usage: scripts/check-chaos.sh
# To regenerate after an *intentional* behavior change:
#   STOB_THREADS=1 STOB_JSON_OUT=tests/golden/chaos_quick.json \
#     cargo run --release --locked -p stob-bench --bin chaos -- --quick
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=target/release/chaos

cargo build --release -q -p stob-bench --bin chaos

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

GOLDEN=tests/golden/chaos_quick.json
for threads in 1 4; do
    STOB_THREADS=$threads STOB_JSON_OUT="$tmp/chaos.json" "$BIN" --quick >/dev/null
    if ! cmp -s "$GOLDEN" "$tmp/chaos.json"; then
        echo "check-chaos: FAIL — chaos report at $threads thread(s) differs from $GOLDEN" >&2
        diff "$GOLDEN" "$tmp/chaos.json" >&2 || true
        exit 1
    fi
done
echo "check-chaos: chaos soak passed, report byte-identical to $GOLDEN at 1 and 4 threads"
