#!/usr/bin/env bash
# All six workloads, then the six traced runs. Prints one JSON object per
# line: {workload, seed, trace, metrics{name:{value,unit,...}},
# ops_attempted, ops_failed, sim_digest, meta}. Every run checks its own
# outputs; the script exits non-zero as soon as one check fails.
#
#   benchmark/run.sh [seed] [seconds]      (defaults: 12, 30)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed="${1:-12}"
seconds="${2:-30}"
workloads=(fleet_mixed defend_suite page_collect bulk_shaped wf_table2 mux_replay)

cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/benchmark"

for trace in 0 1; do
    for w in "${workloads[@]}"; do
        out="$("$bin" --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace")"
        # The descriptive object is the line before the result line.
        out="${out%$'\n'*}"
        printf '%s\n' "${out##*$'\n'}"
    done
done
