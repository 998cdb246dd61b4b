#!/usr/bin/env bash
# Run every example to completion. `cargo test` compiles them but never
# runs them, and two (quickstart, morphing_admin) are the only callers of
# parts of the control-plane API outside the crates' own tests.
# Debug build: the artifacts `cargo test` just produced; ~10 s in total.
# Then check that `censor_lab abc` is refused (exit 2).
#
# Then run EXPERIMENTS.md's "ship a defense as data" recipe as written:
# its machine spec (the `<<'JSON'` heredoc) must bind through
# `publish_json` and run in `fleet --quick --machine=<path>` (exit 0),
# and its hostile document must be refused (exit 1). A small `--flows`
# keeps the debug-build run to a few seconds. Last, check that two
# retired environment variables are refused (exit 2), not silently
# ignored: the one `--flows` replaced, and `STOB_FAULTS`, which a run's
# `LoaderConfig::faults` replaced.
set -euo pipefail
cd "$(dirname "$0")/.."

for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "check-examples: $name"
    cargo run --quiet --locked --example "$name" >/dev/null
done
echo "check-examples: all examples exited 0"
# An example reads its arguments like a bench bin: one it cannot use is
# refused with exit 2 before any simulation, not replaced by the default.
status=0
cargo run --quiet --locked --example censor_lab -- abc >/dev/null 2>&1 || status=$?
if [ "$status" -ne 2 ]; then
    echo "check-examples: censor_lab abc exited $status, not 2" >&2
    exit 1
fi
echo "check-examples: censor_lab refuses a malformed visit count"

recipe="$(mktemp -d)"
trap 'rm -rf "$recipe"' EXIT
awk "/<<'JSON'/ { on = 1; next } /^JSON\$/ { on = 0 } on" EXPERIMENTS.md >"$recipe/machine.json"
sed -n "s|^echo '\(.*\)' > /tmp/bad.json\$|\1|p" EXPERIMENTS.md >"$recipe/bad.json"
if [ ! -s "$recipe/machine.json" ] || [ ! -s "$recipe/bad.json" ]; then
    echo "check-examples: EXPERIMENTS.md no longer has the recipe's two documents" >&2
    exit 1
fi
fleet() {
    cargo run --quiet --locked -p stob-bench --bin fleet -- --quick "$@" >/dev/null
}
fleet --flows=2000 --machine="$recipe/machine.json"
status=0
fleet --flows=2000 --machine="$recipe/bad.json" 2>/dev/null || status=$?
if [ "$status" -ne 1 ]; then
    echo "check-examples: the hostile document exited $status, not 1" >&2
    exit 1
fi
echo "check-examples: the defense-as-data recipe binds its spec and refuses the hostile one"
status=0
STOB_FLEET_FLOWS=2000 fleet 2>/dev/null || status=$?
if [ "$status" -ne 2 ]; then
    echo "check-examples: STOB_FLEET_FLOWS=2000 fleet --quick exited $status, not 2" >&2
    exit 1
fi
echo "check-examples: fleet refuses the retired STOB_FLEET_FLOWS"
status=0
STOB_FAULTS=ge-burst fleet --flows=2000 2>/dev/null || status=$?
if [ "$status" -ne 2 ]; then
    echo "check-examples: STOB_FAULTS=ge-burst fleet --quick exited $status, not 2" >&2
    exit 1
fi
echo "check-examples: fleet refuses the retired STOB_FAULTS"
