#!/usr/bin/env bash
# Run every example to completion. `cargo test` compiles them but never
# runs them, and two (quickstart, morphing_admin) are the only callers of
# parts of the control-plane API outside the crates' own tests.
# Debug build: the artifacts `cargo test` just produced; ~10 s in total.
set -euo pipefail
cd "$(dirname "$0")/.."

for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    echo "check-examples: $name"
    cargo run --quiet --locked --example "$name" >/dev/null
done
echo "check-examples: all examples exited 0"
