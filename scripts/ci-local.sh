#!/usr/bin/env bash
# Run the exact checks CI runs (.github/workflows/ci.yml), locally.
# Usage: scripts/ci-local.sh
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo
    echo "==> $*"
    "$@"
}

# Style, lints and docs first, as CI's `lint` job runs them: a typo or a
# clippy violation fails in seconds instead of after the whole suite.
run cargo fmt --all --check
run cargo clippy --workspace --all-targets --locked -- -D warnings
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --locked
run cargo build --workspace --release --locked
# Among the tests: tests/transport_pins.rs (QUIC and TCP page loads, both
# Figure 3 points, a Multiplex replay, bit for bit) and
# tests/alloc_budget.rs (its own binary, a counting allocator: the packet
# path stays under 0.25 allocations per wire packet).
run cargo test --workspace -q --locked
# The five examples: compiled by the test step, run here.
run scripts/check-examples.sh
# benchmark/ is its own workspace; nothing above builds it.
run cargo test --offline --locked --manifest-path benchmark/Cargo.toml
run env STOB_THREADS=4 cargo test --workspace -q --locked --test determinism

# Goldens, the fault suite among them: fault_matrix (every fault
# scenario x defense, invariant auditor on, exit 1 on any violation) runs
# there at 1 and 4 threads and both reports must equal the committed one.
# The fleet runs there too (quick and full, each at 1 and 4 threads) and
# fails on any auditor violation or a quick peak below 100k resident, and
# so does the chaos soak (`chaos --quick`), which fails unless recovery
# rescues the fault grid while the recovery-off blackout baseline still
# fails.
run scripts/check-golden.sh

echo
echo "ci-local: all checks passed"
