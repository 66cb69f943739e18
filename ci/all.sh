#!/usr/bin/env bash
# Every local gate, in order, stopping at the first red one — what
# `ci.yml`'s lint, docs, test, smoke and benchmark steps run, for an
# environment that never executes `ci.yml`.
#
#   ci/all.sh
#
# (The tier-1 tests themselves are `cargo build --release && cargo test -q`;
# `ci/flake_hunt.sh N` repeats them under load.)
set -euo pipefail
cd "$(dirname "$0")/.."

# The header goes to stderr, so a step's own `> /dev/null` keeps it.
step() {
    echo >&2
    echo "==== $* ====" >&2
    "$@"
}

step cargo fmt --check
step cargo clippy --all-targets --all-features --offline -- -D warnings
# ci.yml's "Docs" step: a broken intra-doc link fails here too.
step env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline
# The tier-1 tests (no feature adds a test: `--all-features` runs the
# same suite).
step cargo test -q --offline
step ci/sanitize.sh
step ci/check_seqcst.sh
step ci/check_links.sh
step ci/server_smoke.sh
step ci/checkpoint_smoke.sh
step ci/chaos_smoke.sh
# The experiments binary end to end, every experiment (ci.yml's
# experiments-smoke run); the unit smokes in experiments.rs assert the
# rows of each one in-process.
step cargo run --release --offline -p pnbbst-bench --bin experiments -- --quick > /dev/null
(cd benchmark && step cargo test --offline)

echo
echo "ci/all.sh: every gate green"
