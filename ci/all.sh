#!/usr/bin/env bash
# Every local gate, in order, stopping at the first red one — what
# `ci.yml`'s lint, docs, smoke, benchmark and all-features test steps run, for an
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
# Tier-1 builds without `stats`: this runs the `stats`-gated assertions
# and the server's failpoint tests.
step cargo test --all-features -q --offline
step ci/sanitize.sh
step ci/check_seqcst.sh
step ci/check_links.sh
step ci/server_smoke.sh
step ci/checkpoint_smoke.sh
step ci/chaos_smoke.sh
# The experiments binary end to end; the unit smokes in experiments.rs
# call each experiment in-process.
step cargo run --release --offline -p pnbbst-bench --bin experiments -- \
    --quick e1 e2 e3 e4 e8r e9 e10 > /dev/null
(cd benchmark && step cargo test --offline)

echo
echo "ci/all.sh: every gate green"
