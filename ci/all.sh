#!/usr/bin/env bash
# Every local gate, in order, stopping at the first red one — what
# `ci.yml`'s lint, docs, server-smoke and benchmark steps run, for an
# environment that never executes `ci.yml`.
#
#   ci/all.sh
#
# (The tier-1 tests themselves are `cargo build --release && cargo test -q`;
# `ci/flake_hunt.sh N` repeats them under load.)
set -euo pipefail
cd "$(dirname "$0")/.."

step() {
    echo
    echo "==== $* ===="
    "$@"
}

step cargo fmt --check
step cargo clippy --all-targets --all-features --offline -- -D warnings
step ci/sanitize.sh
step ci/check_seqcst.sh
step ci/check_links.sh
step ci/server_smoke.sh
step ci/checkpoint_smoke.sh
step ci/chaos_smoke.sh
(cd benchmark && step cargo test --offline)

echo
echo "ci/all.sh: every gate green"
