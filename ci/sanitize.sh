#!/usr/bin/env bash
# AddressSanitizer over the code that owns raw memory: `pnb-bst`'s unit
# suites (node union, arena slabs, tree teardown) and the root suites
# that retire and recycle hardest. A block inside a slab handed to
# `Box::from_raw` or `dealloc`, a carve past a slab's end, a node freed
# one epoch early — each is an ASan report here and silent elsewhere.
#
#   ci/sanitize.sh
#
# Needs a nightly toolchain (`-Zsanitizer`); prints a notice and exits 0
# where none is installed. Builds into target/asan, offline.
set -euo pipefail
cd "$(dirname "$0")/.."

if ! cargo +nightly --version >/dev/null 2>&1; then
    echo "ci/sanitize.sh: no nightly toolchain installed — skipped"
    exit 0
fi

export RUSTFLAGS="-Zsanitizer=address"
export CARGO_TARGET_DIR=target/asan
# An explicit --target keeps the flag off build scripts and proc macros.
asan() {
    cargo +nightly test -q --offline --target x86_64-unknown-linux-gnu "$@"
}

asan -p pnb-bst --lib
asan -p pnbbst-repro --test reclamation --test stress --test helping
echo "ci/sanitize.sh: AddressSanitizer clean"
