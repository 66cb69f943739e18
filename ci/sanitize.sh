#!/usr/bin/env bash
# AddressSanitizer over the code that owns raw memory: `pnb-bst`'s unit
# suites (node union, arena slabs, tree teardown), the root suites that
# retire and recycle hardest or park, publish and abort attempts (the
# `Info` reference counts), the batch suites (served frames included:
# `pnb-server`'s `batch`) and the cross-shard scans that race writers
# (`sharded`), whose lock-step walks read nodes that concurrent deletes
# detach, and the epoch collector's own
# suites. A block inside a slab handed to `Box::from_raw` or `dealloc`, a
# carve past a slab's end, a node freed one epoch early, an `Info`
# released twice, a walk that reads a recycled node — each is an ASan
# report here and silent elsewhere.
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

# `pnb_asan`: the arena poisons pooled blocks, so a touch of a recycled
# `Node` or `Info` is a report too, not only of freed heap.
export RUSTFLAGS="-Zsanitizer=address --cfg pnb_asan"
export CARGO_TARGET_DIR=target/asan
# An explicit --target keeps the flag off build scripts and proc macros.
asan() {
    cargo +nightly test -q --offline --target x86_64-unknown-linux-gnu "$@"
}

asan -p pnb-bst --lib
asan -p pnbbst-repro --test reclamation --test stress --test helping \
    --test paused_random --test versioning --test sharded
asan -p pnb-shard --test batch_linearizability --test batch_oracle
asan -p pnb-server --test batch
asan -p crossbeam-epoch
echo "ci/sanitize.sh: AddressSanitizer clean"
