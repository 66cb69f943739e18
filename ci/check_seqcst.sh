#!/usr/bin/env bash
# Memory-ordering grep gate (mirrors PR 3's "zero mutexes" discipline).
#
# The PR 4 ordering audit (DESIGN.md §3.5) established that the tree
# protocol needs sequential consistency ONLY on the scan-handshake
# store-buffering pair: the scans' Counter fetch_add + scan-side
# update-word loads, and the updaters' publish CAS + handshake re-read.
# Every such site is tagged `sc-ok:` with its justifying invariant.
#
# This gate fails the build when:
#   1. a mutex sneaks back into the vendored epoch collector, or
#   2. an untagged `SeqCst` appears in the tree crates (new sites must
#      be argued for and tagged — and should almost always be
#      Acquire/Release instead), or
#   3. the number of whitelisted sites drifts from the audited count
#      (so silently *adding* a tagged site also needs a review).
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. Lock-free collector stays lock-free (PR 3 invariant). ---------
if grep -rnE 'Mutex|RwLock' vendor/crossbeam-epoch/src --include='*.rs' \
    | grep -vE '^\S+:[0-9]+:\s*(//|//!|///)' | grep -q .; then
    echo "FAIL: mutex primitive found in vendor/crossbeam-epoch:"
    grep -rnE 'Mutex|RwLock' vendor/crossbeam-epoch/src --include='*.rs' \
        | grep -vE '^\S+:[0-9]+:\s*(//|//!|///)'
    fail=1
fi

# --- 2. Every SeqCst code line in the tree crates is sc-ok-tagged. ----
# Comment-only lines and `use` imports of the Ordering name are allowed;
# any other line containing SeqCst must carry the `sc-ok:` tag.
untagged=$(grep -rn 'SeqCst' crates/core/src crates/nbbst/src --include='*.rs' \
    | grep -vE '^\S+:[0-9]+:\s*(//|//!|///)' \
    | grep -vE '^\S+:[0-9]+:\s*use ' \
    | grep -v 'sc-ok:' || true)
if [ -n "$untagged" ]; then
    echo "FAIL: untagged SeqCst site(s) outside the handshake whitelist:"
    echo "$untagged"
    echo "(use Acquire/Release/Relaxed, or tag the line 'sc-ok: <invariant>')"
    fail=1
fi

# --- 3. The whitelist itself is pinned. -------------------------------
# 4 audited sites: publish CAS + handshake re-read (help.rs ×2), scan-side
# update-word load (node.rs), and the one phase-closing fetch_add
# (`PnbBst::close_phase`, tree.rs).
expected=4
actual=$(grep -rn 'SeqCst' crates/core/src crates/nbbst/src --include='*.rs' \
    | grep -vE '^\S+:[0-9]+:\s*(//|//!|///)' \
    | grep -vE '^\S+:[0-9]+:\s*use ' \
    | grep -c 'sc-ok:' || true)
if [ "$actual" -ne "$expected" ]; then
    echo "FAIL: expected $expected sc-ok SeqCst sites, found $actual."
    echo "If the protocol genuinely changed, update 'expected' here AND the"
    echo "site table in DESIGN.md §3.5."
    fail=1
fi

if [ "$fail" -eq 0 ]; then
    echo "ordering gate OK: collector lock-free, $actual/$expected SeqCst sites whitelisted"
fi
exit "$fail"
