#!/usr/bin/env bash
# Intra-repo markdown link gate (lychee-style, dependency-free).
#
# Fails when a relative link in the documentation set points at a file
# that does not exist in the repository — the docs pass of PR 5 made
# README/DESIGN/PAPER_MAP cross-reference each other and the sources
# heavily, and a broken pointer in a "teachable" doc set is a bug.
#
# Checked link forms, per file:
#   * inline links        [text](target)  (also [text](target#anchor))
#   * reference defs      [label]: target
# Skipped targets: absolute URLs (http/https/mailto) and pure-anchor
# links (#section). Anchors on file targets are stripped — existence of
# the file is the gate; heading drift is the reviewer's job.
#
# It also fails on any source line anchor (`file.rs:123`): line numbers
# rot with every edit above them, so the docs name code by symbol or by
# its `sc-ok:` tag instead.
#
# Usage: ci/check_links.sh [file.md ...]   (defaults to the doc set)
set -euo pipefail
cd "$(dirname "$0")/.."

files=("$@")
if [ "${#files[@]}" -eq 0 ]; then
    files=(README.md DESIGN.md docs/PAPER_MAP.md)
fi

fail=0
for f in "${files[@]}"; do
    if [ ! -f "$f" ]; then
        echo "FAIL: documentation file missing: $f"
        fail=1
        continue
    fi
    dir=$(dirname "$f")

    if grep -nE '\.rs:[0-9]+' "$f"; then
        echo "FAIL: $f cites source lines (above); name the symbol instead"
        fail=1
    fi

    # Inline [text](target): extract every "](...)" group, then strip
    # the markup. Reference definitions: "[label]: target" lines.
    inline=$(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//' || true)
    refs=$(grep -oE '^\[[^]]+\]:[[:space:]]*[^[:space:]]+' "$f" \
        | sed -E 's/^\[[^]]+\]:[[:space:]]*//' || true)

    while IFS= read -r target; do
        [ -z "$target" ] && continue
        # Drop optional titles: [text](path "title")
        target=${target%% \"*}
        # Skip external and pure-anchor targets.
        case "$target" in
        http://* | https://* | mailto:*) continue ;;
        '#'*) continue ;;
        esac
        # Strip anchors from file targets.
        target=${target%%#*}
        [ -z "$target" ] && continue
        # Resolve relative to the containing file.
        if [ ! -e "$dir/$target" ] && [ ! -e "$target" ]; then
            echo "FAIL: $f links to missing path: $target"
            fail=1
        fi
    done <<<"$inline
$refs"
done

if [ "$fail" -ne 0 ]; then
    echo "Broken intra-repo documentation links or line anchors (see above)."
    exit 1
fi
echo "docs link gate OK: ${files[*]}"
