#!/usr/bin/env bash
# The benchmark's one command, run from the repository root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds the harness (offline, into $CARGO_TARGET_DIR or benchmark/target)
# and runs one workload; the last line of standard output is the result
# JSON. Without --workload it runs every workload. Other arguments
# (--list, compare a.json b.json, --out file) pass straight through.
#
# --trace 0 runs the untraced build: the end-to-end metrics.
# --trace 1 first runs the untraced build for the reference throughput
# (8 s of it at most: it is one side of trace.overhead_frac, which has no
# bound, and the driver's hour has no room for a second full run), then
# the build with the `trace` feature (spans, counting allocator,
# the crates' `stats` counters), which prints the per-layer metrics and
# trace.overhead_frac against that reference.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/Cargo.toml"
target="${CARGO_TARGET_DIR:-$here/target}"

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" ]]; then
        trace="${args[i + 1]:-0}"
    fi
done

# Quiet unless it fails: the result line must be the last of stdout,
# and cargo's progress goes to stderr anyway.
build() {
    cargo build --release --offline --manifest-path "$manifest" --target-dir "$1" "${@:2}" >&2
}

build "$target"
if [[ "$trace" != "1" ]]; then
    exec "$target/release/pnb-benchmark" "$@"
fi

# The reference: same workload and seed, untraced, 8 s at most.
untraced=()
for ((i = 0; i < ${#args[@]}; i++)); do
    if [[ "${args[i]}" == "--trace" ]]; then
        untraced+=("--trace" "0")
        i=$((i + 1))
    elif [[ "${args[i]}" == "--seconds" && "${args[i + 1]:-}" =~ ^[0-9]+$ && "${args[i + 1]}" -gt 8 ]]; then
        untraced+=("--seconds" "8")
        i=$((i + 1))
    elif [[ "${args[i]}" == "--out" ]]; then
        i=$((i + 1)) # the result file gets the traced run only
    else
        untraced+=("${args[i]}")
    fi
done
reference="$("$target/release/pnb-benchmark" "${untraced[@]}" | tail -n 1)"
build "$target/traced" --features trace
exec "$target/traced/release/pnb-benchmark" "$@" --reference "$reference"
