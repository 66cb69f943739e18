#!/usr/bin/env bash
# "Green means green" as a number: run the tier-1 test command N times
# while every vCPU is kept busy — the condition under which timing-
# dependent tests flake — and report how often each test failed.
#
#   ci/flake_hunt.sh [N]      (default 10)
#
# Exit code 0 iff all N runs were green.
set -uo pipefail
cd "$(dirname "$0")/.."

runs="${1:-10}"
log=target/flake_hunt.log # the last run's output; kept for a red run
spinners=()
trap '[ ${#spinners[@]} -gt 0 ] && kill "${spinners[@]}" 2>/dev/null' EXIT

# Compile unloaded; only the test runs compete with the spinners.
cargo test -q --offline --no-run || exit 2

for _ in $(seq "$(nproc)"); do
    (while :; do :; done) &
    spinners+=("$!")
done

red=0
failed_tests=""
for i in $(seq "$runs"); do
    # --no-fail-fast: a failing binary must not hide the suites after it
    # from the count.
    if cargo test -q --offline --no-fail-fast >"$log" 2>&1; then
        echo "run $i/$runs: green"
    else
        red=$((red + 1))
        names="$(grep -oE '[^ ]+ --- FAILED' "$log" | sed 's/ --- FAILED//')"
        echo "run $i/$runs: RED  $(echo $names)"
        failed_tests+="$names"$'\n'
    fi
done

echo
echo "$((runs - red)) of $runs green"
if [ "$red" -gt 0 ]; then
    echo "failures per test:"
    printf '%s' "$failed_tests" | sed '/^$/d' | sort | uniq -c | sort -rn
    exit 1
fi
