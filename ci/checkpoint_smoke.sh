#!/usr/bin/env bash
# CI checkpoint-smoke gate: the restart-with-state contract, end to end.
#
#   1. boot pnb-server with --checkpoint-dir, load it for ~2s (update
#      mix), take a durable checkpoint over the wire, record the exact
#      key count C1;
#   2. keep read-only (find-mix) load running, fire a second checkpoint
#      and kill -9 the server mid-life — no drain, no warning;
#   3. restart with --restore and require the full-range count to equal
#      C1 exactly: the newest *committed* generation loads, a torn
#      in-flight generation is invisible, and nothing is partially
#      applied (DESIGN §9);
#   4. take two more checkpoints over the wire and require exactly two
#      `gen-*/CHECKPOINT` files, at most one generation without one (the
#      killed life's debris), and no other file in a committed one.
#
# The find-only phase means map content cannot change after C1 was
# recorded, so any committed checkpoint the restart picks — the first
# or the racing second — must hold exactly C1 keys.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=""
load_pid=""
cleanup() {
    for pid in "$load_pid" "$server_pid"; do
        if [[ -n "$pid" ]] && kill -0 "$pid" 2>/dev/null; then
            kill -KILL "$pid" 2>/dev/null || true
        fi
    done
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building pnb-server + pnb-load (release) =="
cargo build --release --locked -p pnb-server --bins

boot_server() { # boot_server <extra flags...>; sets $server_pid and $addr
    local addr_file="$workdir/addr"
    rm -f "$addr_file"
    ./target/release/pnb-server --addr 127.0.0.1:0 --shards 4 --workers 2 \
        --addr-file "$addr_file" --checkpoint-dir "$workdir/ckpt" "$@" \
        >>"$workdir/server.log" 2>&1 &
    server_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$addr_file" ]] && break
        if ! kill -0 "$server_pid" 2>/dev/null; then
            echo "server died before binding:" >&2
            cat "$workdir/server.log" >&2
            exit 1
        fi
        sleep 0.1
    done
    [[ -s "$addr_file" ]] || { echo "server never wrote --addr-file" >&2; exit 1; }
    addr=$(cat "$addr_file")
}

echo "== first life: load, checkpoint, record the count =="
boot_server
echo "   bound at $addr"
./target/release/pnb-load --addr "$addr" --threads 2 --rate 5000 \
    --duration-ms 2000 --keys 8192 --mix update >/dev/null
ckpt_line=$(./target/release/pnb-load --addr "$addr" --checkpoint-now)
echo "   $ckpt_line"
grep -q 'checkpoint generation=' <<<"$ckpt_line"
c1=$(./target/release/pnb-load --addr "$addr" --count | sed 's/.*count=//')
echo "   count after checkpoint: $c1"

echo "== kill -9 mid-second-checkpoint under read-only load =="
# Find-only load (prefill 0 => no writes at all): content stays frozen
# at exactly the C1 cut while the second checkpoint races the kill.
./target/release/pnb-load --addr "$addr" --threads 2 --rate 5000 \
    --duration-ms 10000 --keys 8192 --mix find --prefill 0 >/dev/null 2>&1 &
load_pid=$!
./target/release/pnb-load --addr "$addr" --checkpoint-now >/dev/null &
sleep 0.05
kill -KILL "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""
wait "$load_pid" 2>/dev/null || true
load_pid=""

echo "== second life: --restore must recover exactly $c1 keys =="
boot_server --restore
echo "   restored, bound at $addr"
c2=$(./target/release/pnb-load --addr "$addr" --count | sed 's/.*count=//')
echo "   count after restore: $c2"
if [[ "$c1" != "$c2" ]]; then
    echo "restore mismatch: checkpointed $c1 keys, restored $c2" >&2
    cat "$workdir/server.log" >&2
    exit 1
fi

echo "== two more checkpoints: retention and the one-file layout =="
./target/release/pnb-load --addr "$addr" --checkpoint-now
./target/release/pnb-load --addr "$addr" --checkpoint-now
# Retention keeps two committed generations, each exactly one file; the
# killed life leaves at most one generation without CHECKPOINT.
gens=("$workdir"/ckpt/gen-*)
committed=$(find "${gens[@]}" -maxdepth 1 -name CHECKPOINT | wc -l)
uncommitted=$((${#gens[@]} - committed))
strays=$(for g in "${gens[@]}"; do
    if [[ -f "$g/CHECKPOINT" ]]; then find "$g" -mindepth 1 ! -name CHECKPOINT; fi
done | wc -l)
echo "   $committed committed, $uncommitted uncommitted, $strays stray file(s)"
if [[ "$committed" != 2 || "$uncommitted" -gt 1 || "$strays" != 0 ]]; then
    ls -laR "$workdir/ckpt" >&2
    exit 1
fi

kill -TERM "$server_pid"
wait "$server_pid" 2>/dev/null || true
server_pid=""

echo "checkpoint-smoke: OK (recovered $c2 keys)"
