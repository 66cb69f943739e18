#!/usr/bin/env bash
# CI server-smoke gate: boot a real pnb-server on an ephemeral loopback
# port, drive it with pnb-load paced at a target rate for ~2s, assert
# the emitted JSON carries the open-loop latency columns, then SIGTERM
# the server and require a clean graceful-drain exit. Everything a PR
# could break on the wire path — codec, worker loop, session refresh,
# NetMap adapter, drain — has to work for this to pass. Before the
# load, one idle second must cost the server at most one clock tick of
# CPU: its threads block, they do not poll.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
server_pid=""
cleanup() {
    if [[ -n "$server_pid" ]] && kill -0 "$server_pid" 2>/dev/null; then
        kill -KILL "$server_pid" 2>/dev/null || true
    fi
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building pnb-server + pnb-load (release) =="
cargo build --release --locked -p pnb-server --bins

echo "== starting pnb-server on an ephemeral port =="
addr_file="$workdir/addr"
./target/release/pnb-server --addr 127.0.0.1:0 --shards 8 --workers 2 \
    --addr-file "$addr_file" >"$workdir/server.log" 2>&1 &
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
echo "   bound at $addr"

echo "== one idle second burns no CPU =="
cpu_ticks() { awk '{print $14 + $15}' "/proc/$server_pid/stat"; } # utime + stime
before=$(cpu_ticks)
sleep 1
idle_ticks=$(($(cpu_ticks) - before))
echo "   $idle_ticks tick(s)"
if [[ "$idle_ticks" -gt 1 ]]; then
    echo "idle server used $idle_ticks clock ticks of CPU in one second (want <= 1)" >&2
    exit 1
fi

echo "== driving it with pnb-load (open-loop, 2s, range mix) =="
./target/release/pnb-load --addr "$addr" --threads 2 --rate 2000 \
    --duration-ms 2000 --keys 8192 --mix range \
    --json "$workdir/load.json"

echo "== gating the JSON schema =="
test -s "$workdir/load.json"
grep -q '"structure": "pnb-sharded-net"' "$workdir/load.json"
grep -q '"offered_rate"' "$workdir/load.json"
grep -q '"achieved_rate"' "$workdir/load.json"
grep -q '"p50_ns"' "$workdir/load.json"
grep -q '"p99_ns"' "$workdir/load.json"
grep -q '"p999_ns"' "$workdir/load.json"
grep -q '"max_ns"' "$workdir/load.json"
# The range mix must have exercised scans through the socket.
grep -q '"op": "range_scan"' "$workdir/load.json"

echo "== graceful drain on SIGTERM =="
kill -TERM "$server_pid"
drained=1
for _ in $(seq 1 100); do
    if ! kill -0 "$server_pid" 2>/dev/null; then
        drained=0
        break
    fi
    sleep 0.1
done
if [[ "$drained" -ne 0 ]]; then
    echo "server did not exit within 10s of SIGTERM" >&2
    cat "$workdir/server.log" >&2
    exit 1
fi
wait "$server_pid" 2>/dev/null || {
    echo "server exited non-zero after SIGTERM:" >&2
    cat "$workdir/server.log" >&2
    exit 1
}
server_pid=""
grep -q "drained, bye" "$workdir/server.log"

echo "server-smoke: OK"
