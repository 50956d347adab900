#!/usr/bin/env bash
# obx_client loopback smoke: stand up `obx_cli serve` on an ephemeral port,
# then drive it with the standalone client — one ping round-trip, a small
# multi-tenant load with a metrics scrape, and a second server exercising
# variable-length sessions (--sizes) over the oblivious workload family.
# Every client invocation must exit 0 (completed ping; balanced load ledger,
# zero transport errors).  First, the command-line boundary: --help prints
# usage and exits 0, and a port outside 0-65535 or a malformed or
# out-of-range number exits 2.
#
#   check_client_loopback.sh <obx_cli> <obx_client>
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <obx_cli> <obx_client>" >&2
  exit 2
fi

cli="$1"
client="$2"

usage_text="$("$client" --help)"
if [[ "$usage_text" != "usage: obx_client"* ]]; then
  echo "obx_client --help printed: $usage_text" >&2
  exit 1
fi
for bad in 127.0.0.1:70000 127.0.0.1:abc; do
  status=0
  "$client" --connect "$bad" --ping 2>/dev/null || status=$?
  if [[ $status -ne 2 ]]; then
    echo "obx_client --connect $bad exited $status, expected 2" >&2
    exit 1
  fi
done
for bad in "$client --connect 127.0.0.1:1 --ping --n abc" "$cli run fft --n abc" \
           "$cli serve-bench --rate 1e999"; do
  status=0
  $bad >/dev/null 2>&1 || status=$?
  if [[ $status -ne 2 ]]; then
    echo "'$bad' exited $status, expected 2" >&2
    exit 1
  fi
done

log="$(mktemp)"
server_pid=""
cleanup() {
  [[ -n "$server_pid" ]] && kill "$server_pid" 2>/dev/null || true
  [[ -n "$server_pid" ]] && wait "$server_pid" 2>/dev/null || true
  rm -f "$log"
}
trap cleanup EXIT

"$cli" serve --listen 127.0.0.1:0 --algos prefix-sums,horner --n 64 \
  --duration-s 60 > "$log" &
server_pid=$!

# Ephemeral port: the server prints the bound port on its first line.
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log" | head -1)"
  [[ -n "$port" ]] && break
  sleep 0.1
done
if [[ -z "$port" ]]; then
  echo "server never reported its port; log:" >&2
  cat "$log" >&2
  exit 1
fi

"$client" --connect "127.0.0.1:$port" --ping --algos prefix-sums --n 64
"$client" --connect "127.0.0.1:$port" --algos prefix-sums,horner --n 64 \
  --jobs 300 --tenants 2 --connections 2 --scrape

kill "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
server_pid=""

# Round 2: the oblivious workload family under variable-length sessions —
# mixed program ids AND mixed input lengths in flight at once, the two axes
# the batcher's (program id, input length) group key must keep apart.
: > "$log"
"$cli" serve --listen 127.0.0.1:0 \
  --algos oblivious-merge,oblivious-partition,oblivious-aggregate \
  --sizes 3,12 --duration-s 60 > "$log" &
server_pid=$!

port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log" | head -1)"
  [[ -n "$port" ]] && break
  sleep 0.1
done
if [[ -z "$port" ]]; then
  echo "variable-length server never reported its port; log:" >&2
  cat "$log" >&2
  exit 1
fi

"$client" --connect "127.0.0.1:$port" \
  --algos oblivious-merge,oblivious-partition,oblivious-aggregate \
  --sizes 3,12 --jobs 300 --tenants 2 --connections 2 --scrape

echo "client loopback smoke OK"
