#!/usr/bin/env bash
# Restart-recovery smoke test for d2cqd's durable mode, run from the repo
# root (CI runs it after the unit suite). It drives the real binary through
# a crash: start over a fresh data directory, register a query, apply three
# updates, SIGKILL the process, restart over the same directory, and assert
# that (a) the store recovered the exact pre-crash version by replaying the
# write-ahead log and (b) an SSE watcher reconnecting with Last-Event-ID
# resumes mid-stream — the missed change events arrive with their version
# ids and no snapshot event — while an out-of-window cursor falls back to a
# lagged snapshot. A wire-protocol client (d2cqload -probe-watch) then
# reconnects with the same cursor over -listen-wire and must see the same
# resume/lagged semantics.
set -euo pipefail

PORT="${PORT:-8344}"
WIRE_PORT="${WIRE_PORT:-8345}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
BIN="$WORK/d2cqd"
LOADBIN="$WORK/d2cqload"
PID=""

cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "restart_smoke: $*" >&2
  exit 1
}

wait_up() {
  for _ in $(seq 1 100); do
    if curl -fsS "$BASE/stats" >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  fail "daemon did not come up on $BASE"
}

stat_field() {
  curl -fsS "$BASE/stats" | python3 -c "
import json, sys
rep = json.load(sys.stdin)
for key in sys.argv[1].split('.'):
    rep = rep[key]
print(rep)
" "$1"
}

go build -o "$BIN" ./cmd/d2cqd
go build -o "$LOADBIN" ./cmd/d2cqload

# run_scenario <leg-name> <extra d2cqd flags...>
run_scenario() {
  local leg="$1"
  shift
  local data_dir="$WORK/data-$leg"

  "$BIN" -addr "127.0.0.1:$PORT" -listen-wire "127.0.0.1:$WIRE_PORT" \
    -data-dir "$data_dir" -fsync always -max-latency 5ms "$@" &
  PID=$!
  wait_up

  curl -fsS -X POST "$BASE/query" \
    -d '{"name":"paths","query":"R(x,y), S(y,z)"}' >/dev/null
  curl -fsS -X POST "$BASE/update?sync=1" \
    -d '{"insert":{"R":[["a","b"]],"S":[["b","c1"]]}}' >/dev/null
  curl -fsS -X POST "$BASE/update?sync=1" \
    -d '{"insert":{"S":[["b","c2"]]}}' >/dev/null
  curl -fsS -X POST "$BASE/update?sync=1" \
    -d '{"delete":{"S":[["b","c1"]]}}' >/dev/null

  version="$(stat_field version)"
  [ "$version" = "4" ] || fail "$leg: pre-crash version $version, want 4"

  # The crash: no shutdown hook runs, no final checkpoint is written. The
  # WAL (fsync always) is the only thing the restart has.
  kill -9 "$PID"
  wait "$PID" 2>/dev/null || true
  PID=""

  "$BIN" -addr "127.0.0.1:$PORT" -listen-wire "127.0.0.1:$WIRE_PORT" \
    -data-dir "$data_dir" -fsync always -max-latency 5ms "$@" &
  PID=$!
  wait_up

  version="$(stat_field version)"
  [ "$version" = "4" ] || fail "$leg: recovered version $version, want 4"
  replayed="$(stat_field durability.replayed_records)"
  [ "$replayed" -gt 0 ] || fail "$leg: recovery replayed no WAL records"
  count="$(stat_field queries)"
  [ "$count" = "1" ] || fail "$leg: recovered $count queries, want 1"

  # Reconnect as a watcher that had processed through version 2: the stream
  # must resume with the missed changes (ids 3 and 4) and no snapshot.
  resumed="$(timeout 3 curl -fsS -N -H 'Last-Event-ID: 2' "$BASE/watch?query=paths" || true)"
  echo "$resumed" | grep -q '^id: 3$' || fail "$leg: resumed stream missing change id 3: $resumed"
  echo "$resumed" | grep -q '^id: 4$' || fail "$leg: resumed stream missing change id 4: $resumed"
  if echo "$resumed" | grep -q '^event: snapshot$'; then
    fail "$leg: resumable cursor got a snapshot instead of resuming: $resumed"
  fi

  # A cursor the recovered store cannot cover falls back to a lagged snapshot.
  lagged="$(timeout 3 curl -fsS -N -H 'Last-Event-ID: 99' "$BASE/watch?query=paths" || true)"
  echo "$lagged" | grep -q '^event: snapshot$' || fail "$leg: out-of-window cursor got no snapshot: $lagged"
  echo "$lagged" | grep -q '"lagged":true' || fail "$leg: out-of-window snapshot not flagged lagged: $lagged"

  # The same two cursors over the binary wire protocol: the native client's
  # WATCH from=2 must resume with changes 3 and 4 (kill -9 + reconnect +
  # cursor resume over -listen-wire), and an out-of-window cursor must get a
  # lagged snapshot.
  wire_resumed="$("$LOADBIN" -proto wire -addr "127.0.0.1:$WIRE_PORT" \
    -probe-watch paths -probe-from 2 -probe-count 2 -probe-timeout 5s)"
  echo "$wire_resumed" | grep -q 'snapshot resumed=true lagged=false' \
    || fail "$leg: wire cursor did not resume: $wire_resumed"
  echo "$wire_resumed" | grep -q 'change version=3' \
    || fail "$leg: wire resume missing change 3: $wire_resumed"
  echo "$wire_resumed" | grep -q 'change version=4' \
    || fail "$leg: wire resume missing change 4: $wire_resumed"
  wire_lagged="$("$LOADBIN" -proto wire -addr "127.0.0.1:$WIRE_PORT" \
    -probe-watch paths -probe-from 99 -probe-count 0 -probe-timeout 5s)"
  echo "$wire_lagged" | grep -q 'snapshot resumed=false lagged=true' \
    || fail "$leg: wire out-of-window cursor not flagged lagged: $wire_lagged"

  kill "$PID"
  wait "$PID" 2>/dev/null || true
  PID=""

  echo "restart_smoke [$leg]: version $version recovered, $replayed records replayed, cursor resumed"
}

run_scenario single

echo "restart_smoke: OK"
