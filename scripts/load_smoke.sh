#!/usr/bin/env bash
# Open-loop load smoke for the O(change) flush path, run from the repo root
# (CI runs it after the unit suite). Each leg starts a durable d2cqd, drives
# it with a short d2cqload run (registered queries, Zipf-popular SSE
# watchers, fixed-rate submits), and writes the latency report to
# load_ci*.json (CI uploads them as artifacts). The submit-ack p99 is
# compared against the committed BENCH_pr7.json baseline: the line is always
# printed, and the run fails only when p99 blows past a generous multiple of
# the baseline — CI machines are noisy, so the gate catches
# order-of-magnitude regressions (a submit waiting behind flush engine
# work), not jitter. Three legs run: the single store, a mass-fan-out leg
# (hundreds of SSE watchers pinned to one hot query, exercising the shared
# broadcast ring), and a wire-protocol leg (the same schedule over
# -listen-wire with token auth, credit-gated watch streams instead of SSE),
# all held to the same gate.
set -euo pipefail

PORT="${PORT:-8346}"
WIRE_PORT="${WIRE_PORT:-8347}"
BASE="http://127.0.0.1:$PORT"
WORK="$(mktemp -d)"
OUT="${OUT:-load_ci.json}"
RATE="${RATE:-150}"
DURATION="${DURATION:-5s}"
PID=""

cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "load_smoke: $*" >&2
  exit 1
}

go build -o "$WORK/d2cqd" ./cmd/d2cqd
go build -o "$WORK/d2cqload" ./cmd/d2cqload

# run_leg <leg-name> <report-file> <extra d2cqd flags...>
# LOAD_FLAGS (env, optional) appends d2cqload flags for the leg; the flag
# package's last-one-wins parsing lets it override the defaults below.
# WIRE_LEG=1 (env) serves and drives the wire protocol with token auth
# instead of HTTP/JSON + SSE; the report shape and gate are identical.
run_leg() {
  local leg="$1" out="$2"
  shift 2

  local token="" load_args=(-addr "127.0.0.1:$PORT" -proto http)
  local curl_auth=()
  if [ "${WIRE_LEG:-}" = "1" ]; then
    token="load-smoke-token"
    set -- -listen-wire "127.0.0.1:$WIRE_PORT" -auth-token "$token" "$@"
    load_args=(-addr "127.0.0.1:$WIRE_PORT" -proto wire -token "$token")
    curl_auth=(-H "Authorization: Bearer $token")
  fi

  "$WORK/d2cqd" -addr "127.0.0.1:$PORT" -data-dir "$WORK/data-$leg" -fsync 5ms "$@" &
  PID=$!
  for _ in $(seq 1 100); do
    curl -fsS "${curl_auth[@]}" "$BASE/stats" >/dev/null 2>&1 && break
    sleep 0.1
  done
  curl -fsS "${curl_auth[@]}" "$BASE/stats" >/dev/null || fail "daemon ($leg) did not come up on $BASE"

  # shellcheck disable=SC2086
  "$WORK/d2cqload" "${load_args[@]}" -queries 6 -watchers 12 \
    -rate "$RATE" -duration "$DURATION" -out "$out" ${LOAD_FLAGS:-}

  kill "$PID"
  wait "$PID" 2>/dev/null || true
  PID=""

  LEG="$leg" python3 - "$out" <<'EOF'
import json, os, sys

leg = os.environ["LEG"]
run = json.load(open(sys.argv[1]))
base = json.load(open("BENCH_pr7.json"))
got = run["submit_ack"]["p99_ms"]
ref = base["submit_ack"]["p99_ms"]
# Generous gate: order-of-magnitude regressions only, with an absolute floor
# so a sub-millisecond baseline doesn't make the gate hair-triggered.
limit = max(10 * ref, 50.0)
print("[%s] submit-ack p99: %.2fms (baseline %.2fms, limit %.1fms)" % (leg, got, ref, limit))
print("[%s] submit-notify p99: %.2fms over %d notifications" % (
    leg, run["submit_notify"]["p99_ms"], run["submit_notify"]["count"]))
store = run.get("store", {})
flush = store.get("flush", {})
if flush:
    print("[%s] flush: max lock hold %.3fms, last stage %.3fms" % (
        leg, flush["max_lock_hold_ns"] / 1e6, flush["last_stage_ns"] / 1e6))
if run["submit_notify"]["count"] == 0:
    sys.exit("load_smoke (%s): no submit-to-notification latencies recorded" % leg)
if got > limit:
    sys.exit("load_smoke (%s): submit-ack p99 %.2fms exceeds %.1fms" % (leg, got, limit))
EOF
}

run_leg single "$OUT"
LOAD_FLAGS="-watchers 500 -hot-query" run_leg fanout "${OUT%.json}_fanout.json"
WIRE_LEG=1 run_leg wire "${OUT%.json}_wire.json"

echo "load_smoke: OK"
