#!/usr/bin/env bash
# Warm-start integration check: boot `cimloop serve` against a cache
# dir, populate it with an evaluation and a sweep, restart the process,
# and assert the second instance (a) admits the persisted entries and
# (b) serves the repeated evaluation and sweep purely from cache (zero
# misses): a sweep re-sent after a restart reruns only its searches.
#
# Run from the repo root:  ./scripts/warmstart.sh
# Needs: go, curl, jq.
set -euo pipefail

ADDR="127.0.0.1:18097"
BASE="http://$ADDR"
WORK=$(mktemp -d)
CACHE_DIR="$WORK/cache"
BIN="$WORK/cimloop"
PID=""

cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "warmstart: FAIL — $*" >&2; exit 1; }

start_server() {
  "$BIN" serve -addr "$ADDR" -workers 2 -cache-dir "$CACHE_DIR" &
  PID=$!
  for _ in $(seq 1 100); do
    if curl -sf "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    kill -0 "$PID" 2>/dev/null || fail "server exited during startup"
    sleep 0.1
  done
  fail "server did not become healthy"
}

stop_server() {
  # SIGTERM: the server drains and flushes the write-behind queue.
  kill -TERM "$PID"
  wait "$PID" || fail "server exited non-zero on SIGTERM"
  PID=""
}

echo "warmstart: building cimloop"
go build -o "$BIN" ./cmd/cimloop

EVAL_BODY='{"macro": "base", "network": "toy", "max_mappings": 4}'
SWEEP_BODY='{"macros": ["base", "macro-b"], "networks": ["toy"], "layers": 1, "max_mappings": 2, "timeout_sec": 60}'

echo "warmstart: first instance — populate cache"
start_server
curl -sf "$BASE/v1/evaluate" -d "$EVAL_BODY" >/dev/null || fail "evaluate failed"
curl -sf "$BASE/v1/sweep" -d "$SWEEP_BODY" | jq -e '[.results[] | select(.error)] | length == 0' >/dev/null \
  || fail "sweep failed"
stop_server

[ -n "$(find "$CACHE_DIR" -mindepth 1 -print -quit)" ] || fail "cache dir is empty after shutdown"
# The store holds layer contexts only: no engine record is written.
[ -z "$(find "$CACHE_DIR" -name 'eng-*.cws' -print -quit)" ] || fail "engine records in the cache dir: $(ls "$CACHE_DIR")"

echo "warmstart: second instance — must start warm"
start_server
HEALTH=$(curl -sf "$BASE/healthz")
WARM_CONTEXTS=$(echo "$HEALTH" | jq .persist.warm.contexts)
RESTORED=$(echo "$HEALTH" | jq .cache.restored)
echo "$HEALTH" | jq -e '.persist.warm | has("engines") | not' >/dev/null \
  || fail "persist.warm still reports engines (healthz: $HEALTH)"
[ "$WARM_CONTEXTS" -ge 1 ] || fail "no layer contexts restored (healthz: $HEALTH)"
[ "$RESTORED" -ge 2 ] || fail "cache admitted $RESTORED entries"

# The exact requests served before the restart must be pure cache hits:
# hit counters move, misses stay zero (nothing recompiled).
curl -sf "$BASE/v1/evaluate" -d "$EVAL_BODY" >/dev/null || fail "post-restart evaluate failed"
curl -sf "$BASE/v1/sweep" -d "$SWEEP_BODY" >/dev/null || fail "post-restart sweep failed"
CACHE=$(curl -sf "$BASE/healthz" | jq .cache)
HITS=$(echo "$CACHE" | jq .hits)
MISSES=$(echo "$CACHE" | jq .misses)
[ "$HITS" -ge 2 ] || fail "expected warm hits, cache: $CACHE"
[ "$MISSES" -eq 0 ] || fail "restarted instance recompiled ($MISSES misses), cache: $CACHE"

stop_server
echo "warmstart: PASS — $WARM_CONTEXTS contexts restored; $HITS hits, 0 misses after restart"
