#!/usr/bin/env bash
# v1 API smoke test: boot `cimloop serve` and drive the typed contract
# end to end through the SDK-backed CLI plus raw curl:
#   - error envelopes with stable codes on unknown routes/methods and
#     oversized bodies (never net/http plain text)
#   - FIFO job dispatch: of two jobs queued behind a busy runner, the
#     later one starts only after the earlier one has finished
#   - `cimloop jobs wait` receives progress via SSE (not polling), and a
#     raw curl of /v1/jobs/{id}/events sees framed terminal events
#   - paginated job listing with a monotonic-ID cursor
#
# Run from the repo root:  ./scripts/api_smoke.sh
# Needs: go, curl, jq.
set -euo pipefail

ADDR="127.0.0.1:18098"
BASE="http://$ADDR"
WORK=$(mktemp -d)
BIN="$WORK/cimloop"
PID=""

cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "api_smoke: FAIL — $*" >&2; exit 1; }

echo "api_smoke: building cimloop"
go build -o "$BIN" ./cmd/cimloop

# One worker + one running job, size-based async promotion off: the
# FIFO experiment below needs a deterministically occupied runner.
"$BIN" serve -addr "$ADDR" -workers 1 -async-threshold -1 -max-body 4096 &
PID=$!
for _ in $(seq 1 100); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  kill -0 "$PID" 2>/dev/null || fail "server exited during startup"
  sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null || fail "server never became healthy"

echo "api_smoke: error envelopes"
CODE=$(curl -s "$BASE/no/such/route" | jq -r .code)
[ "$CODE" = not_found ] || fail "404 code was $CODE, not not_found"
CT=$(curl -s -o /dev/null -w '%{content_type}' "$BASE/no/such/route")
[ "$CT" = application/json ] || fail "404 content-type was $CT"
CODE=$(curl -s -X DELETE "$BASE/v1/jobs" | jq -r .code)
[ "$CODE" = method_not_allowed ] || fail "405 code was $CODE"
BIG="{\"tag\": \"$(head -c 8192 /dev/zero | tr '\0' 'x')\"}"
CODE=$(printf '%s' "$BIG" | curl -s -X POST --data-binary @- "$BASE/v1/evaluate" | jq -r .code)
[ "$CODE" = invalid_request ] || fail "413 code was $CODE"
CODE=$(curl -s "$BASE/v1/jobs?status=bogus" | jq -r .code)
[ "$CODE" = invalid_request ] || fail "bad filter code was $CODE"

echo "api_smoke: FIFO — queued jobs dispatch in submission order"
# A heavy job #1 occupies the single runner...
"$BIN" jobs submit -addr "$BASE" \
  -macros base,macro-a,macro-b,macro-d -networks resnet18 -mappings 400 \
  >/dev/null || fail "submit 1"
# ...and two small jobs queue behind it.
"$BIN" jobs submit -addr "$BASE" -macros base,macro-b -networks toy -mappings 2 \
  >/dev/null || fail "submit 2"
"$BIN" jobs submit -addr "$BASE" -macros base -networks toy -layers 1 -mappings 2 \
  >/dev/null || fail "submit 3"
QUEUED=$(curl -sf "$BASE/v1/jobs?status=queued" | jq -r '[.jobs[].id] | join(",")')
[ "$QUEUED" = job-000002,job-000003 ] || fail "queued jobs were '$QUEUED'"

# Free the runner: job 2 must run to completion before job 3 leaves the
# queue.
curl -sf -X POST "$BASE/v1/jobs/job-000001/cancel" >/dev/null || fail "cancel job 1"
for _ in $(seq 1 600); do
  [ "$(curl -sf "$BASE/v1/jobs/job-000003" | jq -r .status)" != queued ] && break
  sleep 0.05
done
STATUS3=$(curl -sf "$BASE/v1/jobs/job-000003" | jq -r .status)
[ "$STATUS3" != queued ] || fail "job 3 never left the queue"
STATUS2=$(curl -sf "$BASE/v1/jobs/job-000002" | jq -r .status)
[ "$STATUS2" = succeeded ] || fail "job 3 dispatched while job 2 was $STATUS2 (not FIFO)"

echo "api_smoke: jobs wait streams via SSE"
WAITLOG="$WORK/wait.log"
"$BIN" jobs wait job-000003 -addr "$BASE" -timeout 120s 2>"$WAITLOG" \
  || { cat "$WAITLOG" >&2; fail "job 3 did not succeed"; }
grep -q "streaming progress via SSE" "$WAITLOG" || { cat "$WAITLOG" >&2; fail "wait did not use SSE"; }
grep -q "job-000003" "$WAITLOG" || fail "wait logged no progress events"

echo "api_smoke: raw SSE frames and terminal snapshot"
EVENTS=$(curl -sN -m 10 "$BASE/v1/jobs/job-000003/events") || fail "SSE curl failed"
echo "$EVENTS" | grep -q "^event: terminal" || fail "no terminal SSE frame: $EVENTS"
echo "$EVENTS" | grep -q '"status":"succeeded"' || fail "terminal frame not succeeded: $EVENTS"
SNAP=$(curl -sf "$BASE/v1/jobs/job-000003")
[ "$(echo "$SNAP" | jq -r .status)" = succeeded ] || fail "terminal snapshot: $SNAP"
echo "$SNAP" | jq -e '.result | length > 0' >/dev/null || fail "terminal snapshot lost its table"

echo "api_smoke: paginated listing"
PAGE=$(curl -sf "$BASE/v1/jobs?limit=2")
[ "$(echo "$PAGE" | jq '.jobs | length')" = 2 ] || fail "page size: $PAGE"
CURSOR=$(echo "$PAGE" | jq -r .next_cursor)
[ "$CURSOR" = job-000002 ] || fail "next_cursor was $CURSOR"
PAGE2=$(curl -sf "$BASE/v1/jobs?limit=2&cursor=$CURSOR")
[ "$(echo "$PAGE2" | jq -r '.jobs[0].id')" = job-000003 ] || fail "cursor page: $PAGE2"
"$BIN" jobs list -addr "$BASE" -status cancelled >/dev/null || fail "filtered CLI list"

kill -TERM "$PID" && wait "$PID" || fail "server exited non-zero on SIGTERM"
PID=""
echo "api_smoke: PASS — envelopes typed, jobs ran FIFO, SSE streamed, listing paged"
