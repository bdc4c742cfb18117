#!/usr/bin/env bash
# v1 API smoke test: boot `cimloop serve` and drive the typed contract
# end to end through the SDK-backed CLI plus raw curl:
#   - error envelopes with stable codes on unknown routes/methods and
#     oversized bodies (never net/http plain text)
#   - the removed job routes answer the 404 not_found envelope
#   - the removed search_workers field is a 400 naming the field
#   - a 20-item grid answers synchronously (200) with every result
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

"$BIN" serve -addr "$ADDR" -workers 1 -max-body 4096 &
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
CODE=$(curl -s -X DELETE "$BASE/v1/sweep" | jq -r .code)
[ "$CODE" = method_not_allowed ] || fail "405 code was $CODE"
BIG="{\"tag\": \"$(head -c 8192 /dev/zero | tr '\0' 'x')\"}"
CODE=$(printf '%s' "$BIG" | curl -s -X POST --data-binary @- "$BASE/v1/evaluate" | jq -r .code)
[ "$CODE" = invalid_request ] || fail "413 code was $CODE"
for ROUTE in "GET /v1/jobs" "POST /v1/jobs" "GET /v1/jobs/job-000001"; do
  CODE=$(curl -s -X "${ROUTE% *}" "$BASE${ROUTE#* }" | jq -r .code)
  [ "$CODE" = not_found ] || fail "removed route $ROUTE answered $CODE, not not_found"
done
STATUS=$(curl -s -o "$WORK/removed.json" -w '%{http_code}' "$BASE/v1/evaluate" \
  -d '{"macro": "base", "network": "toy", "max_mappings": 2, "search_workers": 4}')
[ "$STATUS" = 400 ] || fail "search_workers answered $STATUS, not 400"
[ "$(jq -r .code "$WORK/removed.json")" = invalid_request ] || fail "search_workers: $(cat "$WORK/removed.json")"
jq -r .message "$WORK/removed.json" | grep -q search_workers || fail "400 does not name search_workers: $(cat "$WORK/removed.json")"

echo "api_smoke: a 20-item grid answers synchronously"
GRID='{"macros": ["base", "macro-a", "macro-b", "macro-c", "macro-d"],
  "networks": ["toy", "resnet18", "mobilenetv3-large", "vit-base"], "layers": 1, "max_mappings": 1}'
STATUS=$(curl -s -o "$WORK/sweep.json" -w '%{http_code}' "$BASE/v1/sweep" -d "$GRID")
[ "$STATUS" = 200 ] || fail "20-item sweep answered $STATUS: $(cat "$WORK/sweep.json")"
[ "$(jq '.results | length' "$WORK/sweep.json")" = 20 ] || fail "20-item sweep results: $(cat "$WORK/sweep.json")"
[ "$(jq '[.results[] | select(.error)] | length' "$WORK/sweep.json")" = 0 ] || fail "sweep items failed: $(cat "$WORK/sweep.json")"

kill -TERM "$PID" && wait "$PID" || fail "server exited non-zero on SIGTERM"
PID=""
echo "api_smoke: PASS — envelopes typed, removed job routes 404, removed fields 400, grids answered synchronously"
