#!/usr/bin/env bash
# Observability smoke test: boot `cimloop serve` with a bearer-token
# file and a debug listener and prove auth and the obs subsystem end to
# end with the real binary:
#   - requests without a token, with a non-bearer header or with a wrong
#     token get the 401 `unauthorized` envelope plus a WWW-Authenticate
#     challenge, and never see the token echoed; /healthz stays open
#   - GET /metrics answers Prometheus text 0.0.4 without credentials
#     and carries the acceptance-critical series after a sweep: cache
#     hit counters and the search-phase latency histogram
#   - GET /v1/debug/slow (behind auth) shows per-item sweep spans with
#     non-zero queue/compile/search phase timings
#   - `cimloop obs metrics` and `cimloop obs slow` read both surfaces
#   - net/http/pprof is served on -debug-addr and absent from the
#     public listener
#   - SIGHUP reloads the token file: a rotated token takes effect, an
#     empty file is rejected with the previous token kept serving
#
# Run from the repo root:  ./scripts/obs_smoke.sh
# Needs: go, curl, jq.
set -euo pipefail

ADDR="127.0.0.1:18098"
BASE="http://$ADDR"
DEBUG_ADDR="127.0.0.1:16061"
WORK=$(mktemp -d)
BIN="$WORK/cimloop"
PID=""

cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "obs_smoke: FAIL — $*" >&2; exit 1; }

echo "obs_smoke: building cimloop"
go build -o "$BIN" ./cmd/cimloop

echo secret-a > "$WORK/token"

"$BIN" serve -addr "$ADDR" -workers 1 \
  -token-file "$WORK/token" -debug-addr "$DEBUG_ADDR" &
PID=$!
for _ in $(seq 1 100); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  kill -0 "$PID" 2>/dev/null || fail "server exited during startup"
  sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null || fail "server never became healthy (is /healthz gated?)"

echo "obs_smoke: auth — 401 envelopes, open healthz"
for HDR in "X-No-Auth: 1" "Authorization: Basic c2VjcmV0LWE6" "Authorization: Bearer wrong-token"; do
  RESP=$(curl -si -H "$HDR" "$BASE/v1/macros")
  head -1 <<<"$RESP" | grep -q ' 401' || fail "'$HDR' was not 401"
  grep -qi '^www-authenticate: bearer' <<<"$RESP" \
    || fail "'$HDR': 401 carried no WWW-Authenticate challenge"
  CODE=$(sed -n '/^{/,$p' <<<"$RESP" | jq -r .code)
  [ "$CODE" = unauthorized ] || fail "'$HDR': code was $CODE, not unauthorized"
  if sed -n '/^{/,$p' <<<"$RESP" | grep -q -e secret -e wrong-token -e c2VjcmV0; then
    fail "'$HDR': 401 echoes the presented token"
  fi
done
curl -sf "$BASE/healthz" | jq -e '.status == "ok"' >/dev/null || fail "/healthz without token"
CODE=$(curl -s -H "Authorization: Bearer secret-a" "$BASE/v1/macros" | jq -r '.code // "ok"')
[ "$CODE" = ok ] || fail "good token was rejected: $CODE"

echo "obs_smoke: /metrics is open and speaks Prometheus text"
HDRS=$(curl -si "$BASE/metrics")
echo "$HDRS" | head -1 | grep -q ' 200' || fail "/metrics without token was not 200"
echo "$HDRS" | grep -qi 'content-type: text/plain; version=0.0.4' \
  || fail "/metrics content type is not Prometheus text 0.0.4"

echo "obs_smoke: a sweep drives the counters"
curl -sf -H "Authorization: Bearer secret-a" "$BASE/v1/sweep" \
  -d '{"macros": ["base", "macro-b"], "networks": ["toy"], "max_mappings": 4}' \
  | jq -e '[.results[] | select(.error)] | length == 0' >/dev/null \
  || fail "sweep did not succeed"

METRICS=$(curl -sf "$BASE/metrics")
grep -q 'cimloop_cache_hits_total' <<<"$METRICS" \
  || fail "missing cimloop_cache_hits_total"
grep -q 'cimloop_cache_compiles_total' <<<"$METRICS" \
  || fail "missing cimloop_cache_compiles_total"
grep -Eq 'cimloop_request_phase_seconds_count\{phase="search"\} [1-9]' <<<"$METRICS" \
  || fail "missing search-phase latency histogram samples"
grep -q 'cimloop_evaluate_seconds_bucket{le=' <<<"$METRICS" \
  || fail "missing evaluate latency histogram buckets"

echo "obs_smoke: slow log carries per-item spans with phase timings"
STATUS=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/debug/slow")
[ "$STATUS" = 401 ] || fail "/v1/debug/slow without token was $STATUS, not 401"
SLOW=$(curl -sf -H "Authorization: Bearer secret-a" "$BASE/v1/debug/slow")
echo "$SLOW" | jq -e '[.requests[] | select(.route == "sweep-item")] | length >= 2' >/dev/null \
  || fail "slow log has fewer than 2 sweep-item spans: $SLOW"
for PHASE in queue compile search; do
  echo "$SLOW" | jq -e --arg p "$PHASE" \
    '[.requests[] | select(.route == "sweep-item") | .phases[]?
      | select(.phase == $p and .seconds > 0)] | length >= 1' >/dev/null \
    || fail "no sweep-item span with non-zero $PHASE time: $SLOW"
done

echo "obs_smoke: CLI views"
"$BIN" obs metrics -addr "$BASE" | grep -q 'cimloop_uptime_seconds' \
  || fail "cimloop obs metrics"
"$BIN" obs slow -addr "$BASE" -token secret-a -limit 5 | grep -q 'sweep-item' \
  || fail "cimloop obs slow"

echo "obs_smoke: pprof only on the debug listener"
STATUS=$(curl -s -o /dev/null -w '%{http_code}' "http://$DEBUG_ADDR/debug/pprof/")
[ "$STATUS" = 200 ] || fail "debug listener pprof index was $STATUS"
curl -sf "http://$DEBUG_ADDR/metrics" | grep -q 'cimloop_uptime_seconds' \
  || fail "debug listener must serve /metrics"
STATUS=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/debug/pprof/")
[ "$STATUS" != 200 ] || fail "pprof must not be reachable on the public listener"

echo "obs_smoke: SIGHUP token rotation"
echo rotated-a > "$WORK/token"
kill -HUP "$PID"
for _ in $(seq 1 50); do
  STATUS=$(curl -s -o /dev/null -w '%{http_code}' \
    -H "Authorization: Bearer secret-a" "$BASE/v1/macros")
  [ "$STATUS" = 401 ] && break
  sleep 0.1
done
[ "$STATUS" = 401 ] || fail "old token still admitted after rotation"
STATUS=$(curl -s -o /dev/null -w '%{http_code}' \
  -H "Authorization: Bearer rotated-a" "$BASE/v1/macros")
[ "$STATUS" = 200 ] || fail "rotated token rejected: $STATUS"

echo "obs_smoke: empty token file keeps the previous token"
: > "$WORK/token" # an empty token must be refused, never open the server
kill -HUP "$PID"
for _ in $(seq 1 50); do
  ERRS=$(curl -sf "$BASE/healthz" | jq -r '.obs.token_reload_errors // 0')
  [ "$ERRS" -ge 1 ] && break
  sleep 0.1
done
[ "$ERRS" -ge 1 ] || fail "failed reload was not counted (token_reload_errors=$ERRS)"
STATUS=$(curl -s -o /dev/null -w '%{http_code}' \
  -H "Authorization: Bearer rotated-a" "$BASE/v1/macros")
[ "$STATUS" = 200 ] || fail "previous token lost after a broken reload"
STATUS=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/v1/macros")
[ "$STATUS" = 401 ] || fail "server opened up after a broken reload: $STATUS"
grep -q 'cimloop_token_reloads_total{result="ok"} 1' <<<"$(curl -sf "$BASE/metrics")" \
  || fail "reload counter missing from /metrics"

echo "obs_smoke: PASS"
