#!/usr/bin/env bash
# Declarative-experiments smoke test: the sweeps/ YAML subsystem end to
# end with the real binary:
#   - `cimloop sweeps validate` over the checked-in sweeps/ directory
#   - an offline `cimloop sweeps run` with a parameter binding
#   - a serve instance booted with -sweeps: GET /v1/experiments lists
#     the definitions with parameter schemas, POST /v1/experiments/{name}
#     binds parameters and runs (including the typed 400/404 errors)
#   - the removed "async" field is a typed 400 naming the field
#   - SIGHUP reload: a new definition appears without a restart; a
#     broken one is rejected and the old set stays live
#
# Run from the repo root:  ./scripts/experiments_smoke.sh
# Needs: go, curl, jq.
set -euo pipefail

ADDR="127.0.0.1:18101"
BASE="http://$ADDR"
WORK=$(mktemp -d)
BIN="$WORK/cimloop"
PID=""

cleanup() {
  [ -n "$PID" ] && kill "$PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "experiments_smoke: FAIL — $*" >&2; exit 1; }

echo "experiments_smoke: building cimloop"
go build -o "$BIN" ./cmd/cimloop

echo "experiments_smoke: validating the checked-in sweeps/ directory"
OUT=$("$BIN" sweeps validate ./sweeps) || fail "checked-in definitions do not validate"
[ "$(echo "$OUT" | grep -c '^ok:')" -ge 6 ] || fail "expected >= 6 definitions, got: $OUT"

echo "experiments_smoke: offline run with a parameter binding"
OUT=$("$BIN" sweeps run quick-smoke -p mappings=2) || fail "offline run"
echo "$OUT" | grep -q "digital-cim" || fail "offline run table missing a grid row: $OUT"

# Serve a COPY of sweeps/ so the SIGHUP experiment below can mutate it.
cp -r ./sweeps "$WORK/sweeps"
"$BIN" serve -addr "$ADDR" -sweeps "$WORK/sweeps" &
PID=$!
for _ in $(seq 1 100); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  kill -0 "$PID" 2>/dev/null || fail "server exited during startup"
  sleep 0.1
done
curl -sf "$BASE/healthz" >/dev/null || fail "server never became healthy"

echo "experiments_smoke: listing with parameter schemas"
LIST=$(curl -sf "$BASE/v1/experiments") || fail "GET /v1/experiments"
[ "$(echo "$LIST" | jq '.definitions | length')" -ge 6 ] || fail "listing missing definitions: $LIST"
echo "$LIST" | jq -e '.definitions[] | select(.name == "quick-smoke") | .params[0].name == "mappings"' >/dev/null \
  || fail "quick-smoke parameter schema missing: $LIST"
"$BIN" sweeps ls -addr "$BASE" | grep -q "quick-smoke" || fail "sweeps ls against the server"

echo "experiments_smoke: named run with parameter binding"
RESP=$(curl -sf -X POST "$BASE/v1/experiments/quick-smoke" \
  -d '{"params": {"mappings": 3}}') || fail "POST /v1/experiments/quick-smoke"
[ "$(echo "$RESP" | jq '.results | length')" = 2 ] || fail "bound run results: $RESP"
"$BIN" sweeps run quick-smoke -addr "$BASE" -p mappings=2 | grep -q "digital-cim" \
  || fail "sweeps run against the server"

echo "experiments_smoke: typed errors"
CODE=$(curl -s -X POST "$BASE/v1/experiments/no-such-definition" | jq -r .code)
[ "$CODE" = not_found ] || fail "unknown definition code was $CODE"
CODE=$(curl -s -X POST "$BASE/v1/experiments/quick-smoke" -d '{"params": {"mappings": 999}}' | jq -r .code)
[ "$CODE" = invalid_request ] || fail "out-of-range binding code was $CODE"

ERR=$(curl -s -X POST "$BASE/v1/experiments/quick-smoke" -d '{"async": true}')
[ "$(echo "$ERR" | jq -r .code)" = invalid_request ] || fail "async body answered $ERR, not invalid_request"
echo "$ERR" | jq -r .message | grep -q async || fail "async 400 does not name the field: $ERR"

echo "experiments_smoke: SIGHUP reload adds a definition without a restart"
cat > "$WORK/sweeps/hup-added.yaml" <<'EOF'
name: hup-added
description: definition added at runtime via SIGHUP
axes:
  macros: [base]
  networks: [toy]
budgets:
  max_mappings: 2
EOF
kill -HUP "$PID"
for _ in $(seq 1 50); do
  curl -sf "$BASE/v1/experiments" | jq -e '.definitions[] | select(.name == "hup-added")' >/dev/null 2>&1 && break
  sleep 0.1
done
curl -sf "$BASE/v1/experiments" | jq -e '.definitions[] | select(.name == "hup-added")' >/dev/null \
  || fail "SIGHUP did not register the new definition"

echo "experiments_smoke: a broken definition is rejected, old set stays live"
echo "name: [" > "$WORK/sweeps/broken.yaml"
kill -HUP "$PID"
for _ in $(seq 1 50); do
  ERRS=$(curl -sf "$BASE/healthz" | jq -r '.obs.sweep_reload_errors // 0')
  [ "$ERRS" -ge 1 ] && break
  sleep 0.1
done
[ "${ERRS:-0}" -ge 1 ] || fail "failed reload was not counted"
curl -sf "$BASE/v1/experiments" | jq -e '.definitions[] | select(.name == "hup-added")' >/dev/null \
  || fail "failed reload dropped the previous set"

kill -TERM "$PID" && wait "$PID" || fail "server exited non-zero on SIGTERM"
PID=""
echo "experiments_smoke: PASS — validated, ran offline and served, bound params, typed errors, SIGHUP reloaded"
