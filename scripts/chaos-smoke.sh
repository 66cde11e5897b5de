#!/usr/bin/env bash
# chaos-smoke.sh — process-level chaos harness for the serving stack.
#
# Two tofu-serve replicas share one persistent plan store. Replica B runs
# with -faultfs read corruption, so every store entry it loads comes back
# with flipped bytes until the rule's budget is spent. Replica A is killed
# with SIGKILL while a search is in flight, leaving whatever half-written
# state that produces in the shared directory. The harness then asserts:
#
#   1. no request ever gets a 5xx — corrupt reads quarantine and recompute;
#   2. the survivor's /metrics shows store_corrupt and store_quarantined;
#   3. the survivor still serves fresh requests after the SIGKILL;
#   4. the survivor drains cleanly on SIGTERM.
#
# The in-process half of this harness (deterministic fault schedules, exact
# quarantine counts) lives in internal/service/chaos_test.go.
set -euo pipefail

cd "$(dirname "$0")/.."

BIN=${BIN:-/tmp/tofu-serve-chaos}
go build -o "$BIN" ./cmd/tofu-serve

STORE_DIR=$(mktemp -d)
LOG_A=$(mktemp) LOG_B=$(mktemp)
A_PID="" B_PID=""
cleanup() {
  [ -n "$A_PID" ] && kill -9 "$A_PID" 2>/dev/null || true
  [ -n "$B_PID" ] && kill -9 "$B_PID" 2>/dev/null || true
  rm -rf "$STORE_DIR"
}
trap cleanup EXIT

# post ADDR BODY: POST a partition request, print the status code, never fail
# the shell — status assertions happen in check().
post() {
  curl -s -o /dev/null -w '%{http_code}' -X POST "http://$1/v1/partition" -d "$2"
}

FAILED=0
check() { # check CODE WHAT: any 5xx (or curl failure, code 000) is a harness failure
  local code=$1 what=$2
  echo "  $what -> HTTP $code"
  case "$code" in
  2??) ;;
  *) echo "CHAOS FAIL: $what got HTTP $code" >&2; FAILED=1 ;;
  esac
}

BODY1='{"model":{"family":"mlp","depth":4,"width":256,"batch":64}}'
BODY2='{"model":{"family":"mlp","depth":4,"width":256,"batch":32}}'
BODY3='{"model":{"family":"mlp","depth":4,"width":256,"batch":16}}'

"$BIN" -addr 127.0.0.1:0 -store "$STORE_DIR" >"$LOG_A" 2>&1 &
A_PID=$!
"$BIN" -addr 127.0.0.1:0 -store "$STORE_DIR" -faultfs 'read:*.plan:corrupt:2' >"$LOG_B" 2>&1 &
B_PID=$!
ADDR_A=$(scripts/wait-addr.sh "$LOG_A")
ADDR_B=$(scripts/wait-addr.sh "$LOG_B")
echo "replica A (clean) on $ADDR_A, replica B (corrupt reads) on $ADDR_B, store $STORE_DIR"

# A computes a plan into the shared store; B's first lookup of the same
# request reads that entry through the corrupting FS — it must quarantine
# the entry and recompute, never surface a 5xx.
check "$(post "$ADDR_A" "$BODY1")" "A: seed search"
check "$(post "$ADDR_B" "$BODY1")" "B: corrupt store read, recompute"
check "$(post "$ADDR_B" "$BODY1")" "B: repeat after quarantine"

# Kill A mid-search with SIGKILL: no drain, no cleanup, whatever partial
# state its store writer was holding stays behind in the shared directory.
post "$ADDR_A" "$BODY2" >/dev/null &
KILLER=$!
sleep 0.1
kill -9 "$A_PID"
wait "$A_PID" 2>/dev/null || true
wait "$KILLER" 2>/dev/null || true
A_PID=""
echo "replica A killed with SIGKILL mid-request"

# The survivor keeps serving: the killed replica's request, a fresh model,
# and the original — all through the store directory A abandoned.
check "$(post "$ADDR_B" "$BODY2")" "B: request the killed replica was serving"
check "$(post "$ADDR_B" "$BODY3")" "B: fresh model post-kill"
check "$(post "$ADDR_B" "$BODY1")" "B: original request post-kill"

# The corruption was real and the operator can see it.
METRICS=$(mktemp)
curl -fsS "http://$ADDR_B/metrics" -o "$METRICS"
grep -q '"store_corrupt": [1-9]' "$METRICS" || {
  echo "CHAOS FAIL: no corrupt store read was ever detected" >&2
  cat "$METRICS" >&2
  FAILED=1
}
grep -q '"store_quarantined": [1-9]' "$METRICS" || {
  echo "CHAOS FAIL: corruption detected but nothing quarantined" >&2
  cat "$METRICS" >&2
  FAILED=1
}
ls "$STORE_DIR"/*.corrupt.* >/dev/null 2>&1 || {
  echo "CHAOS FAIL: no forensic .corrupt.<n> specimen in the store dir" >&2
  ls -la "$STORE_DIR" >&2
  FAILED=1
}

# The survivor drains cleanly under SIGTERM.
kill -TERM "$B_PID"
wait "$B_PID" || true
grep -q "drained cleanly" "$LOG_B" || {
  echo "CHAOS FAIL: survivor did not drain cleanly" >&2
  tail -20 "$LOG_B" >&2
  FAILED=1
}
B_PID=""

if [ "$FAILED" -ne 0 ]; then
  echo "chaos smoke FAILED" >&2
  exit 1
fi
echo "chaos smoke OK: zero 5xx, corruption quarantined, survivor drained cleanly"
