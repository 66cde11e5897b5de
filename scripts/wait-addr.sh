#!/usr/bin/env bash
# wait-addr.sh LOG — poll a tofu-serve log for its "listening on ADDR" line
# and print ADDR. Gives up after ~10 s, printing the log to stderr and exiting
# 1, so `ADDR=$(scripts/wait-addr.sh serve.log)` fails a `set -e` script.
set -euo pipefail

addr=""
for _ in $(seq 1 50); do
  addr=$(sed -n 's/.*listening on \([0-9.:]*\) .*/\1/p' "$1" | head -1)
  [ -n "$addr" ] && break
  sleep 0.2
done
[ -n "$addr" ] || { echo "server never announced an address" >&2; cat "$1" >&2; exit 1; }
echo "$addr"
