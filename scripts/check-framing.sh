#!/usr/bin/env bash
# check-framing.sh HEADERS BODY — check that a plan response saved with
# `curl -D HEADERS -o BODY` declared its length: a Content-Length equal to
# the body's size and no Transfer-Encoding. Exits 1 with the headers on
# stderr otherwise.
set -euo pipefail

headers=$(tr -d '\r' <"$1")
size=$(wc -c <"$2" | tr -d ' ')
length=$(awk 'tolower($1)=="content-length:" {print $2}' <<<"$headers" | tail -1)
if grep -qi '^transfer-encoding:' <<<"$headers"; then
  echo "$2: plan response is not length-framed:" >&2
  echo "$headers" >&2
  exit 1
fi
if [ "$length" != "$size" ]; then
  echo "$2: Content-Length '$length', body $size bytes:" >&2
  echo "$headers" >&2
  exit 1
fi
