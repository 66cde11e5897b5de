#!/usr/bin/env bash
# bench-gate.sh <base-ref> — the CI benchmark gate.
#
# Runs the repository benchmark (bench/, BENCHMARK.json) on <base-ref> and on
# this checkout, one after the other on the same machine with identical flags,
# and applies the benchmark's own bounds with `bench -compare`. There is no
# committed baseline: normalised timings do not carry from one host to the
# next, and a parent-and-change pair measured on one runner is the comparison
# bench/README.md asks for. Exit status is `-compare`'s: non-zero when any
# gated row regressed or the change fails operations the base does not.
#
# The base is checked out into a git worktree under a temporary directory, so
# the clone must hold <base-ref> (CI: actions/checkout with fetch-depth: 0).
# The worktree, both suite documents and this checkout's .bench_build/ are
# removed on every exit path. One side takes about ten minutes.
set -euo pipefail

cd "$(dirname "$0")/.."

[ $# -eq 1 ] || { echo "usage: $0 <base-ref>" >&2; exit 2; }
BASE_REF=$1

WORK=$(mktemp -d)
cleanup() {
  rm -rf "$WORK" .bench_build
  git worktree prune # forgets the base worktree now that its directory is gone
}
trap cleanup EXIT

BASE_SHA=$(git rev-parse --verify --quiet "$BASE_REF^{commit}") || {
  echo "bench-gate: base ref '$BASE_REF' names no commit in this clone (shallow checkout?)" >&2
  exit 1
}
git worktree add --quiet --detach "$WORK/base" "$BASE_SHA" || {
  echo "bench-gate: cannot check out base $BASE_SHA" >&2
  exit 1
}

echo "== base $BASE_SHA"
(cd "$WORK/base" && go run ./bench -all -runs 3 -seed 1 -out "$WORK/base.json")
echo "== head $(git rev-parse HEAD)$(git diff --quiet HEAD || echo ' + uncommitted changes')"
go run ./bench -all -runs 3 -seed 1 -out "$WORK/head.json"

go run ./bench -compare "$WORK/base.json" "$WORK/head.json"
