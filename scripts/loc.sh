#!/usr/bin/env bash
# loc.sh — print the number of non-test Go source lines in the repository,
# outside bench/ and every testdata/ directory: the size measure ROADMAP.md
# and CHANGES.md quote. Run from anywhere: ./scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."
find . -path ./.git -prune -o -path ./bench -prune -o -name testdata -prune -o \
  -type f -name '*.go' ! -name '*_test.go' -print0 |
  xargs -0 cat | wc -l | tr -d ' '
