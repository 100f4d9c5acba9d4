#!/usr/bin/env bash
# loc.sh
#
# The line counts every PR and ROADMAP quote, computed one way:
# `find … -name '*.go'` piped to `wc -l`, comments and blank lines
# included. "Net-negative line counts are a goal" (ROADMAP aim 2) needs
# the same number from everyone who quotes it. A .go file under testdata/
# is test input that no build compiles, so it counts as test Go. The last
# line is DESIGN.md's, which must not grow: a new decision record removes
# at least as many lines from older ones.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

count() { find . "$@" -print0 | xargs -0 cat | wc -l; }

printf 'non-test Go outside benchmark/  %6d\n' "$(count -path ./benchmark -prune -o -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -type f)"
printf 'test Go outside benchmark/      %6d\n' "$(count -path ./benchmark -prune -o -name '*.go' \( -name '*_test.go' -o -path '*/testdata/*' \) -type f)"
printf 'benchmark/                      %6d\n' "$(count -path './benchmark/*' -name '*.go' -type f)"
printf 'DESIGN.md                       %6d\n' "$(wc -l < DESIGN.md)"
