#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build writes — Go's build cache and the binary — stays
# under .bench_build/ at the root of the checkout, so a run reads and
# writes nothing outside it. Run from the repo root:
#
#	bash benchmark/run.sh -workload fig5-small
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache"
# benchmark/go.mod replaces module repro with the parent directory, so
# the build fails, before compiling anything, where the repo is absent.
go build -C "$here" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
