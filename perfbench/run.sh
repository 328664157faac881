#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare -parent DIR -change DIR
#
# Everything the build writes (Go build cache, binary) and everything a
# run writes (scratch schemas and data dirs, span dumps) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOTELEMETRY=off
export GOENV=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
