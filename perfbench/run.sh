#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload cold-ingest --seed 1 --seconds 25 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout. Outside a full checkout (no ../go.mod next to perfbench/) the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
