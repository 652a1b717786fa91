#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the root
# of the repository; all arguments go to the benchmark, e.g.
#   bash overlapbench/run.sh --workload dense-approx --seed 1 --seconds 15 --trace 0
# Build products and the Go build cache stay under .bench_build (or
# $CARGO_TARGET_DIR when set).
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=

(cd "$root/overlapbench" && go build -o "$build/overlapbench" .) >&2
exec "$build/overlapbench" --out-dir "$build/out" --tmp-dir "$build/tmp" "$@"
