#!/usr/bin/env bash
# bench-ab.sh — same-host microbenchmark A/B of the working tree against a
# git ref.
#
# Checks REF out in a temporary git worktree, builds a `go test -c` binary
# of every package in PKGS for the ref and for the working tree, then runs
# the benchmarks matching REGEX ROUNDS times per side, at bench-json's
# -benchtime 100x with -benchmem. The side that runs first alternates from
# round to round, and every binary runs in its own package directory, as
# `go test` would.
#
# `benchjson ab` then prints, for every benchmark, both sides' median
# ns/op and allocs/op, the ref's interquartile range and in how many
# rounds the change was faster, and flags a median beyond the ref's own
# spread. The flags inform; the script exits 1 only when a build or a
# benchmark run fails.
#
# Usage (normally driven by `make bench-ab`), from the root of the repo:
#   scripts/bench-ab.sh -r REF -b REGEX -p "PKG..." [-n ROUNDS]
# Default: 5 rounds. The worktree, the binaries and the run outputs are
# removed on exit.
set -euo pipefail

ref="" rounds=5 re="" pkgs=""
while getopts "r:n:b:p:" opt; do
	case "$opt" in
	r) ref=$OPTARG ;;
	n) rounds=$OPTARG ;;
	b) re=$OPTARG ;;
	p) pkgs=$OPTARG ;;
	*) echo "usage: $0 -r REF -b REGEX -p PKGS [-n ROUNDS]" >&2; exit 2 ;;
	esac
done
if [ -z "$ref" ] || [ -z "$re" ] || [ -z "$pkgs" ]; then
	echo "bench-ab: a ref, a benchmark regex and packages are required (make bench-ab REF=...)" >&2
	exit 2
fi

. "$(dirname "$0")/ab-lib.sh"
ab_setup bench-ab "$ref"
mkdir -p "$tmp/bin/ref" "$tmp/bin/new"

# bin PKG is the file name of PKG's test binary.
bin() { local p=${1#./}; p=${p//\//_}; echo "${p:-root}.test"; }

for side in ref new; do
	for p in $pkgs; do
		echo "bench-ab: build $side $p" >&2
		(cd "$(ab_dir "$side")" && go test -c -o "$tmp/bin/$side/$(bin "$p")" "$p")
	done
done
go build -o "$tmp/benchjson" ./cmd/benchjson

status=0
# run SIDE ROUND runs every package's benchmarks once on one side and
# appends their output to $tmp/SIDE.txt, so that file holds the rounds in
# order.
run() {
	local side=$1 i=$2 p
	echo "bench-ab: round $i/$rounds: $side" >&2
	for p in $pkgs; do
		if ! (cd "$(ab_dir "$side")/$p" && "$tmp/bin/$side/$(bin "$p")" -test.run '^$' -test.bench "$re" \
			-test.benchtime 100x -test.benchmem -test.count 1 -test.timeout 10m) >>"$tmp/$side.txt"; then
			echo "bench-ab: $side round $i: $p failed" >&2
			status=1
		fi
	done
}
ab_rounds "$rounds" run

echo "ref $ref ($rev) against the working tree: $rounds rounds at -benchtime 100x on $(nproc) CPUs"
echo
"$tmp/benchjson" ab "$tmp/ref.txt" "$tmp/new.txt" || status=1
if [ "$status" != 0 ]; then
	echo "bench-ab: a benchmark run failed" >&2
fi
exit "$status"
