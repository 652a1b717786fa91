#!/usr/bin/env bash
# e2e-ab.sh — end-to-end A/B of the working tree against a git ref.
#
# Checks REF out in a temporary git worktree, then runs
#   bash overlapbench/run.sh --workload W --seed i --seconds N --trace 0
# alternately in the ref's checkout and in the working tree, PAIRS times
# per workload. Both runs of pair i use seed i; the side that runs first
# alternates from pair to pair, and each side builds into its own
# CARGO_TARGET_DIR, so neither side reuses the other's binary.
#
# For every workload and every end-to-end metric BENCHMARK.json declares,
# it prints the ref's median, the change's median, their relative
# difference, the ref's interquartile range and in how many pairs the
# change was better (ties count for neither side). It then lists every
# run that did not report correct: true with 0 failed operations and
# exits 1 if there was one.
#
# Usage (normally driven by `make e2e-ab`), from the root of the repo:
#   scripts/e2e-ab.sh -r REF [-p PAIRS] [-s SECONDS] [-w "W1 W2 ..."]
# Defaults: 5 pairs, 10-second runs, every workload in
# BENCHMARK.json. The worktree and the run outputs are removed on exit.
set -euo pipefail

ref="" pairs=5 secs=10 workloads=""
while getopts "r:p:s:w:" opt; do
	case "$opt" in
	r) ref=$OPTARG ;;
	p) pairs=$OPTARG ;;
	s) secs=$OPTARG ;;
	w) workloads=$OPTARG ;;
	*) echo "usage: $0 -r REF [-p PAIRS] [-s SECONDS] [-w WORKLOADS]" >&2; exit 2 ;;
	esac
done
if [ -z "$ref" ]; then
	echo "e2e-ab: a ref is required (-r REF, or make e2e-ab REF=...)" >&2
	exit 2
fi

. "$(dirname "$0")/ab-lib.sh"
ab_setup e2e-ab "$ref"
if [ -z "$workloads" ]; then
	workloads=$(awk -F'"' '/"workloads"/ { on = 1; next } on && /^[ \t]*\]/ { exit } on && /"name"/ { print $4 }' BENCHMARK.json)
fi
mkdir -p "$tmp/out"

# run SIDE WORKLOAD PAIR runs one benchmark process on one side, with
# the pair number as its seed, and keeps its stdout as
# $tmp/out/WORKLOAD.SIDE.PAIR.
run() {
	local side=$1 w=$2 i=$3
	echo "e2e-ab: $w pair $i/$pairs: $side" >&2
	(cd "$(ab_dir "$side")" && CARGO_TARGET_DIR="$tmp/build-$side" \
		bash overlapbench/run.sh --workload "$w" --seed "$i" --seconds "$secs" --trace 0) \
		>"$tmp/out/$w.$side.$i" || echo "e2e-ab: $w $side pair $i exited $?" >&2
}

for w in $workloads; do
	ab_rounds "$pairs" run "$w"
done

echo "ref $ref ($rev) against the working tree: $pairs pairs of ${secs} s runs per workload, seeds 1..$pairs"
metrics=$(awk -F'"' '/"end_to_end"/ { on = 1; next } on && /^[ \t]*\]/ { exit } on && /"name"/ { print $4 ":" $12 }' BENCHMARK.json)
status=0
for w in $workloads; do
	for i in $(seq 1 "$pairs"); do
		for side in ref new; do
			f="$tmp/out/$w.$side.$i"
			# The result is the last line that starts with {"correct".
			line=$(grep '^{"correct"' "$f" | tail -n 1 || true)
			printf '%s %s %s %s\n' "$w" "$side" "$i" "${line:-none}"
		done
	done
done | awk -v metrics="$metrics" -v pairs="$pairs" '
function num(line, key,   i) {
	# The number after "key":{"value": in a one-line JSON result, or "".
	i = index(line, "\"" key "\":{\"value\":")
	if (i == 0) return ""
	line = substr(line, i + length(key) + 12)
	match(line, /^[-+0-9.eE]+/)
	return RLENGTH > 0 ? substr(line, 1, RLENGTH) : ""
}
function sortn(a, n,   i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
}
# median of a[lo..hi], sorted
function med(a, lo, hi,   n, m) {
	n = hi - lo + 1
	if (n <= 0) return 0
	m = lo + int((n - 1) / 2)
	return n % 2 ? a[m] : (a[m] + a[m + 1]) / 2
}
BEGIN {
	split("", a); split("", b)
	nm = split(metrics, ms, /[ \n]+/)
	for (k = 1; k <= nm; k++) { split(ms[k], p, ":"); name[k] = p[1]; better[k] = p[2] }
}
{
	w = $1; side = $2; i = $3
	line = $0; sub(/^[^ ]+ [^ ]+ [^ ]+ /, "", line)
	if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
	ok = index(line, "\"correct\":true") > 0 && index(line, "\"failed\":0,") > 0
	if (!ok) bad[++nbad] = w " " side " pair " i ": " (line == "none" ? "no result line" : line)
	for (k = 1; k <= nm; k++) v[w, side, i, k] = num(line, name[k])
}
END {
	for (x = 1; x <= nw; x++) {
		w = order[x]
		printf "\n%s\n  %-12s %14s %14s %8s %12s %6s\n", w, "metric", "ref median", "new median", "change", "ref IQR", "wins"
		for (k = 1; k <= nm; k++) {
			nr = nn = wins = 0
			for (i = 1; i <= pairs; i++) {
				r = v[w, "ref", i, k]; c = v[w, "new", i, k]
				if (r != "") a[++nr] = r + 0
				if (c != "") b[++nn] = c + 0
				if (r != "" && c != "" && ((better[k] == "lower" && c + 0 < r + 0) || (better[k] == "higher" && c + 0 > r + 0))) wins++
			}
			sortn(a, nr); sortn(b, nn)
			mr = med(a, 1, nr); mn = med(b, 1, nn)
			h = int(nr / 2)
			iqr = nr > 1 ? med(a, nr - h + 1, nr) - med(a, 1, h) : 0
			printf "  %-12s %14.6g %14.6g %7.1f%% %12.6g %3d/%-2d (%s is better)\n", name[k], mr, mn, mr ? 100 * (mn - mr) / mr : 0, iqr, wins, pairs, better[k]
		}
	}
	if (nbad) {
		printf "\nruns not correct: true with 0 failed:\n"
		for (j = 1; j <= nbad; j++) print "  " bad[j]
		exit 1
	}
	printf "\nevery run: correct: true, 0 failed\n"
}' || status=$?
exit "$status"
