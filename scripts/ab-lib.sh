# ab-lib.sh — what scripts/e2e-ab.sh and scripts/bench-ab.sh share: a git
# worktree of the ref in a temporary directory removed on exit, and rounds
# that alternate which side runs first. Source it; it runs nothing itself.

# ab_setup NAME REF moves to the root of the repo and checks REF out into
# $tmp/ref, where tmp is a new directory named after NAME. It sets root,
# rev (REF's commit) and tmp, and removes the worktree and tmp on exit.
ab_setup() {
	root=$(git rev-parse --show-toplevel)
	cd "$root"
	rev=$(git rev-parse --verify "$2^{commit}")
	tmp=$(mktemp -d "${TMPDIR:-/tmp}/$1.XXXXXX")
	trap ab_cleanup EXIT
	git worktree add --quiet --detach "$tmp/ref" "$rev"
}

ab_cleanup() {
	git -C "$root" worktree remove --force "$tmp/ref" 2>/dev/null || true
	git -C "$root" worktree prune
	rm -rf "$tmp"
}

# ab_dir SIDE is the checkout side ref or new runs in.
ab_dir() {
	if [ "$1" = ref ]; then echo "$tmp/ref"; else echo "$root"; fi
}

# ab_rounds N FN ARG... calls FN SIDE ARG... I for both sides of each
# round I = 1..N: the ref first in odd rounds, the working tree first in
# even ones.
ab_rounds() {
	local n=$1 fn=$2 i
	shift 2
	for i in $(seq 1 "$n"); do
		if [ $((i % 2)) = 1 ]; then
			"$fn" ref "$@" "$i"
			"$fn" new "$@" "$i"
		else
			"$fn" new "$@" "$i"
			"$fn" ref "$@" "$i"
		fi
	done
}
