#!/usr/bin/env bash
# Every experiment of a base revision against the working tree, byte for
# byte: the check to run before a change regenerates a golden, and the
# proof that a refactor moved no paper number.
#
#   bash scripts/exp-diff.sh <base-rev> [ipabench flags, e.g. -quick]
#   make exp-diff BASE=HEAD~1 [EXPFLAGS=-quick]
#
# Like bench-pairs.sh it unpacks the base revision's tree under
# .bench_build/base-<rev> (git archive: nothing is registered in .git and
# the working tree is not touched). Both sides build cmd/ipabench and run
# `-exp all`; every id is simulated time from a fixed seed, so any line
# of diff is a change of behaviour. Exits 1 on a difference; the two
# outputs stay in .bench_build/exp-<rev>.txt and exp-tree.txt.
set -euo pipefail

base="${1:?usage: exp-diff.sh <base-rev> [ipabench flags]}"
shift

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
rev="$(git -C "$root" rev-parse --short "$base^{commit}")"
out="$root/.bench_build"
base_dir="$out/base-$rev"
if [ ! -d "$base_dir/cmd/ipabench" ]; then
	mkdir -p "$base_dir"
	git -C "$root" archive "$rev" | tar -x -C "$base_dir"
fi
(cd "$base_dir" && go build -o "$out/ipabench-$rev" ./cmd/ipabench)
(cd "$root" && go build -o "$out/ipabench-tree" ./cmd/ipabench)

"$out/ipabench-$rev" -exp all "$@" >"$out/exp-$rev.txt" &
"$out/ipabench-tree" -exp all "$@" >"$out/exp-tree.txt"
wait $!

if diff "$out/exp-$rev.txt" "$out/exp-tree.txt"; then
	echo "exp-diff: -exp all $* is byte-identical at $rev and in the working tree ($(wc -l <"$out/exp-tree.txt") lines)"
else
	echo "exp-diff: -exp all $* differs between $rev (<) and the working tree (>)" >&2
	exit 1
fi
