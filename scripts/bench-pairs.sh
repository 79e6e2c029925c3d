#!/usr/bin/env bash
# Paired runs of one benchmark workload: a base revision against the
# working tree, the way a performance claim has to be measured on a box
# whose speed drifts (bench/README.md, "Host speed").
#
#   bash scripts/bench-pairs.sh <workload> [base-rev] [pairs] [first-seed]
#   make bench-pairs W=ycsb-read-flash BASE=HEAD~1 N=10
#
# The base revision's tree is unpacked under .bench_build/base-<rev>
# (git archive: nothing is registered in .git and the working tree is not
# touched) and builds into its own .bench_build there. Each pair runs
#   bash bench/run.sh --workload W --seed S --seconds 18 --trace 0
# on both sides with the same seed, the side that goes first alternating;
# seeds count up from first-seed (default: taken from the clock, and
# printed, so a run can be repeated). Per-run rows go to
# .bench_build/pairs-<workload>.tsv. For every end-to-end metric the
# summary prints each side's median and quartiles and the pairs the
# change won; the claim rule (choosing-metrics guide, section 8) is
# >= 9 of 10 pairs won and a median difference larger than the base's
# inter-quartile distance.
set -euo pipefail

workload="${1:?usage: bench-pairs.sh <workload> [base-rev] [pairs] [first-seed]}"
base="${2:-HEAD}"
pairs="${3:-10}"
seed0="${4:-$(($(date +%s) % 100000 + 1))}"

root="$(git -C "$(dirname "${BASH_SOURCE[0]}")" rev-parse --show-toplevel)"
rev="$(git -C "$root" rev-parse --short "$base^{commit}")"
base_dir="$root/.bench_build/base-$rev"
if [ ! -d "$base_dir/bench" ]; then
	mkdir -p "$base_dir"
	git -C "$root" archive "$rev" | tar -x -C "$base_dir"
fi
rows="$root/.bench_build/pairs-$workload.tsv"
: >"$rows"

# run <checkout>: one result line of the benchmark, or nothing.
run() {
	(cd "$1" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 18 --trace 0 2>/dev/null | tail -n 1) || true
}

# row <side> <json>: side, seed, the four metrics, correct, failed.
row() {
	local v out="$1	$seed"
	for m in tx_per_s lat_p50_us setup_s peak_rss_mb; do
		v="$(printf '%s' "$2" | sed -n "s/.*\"$m\":{\"value\":\([-0-9.eE+]*\).*/\1/p")"
		out="$out	${v:-nan}"
	done
	out="$out	$(printf '%s' "$2" | sed -n 's/.*"correct":\([a-z]*\).*/\1/p')"
	out="$out	$(printf '%s' "$2" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')"
	printf '%s\n' "$out" | tee -a "$rows"
}

echo "workload $workload: base $rev vs working tree, $pairs pairs, seeds $seed0..$((seed0 + pairs - 1))"
echo "side	seed	tx_per_s	lat_p50_us	setup_s	peak_rss_mb	correct	failed"
for i in $(seq 1 "$pairs"); do
	seed=$((seed0 + i - 1))
	if [ $((i % 2)) -eq 1 ]; then
		row base "$(run "$base_dir")"
		row change "$(run "$root")"
	else
		row change "$(run "$root")"
		row base "$(run "$base_dir")"
	fi
done

# Summary: medians and quartiles by linear interpolation between order
# statistics; a pair is won when the change's value is better (higher
# tx_per_s, lower everything else), ties counting for neither side.
awk -F'\t' '
function quant(a, n, p,    pos, lo) { pos = (n - 1) * p; lo = int(pos); return a[lo + 1] + (pos - lo) * (a[(lo + 2 > n) ? n : lo + 2] - a[lo + 1]) }
function sorted(src, n, dst,    i, j, t) { for (i = 1; i <= n; i++) dst[i] = src[i]; for (i = 2; i <= n; i++) { t = dst[i]; for (j = i - 1; j >= 1 && dst[j] > t; j--) dst[j + 1] = dst[j]; dst[j + 1] = t } }
BEGIN { split("tx_per_s lat_p50_us setup_s peak_rss_mb", name, " ") }
{
	if ($7 != "true" || $8 != "0") bad[$1]++
	for (m = 1; m <= 4; m++) v[$1, m, $2] = $(m + 2)
	seeds[$2] = 1
}
END {
	for (m = 1; m <= 4; m++) {
		nb = nc = won = lost = 0
		for (s in seeds) {
			b = v["base", m, s]; c = v["change", m, s]
			if (b == "" || c == "" || b == "nan" || c == "nan") continue
			bs[++nb] = b; cs[++nc] = c
			better = (m == 1) ? (c > b) : (c < b); worse = (m == 1) ? (c < b) : (c > b)
			won += better; lost += worse
		}
		if (nb == 0) { printf "%-12s no complete pair\n", name[m]; continue }
		sorted(bs, nb, sb); sorted(cs, nc, sc)
		bm = quant(sb, nb, 0.5); cm = quant(sc, nc, 0.5)
		printf "%-12s base %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  %+.1f%%  won %d lost %d of %d\n", \
			name[m], bm, quant(sb, nb, 0.25), quant(sb, nb, 0.75), cm, quant(sc, nc, 0.25), quant(sc, nc, 0.75), \
			100 * (cm - bm) / bm, won, lost, nb
	}
	for (side in bad) printf "%s: %d runs incorrect or with failed operations\n", side, bad[side]
}' "$rows"
