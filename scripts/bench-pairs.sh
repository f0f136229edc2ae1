#!/bin/sh
# bench-pairs: the choosing-metrics pairing rule as one command.
#
#   scripts/bench-pairs.sh BASE WORKLOAD [N] [METRIC]     (make bench-pairs)
#
# Builds ./bench once from BASE (a temporary checkout of that revision)
# and once from the working tree, then runs N pairs of `-workload WORKLOAD
# -trace 0`, alternating which side goes first, and prints each side's
# median and quartiles of METRIC (default cycles_per_s) and the pairs the
# working tree won. Which way is better comes from BENCHMARK.json. A gain
# may be claimed when the tree wins at least 9 pairs in 10 and the medians
# differ by more than the base's own interquartile distance. SEED (11) and
# SECS (10) pass through to -seed and -seconds.
set -eu
base=${1:?usage: bench-pairs.sh BASE WORKLOAD [N] [METRIC]}
workload=${2:?usage: bench-pairs.sh BASE WORKLOAD [N] [METRIC]}
pairs=${3:-10}
metric=${4:-cycles_per_s}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/bench-base" ./bench)
(cd "$root" && go build -o "$tmp/bench-tree" ./bench)

lower=0
if grep -q "\"name\": \"$metric\".*\"better\": \"lower\"" "$root/BENCHMARK.json"; then
	lower=1
fi

# run SIDE DIR: one measurement; the metric's value from the final JSON line.
run() {
	(cd "$2" && "$tmp/bench-$1" -workload "$workload" -seed "${SEED:-11}" -seconds "${SECS:-10}" -trace 0) |
		tail -n 1 | sed -n "s/.*\"$metric\":{\"value\":\([^,}]*\).*/\1/p"
}

won=0
i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		b=$(run base "$tmp/base")
		t=$(run tree "$root")
	else
		t=$(run tree "$root")
		b=$(run base "$tmp/base")
	fi
	[ -n "$b" ] && [ -n "$t" ] || { echo "bench-pairs: pair $i produced no $metric (workload failed?)" >&2; exit 1; }
	echo "$b" >>"$tmp/base.txt"
	echo "$t" >>"$tmp/tree.txt"
	win=$(awk -v b="$b" -v t="$t" -v lower="$lower" 'BEGIN { print ((lower ? t < b : t > b) ? 1 : 0) }')
	won=$((won + win))
	printf 'pair %2d  base %-14s tree %-14s %s\n' "$i" "$b" "$t" "$([ "$win" -eq 1 ] && echo tree || echo base)"
	i=$((i + 1))
done

# quartiles FILE: q1, median, q3 by linear interpolation.
quartiles() {
	sort -g "$1" | awk '
		{ v[NR] = $1 }
		function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
		END { printf "q1 %g  median %g  q3 %g", q(0.25), q(0.5), q(0.75) }'
}
echo "$workload $metric ($([ "$lower" -eq 1 ] && echo lower || echo higher) is better), $pairs pairs"
echo "  base ($base): $(quartiles "$tmp/base.txt")"
echo "  tree:         $(quartiles "$tmp/tree.txt")"
echo "  tree won $won of $pairs pairs"
