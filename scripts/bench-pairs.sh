#!/bin/sh
# bench-pairs: the choosing-metrics pairing rule as one command.
#
#   scripts/bench-pairs.sh BASE WORKLOAD [N] [METRIC]     (make bench-pairs)
#
# Builds ./bench once from BASE (a temporary checkout of that revision)
# and once from the working tree, then runs N pairs of `-workload WORKLOAD
# -trace 0`, alternating which side goes first. From that one set of pairs
# it prints each side's q1 / median / q3 of all five end-to-end metrics —
# so "nothing else got worse" costs no more runs than the claim — and the
# pairs the working tree won on METRIC (default cycles_per_s). Which way is
# better comes from BENCHMARK.json. A gain may be claimed when the tree
# wins at least 9 pairs in 10 and the medians differ by more than the
# base's own interquartile distance. A run that reports correct:false or a
# failed operation on either side fails the script. SEED (11) and SECS
# (10) pass through to -seed and -seconds.
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

metrics="cycles_per_s setup_s peak_rss_mb sim_latency_cycles sim_throughput"

# value NAME LINE: one metric's value out of a result line.
value() {
	echo "$2" | sed -n "s/.*\"$1\":{\"value\":\([^,}]*\).*/\1/p"
}

# run SIDE DIR: one measurement. The result line's metrics go to
# $tmp/SIDE.METRIC.txt; the value of $metric is printed.
run() {
	line=$(cd "$2" && "$tmp/bench-$1" -workload "$workload" -seed "${SEED:-11}" -seconds "${SECS:-10}" -trace 0 | tail -n 1)
	case $line in
	*'"correct":true'*'"failed":0,'*) ;;
	*)
		echo "bench-pairs: $1 run of $workload is not correct with 0 failed: $line" >&2
		return 1
		;;
	esac
	for m in $metrics; do
		value "$m" "$line" >>"$tmp/$1.$m.txt"
	done
	value "$metric" "$line"
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
		END { printf "q1 %-10g median %-10g q3 %g", q(0.25), q(0.5), q(0.75) }'
}
echo "$workload, $pairs pairs, seed ${SEED:-11}: q1 / median / q3 per side"
for m in $metrics; do
	printf '  %-19s base (%s): %s\n' "$m" "$base" "$(quartiles "$tmp/base.$m.txt")"
	printf '  %-19s tree:%*s %s\n' "" $((${#base} + 3)) "" "$(quartiles "$tmp/tree.$m.txt")"
done
echo "  tree won $won of $pairs pairs on $metric ($([ "$lower" -eq 1 ] && echo lower || echo higher) is better)"
