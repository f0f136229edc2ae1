#!/bin/sh
# bench-pairs: the choosing-metrics pairing rule as one command.
#
#   scripts/bench-pairs.sh [-json FILE] BASE WORKLOAD [N] [METRIC]
#                                                         (make bench-pairs)
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
#
# -json FILE appends the outcome as one record to the JSON array in FILE
# (created when missing): workload, metric, pairs and pairs won, seed,
# seconds, num_cpu, both commits, whether the tree was dirty and a SHA-256
# of its uncommitted sources (both taken when it was built), and per side
# the q1 / median / q3 of the five metrics. BENCH_trajectory.json collects one such record per claim.
set -eu
usage='usage: bench-pairs.sh [-json FILE] BASE WORKLOAD [N] [METRIC]'
json=
if [ "${1:-}" = -json ]; then
	json=${2:?$usage}
	shift 2
fi
base=${1:?$usage}
workload=${2:?$usage}
pairs=${3:-10}
metric=${4:-cycles_per_s}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/base"
git -C "$root" archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go build -o "$tmp/bench-base" ./bench)
# The tree's sources as built, taken right before its build: whether
# tracked files differ from HEAD, and a SHA-256 of that difference under
# the built directories plus every untracked .go file there (path, then
# contents). A clean tree hashes the empty input.
dirty=false
[ -z "$(git -C "$root" status --porcelain --untracked-files=no)" ] || dirty=true
sources=$(cd "$root" && {
	git diff HEAD -- internal cmd bench go.mod
	git ls-files --others --exclude-standard -- internal cmd bench | grep '\.go$' | sort | while read -r f; do
		echo "$f"
		cat "$f"
	done
} | sha256sum | cut -d ' ' -f 1)
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

# quartiles FILE FORMAT: q1, median, q3 by linear interpolation, printed
# with FORMAT (three %g-style conversions).
quartiles() {
	sort -g "$1" | awk -v f="$2" '
		{ v[NR] = $1 }
		function q(p,   h, lo) { h = (NR - 1) * p + 1; lo = int(h); return v[lo] + (h - lo) * (v[lo < NR ? lo + 1 : lo] - v[lo]) }
		END { printf f, q(0.25), q(0.5), q(0.75) }'
}
better=$([ "$lower" -eq 1 ] && echo lower || echo higher)
echo "$workload, $pairs pairs, seed ${SEED:-11}: q1 / median / q3 per side"
for m in $metrics; do
	printf '  %-19s base (%s): %s\n' "$m" "$base" "$(quartiles "$tmp/base.$m.txt" 'q1 %-10g median %-10g q3 %g')"
	printf '  %-19s tree:%*s %s\n' "" $((${#base} + 3)) "" "$(quartiles "$tmp/tree.$m.txt" 'q1 %-10g median %-10g q3 %g')"
done
echo "  tree won $won of $pairs pairs on $metric ($better is better)"

[ -n "$json" ] || exit 0
# side SIDE: one side's quartiles as a JSON object keyed by metric.
side() {
	sep=
	for m in $metrics; do
		printf '%s"%s": %s' "$sep" "$m" "$(quartiles "$tmp/$1.$m.txt" '{"q1": %.6g, "median": %.6g, "q3": %.6g}')"
		sep=', '
	done
}
{
	if [ -s "$json" ]; then
		sed '$d' "$json" | sed '$ s/}$/},/'
	else
		echo '['
	fi
	printf '  {\n'
	printf '    "workload": "%s", "metric": "%s", "better": "%s",\n' "$workload" "$metric" "$better"
	printf '    "pairs": %d, "won": %d, "seed": %d, "seconds": %s, "num_cpu": %d,\n' "$pairs" "$won" "${SEED:-11}" "${SECS:-10}" "$(getconf _NPROCESSORS_ONLN)"
	printf '    "base_commit": "%s",\n' "$(git -C "$root" rev-parse "$base^{commit}")"
	printf '    "tree_commit": "%s", "tree_dirty": %s,\n' "$(git -C "$root" rev-parse HEAD)" "$dirty"
	printf '    "tree_sources": "%s",\n' "$sources"
	printf '    "base": {%s},\n' "$(side base)"
	printf '    "tree": {%s}\n' "$(side tree)"
	printf '  }\n]\n'
} >"$tmp/json"
mv "$tmp/json" "$json"
