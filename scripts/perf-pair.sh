#!/usr/bin/env bash
# Paired A/B run of one perf-ledger workload: the working tree against its
# parent commit (HEAD~1), following the choosing-metrics rules — identical
# benchmark settings on both sides, N pairs alternating which side runs
# first, and a verdict per end-to-end metric from medians, quartiles and
# the win count. Nothing under perf/ is touched: each side builds its own
# harness from its own checkout with its own perf/run.sh.
#
#   scripts/perf-pair.sh WORKLOAD [N=10] [SEED=1]
#   make perf-pair W=load-update [N=10] [SEED=1]
#
# Environment: PERF_PAIR_BASE=<commit> compares against another commit;
# PERF_PAIR_ARGS="--scale 0.05" passes extra flags to both sides (smoke).
# Exit status: 1 if a run fails or reports failed operations, else 0 — the
# verdicts are for a person to read, not a gate.
set -euo pipefail

workload=${1:?usage: scripts/perf-pair.sh WORKLOAD [N=10] [SEED=1]}
pairs=${2:-10}
seed=${3:-1}
base=${PERF_PAIR_BASE:-HEAD~1}
extra=${PERF_PAIR_ARGS:-}

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
tmp=$(mktemp -d "${TMPDIR:-/tmp}/perf-pair.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

# The parent side: a plain export of the commit (no worktree metadata is
# left behind in .git), built by its own run.sh into its own .bench_build/.
mkdir "$tmp/parent"
git archive "$base" | tar -x -C "$tmp/parent"
echo "# building $base and the working tree" >&2
(cd "$tmp/parent" && bash perf/run.sh --workload "$workload" --scale 0.01 >/dev/null)
bash perf/run.sh --workload "$workload" --scale 0.01 >/dev/null

# run SIDE DIR PAIR: one timed run from DIR's root; metric lines go to the
# data file as "side pair name value".
data=$tmp/data
: >"$data"
status=0
run() {
	local side=$1 dir=$2 pair=$3 out=$tmp/out.$1.$3
	# shellcheck disable=SC2086
	if ! (cd "$dir" && .bench_build/perf --workload "$workload" --seed "$seed" --trace 0 --out "$tmp/trace" $extra) >"$out" 2>"$out.err"; then
		echo "perf-pair: $side run of pair $pair failed:" >&2
		cat "$out.err" >&2
		status=1
	fi
	grep -q '"failed":0,' "$out" || { echo "perf-pair: $side run of pair $pair reports failed operations" >&2; status=1; }
	awk -v side="$side" -v pair="$pair" '!/^[#{]/ && NF >= 2 { print side, pair, $1, $2 }' "$out" >>"$data"
}

for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		run parent "$tmp/parent" "$i"
		run change "$root" "$i"
	else
		run change "$root" "$i"
		run parent "$tmp/parent" "$i"
	fi
	echo "# pair $i/$pairs done" >&2
done

# The end-to-end metrics, their direction and their bound, from BENCHMARK.json.
awk '
	/"end_to_end"/ { on = 1; next }
	on && /\]/ { on = 0 }
	on && /"name"/ { gsub(/[",]/, ""); name = $2 }
	on && /"better"/ { gsub(/[",]/, ""); better = $2 }
	on && /"bound"/ { gsub(/[",]/, ""); print name, better, $2 }
' BENCHMARK.json >"$tmp/metrics"

echo "# $workload, seed $seed, $pairs alternating pairs: working tree (change) against $base (parent)"
echo "# verdict: GAIN / LOSS = change wins (loses) >= 9/10 of the pairs and the medians differ by more than the parent's"
echo "#          interquartile range; BEYOND BOUND = the change's median is worse by more than the benchmark's bound;"
echo "#          unresolved = the parent's own spread is wider than the bound; otherwise within bound."
printf '%-14s %14s %27s %14s %27s %9s %7s  %s\n' metric parent-median '[q1, q3]' change-median '[q1, q3]' rel-diff wins verdict
sort -k3,3 -k1,1 -k4,4g "$data" | awk -v pairs="$pairs" '
	# quantile of the sorted values v[1..n] by linear interpolation
	function q(v, n, p,    h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
	FNR == NR { better[$1] = $2; bound[$1] = $3; order[++nm] = $1; next }
	{ cnt[$3, $1]++; val[$3, $1, cnt[$3, $1]] = $4; byPair[$3, $1, $2] = $4 }
	END {
		for (k = 1; k <= nm; k++) {
			m = order[k]
			np = cnt[m, "parent"]; nc = cnt[m, "change"]
			if (np == 0 || nc == 0) continue
			for (i = 1; i <= np; i++) P[i] = val[m, "parent", i]
			for (i = 1; i <= nc; i++) C[i] = val[m, "change", i]
			pm = q(P, np, 0.5); p1 = q(P, np, 0.25); p3 = q(P, np, 0.75)
			cm = q(C, nc, 0.5); c1 = q(C, nc, 0.25); c3 = q(C, nc, 0.75)
			sign = better[m] == "higher" ? 1 : -1
			wins = 0; losses = 0
			for (i = 1; i <= pairs; i++) {
				d = sign * (byPair[m, "change", i] - byPair[m, "parent", i])
				if (d > 0) wins++; else if (d < 0) losses++
			}
			gain = sign * (cm - pm)          # > 0: the change is better
			rel = pm != 0 ? (cm - pm) / pm : 0
			iqr = p3 - p1
			verdict = "within bound"
			if (pm != 0 && iqr / (pm < 0 ? -pm : pm) > bound[m]) verdict = "unresolved (parent IQR wider than the bound)"
			if (pm != 0 && -gain / (pm < 0 ? -pm : pm) > bound[m]) verdict = "BEYOND BOUND"
			if (wins >= 0.9 * pairs && gain > iqr) verdict = "GAIN"
			if (losses >= 0.9 * pairs && -gain > iqr && verdict != "BEYOND BOUND") verdict = "LOSS (within bound)"
			if (cm == pm && wins == 0 && losses == 0) verdict = "identical"
			printf "%-14s %14.4f %27s %14.4f %27s %+8.1f%% %4d/%-2d  %s\n", m, pm, sprintf("[%.4f, %.4f]", p1, p3), cm, sprintf("[%.4f, %.4f]", c1, c3), 100 * rel, wins, pairs, verdict
		}
	}
' "$tmp/metrics" -
exit $status
