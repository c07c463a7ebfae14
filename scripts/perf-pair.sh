#!/usr/bin/env bash
# The paired parent/change protocol of the perf benchmark as one command
# (choosing-metrics §8): N pairs of `bash perf/run.sh --workload W --seed i
# --seconds S --trace 0`, one run on an export of the base commit and one
# on this working tree, alternating which side goes first, then per gated
# metric each side's median and quartiles, the change's win count, whether
# a gain is shown, and resolved/unresolved against the BENCHMARK.json bound.
#
#   scripts/perf-pair.sh <workload> [pairs=10] [seconds=20] [base]
#
# base defaults to HEAD when the working tree has uncommitted changes (the
# change is the tree) and to HEAD^ otherwise (the change is the commit). The
# export is a `git archive` into a temp dir under $TMPDIR, removed on exit;
# every run's result line is kept in perf/out/pair-<workload>.tsv.
set -euo pipefail
cd "$(dirname "$0")/.."

workload=${1:?usage: scripts/perf-pair.sh <workload> [pairs=10] [seconds=20] [base]}
pairs=${2:-10}
seconds=${3:-20}
[ "$pairs" -ge 2 ] || { echo "perf-pair: quartiles need at least 2 pairs" >&2; exit 2; }
base=${4:-}
if [ -z "$base" ]; then
	if [ -n "$(git status --porcelain --untracked-files=no)" ]; then base=HEAD; else base=HEAD^; fi
fi
command -v python3 >/dev/null || { echo "perf-pair: python3 is needed for the statistics" >&2; exit 2; }

parent=$(mktemp -d "${TMPDIR:-/tmp}/perf-pair.XXXXXX")
trap 'rm -rf "$parent"' EXIT
git archive "$base" | tar -x -C "$parent"
echo "perf-pair: $workload, $pairs pairs of ${seconds}s, parent = $(git rev-parse --short "$base") exported to $parent"

mkdir -p perf/out
log=perf/out/pair-$workload.tsv
: >"$log"
run() { # side dir pair
	local line
	# A run whose invariants fail exits non-zero but still prints its line.
	line=$(cd "$2" && bash perf/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1) || true
	printf '%s\t%s\t%s\n' "$1" "$3" "$line" >>"$log"
	echo "  pair $3 $1: $line"
}
for i in $(seq 1 "$pairs"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$parent" "$i"; run change . "$i"
	else
		run change . "$i"; run parent "$parent" "$i"
	fi
done

python3 - "$log" BENCHMARK.json <<'EOF'
import json, statistics, sys

runs = {"parent": {}, "change": {}}
failed = {"parent": 0, "change": 0}
for line in open(sys.argv[1]):
    side, pair, result = line.rstrip("\n").split("\t")
    try:
        result = json.loads(result)
    except ValueError:  # the run died before its result line
        failed[side] += 1
        continue
    runs[side][int(pair)] = {k: v["value"] for k, v in result["metrics"].items()}
    failed[side] += result["failed"] + (0 if result["correct"] else 1)

def quartiles(xs):  # q1, median, q3
    return statistics.quantiles(xs, n=4, method="inclusive")

pairs = sorted(set(runs["parent"]) & set(runs["change"]))
print(f"\n{len(pairs)} pairs; failed operations or invariants: parent {failed['parent']}, change {failed['change']}")
for m in json.load(open(sys.argv[2]))["end_to_end"]:
    name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
    p = [runs["parent"][i][name] for i in pairs]
    c = [runs["change"][i][name] for i in pairs]
    pq1, pmed, pq3 = quartiles(p)
    cq1, cmed, cq3 = quartiles(c)
    better = lambda a, b: a > b if higher else a < b
    wins = sum(better(x, y) for x, y in zip(c, p))
    losses = sum(better(y, x) for x, y in zip(c, p))
    worse = (pmed - cmed) / pmed if higher else (cmed - pmed) / pmed  # > 0: the change is worse
    spread = max((pq3 - pq1) / pmed, (cq3 - cq1) / cmed)
    if spread > bound:
        verdict = f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
    elif worse > bound:
        verdict = f"resolved: WORSE by {worse:.1%}, beyond the {bound:.0%} bound"
    else:
        verdict = f"resolved: within the {bound:.0%} bound"
    gain = wins >= 0.9 * len(pairs) and abs(cmed - pmed) > pq3 - pq1 and better(cmed, pmed)
    print(f"{name} [{m['unit']}, {m['better']} is better]")
    print(f"  parent  median {pmed:.6g}  quartiles {pq1:.6g} .. {pq3:.6g}")
    print(f"  change  median {cmed:.6g}  quartiles {cq1:.6g} .. {cq3:.6g}  ({-worse:+.1%}, ratio {cmed / pmed:.3f})")
    print(f"  change wins {wins}, loses {losses} of {len(pairs)}; gain {'shown' if gain else 'not shown'}; {verdict}")
EOF
