#!/bin/sh
# Paired parent-vs-working-tree runs of the repository benchmark (choosing-
# metrics §8): both sides run bench/run.sh exactly as the driver does, with
# the run length BENCHMARK.json fixes, a fresh seed per pair, and the side
# that goes first alternating from pair to pair. For each end-to-end metric
# it prints both sides' median and quartiles, the pairs the change won (ties
# count for neither), whether the gain rule holds — the change wins at least
# nine tenths of the pairs and the medians differ by more than the distance
# between the parent's own quartiles — the no-regression verdict against the
# bound BENCHMARK.json fixes for the metric, and every run's value, pair by
# pair. The verdict is REGRESSION when the change's median is worse than the
# parent's by more than the bound; otherwise unresolved when the parent's own
# quartile distance exceeds the bound (unless every change run beats every
# parent run); otherwise within bound. A REGRESSION, or more failed runs on
# the change than on the parent, exits non-zero.
#
#   sh scripts/bench_pair.sh <parent-ref> <workload> [pairs=10]
#
# The parent is the committed tree of <parent-ref>, unpacked with git archive
# into a temp dir (honours TMPDIR; removed on exit) — the same "committed
# files in a new directory" the driver measures, and nothing is registered in
# .git. The change is the working tree, uncommitted edits included. Each
# side's bench/run.sh builds into its own .bench_build/ on first use and
# hits its build cache afterwards. Nothing under bench/ is touched.
set -eu
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || { echo "usage: sh scripts/bench_pair.sh <parent-ref> <workload> [pairs=10]" >&2; exit 2; }
REF=$1
WORKLOAD=$2
PAIRS=${3:-10}
SECONDS_PER_RUN=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
[ -n "$SECONDS_PER_RUN" ] || { echo "bench_pair: no run_seconds in BENCHMARK.json" >&2; exit 2; }

CHANGE=$(pwd)
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
PARENT=$TMP/parent
mkdir "$PARENT"
git archive "$REF" | tar -x -C "$PARENT"
RESULTS=$TMP/results.tsv

# run <side> <dir> <seed>: one untraced run; appends "side seed metric value"
# rows, or a "side seed FAILED" row when the run did not verify.
run() {
    out=$(cd "$2" && bash bench/run.sh --workload "$WORKLOAD" --seed "$3" --seconds "$SECONDS_PER_RUN" --trace 0 2>/dev/null | tail -n 1) || true
    case $out in
    *'"correct":true'*'"failed":0,'*)
        printf '%s\n' "$out" | tr ',{' '\n\n' | awk -v side="$1" -v seed="$3" '
            /^"[a-z0-9_]+":$/ { name = $0; gsub(/[":]/, "", name) }
            /^"value":/ { v = $0; sub(/^"value":/, "", v); print side, seed, name, v }' >> "$RESULTS"
        ;;
    *)
        echo "$1 $3 FAILED -" >> "$RESULTS"
        echo "bench_pair: $1 seed $3 did not produce a verified result: ${out:-no output}" >&2
        ;;
    esac
}

i=1
while [ "$i" -le "$PAIRS" ]; do
    seed=$((100 + i))
    if [ $((i % 2)) -eq 1 ]; then
        echo "pair $i/$PAIRS seed $seed: parent, change" >&2
        run parent "$PARENT" "$seed"; run change "$CHANGE" "$seed"
    else
        echo "pair $i/$PAIRS seed $seed: change, parent" >&2
        run change "$CHANGE" "$seed"; run parent "$PARENT" "$seed"
    fi
    i=$((i + 1))
done

# Metrics BENCHMARK.json marks as better when higher; the rest are better lower.
HIGHER=$(awk -F'"' '$2 == "name" { name = $4 } $2 == "better" && $4 == "higher" { printf "%s ", name }' BENCHMARK.json)
# The end-to-end metrics' no-regression bounds (fraction of the parent median), as "name=bound ...".
BOUNDS=$(awk -F'"' '$2 == "name" { name = $4 } $2 == "bound" { gsub(/[^0-9.]/, "", $3); printf "%s=%s ", name, $3 }' BENCHMARK.json)

echo "workload $WORKLOAD, parent $REF, $PAIRS pairs, $SECONDS_PER_RUN s per run"
awk -v pairs="$PAIRS" -v higherlist="$HIGHER" -v boundlist="$BOUNDS" '
BEGIN { nb = split(boundlist, kv, " "); for (i = 1; i <= nb; i++) { split(kv[i], nv, "="); bound[nv[1]] = nv[2] + 0 } }
# Quartiles by linear interpolation between order statistics.
function quantile(a, n, p,    h, lo) {
    h = (n - 1) * p + 1; lo = int(h)
    if (lo >= n) return a[n]
    return a[lo] + (h - lo) * (a[lo + 1] - a[lo])
}
function sorted(side, m, out,    n, i, j, t) {
    n = 0
    for (s in val) {
        split(s, k, SUBSEP)
        if (k[1] == side && k[3] == m) out[++n] = val[s]
    }
    for (i = 2; i <= n; i++) for (j = i; j > 1 && out[j - 1] > out[j]; j--) { t = out[j]; out[j] = out[j - 1]; out[j - 1] = t }
    return n
}
$3 == "FAILED" { failed[$1]++; next }
{ val[$1, $2, $3] = $4 + 0; if (!($2 in seeds)) { seeds[$2] = 1; seedorder[++ns] = $2 }; if (!($3 in metric)) { metric[$3] = 1; order[++nm] = $3 } }
END {
    printf "failed runs: parent %d, change %d\n", failed["parent"], failed["change"]
    for (x = 1; x <= nm; x++) {
        m = order[x]
        higher = index(" " higherlist, " " m " ") > 0
        np = sorted("parent", m, P); nc = sorted("change", m, C)
        if (np == 0 || nc == 0) continue
        won = lost = 0
        for (sd in seeds) {
            if (!(("parent", sd, m) in val) || !(("change", sd, m) in val)) continue
            d = val["change", sd, m] - val["parent", sd, m]
            if (higher) d = -d
            if (d < 0) won++; else if (d > 0) lost++
        }
        pq1 = quantile(P, np, 0.25); pmed = quantile(P, np, 0.5); pq3 = quantile(P, np, 0.75)
        cq1 = quantile(C, nc, 0.25); cmed = quantile(C, nc, 0.5); cq3 = quantile(C, nc, 0.75)
        gain = higher ? cmed - pmed : pmed - cmed
        printf "%-16s parent median %.4g [q1 %.4g, q3 %.4g]  change median %.4g [q1 %.4g, q3 %.4g]\n", m, pmed, pq1, pq3, cmed, cq1, cq3
        printf "%-16s change won %d, lost %d of %d pairs; medians differ by %.4g (%+.1f%%), parent quartile distance %.4g: %s\n", "", won, lost, pairs, gain, pmed ? 100 * (cmed - pmed) / pmed : 0, pq3 - pq1, (won * 10 >= 9 * pairs && gain > pq3 - pq1) ? "GAIN" : "no gain shown"
        if (m in bound && pmed) {
            allbeat = higher ? C[1] > P[np] : C[nc] < P[1]
            if (-gain / pmed > bound[m]) { verdict = "REGRESSION"; regressed = 1 }
            else verdict = ((pq3 - pq1) / pmed > bound[m] && !allbeat) ? "unresolved" : "within bound"
            printf "%-16s bound %g%% of the parent median, parent quartile distance %.1f%%: %s\n", "", 100 * bound[m], 100 * (pq3 - pq1) / pmed, verdict
        }
        runs = ""
        for (y = 1; y <= ns; y++) {
            sd = seedorder[y]
            runs = runs sprintf(" %s:%s/%s", sd, (("parent", sd, m) in val) ? sprintf("%.4g", val["parent", sd, m]) : "-", (("change", sd, m) in val) ? sprintf("%.4g", val["change", sd, m]) : "-")
        }
        printf "%-16s every run, seed:parent/change%s\n", "", runs
    }
    if (regressed || failed["change"] > failed["parent"]) exit 1
}
' "$RESULTS"
