#!/bin/sh
# Paired parent-vs-working-tree runs of the repository benchmark (choosing-
# metrics §8): both sides run bench/run.sh exactly as the driver does, with
# the run length BENCHMARK.json fixes, a fresh seed per pair, and the side
# that goes first alternating from pair to pair. Both runs of a pair share a
# seed and run back to back, so the verdicts are taken from the per-pair
# ratio change/parent, which cancels the spread between seeds and host drift
# slower than a pair: its median and the interval between its order
# statistics k and n+1-k, k = 0.3n (3 and 8 of 10 ratios, the ~89 %
# sign-test interval). For each end-to-end metric it prints both sides'
# median and quartiles, the pairs the change won (ties count for neither),
# the ratio's median and interval, whether the gain rule holds — the change
# wins at least nine tenths of the pairs, the whole interval lies on the
# better side of 1, and the medians differ by more than the distance between
# the parent's own quartiles, so that a consistent but negligible difference
# reads no gain — the no-regression verdict against the bound BENCHMARK.json
# fixes for the metric, and every run's value, pair by pair.
# The verdict is REGRESSION when the interval lies wholly past the bound,
# within bound when it lies wholly inside it, and unresolved only when it
# straddles the bound. A REGRESSION, or more failed runs on the change than
# on the parent, exits non-zero.
#
#   sh scripts/bench_pair.sh <parent-ref> <workload> [pairs=10]
#
# Both sides are fresh sibling directories of one temp dir (honours TMPDIR;
# removed on exit), unpacked with git archive — the same "committed files in
# a new directory" the driver measures. The parent is the committed tree of
# <parent-ref>. The change is a snapshot of the working tree: tracked files
# with their uncommitted edits, plus untracked files .gitignore does not
# exclude, staged into a throwaway index (the blobs land in the object
# store, as with `git stash`; no ref and not the real index moves). Neither
# side runs from the checkout, so neither has a warmer directory, build
# cache or page cache than the other. Each side's bench/run.sh builds into
# its own .bench_build/ on first use and hits its build cache afterwards.
# Nothing under bench/ is touched.
set -eu
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || { echo "usage: sh scripts/bench_pair.sh <parent-ref> <workload> [pairs=10]" >&2; exit 2; }
REF=$1
WORKLOAD=$2
PAIRS=${3:-10}
SECONDS_PER_RUN=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
[ -n "$SECONDS_PER_RUN" ] || { echo "bench_pair: no run_seconds in BENCHMARK.json" >&2; exit 2; }

TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT
PARENT=$TMP/parent
CHANGE=$TMP/change
mkdir "$PARENT" "$CHANGE"
git archive "$REF" | tar -x -C "$PARENT"
cp "$(git rev-parse --git-path index)" "$TMP/index"
GIT_INDEX_FILE=$TMP/index git add -A
git archive "$(GIT_INDEX_FILE=$TMP/index git write-tree)" | tar -x -C "$CHANGE"
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
        won = lost = nr = 0; split("", R)
        for (sd in seeds) {
            if (!(("parent", sd, m) in val) || !(("change", sd, m) in val) || val["parent", sd, m] == 0) continue
            r = val["change", sd, m] / val["parent", sd, m]
            R[++nr] = r
            if (higher ? r > 1 : r < 1) won++; else if (higher ? r < 1 : r > 1) lost++
        }
        for (i = 2; i <= nr; i++) for (j = i; j > 1 && R[j - 1] > R[j]; j--) { t = R[j]; R[j] = R[j - 1]; R[j - 1] = t }
        pq1 = quantile(P, np, 0.25); pmed = quantile(P, np, 0.5); pq3 = quantile(P, np, 0.75)
        cq1 = quantile(C, nc, 0.25); cmed = quantile(C, nc, 0.5); cq3 = quantile(C, nc, 0.75)
        gain = higher ? cmed - pmed : pmed - cmed
        printf "%-16s parent median %.4g [q1 %.4g, q3 %.4g]  change median %.4g [q1 %.4g, q3 %.4g]\n", m, pmed, pq1, pq3, cmed, cq1, cq3
        if (nr > 0) {
            o = int(0.3 * nr); if (o < 1) o = 1
            lo = R[o]; hi = R[nr + 1 - o]; rmed = quantile(R, nr, 0.5)
            # Each ratio as its distance past 1 in the worse direction, so that the
            # upper end of the interval is always its worse one.
            worse = higher ? 2 - lo : hi; better = higher ? 2 - hi : lo
            printf "%-16s change won %d, lost %d of %d pairs; ratio change/parent median %.4f, interval [%.4f, %.4f] (order statistics %d and %d of %d)\n", "", won, lost, pairs, rmed, lo, hi, o, nr + 1 - o, nr
            printf "%-16s medians differ by %.4g (%+.1f%%), parent quartile distance %.4g: %s\n", "", gain, pmed ? 100 * (cmed - pmed) / pmed : 0, pq3 - pq1, (won * 10 >= 9 * pairs && worse < 1 && gain > pq3 - pq1) ? "GAIN" : "no gain shown"
            if (m in bound) {
                if (better > 1 + bound[m]) { verdict = "REGRESSION"; regressed = 1 }
                else verdict = (worse <= 1 + bound[m]) ? "within bound" : "unresolved"
                printf "%-16s bound %g%% of the parent: %s\n", "", 100 * bound[m], verdict
            }
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
