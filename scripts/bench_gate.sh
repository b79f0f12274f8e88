#!/bin/sh
# Regression gate for the end-to-end hot path: compares a freshly generated
# BENCH_e2e.json against the committed baseline (the BENCH_e2e.json at HEAD)
# and fails if, at any client count, p99 latency or allocs/op regressed by
# more than the tolerance (percent). Then gates BENCH_conns.json the same
# way: at every connection count, publish p99, bytes/conn, and
# goroutines/conn must stay within tolerance of the committed baseline — and
# BENCH_planner.json: every row (PRI repair, entering probable row, completion
# decision, core handle) must keep its ns/op and allocs/op within tolerance of
# the committed row with the same parameters.
#
#   sh scripts/bench_gate.sh [new.json [baseline.json]]
#
# With no baseline argument the committed version is read via git show.
# Tolerances (integer percent) come from the environment:
#   P99_TOL            e2e p99 latency tolerance, default 20
#   ALLOC_TOL          e2e allocs/op tolerance, default 20
#   CONNS_P99_TOL      conn-scale publish p99 tolerance, default P99_TOL
#   CONNS_MEM_TOL      bytes/conn and goroutines/conn tolerance, default 20
#   CONNS_GORO_ABS     absolute goroutines/conn floor below which the gate
#                      always passes, default 0.05 — with the readiness
#                      poller the baseline is ~0, where a relative
#                      percentage on measurement noise would flake
#   PLANNER_NS_TOL     planner/completion/core ns/op tolerance, default 30
#   PLANNER_NS_ABS     absolute ns/op floor below which the ns gate always
#                      passes, default 1000 — the short-circuited completion
#                      decision costs a few ns, where a percentage is noise
#   METRICS_P99_TOL    metrics-on p99 overhead over metrics-off, default 25
#   METRICS_ALLOC_DELTA  allocs/op the metrics plane may add, default 1
#
# The metrics-overhead gate is self-contained: it compares the off and on
# arms inside the fresh BENCH_metrics.json (no git baseline), holding the
# instrumentation to its allocation-free claim.
# Latency is wall-clock and noisy on shared runners; allocation counts and
# per-connection footprint are deterministic. CI relaxes the latency
# tolerances and keeps the deterministic ones tight.
set -eu
cd "$(dirname "$0")/.."

NEW=${1:-BENCH_e2e.json}
BASE=${2:-}

P99_TOL=${P99_TOL:-20}
ALLOC_TOL=${ALLOC_TOL:-20}
CONNS_P99_TOL=${CONNS_P99_TOL:-$P99_TOL}
CONNS_MEM_TOL=${CONNS_MEM_TOL:-20}
CONNS_GORO_ABS=${CONNS_GORO_ABS:-0.05}
PLANNER_NS_TOL=${PLANNER_NS_TOL:-30}
PLANNER_NS_ABS=${PLANNER_NS_ABS:-1000}
METRICS_P99_TOL=${METRICS_P99_TOL:-25}
METRICS_ALLOC_DELTA=${METRICS_ALLOC_DELTA:-1}

[ -f "$NEW" ] || { echo "bench_gate: $NEW not found (run scripts/bench.sh first)" >&2; exit 1; }

BASETMP=
if [ -z "$BASE" ]; then
    BASETMP=$(mktemp)
    trap 'rm -f "$BASETMP"' EXIT
    if ! git show "HEAD:BENCH_e2e.json" > "$BASETMP" 2>/dev/null; then
        echo "bench_gate: no committed BENCH_e2e.json baseline at HEAD; nothing to gate against"
        exit 0
    fi
    BASE=$BASETMP
fi

# Each artifact row is one JSON object per line; pull the fields positionally
# by key. Exit 1 if any client count regressed past tolerance.
awk -v p99tol="$P99_TOL" -v alloctol="$ALLOC_TOL" '
function field(line, key,    rest) {
    rest = line
    if (!match(rest, "\"" key "\": *[0-9.eE+-]+")) return ""
    rest = substr(rest, RSTART, RLENGTH)
    sub("\"" key "\": *", "", rest)
    return rest
}
/"clients"/ {
    c = field($0, "clients")
    if (FNR == NR) {
        basep99[c] = field($0, "p99_ns")
        basealloc[c] = field($0, "allocs_per_op")
        next
    }
    p99 = field($0, "p99_ns"); alloc = field($0, "allocs_per_op")
    if (!(c in basep99)) { printf "bench_gate: clients=%s missing from baseline\n", c; next }
    lim = basep99[c] * (1 + p99tol / 100.0)
    if (p99 + 0 > lim) {
        printf "bench_gate: FAIL clients=%s p99 %.0fns > baseline %.0fns +%d%%\n", c, p99, basep99[c], p99tol
        bad = 1
    } else {
        printf "bench_gate: ok   clients=%s p99 %.0fns (baseline %.0fns, +%d%% limit %.0fns)\n", c, p99, basep99[c], p99tol, lim
    }
    lim = basealloc[c] * (1 + alloctol / 100.0)
    if (alloc + 0 > lim) {
        printf "bench_gate: FAIL clients=%s allocs/op %.0f > baseline %.0f +%d%%\n", c, alloc, basealloc[c], alloctol
        bad = 1
    } else {
        printf "bench_gate: ok   clients=%s allocs/op %.0f (baseline %.0f, +%d%% limit %.0f)\n", c, alloc, basealloc[c], alloctol, lim
    }
}
END { exit bad }
' "$BASE" "$NEW"

# Connection-scale gate. Only meaningful when this run produced rows (the
# benchmark skips below the needed fd limit) and a baseline is committed;
# an explicit positional NEW/BASE pair gates the e2e file only.
[ -n "${2:-}" ] && exit 0
conns_rows=1
CNEW=BENCH_conns.json
[ -f "$CNEW" ] && grep -q '"conns"' "$CNEW" || {
    echo "bench_gate: no fresh $CNEW rows; skipping connection-scale gate"
    conns_rows=
}
if [ -n "$conns_rows" ]; then
CBASETMP=$(mktemp)
trap 'rm -f "$CBASETMP" ${BASETMP:-}' EXIT
if ! git show "HEAD:$CNEW" > "$CBASETMP" 2>/dev/null || ! grep -q '"conns"' "$CBASETMP"; then
    echo "bench_gate: no committed $CNEW baseline at HEAD; nothing to gate against"
else
awk -v p99tol="$CONNS_P99_TOL" -v memtol="$CONNS_MEM_TOL" -v goroabs="$CONNS_GORO_ABS" '
function field(line, key,    rest) {
    rest = line
    if (!match(rest, "\"" key "\": *[0-9.eE+-]+")) return ""
    rest = substr(rest, RSTART, RLENGTH)
    sub("\"" key "\": *", "", rest)
    return rest
}
# gate compares got against base with a relative tolerance; floor, when
# nonzero, is an absolute value the limit never drops below (a near-zero
# baseline turns a relative percentage into a noise amplifier).
function gate(name, c, got, base, tol, floor,    lim) {
    if (base == "" || got == "") return
    lim = base * (1 + tol / 100.0)
    if (floor + 0 > lim) lim = floor + 0
    if (got + 0 > lim) {
        printf "bench_gate: FAIL conns=%s %s %.3f > baseline %.3f +%d%% (limit %.3f)\n", c, name, got, base, tol, lim
        bad = 1
    } else {
        printf "bench_gate: ok   conns=%s %s %.3f (baseline %.3f, +%d%% limit %.3f)\n", c, name, got, base, tol, lim
    }
}
/"conns"/ {
    c = field($0, "conns")
    if (FNR == NR) {
        basep99[c] = field($0, "p99_ns")
        basebytes[c] = field($0, "bytes_per_conn")
        basegoro[c] = field($0, "goroutines_per_conn")
        next
    }
    if (!(c in basep99)) { printf "bench_gate: conns=%s missing from baseline\n", c; next }
    gate("p99", c, field($0, "p99_ns"), basep99[c], p99tol, 0)
    gate("bytes/conn", c, field($0, "bytes_per_conn"), basebytes[c], memtol, 0)
    gate("goroutines/conn", c, field($0, "goroutines_per_conn"), basegoro[c], memtol, goroabs)
}
END { exit bad }
' "$CBASETMP" "$CNEW"
fi
fi

# Planner gate: PRI repair, entering probable row, completion decision and
# core handle rows, keyed by everything in the row before its measurements
# (mode/rows/tmpl, bench/shape/tmpl, bench/tmpl/final_pct, bench/tmpl), so a
# row new to the file is reported as missing from the baseline once and gated
# from then on. Allocation counts are deterministic; ns/op is wall-clock and
# gets the wider tolerance.
PNEW=BENCH_planner.json
PBASETMP=$(mktemp)
trap 'rm -f "$PBASETMP" ${CBASETMP:-} ${BASETMP:-}' EXIT
if [ ! -f "$PNEW" ] || ! grep -q '"ns_per_op"' "$PNEW"; then
    echo "bench_gate: no fresh $PNEW rows; skipping planner gate"
elif ! git show "HEAD:$PNEW" > "$PBASETMP" 2>/dev/null || ! grep -q '"ns_per_op"' "$PBASETMP"; then
    echo "bench_gate: no committed $PNEW baseline at HEAD; nothing to gate against"
else
awk -v nstol="$PLANNER_NS_TOL" -v nsabs="$PLANNER_NS_ABS" -v alloctol="$ALLOC_TOL" '
function field(line, key,    rest) {
    rest = line
    if (!match(rest, "\"" key "\": *[0-9.eE+-]+")) return ""
    rest = substr(rest, RSTART, RLENGTH)
    sub("\"" key "\": *", "", rest)
    return rest
}
function gate(name, k, got, base, tol, floor,    lim) {
    if (base == "" || got == "") return
    lim = base * (1 + tol / 100.0)
    if (floor + 0 > lim) lim = floor + 0
    if (got + 0 > lim) {
        printf "bench_gate: FAIL %s %s %.0f > baseline %.0f +%d%% (limit %.0f)\n", k, name, got, base, tol, lim
        bad = 1
    } else {
        printf "bench_gate: ok   %s %s %.0f (baseline %.0f, +%d%% limit %.0f)\n", k, name, got, base, tol, lim
    }
}
/"ns_per_op"/ {
    k = $0
    sub(/, *"ns_per_op".*/, "", k)
    sub(/^ *\{/, "", k)
    gsub(/"/, "", k)
    if (FNR == NR) {
        basens[k] = field($0, "ns_per_op")
        basealloc[k] = field($0, "allocs_per_op")
        next
    }
    if (!(k in basens)) { printf "bench_gate: %s missing from baseline\n", k; next }
    gate("ns/op", k, field($0, "ns_per_op"), basens[k], nstol, nsabs)
    gate("allocs/op", k, field($0, "allocs_per_op"), basealloc[k], alloctol, 0)
}
END { exit bad }
' "$PBASETMP" "$PNEW"
fi

# Metrics-overhead gate: off vs on arms of the same run. The allocation
# delta is the hard invariant (the hot path is allocation-free by design);
# the p99 ratio catches a pathologically expensive instrument.
MNEW=BENCH_metrics.json
if [ ! -f "$MNEW" ] || ! grep -q '"metrics"' "$MNEW"; then
    echo "bench_gate: no fresh $MNEW rows; skipping metrics-overhead gate"
    exit 0
fi
awk -v p99tol="$METRICS_P99_TOL" -v allocdelta="$METRICS_ALLOC_DELTA" '
function field(line, key,    rest) {
    rest = line
    if (!match(rest, "\"" key "\": *[0-9.eE+-]+")) return ""
    rest = substr(rest, RSTART, RLENGTH)
    sub("\"" key "\": *", "", rest)
    return rest
}
/"metrics": "off"/ { offp99 = field($0, "p99_ns"); offalloc = field($0, "allocs_per_op") }
/"metrics": "on"/  { onp99  = field($0, "p99_ns"); onalloc  = field($0, "allocs_per_op") }
END {
    if (offp99 == "" || onp99 == "") { print "bench_gate: metrics arms incomplete; skipping"; exit 0 }
    lim = offalloc + allocdelta
    if (onalloc + 0 > lim) {
        printf "bench_gate: FAIL metrics-on allocs/op %.0f > off %.0f + %d\n", onalloc, offalloc, allocdelta
        bad = 1
    } else {
        printf "bench_gate: ok   metrics-on allocs/op %.0f (off %.0f, +%d limit %.0f)\n", onalloc, offalloc, allocdelta, lim
    }
    lim = offp99 * (1 + p99tol / 100.0)
    if (onp99 + 0 > lim) {
        printf "bench_gate: FAIL metrics-on p99 %.0fns > off %.0fns +%d%%\n", onp99, offp99, p99tol
        bad = 1
    } else {
        printf "bench_gate: ok   metrics-on p99 %.0fns (off %.0fns, +%d%% limit %.0fns)\n", onp99, offp99, p99tol, lim
    }
    exit bad
}
' "$MNEW"
