GO ?= go

# Short budgets keep the fuzz smoke inside the tier-1 time envelope; nightly
# or local deep runs override, e.g. `make fuzz-smoke FUZZTIME=5m`.
FUZZTIME ?= 10s

.PHONY: build test race vet lint lint-loc fuzz-smoke verify planes-loc loc bench-pair bench-e2e

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# lint runs the crowdfill-lint invariant suite (internal/analysis) over the
# whole module, with in-package _test.go files included: the locks analyzer
# over the module call graph, which sees what no run-time test can (a
# lock-order cycle, a blocking call under NetServer.mu on an undriven path).
# -time prints load/analyze timing to stderr. `go test ./...` runs the same
# suite (cmd/crowdfill-lint's TestModuleLintsClean); this target is for the
# timing line and for reading findings in the linter's own format. The other
# invariants are held by tests that fail on their breach: seed determinism
# (TestSimTraceGolden, TestSimTraceDeterministic,
# TestRepresentativeDeterminism), read-lease ownership (TestWSRecvBatch),
# immutable vectors (TestLoadSnapshotSharesVectors,
# TestConcurrentFillSameRow), the accepted-versus-replayed message set
# (TestMsgType, TestMsgTypeAcceptedIsReplayed), a join's private messages
# (TestJoinCarriesMasterState), estimates settled on every quiet link with
# no periodic re-send (TestEstimatesSettleOnEveryLink), and the message
# path's allocation budget (testing.AllocsPerRun pins).
lint:
	$(GO) run ./cmd/crowdfill-lint -tests -time

# lint-loc prints the lint suite's non-test line count: internal/analysis
# (the framework, the call graph and locks) plus cmd/crowdfill-lint,
# analyzer testdata excluded.
lint-loc:
	@find internal/analysis cmd/crowdfill-lint -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' | xargs cat | wc -l

# fuzz-smoke gives each native fuzz target a short budget on top of its
# committed testdata/fuzz corpus (which plain `go test` already replays).
# FuzzPlannerIncremental's inputs are operation streams whose coverage shifts
# with map order, so nearly every one looks new to the engine; minimizing
# them (60 s each by default) would eat the whole budget, so it is off.
fuzz-smoke:
	$(GO) test ./internal/wsock -fuzz FuzzFrameParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wsock -fuzz FuzzFrameRoundTrip -fuzztime $(FUZZTIME)
	$(GO) test ./internal/wsock -fuzz FuzzFrameReassembly -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sync -fuzz FuzzMessageDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sync -fuzz FuzzCodecDifferential -fuzztime $(FUZZTIME)
	$(GO) test ./internal/constraint -fuzz FuzzPlannerIncremental -fuzztime $(FUZZTIME) -fuzzminimizetime 0

# verify is the tier-1 gate (whose tests include the invariant suite) plus
# static analysis, the race detector, and a short fuzz smoke.
verify: build vet test race fuzz-smoke

# planes-loc prints the "one path per job" figures ROADMAP tracks, one per
# line: the non-test line count of the four wire planes plus the work queue
# they share, then that of the three incremental engines (planner, table
# index, estimator) and the packages they live in.
planes-loc:
	@find internal/wsock internal/transport internal/server internal/netpoll internal/parkq -name '*.go' ! -name '*_test.go' | xargs cat | wc -l
	@find internal/constraint internal/model internal/pay -name '*.go' ! -name '*_test.go' | xargs cat | wc -l

# loc prints the non-test line count of every package outside the linter
# (internal/analysis and cmd/crowdfill-lint, which lint-loc counts) and the
# benchmark (bench/), one "lines package" pair per line, then their total:
# the per-package figure a change that deletes code reports before and after.
loc:
	@$(GO) list -f '{{.Dir}} {{.ImportPath}}' ./... | grep -v -e '/internal/analysis' -e '/cmd/crowdfill-lint ' -e '/bench ' | \
	while read dir pkg; do \
		printf '%6d %s\n' $$(find "$$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l) "$$pkg"; \
	done | awk '{ print; total += $$1 } END { printf "%6d total\n", total }'

# bench-pair runs the repository benchmark (bench/run.sh, BENCHMARK.json) on
# PARENT's committed tree and on the working tree in alternating pairs and
# prints medians, quartiles, pairs won, the gain verdict and the no-regression
# verdict (within bound / REGRESSION / unresolved, against BENCHMARK.json's
# bound) per end-to-end metric; a REGRESSION or extra failed runs fail the
# target. E.g. `make bench-pair PARENT=HEAD~1 WORKLOAD=table200 PAIRS=10`.
PARENT ?= HEAD
WORKLOAD ?= table200
PAIRS ?= 10
bench-pair:
	sh scripts/bench_pair.sh $(PARENT) $(WORKLOAD) $(PAIRS)

# bench-e2e runs the repository benchmark once per workload exactly as the
# driver does — bench/run.sh, seed 1, the run length BENCHMARK.json fixes,
# untraced — and prints each run's final JSON line (correct, failed and the
# end-to-end metrics). A run that does not verify fails the target.
RUN_SECONDS := $(shell sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
E2E_WORKLOADS := paper5 table200 fanout64 burst64
bench-e2e:
	@for w in $(E2E_WORKLOADS); do \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds $(RUN_SECONDS) --trace 0) || { echo "bench-e2e: $$w failed" >&2; exit 1; }; \
		printf '%s\n' "$$out" | tail -n 1; \
	done
