# Developer entry points. CI runs the same targets.

GO ?= go

.PHONY: build test race bench bench-diff bench-race perf perf-pair fmt vet

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; fi

vet:
	$(GO) vet ./...

# BENCHTIME scales benchmark effort: CI smoke runs use 1x, local perf
# tracking should use the default (or higher) for stable numbers.
BENCHTIME ?= 1s

# BENCHCOUNT repeats every benchmark; benchjson folds the repeats into one
# entry (median ns/op, largest allocs/op), so one noisy run cannot move the
# record or the regression gate.
BENCHCOUNT = 5

# BENCH_PKGS are the packages `make bench` records and bench-diff compares.
BENCH_PKGS = ./internal/engine ./internal/core ./internal/obs ./internal/faults .

# bench records the perf trajectory of the hot paths — the engine's
# epoch-keyed cache (must stay O(1) in table size), the maintained-sample
# fast path, the shared-sample batch, BenchmarkAdaptiveVsFixed's
# rows-sampled-for-equal-accuracy comparison (rows/est + err_pts custom
# metrics), BenchmarkAdaptiveStratifiedZipf's uniform-vs-stratified
# rows-to-±2% pairs on zipf keys, the sort subsystem (BenchmarkPrepareSort's radix-vs-stdsort
# pairs, BenchmarkTrueCFParallel's worker sweep), the telemetry layer
# (BenchmarkObsOverhead's instrumented-vs-noop cost per metric update),
# and the fault-injection switchboard (BenchmarkFaultPointDisarmed's
# zero-cost disarmed contract) — as a machine-readable artifact.
bench:
	$(GO) test -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -run '^$$' $(BENCH_PKGS) \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson > BENCH_engine.json
	@echo "wrote BENCH_engine.json"

# ALLOCS_EXACT names the benchmarks whose allocation counts are a contract
# of the estimation hot path (page sizing allocates nothing per page; a
# what-if batch reuses its sample arena and sorts each key chain once):
# bench-diff fails on ANY allocs/op growth in them.
ALLOCS_EXACT = BenchmarkEstimateSampleSizes|BenchmarkEstimate/|BenchmarkWhatIfBatch/engine

# bench-diff runs the same benchmarks and compares them against a
# baseline, exiting nonzero on a >25% ns/op or allocs/op regression — and
# on ANY allocs/op growth in the ALLOCS_EXACT benchmarks. Without PARENT
# the baseline is the committed BENCH_engine.json; CI runs that as a
# non-blocking report (1x iterations are too noisy to gate on). With
# PARENT=<checkout> (typically a `git archive` of the parent commit) the
# baseline is measured beside the change: scripts/benchdiff.sh builds both
# checkouts' test binaries and alternates -count 1 runs, 5 per side, so
# drift of the shared box between recording and diffing cannot trip the
# gate. Run it locally with the default BENCHTIME before sending a
# perf-sensitive change.
bench-diff:
ifdef PARENT
	bash scripts/benchdiff.sh "$(PARENT)" '$(ALLOCS_EXACT)' $(BENCHTIME) $(BENCH_PKGS)
else
	$(GO) test -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) -run '^$$' $(BENCH_PKGS) \
		| $(GO) run ./cmd/benchjson -diff BENCH_engine.json -allocs-exact '$(ALLOCS_EXACT)'
endif

# bench-race drives the estimation hot path — pooled codec scratch,
# parallel page compression, shared arenas, and a what-if batch whose key
# chain members share their root's sorted permutation and whose sample
# arenas are pooled across batches — the telemetry instruments,
# the stratified adaptive loop (per-stratum resumable streams extending
# concurrently), and the serving-path concurrency machinery (snapshot
# publication racing estimator reads in ConcurrentMixed, the coalescing
# flight group absorbing a CoalescedStampede) under the race detector so
# a data race in pooling, fan-out, stream extension, snapshot swap,
# singleflight hand-off, or metric updates cannot land silently.
bench-race:
	$(GO) test -race -bench 'EstimateSampleSizes|WhatIfBatch' -benchtime 1x -run '^$$' .
	$(GO) test -race -bench ObsOverhead -benchtime 1x -run '^$$' ./internal/obs
	$(GO) test -race -bench AdaptiveStratifiedZipf -benchtime 1x -run '^$$' ./internal/engine
	$(GO) test -race -bench 'ConcurrentMixed|CoalescedStampede' -benchtime 1x -run '^$$' ./internal/engine

# perf runs the repository benchmark (perfbench/, declared in
# BENCHMARK.json): the three cfserve workloads one after another, in the
# foreground, at the declared 25 measured seconds and seed 1. Each run
# builds cfserve and the bench into .bench_build and prints a report ending
# in one JSON line; the first run in a checkout also computes the exact-CF
# oracle (about a minute). perfbench/README.md covers --trace 1 and seeds.
perf:
	for w in whatif-cold adaptive-hot live-churn; do \
		bash perfbench/run.sh --workload $$w --seed 1 --seconds 25 --trace 0 || exit 1; \
	done

# perf-pair compares this checkout with another (PARENT, typically a
# `git archive` of the parent commit) on one perfbench workload: PAIRS
# pairs of end-to-end runs, alternating which side goes first, seeds SEED,
# SEED+1, ... See scripts/perfpair.sh.
PAIRS ?= 10
SEED ?= 1
WORKLOAD ?= whatif-cold
TRACE ?= 0
perf-pair:
	bash scripts/perfpair.sh "$(PARENT)" "$(WORKLOAD)" "$(PAIRS)" "$(SEED)" --seconds 25 --trace $(TRACE)
