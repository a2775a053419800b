# Tier-1 gate (referenced from ROADMAP.md): everything `make check` runs
# must stay green in every PR.

GO ?= go

.PHONY: check vet lint build test race bench bench-json sweep-bench serve-bench cluster-bench cover cover-race fuzz-smoke build-386

check: vet lint build cover-race

vet:
	$(GO) vet ./...

# The simulator-invariant analyzer suite (cmd/optimuslint): determinism,
# keycomplete, hotpath, floateq plus the extra vet passes. Exit contract
# matches go vet — any finding fails the gate; deliberate sites carry an
# annotation with a justification (see README "Invariant lints").
lint:
	$(GO) run ./cmd/optimuslint ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench . -benchmem .

# Machine-readable throughput snapshot: runs the serve/cluster/sweep
# benchmarks and parses `go test -bench` output into $(BENCH_JSON) via
# cmd/benchjson (name, iterations, and every metric incl. sim-req/s).
# CI runs it with BENCHTIME=1x as a smoke test so the bench path cannot
# rot; locally the default 1s benchtime gives comparable numbers.
BENCH_JSON ?= bench-local.json
BENCHTIME ?= 1s
bench-json:
	@set -e; \
	out=$$($(GO) test -run xxx -bench 'BenchmarkServe|BenchmarkCluster|BenchmarkSweep' -benchmem -benchtime $(BENCHTIME) .); \
	printf '%s\n' "$$out"; \
	printf '%s\n' "$$out" | $(GO) run ./cmd/benchjson > $(BENCH_JSON); \
	echo "bench-json: wrote $(BENCH_JSON)"

# The plan-sweep benches. They measure different work, so their ratios
# are not speedups: SweepSerial fully costs every candidate, SweepParallel
# prunes infeasible ones before costing (most of the grid), and
# SweepWarmCache re-runs on a memo holding every evaluation, timing the
# engine layer alone (B/candidate, candidates/s). Speed claims come from
# same-machine A/B runs of perfbench (perfbench/README.md, "Rules for
# claims"), not from these numbers.
sweep-bench:
	$(GO) test -run xxx -bench 'BenchmarkSweep' -benchmem .

# Serving-simulator throughput: simulated requests per wall-clock second.
serve-bench:
	$(GO) test -run xxx -bench 'BenchmarkServe' -benchmem .

# Fleet-simulator throughput: goroutine-per-replica speedup over the
# single-instance path, and the load-aware routing barrier's overhead.
cluster-bench:
	$(GO) test -run xxx -bench 'BenchmarkCluster' -benchmem .

# 32-bit cross-build: pins the PR-3 page-count fix (maxTotalPages and the
# PR-5 per-pool counters must fit 32-bit ints) so it cannot regress
# unbuilt.
build-386:
	GOOS=linux GOARCH=386 $(GO) build ./...

# Short smoke run of every checked-in fuzz harness. `go test` allows one
# -fuzz target per invocation, so iterate; the harnesses double as
# regression suites under plain `go test`, this actually fuzzes them.
FUZZTIME ?= 10s
FUZZ_PKGS := ./internal/workload ./internal/serve ./internal/sweep ./internal/cluster ./cmd/optimus
fuzz-smoke:
	@set -e; \
	for pkg in $(FUZZ_PKGS); do \
		targets=$$($(GO) test -list 'Fuzz.*' $$pkg | grep '^Fuzz') || \
			{ echo "fuzz-smoke: no fuzz targets found in $$pkg"; exit 1; }; \
		for f in $$targets; do \
			echo "fuzz-smoke: $$pkg $$f ($(FUZZTIME))"; \
			$(GO) test -run '^$$' -fuzz "^$$f$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# Coverage floors shared by cover-race (the `make check` gate) and the
# standalone cover target, so the two can never silently diverge.
SERVE_COVER_FLOOR := 85
SWEEP_COVER_FLOOR := 80
CLUSTER_COVER_FLOOR := 80
WORKLOAD_COVER_FLOOR := 85

# Tier-1 test pass: -race and -cover in one run, with the `cover` floors
# enforced from the same output — the heavy simulation suites execute
# once per `make check`, not twice.
cover-race:
	@set -e; \
	out=$$($(GO) test -race -cover ./... 2>&1) || { printf '%s\n' "$$out"; exit 1; }; \
	printf '%s\n' "$$out"; \
	floor() { \
		pct=$$(printf '%s\n' "$$out" | sed -n "s|^ok[[:space:]]*$$1[[:space:]].*coverage: \([0-9.]*\)% of statements.*|\1|p"); \
		if [ -z "$$pct" ]; then echo "cover: no coverage reported for $$1"; exit 1; fi; \
		echo "cover: $$1 at $$pct% (floor $$2%)"; \
		awk -v p="$$pct" -v f="$$2" 'BEGIN { exit !(p+0 >= f+0) }' \
			|| { echo "cover: FAIL — $$1 fell below the $$2% floor"; exit 1; }; \
	}; \
	floor optimus/internal/workload $(WORKLOAD_COVER_FLOOR); \
	floor optimus/internal/serve $(SERVE_COVER_FLOOR); \
	floor optimus/internal/sweep $(SWEEP_COVER_FLOOR); \
	floor optimus/internal/cluster $(CLUSTER_COVER_FLOOR)

# Coverage floors on the serving simulator and sweep engine — the paged
# KV-cache hot paths — so tier-1 fails when new code in them arrives
# untested. Floors sit below current coverage (serve ~97%, sweep ~91%)
# to leave room for honest refactors, not for untested subsystems.
# Standalone convenience; `make check` enforces the same floors via
# cover-race.
cover:
	@set -e; \
	check() { \
		out=$$($(GO) test -cover $$1 2>&1) || { printf '%s\n' "$$out"; echo "cover: tests failed in $$1"; exit 1; }; \
		pct=$$(printf '%s\n' "$$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then printf '%s\n' "$$out"; echo "cover: no coverage reported for $$1"; exit 1; fi; \
		echo "cover: $$1 at $$pct% (floor $$2%)"; \
		awk -v p="$$pct" -v f="$$2" 'BEGIN { exit !(p+0 >= f+0) }' \
			|| { echo "cover: FAIL — $$1 fell below the $$2% floor"; exit 1; }; \
	}; \
	check ./internal/workload $(WORKLOAD_COVER_FLOOR); \
	check ./internal/serve $(SERVE_COVER_FLOOR); \
	check ./internal/sweep $(SWEEP_COVER_FLOOR); \
	check ./internal/cluster $(CLUSTER_COVER_FLOOR)
