# Single source of the build commands: CI runs these same targets.

GO ?= go

# Campaign knobs (see the campaign target).
N ?= 4
OUT ?= campaign.csv
FORMAT ?= csv
CACHE ?= trace-cache
DIR ?= campaign-work
ARGS ?= -apps pingpong -bws 64MB/s,256MB/s -chunks 4,8 -size 512 -iters 2

.PHONY: all build test race bench bench-smoke bench-json bench-compare campaign serve lint fmt fuzz

# Per-target fuzzing budget for the fuzz target (Go duration).
FUZZTIME ?= 20s

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full benchmark pass (minutes): the DES engine, the sweep engine, and the
# paper-evaluation regeneration benchmarks.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# One iteration of every benchmark: proves they still compile and run.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Machine-readable perf record: runs the hot-path benchmarks with -benchmem
# and converts the output to BENCH.json (current numbers plus the
# committed baseline). CI archives the file as an artifact, so the
# repo accumulates a performance trajectory.
# The bench output goes through a temp file, not a pipe, so a benchmark
# failure fails the target instead of archiving a silently truncated record.
# Each benchmark runs 5 times and benchjson records the median, so one host
# stall during a short timed loop cannot fail bench-compare on its own.
bench-json:
	$(GO) test -run '^$$' -count 5 -benchtime 100x -benchmem \
		-bench 'BenchmarkEngine$$|BenchmarkEngineTyped$$|BenchmarkSimulatePipeline$$|BenchmarkReplayerReuse$$|BenchmarkReplayBT$$|BenchmarkReplayGen64Seq$$|BenchmarkReplayGen64Par4$$|BenchmarkReplayBatchWarm$$|BenchmarkReplayContended$$|BenchmarkSweepDenseExact$$|BenchmarkSweepDenseApprox$$' \
		./internal/des ./internal/replay ./internal/sweep . > BENCH.txt
	$(GO) run ./cmd/benchjson -baseline docs/bench-baseline.json -o BENCH.json < BENCH.txt
	@echo wrote BENCH.json

# Perf gate: diff the fresh record against the committed baseline and fail
# on regressions. allocs/op is machine-independent and near-deterministic,
# so it gets the tight threshold; ns/op only catches order-of-magnitude
# blowups because the baseline was measured on different hardware and the
# 100x benchtime is noisy (BenchmarkSimulatePipeline jitters ~2x).
bench-compare: bench-json
	$(GO) run ./cmd/benchjson compare docs/bench-baseline.json BENCH.json \
		-threshold 300% -allocs-threshold 10%

# One-command local scale-out: a fault-tolerant `overlapsim campaign`
# coordinator feeding N spawned worker processes through leases with
# heartbeats and retry/backoff, all sharing one cache directory — traces
# AND replay results (the replay store), so a re-run of the same campaign
# does zero instrumented runs and zero replays — merged byte-identically.
# A failed campaign keeps its journal in $(DIR); finish the remainder with
# RESUME=1. Override the knobs above, e.g.:
#   make campaign N=8 OUT=grid.csv ARGS="-apps bt,cg -bws 64MB/s,1GB/s"
campaign:
	N=$(N) OUT=$(OUT) FORMAT=$(FORMAT) CACHE=$(CACHE) DIR=$(DIR) GO=$(GO) ./scripts/campaign.sh $(ARGS)

# Local sweep daemon sharing the campaign cache directory: submit grids
# with POST /sweeps (docs/API.md), inspect the cache with
# `overlapsim cache ls -dir $(CACHE)`.
serve:
	$(GO) run ./cmd/overlapsim serve -addr localhost:8677 -cache-dir $(CACHE)

# Budgeted fuzzing pass over the three replay-core targets. The committed
# corpora under testdata/fuzz replay on every plain `go test`; this target
# spends FUZZTIME per target looking for new crashers.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzTraceRoundTrip -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzValidate -fuzztime $(FUZZTIME) ./internal/trace
	$(GO) test -run '^$$' -fuzz FuzzReplay -fuzztime $(FUZZTIME) ./internal/replay

lint:
	$(GO) vet ./...

fmt:
	gofmt -w .
