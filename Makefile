# Mirrors the CI gates (.github/workflows/ci.yml) so contributors run
# the same checks locally before pushing.

GO ?= go

.PHONY: all build test lint bench cover scenarios bench-regress bench-perf bench-cache bench-metrics bench-strategy bench-trace benchmark benchmark-smoke profile-solver profile-observed golden

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -n 20

# Scenario-conformance: replay every named scenario on both targets and
# require bit-identical agreement with the committed golden traces. The
# TestGoldenScenarioTraces prefix also matches ...TracesSharded, which
# replays every cluster golden through the sharded engine (Parallelism 8
# and -1) against the same bytes.
scenarios:
	$(GO) test -count=1 -run 'TestGoldenScenarioTraces|TestGoldenTracesDecodable|TestScenarioRunDeterministic' -v .

# Regression sweep: run the full scenario matrix through fastttsbench,
# check it against the goldens, and emit BENCH_scenarios.json (the CI
# gate artifact). Fails on any mismatch or missing golden.
bench-regress:
	$(GO) run ./cmd/fastttsbench -scenarios -golden testdata/golden -out .

# Fleet-core perf smoke: a reduced fastttsbench -perf sweep emitting
# bench-smoke/BENCH_core.json (the CI bench-perf artifact; the directory
# is gitignored so the smoke run never clobbers the committed artifact),
# followed by the controller-overhead cells (fleet step cost with the
# elastic control plane on vs off) merged into the same file.
# The committed BENCH_core.json is the full {1..1024} x {1k..100k} sweep
# with the pre-refactor baseline merged via -perf-baseline, plus
# controller-overhead cells at 256/1024 devices from
#   fastttsbench -perf -perf-controller -perf-devices 256,1024 \
#       -perf-requests 10000 -perf-routers rr,least-work \
#       -perf-merge BENCH_core.json -out .
# plus the sharded-engine scaling cells (wall clock by shard count, with
# the measurement host's cores/gomaxprocs recorded) from
#   fastttsbench -perf -perf-parallel -perf-devices 1024 \
#       -perf-requests 100000 -perf-routers rr,least-work \
#       -perf-shards 1,2,4,8 -perf-merge BENCH_core.json -out .
# Refresh it when a PR claims a fleet-core speedup or touches the
# control plane's hot path or the shard layer.
bench-perf:
	$(GO) run ./cmd/fastttsbench -perf -perf-devices 8,64,256 \
		-perf-requests 1000 -perf-routers rr,least-work,jsq,p2c,prefix \
		-out bench-smoke
	$(GO) run ./cmd/fastttsbench -perf -perf-controller -perf-devices 8,64,256 \
		-perf-requests 1000 -perf-routers rr,least-work \
		-perf-merge bench-smoke/BENCH_core.json -out bench-smoke
	$(GO) run ./cmd/fastttsbench -perf -perf-parallel -perf-devices 256 \
		-perf-requests 1000 -perf-routers rr,least-work \
		-perf-shards 1,4,8 \
		-perf-merge bench-smoke/BENCH_core.json -out bench-smoke

# KV memory-plane cache sweep: serve the cache-thrash few-shot stream
# under every router × capacity regime (constrained / unconstrained /
# uncached) and emit BENCH_cache.json. Exits nonzero unless the plane's
# success metric holds: residency-aware routing (cache-aware, prefix)
# beats load-only jsq on p99 by more when cache-constrained than when
# capacity is plentiful. The run is deterministic, so the emitted cells
# match the committed BENCH_cache.json up to elapsed_ms timings.
bench-cache:
	$(GO) run ./cmd/fastttsbench -cache -out .

# Test-time-compute strategy sweep: serve the first-finish-mix and
# hedged-tail streams under each strategy override on the identical
# trace and emit BENCH_strategy.json. Exits nonzero unless both success
# metrics hold: first-finish strictly beats full-beam on p99 on
# first-finish-mix (accuracy recorded under the same majority-vote
# accounting), and hedged strictly beats full-beam on p99 on
# hedged-tail. The run is deterministic, so the emitted cells match the
# committed BENCH_strategy.json up to elapsed_ms timings.
bench-strategy:
	$(GO) run ./cmd/fastttsbench -strategy -out .

# Streaming-metrics sweep: feed every synthetic metrics stream —
# including the 10M-request mega-steady stream, run with no trace
# retention and its heap growth measured — plus every catalog scenario
# through both the streaming sketch and the exact sort path, and emit
# BENCH_metrics.json. Exits nonzero if any p50/p95/p99/mean relative
# error exceeds the documented bound (metrics.SketchRelErr = 1%) or the
# mega-steady pass retains more than a constant amount of heap.
bench-metrics:
	$(GO) run ./cmd/fastttsbench -metrics -out .

# Flight-recorder trace sweep: run every catalog scenario with the span
# recorder attached — span lifecycles must verify and every request's
# attribution components must sum to its measured wall latency within
# 1 ulp — then time recorder-off vs recorder-on on long streams
# (best-of-5, overhead gate <= 10%). Exits nonzero when either gate
# fails. Emits BENCH_trace.json plus trace.json, a representative
# Perfetto export of the fleet-churn scenario (load it at
# ui.perfetto.dev). The attribution cells are deterministic and match
# the committed BENCH_trace.json up to elapsed_ms and overhead timings.
bench-trace:
	$(GO) run ./cmd/fastttsbench -trace -out .

# The repository benchmark (BENCHMARK.json, benchmark/README.md): four
# ~2 s-per-pass workloads, eleven end-to-end metrics each, every pass
# checked against the warm-up's result digest. A PR that touches a hot
# path runs it on the parent commit and on the change and pastes both
# tables. benchmark-smoke is the same program shrunk to seconds — it
# proves the benchmark builds, serves and passes its own checks, not a
# timing.
benchmark:
	bash benchmark/run.sh

benchmark-smoke:
	$(GO) run ./benchmark -scale 0.02 -passes 1

# Where the solver's host time and allocations go: CPU and allocation
# profiles of BenchmarkServeBeam64 (the solver-beam workload in miniature,
# internal/core/beam_test.go), top 25 of each. The benchmark under
# benchmark/ has no profile flag and may not be edited by a PR that claims
# a gain, so a hot-path PR profiles here and attaches both lists.
# Everything lands in bench-smoke/ (gitignored).
profile-solver:
	mkdir -p bench-smoke
	$(GO) test -run '^$$' -bench 'BenchmarkServeBeam64' -benchmem \
		-cpuprofile bench-smoke/solver.cpu -memprofile bench-smoke/solver.mem \
		-o bench-smoke/core.test ./internal/core
	$(GO) tool pprof -top -nodecount=25 bench-smoke/core.test bench-smoke/solver.cpu
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=25 bench-smoke/core.test bench-smoke/solver.mem

# Where a recorded fleet run's host time and allocations go: the same two
# profiles of BenchmarkFleetRun32Observed (the fleet-observed workload's
# pass — recorder on, then Spans, Attribute, WritePerfetto — in
# internal/cluster/perf_test.go), so a recorder PR is sized here.
profile-observed:
	mkdir -p bench-smoke
	$(GO) test -run '^$$' -bench 'BenchmarkFleetRun32Observed' -benchtime 10x -benchmem \
		-cpuprofile bench-smoke/observed.cpu -memprofile bench-smoke/observed.mem \
		-o bench-smoke/cluster.test ./internal/cluster
	$(GO) tool pprof -top -nodecount=25 bench-smoke/cluster.test bench-smoke/observed.cpu
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=25 bench-smoke/cluster.test bench-smoke/observed.mem

# Regenerate the golden traces after an *intentional* behavior change.
# Review the resulting diff like code before committing it.
golden:
	$(GO) test -count=1 -run TestGoldenScenarioTraces . -update
	@git --no-pager diff --stat -- testdata/golden 2>/dev/null || true
