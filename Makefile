# Mirrors the CI gates (.github/workflows/ci.yml) so contributors run
# the same checks locally before pushing.

GO ?= go

.PHONY: all build test lint bench cover scenarios benchmark benchmark-smoke profile-solver profile-observed profile-dispatch profile-kv golden

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

# Fails when a function of the root (public) package is never run.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -n 20
	@$(GO) tool cover -func=coverage.out | awk '$$1 ~ /^fasttts\/[^\/]*:/ && $$NF == "0.0%" { print "never run by a test:", $$1, $$2; bad = 1 } END { exit bad }'

# Scenario-conformance: replay every named scenario on both targets and
# require bit-identical agreement with the committed golden traces. The
# TestGoldenScenarioTraces prefix also matches ...TracesWithRecorder,
# which replays every golden with the span recorder attached against the
# same bytes and checks each run's span digest.
scenarios:
	$(GO) test -count=1 -run 'TestGoldenScenarioTraces|TestGoldenTracesDecodable|TestScenarioRunDeterministic' -v .

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

# The four profile-* targets below each run their benchmark twice: once
# for the CPU profile, and once more with -memprofilerate 1 for the
# allocation profile, whose alloc_objects are then exact counts rather than
# a 512 KiB sample. Exact counting in the CPU run would swamp its profile
# (stack unwinding on every allocation took 38 % of the CPU). Each prints
# the top 25 of both. Everything lands in bench-smoke/ (gitignored).

# Where the solver's host time and allocations go: BenchmarkServerRunBeam64
# (perf_test.go), the solver-beam workload's pass at half length — public
# NewServerWith, Run and Stats over 500 MATH500 requests at n=64 — so the
# fresh server's pool growth is amortized as in the workload and the public
# result wrapping is profiled too. The benchmark under benchmark/ has no
# profile flag and may not be edited by a PR that claims a gain, so a
# hot-path PR profiles here and attaches both lists.
profile-solver:
	mkdir -p bench-smoke
	$(GO) test -run '^$$' -bench 'BenchmarkServerRunBeam64' -benchtime 3x -benchmem \
		-cpuprofile bench-smoke/solver.cpu -o bench-smoke/fasttts.test .
	$(GO) test -run '^$$' -bench 'BenchmarkServerRunBeam64' -benchtime 1x -benchmem \
		-memprofilerate 1 -memprofile bench-smoke/solver.mem -o bench-smoke/fasttts.test .
	$(GO) tool pprof -top -nodecount=25 bench-smoke/fasttts.test bench-smoke/solver.cpu
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=25 bench-smoke/fasttts.test bench-smoke/solver.mem

# Where a recorded fleet run's host time and allocations go: the same two
# profiles of BenchmarkFleetRun32Observed (the fleet-observed workload's
# pass — recorder on, then Spans, Attribute, WritePerfetto — in
# internal/cluster/perf_test.go), so a recorder PR is sized here.
profile-observed:
	mkdir -p bench-smoke
	$(GO) test -run '^$$' -bench 'BenchmarkFleetRun32Observed' -benchtime 10x -benchmem \
		-cpuprofile bench-smoke/observed.cpu -o bench-smoke/cluster.test ./internal/cluster
	$(GO) test -run '^$$' -bench 'BenchmarkFleetRun32Observed' -benchtime 2x -benchmem \
		-memprofilerate 1 -memprofile bench-smoke/observed.mem -o bench-smoke/cluster.test ./internal/cluster
	$(GO) tool pprof -top -nodecount=25 bench-smoke/cluster.test bench-smoke/observed.cpu
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=25 bench-smoke/cluster.test bench-smoke/observed.mem

# Where an untraced fleet pass's host time and allocations go: the same
# two profiles of BenchmarkFleetDispatch (the fleet-dispatch workload's
# pass — 256 devices, 100k requests, least-work — in
# internal/cluster/perf_test.go). A dispatch PR (router, views, event
# heaps, core.Loop's queue) shows its cost here: the benchmark's traced
# run wraps the router, which hides it from the least-work index. Of the
# pass's allocations, most are now the served requests' results
# (solver.result, and solver.begin's finished paths); CI runs this
# recipe so it cannot rot.
profile-dispatch:
	mkdir -p bench-smoke
	$(GO) test -run '^$$' -bench 'BenchmarkFleetDispatch' -benchtime 3x -benchmem \
		-cpuprofile bench-smoke/dispatch.cpu -o bench-smoke/cluster.test ./internal/cluster
	$(GO) test -run '^$$' -bench 'BenchmarkFleetDispatch' -benchtime 1x -benchmem \
		-memprofilerate 1 -memprofile bench-smoke/dispatch.mem -o bench-smoke/cluster.test ./internal/cluster
	$(GO) tool pprof -top -nodecount=25 bench-smoke/cluster.test bench-smoke/dispatch.cpu
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=25 bench-smoke/cluster.test bench-smoke/dispatch.mem

# Where the kv-pressure pass's host time and allocations go: the same two
# profiles of BenchmarkKVPressure (three GPUs behind 512 MiB KV planes,
# cache-aware routing, 18 hot few-shot prompts, in
# internal/cluster/perf_test.go). The decode loop (solver.decodeRounds,
# about 30 % of CPU, half of it the per-round roofline in
# engine.DecodeRound) leads, then kvcache acquire/walk, verification and
# beam selection; long prompts and a 250-answer AIME space make answer
# draws and kvcache eviction weigh more here than on solver-beam.
profile-kv:
	mkdir -p bench-smoke
	$(GO) test -run '^$$' -bench 'BenchmarkKVPressure' -benchtime 10x -benchmem \
		-cpuprofile bench-smoke/kv.cpu -o bench-smoke/cluster.test ./internal/cluster
	$(GO) test -run '^$$' -bench 'BenchmarkKVPressure' -benchtime 2x -benchmem \
		-memprofilerate 1 -memprofile bench-smoke/kv.mem -o bench-smoke/cluster.test ./internal/cluster
	$(GO) tool pprof -top -nodecount=25 bench-smoke/cluster.test bench-smoke/kv.cpu
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=25 bench-smoke/cluster.test bench-smoke/kv.mem

# Regenerate the golden traces, the span digests in
# testdata/golden/perfetto.sha256, and fastttsserve's output goldens in
# cmd/fastttsserve/testdata after an *intentional* behavior change.
# Review the resulting diff like code before committing it.
golden:
	$(GO) test -count=1 -run TestGoldenScenarioTraces . -update
	$(GO) test -count=1 -run TestServeCLIGolden ./cmd/fastttsserve -update
	@git --no-pager diff --stat -- testdata/golden cmd/fastttsserve/testdata 2>/dev/null || true
