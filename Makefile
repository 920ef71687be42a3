# Mirrors the CI gates (.github/workflows/ci.yml) so contributors run
# the same checks locally before pushing.

GO ?= go

.PHONY: all build test test-nofma lint writeonly bench cover scenarios quick-sweep benchmark benchmark-smoke profile-solver profile-observed profile-dispatch profile-kv count-observed count-solver count-kv count-dispatch golden

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# Tier-1 again with the CPU's FMA hidden from the runtime, so amd64's
# math.Exp takes its other kernel: the goldens and pinned figures must
# not depend on which one the host has (a CI step).
test-nofma:
	GODEBUG=cpu.fma=off $(GO) test -count=1 ./...

lint: writeonly
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; \
	fi

# Fails on a struct field that production code writes and production
# code never reads: production reads only, so a field only a test reads
# fails too (internal/tools/writeonly; reviewed survivors are listed in
# its testdata/writeonly.allow). A CI lint step, not part of tier-1.
writeonly:
	$(GO) run ./internal/tools/writeonly

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# Fails when a function of the root (public) package or of internal/bench
# (the paper's figures) is never run.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -n 20
	@$(GO) tool cover -func=coverage.out | awk '$$1 ~ /^fasttts\/([^\/]*|internal\/bench\/[^\/]*):/ && $$NF == "0.0%" { print "never run by a test:", $$1, $$2; bad = 1 } END { exit bad }'

# Scenario-conformance: replay every named scenario on both targets and
# require bit-identical agreement with the committed golden traces. The
# TestGoldenScenarioTraces prefix also matches ...TracesWithRecorder,
# which replays every golden with the span recorder attached against the
# same bytes and checks each run's span digest.
scenarios:
	$(GO) test -count=1 -run 'TestGoldenScenarioTraces|TestGoldenTracesDecodable|TestScenarioRunDeterministic' -v .

# Seeded sweep of the fleet property tests: the conservation laws
# (...PreservesRequestMultiset; every Fleet.Run they make also checks the
# always-on run laws, so those run on seeds 1-200 too), the least-work
# index's differential
# checks (...IndexMatchesScan over whole runs, BestTreeMatchesScan over
# the tournament tree alone) and the span-lifecycle property over
# cancelled and withdrawn requests (TraceLifecycleProperty, about 5 s of
# the sweep), of the search policies' in-place Select against its
# allocating reference (TestSelectMatchesReference, internal/search), of
# the solver's decode loop against its scanning reference over random
# decode groups (TestDecodeRoundsMatchesReference, internal/core; a
# failing seed prints as core:<n>), and of the run-length radix cache against its token-by-token oracle and its
# eviction heap against container/heap (TestDifferentialOracle,
# TestEvictHeapMatchesContainerHeap, internal/kvcache; about 0.1 s a
# seed), and of the Perfetto encoder against encoding/json on random and
# memo-hostile streams (TestWritePerfettoMatchesJSONOracle, internal/obs;
# about 0.1 s a seed), under -quick.seed 1-200, from one compiled test
# binary per package. A plain `go test` draws its seed from the time of day, so a bug
# that only some seeds reach fails there about one run in forty; here it
# fails every run. Prints each failing seed's log, then the list.
quick-sweep:
	mkdir -p bench-smoke
	$(GO) test -c -o bench-smoke/cluster-quick.test ./internal/cluster
	$(GO) test -c -o bench-smoke/search-quick.test ./internal/search
	$(GO) test -c -o bench-smoke/core-quick.test ./internal/core
	$(GO) test -c -o bench-smoke/kvcache-quick.test ./internal/kvcache
	$(GO) test -c -o bench-smoke/obs-quick.test ./internal/obs
	@failed=""; for seed in $$(seq 1 200); do \
		if ! out=$$(bench-smoke/cluster-quick.test -test.run 'PreservesRequestMultiset|IndexMatchesScan|BestTreeMatchesScan|TraceLifecycleProperty' -quick.seed=$$seed 2>&1); then \
			echo "$$out"; failed="$$failed cluster:$$seed"; \
		fi; \
		if ! out=$$(bench-smoke/search-quick.test -test.run '^TestSelectMatchesReference$$' -quick.seed=$$seed 2>&1); then \
			echo "$$out"; failed="$$failed search:$$seed"; \
		fi; \
		if ! out=$$(bench-smoke/core-quick.test -test.run '^TestDecodeRoundsMatchesReference$$' -quick.seed=$$seed 2>&1); then \
			echo "$$out"; failed="$$failed core:$$seed"; \
		fi; \
		if ! out=$$(bench-smoke/kvcache-quick.test -test.run '^(TestDifferentialOracle|TestEvictHeapMatchesContainerHeap)$$' -quick.seed=$$seed 2>&1); then \
			echo "$$out"; failed="$$failed kvcache:$$seed"; \
		fi; \
		if ! out=$$(bench-smoke/obs-quick.test -test.run '^TestWritePerfettoMatchesJSONOracle$$' -quick.seed=$$seed 2>&1); then \
			echo "$$out"; failed="$$failed obs:$$seed"; \
		fi; \
	done; \
	if [ -n "$$failed" ]; then echo "quick-sweep: failing -quick.seed:$$failed" >&2; exit 1; fi; \
	echo "quick-sweep: -quick.seed 1-200 pass"

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
# the CPU top 25 and the allocation top 25 twice: by alloc_objects (the
# allocators) and by alloc_space (the bytes — one large allocation, such
# as a copy of the whole request stream, never shows in a count). Everything
# lands in bench-smoke/ (gitignored).
#
# $(call profile,BENCHMARK,PACKAGE,CPU_BENCHTIME,MEM_BENCHTIME,PREFIX)
# writes bench-smoke/PREFIX.cpu and PREFIX.mem; the test binary is named
# after the package (fasttts.test for the root).
profile_bin = bench-smoke/$(if $(filter .,$(1)),fasttts,$(notdir $(1))).test

define profile
mkdir -p bench-smoke
$(GO) test -run '^$$' -bench '$(1)' -benchtime $(3) -benchmem \
	-cpuprofile bench-smoke/$(5).cpu -o $(call profile_bin,$(2)) $(2)
$(GO) test -run '^$$' -bench '$(1)' -benchtime $(4) -benchmem \
	-memprofilerate 1 -memprofile bench-smoke/$(5).mem -o $(call profile_bin,$(2)) $(2)
$(GO) tool pprof -top -nodecount=25 $(call profile_bin,$(2)) bench-smoke/$(5).cpu
$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=25 $(call profile_bin,$(2)) bench-smoke/$(5).mem
$(GO) tool pprof -sample_index=alloc_space -top -nodecount=25 $(call profile_bin,$(2)) bench-smoke/$(5).mem
endef

# Where the solver's host time and allocations go: BenchmarkServerRunBeam64
# (perf_test.go), the solver-beam workload's pass at half length — public
# NewServerWith, Run and Stats over 500 MATH500 requests at n=64 — so the
# fresh server's pool growth is amortized as in the workload and the public
# result wrapping is profiled too. The benchmark under benchmark/ has no
# profile flag and may not be edited by a PR that claims a gain, so a
# hot-path PR profiles here and attaches both lists. The pass allocates
# about 5.8 objects per request: set-up (LoadDataset and
# workload.NewDataset, about 39 % of alloc_objects), then the fresh
# server's pools growing — kvcache nodes and spares (about 21 %), the
# beams' run slices (appendNodeRuns, decodeRounds, takePending,
# commitStep, about 23 %) and the result store's chunks. The search
# policy's Select allocates nothing: it selects in the candidates' own
# storage. In a 60-pass CPU profile (2-CPU AMD EPYC) the decode loop
# (solver.decodeRounds with its DecodeRun stretches) takes about 21 %,
# down from 25 % when it walked every running speculative slot at every
# event; the three stable sorts of an iteration went from about 8 % to
# 5 % (Select now takes a top-k, 0.9 %), and deriving a beam's three
# streams from 7 % to 5 %. These time shares rank light loops unreliably
# (the sorts were 6.8 % of the pass's instructions), so size a target
# with make count-solver.
profile-solver:
	$(call profile,BenchmarkServerRunBeam64,.,3x,1x,solver)

# Where a recorded fleet run's host time and allocations go: the same two
# profiles of BenchmarkFleetRun32Observed (the fleet-observed workload's
# pass — recorder on, then Spans, Attribute, WritePerfetto — in
# internal/cluster/perf_test.go), so a recorder PR is sized here. The
# Perfetto export took 33.6 % of the CPU, strconv.AppendFloat 23.1 % of
# it, until the encoder wrote integral floats as integers and copied
# repeated ones from a memo: now 19.6 % and 10.4 % (80-pass profiles on
# a 2-CPU AMD EPYC). The track merge (Recorder.spans, about 12 %) and
# Attribute (about 9 %, of which the run's own attribution is half) are
# next; BenchmarkWritePerfetto times the encoder alone.
profile-observed:
	$(call profile,BenchmarkFleetRun32Observed,./internal/cluster,10x,2x,observed)

# Where an untraced fleet pass's host time and allocations go: the same
# two profiles of BenchmarkFleetDispatch (the fleet-dispatch workload's
# pass — 256 devices, 100k requests, least-work — in
# internal/cluster/perf_test.go). A dispatch PR (router, views, event
# heaps, core.Loop's queue) shows its cost here: the benchmark's traced
# run wraps the router, which hides it from the least-work index. Half
# the CPU is the devices' Loop.StepTo, and about a third is the served
# requests' solvers (init about 11 %, begin 8 %, stepOnce 12 %): a
# request reads its deployment's constants — the Config by pointer, the
# KV budget computed once — and copies no Config. The policy views StepTo
# reads are kept current, not rebuilt per slice. Routing an arrival
# (pushTo and Loop.Push) takes about 14 %, refreshing views and the
# least-work tree (cached drain keys) about 8 %, the wake heap about
# 10 %, delivering results about 8 %, settling the deferred prefix
# accounting (the int-keyed device.acct map) about 5 %, and newRun 3 %;
# newRun copies no request (the stream is routed through an int32
# permutation of it), and the prefix directory and requeue telemetry use
# no string-keyed or per-request map. The pass allocates about 26k
# objects for 100k requests: most are the devices' sessions
# (Loop.newSession) and queue growth (StepTo, pushTo); a served request's
# Result and finished paths come from the run's one result store, in
# chunks (resultStore.newResult and keepPaths, about a thousand objects
# between them). Most bytes are newRun's result slice, then the result
# store's chunks. CI runs this recipe so it cannot rot.
profile-dispatch:
	$(call profile,BenchmarkFleetDispatch,./internal/cluster,3x,1x,dispatch)

# Where the kv-pressure pass's host time and allocations go: the same two
# profiles of BenchmarkKVPressure (three GPUs behind 512 MiB KV planes,
# cache-aware routing, 18 hot few-shot prompts, in
# internal/cluster/perf_test.go). The decode loop (solver.decodeRounds,
# about 24 % of CPU) still leads; most of it is engine.DecodeRun (about
# 15 %), one roofline division per round on a stretch that is
# memory-bound at both ends and two elsewhere, the rest spec-slot
# filling. Then come verification, kvcache acquire/walk and beam
# selection; long prompts
# and a 250-answer AIME space make answer draws and kvcache eviction
# weigh more here than on solver-beam. Neither the memory plane (a session
# keeps its cache handles in place and is reused with the loop's session)
# nor beam selection (every search policy's Select reorders its
# candidates in place) allocates per request, so the pass is about one
# allocation per request: set-up (workload.NewDataset and its problem
# keys, about 35 % of alloc_objects), kvcache node, spare and eviction
# heap growth (about 28 %), the beams' run slices growing (appendNodeRuns,
# commitStep, about 10 %) and the result store's chunks.
profile-kv:
	$(call profile,BenchmarkKVPressure,./internal/cluster,10x,2x,kv)

# Instructions per request of each workload's pass, counted by
# internal/perfctr (the calling thread's user-space instruction counter,
# perf_event_open): BenchmarkCountObserved, ...Solver, ...KVPressure and
# ...Dispatch run the pass of BenchmarkFleetRun32Observed,
# BenchmarkServerRunBeam64, BenchmarkKVPressure and BenchmarkFleetDispatch
# 8 times with the goroutine locked to its OS thread and the garbage
# collector paused (debug.SetGCPercent(-1); a collection runs before each
# pass, outside its count), and print instr/req, the median pass over its
# requests, and spread, (max - min) / median of the 8. The limits: the
# count leaves out the collector's background work and all kernel time,
# it is not seconds, and it is comparable only between runs on one host
# built by one Go version. On a 2-CPU AMD EPYC with go1.24.0 they read
# about 2.26 M (solver), 347 k (kv), 10.6 k (dispatch) and 25.2 k
# (observed) instructions per request, the solver's down from 2.68 M
# once beam search's per-event slot scans, full sorts, label hashing and
# hot divisions went. Where the counter cannot open — not Linux,
# perf_event_paranoid 3 or more, no PMU — the benchmark skips and prints
# why; no target changes a machine setting or asks for one.
count-observed:
	$(GO) test -run '^$$' -bench '^BenchmarkCountObserved$$' -benchtime 1x ./internal/cluster

count-solver:
	$(GO) test -run '^$$' -bench '^BenchmarkCountSolver$$' -benchtime 1x .

count-kv:
	$(GO) test -run '^$$' -bench '^BenchmarkCountKVPressure$$' -benchtime 1x ./internal/cluster

count-dispatch:
	$(GO) test -run '^$$' -bench '^BenchmarkCountDispatch$$' -benchtime 1x ./internal/cluster

# Regenerate the golden traces, the span digests in
# testdata/golden/perfetto.sha256, and fastttsserve's output goldens in
# cmd/fastttsserve/testdata after an *intentional* behavior change.
# Review the resulting diff like code before committing it.
golden:
	$(GO) test -count=1 -run TestGoldenScenarioTraces . -update
	$(GO) test -count=1 -run TestServeCLIGolden ./cmd/fastttsserve -update
	@git --no-pager diff --stat -- testdata/golden cmd/fastttsserve/testdata 2>/dev/null || true
