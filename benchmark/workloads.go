package main

// The four workloads: what each one sends, to which deployment, and how
// one pass of it is run. A workload has a plain pass, which drives the
// simulator the way its users do, and a traced pass, which builds the
// same deployment from internal packages so that timing decorators can
// be injected at the layer boundaries. The two must produce the same
// result digest; the run and the test check that they do.

import (
	"fmt"
	"io"
	"sort"

	"fasttts"
	"fasttts/internal/cluster"
	"fasttts/internal/control"
	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/memplane"
	"fasttts/internal/metrics"
	"fasttts/internal/model"
	"fasttts/internal/obs"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

const (
	// corpusSeed materializes the datasets. The corpora are fixed, as the
	// paper's benchmarks are; -seed draws which problems are asked, in
	// which order, and when they arrive.
	corpusSeed = 42
	// engineSeed seeds the program under test (device engines, router,
	// controller). It never follows -seed: the program receives only the
	// generated requests.
	engineSeed = 42
)

// reqRef is one generated request before it is bound to an API's types.
type reqRef struct {
	dataset string
	index   int
	arrival float64
}

// workloadDef describes one workload.
type workloadDef struct {
	name string
	why  string
	// requests is the stream length at scale 1; slo the wall-latency limit
	// in simulated seconds.
	requests int
	slo      float64
	// generate draws the request stream from the seed.
	generate func(n int, seed uint64) []reqRef
	// prepare binds a stream to a deployment and returns the pass runners.
	prepare func(w *workloadDef, refs []reqRef) (*prepared, error)
}

// prepared is a workload bound to its generated inputs.
type prepared struct {
	// plain runs one pass as a user of the simulator would.
	plain func() (*passOut, error)
	// traced runs the same pass with timing decorators attached to tr.
	traced func(tr *tracer) (*passOut, error)
	// coreReqs is the stream in internal types, for the layer micro-drives;
	// width the search width its requests are served at.
	coreReqs []core.Request
	width    int
	// baseline, when non-nil, serves the stream in baseline (vLLM-style)
	// mode and returns the mean service latency.
	baseline func() (float64, error)
	// observedOff, when non-nil, runs the plain pass with the span
	// recorder detached (fleet-observed only).
	observedOff func() (*passOut, error)
}

var workloads = []*workloadDef{
	{
		name: "solver-beam",
		why: "one RTX 4090, beam search n=64, FastTTS mode, 1000 MATH500 requests: " +
			"the solver, search, kvcache, sched, engine and alloc do nearly all the work; the paper's own setting",
		requests: 1000, slo: 60,
		generate: genSolverBeam, prepare: prepSolverBeam,
	},
	{
		name: "kv-pressure",
		why: "three GPUs with 512 MiB KV planes, 18 hot few-shot prompts, cache-aware routing: " +
			"memplane admit/evict/re-prefill and token-level kvcache work on long prompts dominate",
		requests: 2000, slo: 60,
		generate: genKVPressure, prepare: prepKVPressure,
	},
	{
		name: "fleet-dispatch",
		why: "256 devices, 100k tiny requests, least-work router, every optional hook nil: " +
			"event heap, router scan, admission and the exact metrics sort do the work, the solver almost none",
		requests: 100000, slo: 10,
		generate: genFleet(256), prepare: prepFleetDispatch,
	},
	{
		name: "fleet-observed",
		why: "32 devices, 20k requests with span recorder, streaming metrics and threshold controller on: " +
			"the same fleet core with its writes switched on, so a gain for the off path that costs the on path shows",
		requests: 20000, slo: 10,
		generate: genFleet(32), prepare: prepFleetObserved,
	},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- generators ---

// dealt returns n draws from a deck of `size` cards dealt round after
// round, each round shuffled: every card appears n/size times (±1), so
// the multiset of problems asked barely depends on the seed while their
// order does.
func dealt(n, size int, r *rng.Stream) []int {
	out := make([]int, 0, n)
	for len(out) < n {
		round := r.Perm(size)
		if rest := n - len(out); rest < size {
			round = round[:rest]
		}
		out = append(out, round...)
	}
	return out
}

const solverBeamRate = 0.025 // req/sim_s

// arrivals draws a Poisson process conditioned on its count: n instants
// uniform over the n/rate seconds a stream of that rate spans, sorted.
// Every seed then offers the same load over the same window, and only
// the instants differ.
func arrivals(n int, rate float64, r *rng.Stream) []float64 {
	span := float64(n) / rate
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64() * span
	}
	sort.Float64s(out)
	return out
}

func genSolverBeam(n int, seed uint64) []reqRef {
	r := rng.New(seed).Child("benchmark/solver-beam")
	times := arrivals(n, solverBeamRate, r.Child("arrivals"))
	deck := dealt(n, workload.MATH500.Problems, r.Child("deck"))
	refs := make([]reqRef, n)
	for i := range refs {
		refs[i] = reqRef{dataset: workload.MATH500.Name, index: deck[i], arrival: times[i]}
	}
	return refs
}

const kvPressureRate = 0.10 // req/sim_s

// kvHotPrompts lists the 18 hot prompts: six of each few-shot tenant.
var kvHotPrompts = func() []reqRef {
	var hot []reqRef
	for _, ds := range []string{"MATH500-fewshot", "AMC23-fewshot", "AIME24-fewshot"} {
		for i := 0; i < 6; i++ {
			hot = append(hot, reqRef{dataset: ds, index: i})
		}
	}
	return hot
}()

func genKVPressure(n int, seed uint64) []reqRef {
	r := rng.New(seed).Child("benchmark/kv-pressure")
	times := arrivals(n, kvPressureRate, r.Child("arrivals"))
	deck := dealt(n, len(kvHotPrompts), r.Child("deck"))
	refs := make([]reqRef, n)
	for i := range refs {
		refs[i] = kvHotPrompts[deck[i]]
		refs[i].arrival = times[i]
	}
	return refs
}

// perfSpec is the synthetic dataset of the fastttsbench -perf cell: tiny
// prompts and chains, so the fleet core and not the token arithmetic
// sets the host time.
var perfSpec = workload.DatasetSpec{
	Name: "PERF", Problems: 64,
	DiffLo: 0.30, DiffHi: 0.70,
	StepLogMu: 2.3, StepLogSigma: 0.4, MinStepTokens: 4,
	MaxSteps: 2, TypicalSteps: 1.3,
	PromptLo: 8, PromptHi: 16,
	AnswerSpace: 10, QualityDriftScale: 1.0,
}

const (
	fleetDeviceRate  = 30.0 // req/sim_s per device, far above the service rate
	fleetMaxInFlight = 32
)

// genFleet is the -perf stream: Poisson arrivals at a rate proportional
// to the fleet size, problems cycled over the synthetic set.
func genFleet(devices int) func(int, uint64) []reqRef {
	return func(n int, seed uint64) []reqRef {
		r := rng.New(seed).Child("benchmark/fleet")
		times := arrivals(n, fleetDeviceRate*float64(devices), r.Child("arrivals"))
		refs := make([]reqRef, n)
		for i := range refs {
			refs[i] = reqRef{dataset: perfSpec.Name, index: i % perfSpec.Problems, arrival: times[i]}
		}
		return refs
	}
}

// --- binding a stream to API types ---

func datasetSpec(name string) (workload.DatasetSpec, error) {
	if name == perfSpec.Name {
		return perfSpec, nil
	}
	return workload.SpecByName(name)
}

// bindCore materializes the stream as internal requests.
func bindCore(refs []reqRef) ([]core.Request, error) {
	sets := map[string]*workload.Dataset{}
	out := make([]core.Request, len(refs))
	for i, ref := range refs {
		ds := sets[ref.dataset]
		if ds == nil {
			spec, err := datasetSpec(ref.dataset)
			if err != nil {
				return nil, err
			}
			ds = workload.NewDataset(spec, rng.New(corpusSeed))
			sets[ref.dataset] = ds
		}
		out[i] = core.Request{Problem: ds.Problems[ref.index], Arrival: ref.arrival, Tag: i}
	}
	return out, nil
}

// bindPublic materializes the stream as public-API requests.
func bindPublic(refs []reqRef) ([]fasttts.Request, error) {
	sets := map[string]*fasttts.Dataset{}
	out := make([]fasttts.Request, len(refs))
	for i, ref := range refs {
		ds := sets[ref.dataset]
		if ds == nil {
			var err error
			if ds, err = fasttts.LoadDataset(ref.dataset, corpusSeed); err != nil {
				return nil, err
			}
			sets[ref.dataset] = ds
		}
		out[i] = fasttts.Request{Problem: ds.Problems[ref.index], ArrivalTime: ref.arrival}
	}
	return out, nil
}

// coreConfig is what fasttts.Config{GPU, NumBeams: n, Seed} with the
// default 1.5B+1.5B pair, beam search B=4 and FastTTS mode resolves to
// (fasttts.buildCoreConfig is unexported); the plain and traced digests
// agreeing is the check that it still does.
func coreConfig(gpu hw.GPU, n int, seed uint64, planeBytes int64, opts core.Options) (core.Config, error) {
	pol, err := search.New(search.BeamSearch, n, 4)
	if err != nil {
		return core.Config{}, err
	}
	frac := 0.9
	if gpu.Name == hw.RTX4090.Name {
		frac = 0.4
	}
	return core.Config{
		GPU:            gpu,
		Generator:      model.Qwen25Math1_5B,
		GenSkill:       workload.SkillQwen1_5B,
		Verifier:       model.SkyworkPRM1_5B,
		VerSkill:       workload.SkillSkywork1_5B,
		MemoryFraction: frac,
		Policy:         pol,
		Opts:           opts,
		KVPlane:        memplane.Config{CapacityBytes: planeBytes},
		Seed:           seed,
	}, nil
}

// --- solver-beam ---

func prepSolverBeam(w *workloadDef, refs []reqRef) (*prepared, error) {
	pub, err := bindPublic(refs)
	if err != nil {
		return nil, err
	}
	coreReqs, err := bindCore(refs)
	if err != nil {
		return nil, err
	}
	sc := fasttts.ServeConfig{
		Config: fasttts.Config{
			GPU: "RTX 4090", Pair: fasttts.Pair1_5B1_5B, Algorithm: "Beam Search",
			NumBeams: 64, BranchFactor: 4, Mode: fasttts.ModeFastTTS, Seed: engineSeed,
		},
		Policy: "fcfs", SLOLatency: w.slo,
	}
	runCore := func(opts core.Options, tr *tracer) ([]core.ServedResult, error) {
		cfg, err := coreConfig(hw.RTX4090, 64, engineSeed, 0, opts)
		if err != nil {
			return nil, err
		}
		cfg.Policy = tr.searchPolicy(cfg.Policy)
		sp := tr.span("core.new")
		srv, err := core.NewServerWithPolicy(cfg, tr.servePolicy(sched.FCFS{}))
		sp.end()
		if err != nil {
			return nil, err
		}
		sp = tr.span("core.run")
		served, err := srv.Run(coreReqs)
		sp.end()
		tr.foldCalls(sp)
		return served, err
	}
	return &prepared{
		coreReqs: coreReqs, width: 64,
		plain: func() (*passOut, error) {
			srv, err := fasttts.NewServerWith(sc)
			if err != nil {
				return nil, err
			}
			served, err := srv.Run(pub)
			if err != nil {
				return nil, err
			}
			st := srv.Stats(served)
			return &passOut{res: pubServed(served), stats: serveStatsOf(st)}, nil
		},
		traced: func(tr *tracer) (*passOut, error) {
			served, err := runCore(core.FastTTSOptions(), tr)
			if err != nil {
				return nil, err
			}
			sp := tr.span("metrics.summarize")
			st := core.Stats(served, w.slo)
			sp.end()
			return &passOut{res: coreServed(served), stats: internalServeStats(st)}, nil
		},
		baseline: func() (float64, error) {
			served, err := runCore(core.BaselineOptions(), nil)
			if err != nil {
				return 0, err
			}
			return meanServiceLatency(coreServed(served)), nil
		},
	}, nil
}

// --- kv-pressure ---

// kvDevices is the cache-thrash topology: a fast 4090, a mid 4070 Ti
// running SJF, a slow 3070 Ti, each n=8 with a 512 MiB KV plane.
var kvDevices = []struct {
	gpu    hw.GPU
	policy string
}{
	{hw.RTX4090, "fcfs"}, {hw.RTX4070Ti, "sjf"}, {hw.RTX3070Ti, "fcfs"},
}

const kvPlaneBytes = 512 << 20

func prepKVPressure(w *workloadDef, refs []reqRef) (*prepared, error) {
	pub, err := bindPublic(refs)
	if err != nil {
		return nil, err
	}
	coreReqs, err := bindCore(refs)
	if err != nil {
		return nil, err
	}
	cc := fasttts.ClusterConfig{Router: "cache-aware", Seed: engineSeed, SLOLatency: w.slo}
	for i, d := range kvDevices {
		cc.Devices = append(cc.Devices, fasttts.DeviceSpec{
			Config: fasttts.Config{GPU: d.gpu.Name, NumBeams: 8, Seed: engineSeed + 1 + uint64(i), KVPlaneBytes: kvPlaneBytes},
			Policy: d.policy,
		})
	}
	cl, err := fasttts.NewCluster(cc)
	if err != nil {
		return nil, err
	}
	runFleet := func(opts core.Options, tr *tracer) (*cluster.Outcome, error) {
		cfg := cluster.Config{Router: tr.router(cluster.CacheAware{}), Seed: engineSeed, SLOLatency: w.slo}
		for i, d := range kvDevices {
			dc, err := coreConfig(d.gpu, 8, engineSeed+1+uint64(i), kvPlaneBytes, opts)
			if err != nil {
				return nil, err
			}
			dc.Policy = tr.searchPolicy(dc.Policy)
			pol, err := sched.PolicyByName(d.policy)
			if err != nil {
				return nil, err
			}
			cfg.Devices = append(cfg.Devices, cluster.Device{Config: dc, Policy: tr.servePolicy(pol)})
		}
		return runFleetTraced(cfg, coreReqs, tr)
	}
	return &prepared{
		coreReqs: coreReqs, width: 8,
		plain: func() (*passOut, error) {
			run, err := cl.Run(pub)
			if err != nil {
				return nil, err
			}
			st := run.Stats()
			return &passOut{res: pubFleet(run.Results), stats: serveStatsOf(st.ServeStats), fleet: publicFleetStats(st), keep: run}, nil
		},
		traced: func(tr *tracer) (*passOut, error) {
			out, err := runFleet(core.FastTTSOptions(), tr)
			if err != nil {
				return nil, err
			}
			return summarizeFleet(out, w.slo, tr), nil
		},
		baseline: func() (float64, error) {
			out, err := runFleet(core.BaselineOptions(), nil)
			if err != nil {
				return 0, err
			}
			return meanServiceLatency(fleetRes(out.Results)), nil
		},
	}, nil
}

// runFleetTraced builds and runs one fleet under the tracer's spans.
func runFleetTraced(cfg cluster.Config, reqs []core.Request, tr *tracer) (*cluster.Outcome, error) {
	sp := tr.span("cluster.new")
	fleet, err := cluster.New(cfg)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.span("cluster.run")
	out, err := fleet.Run(reqs)
	sp.end()
	tr.foldCalls(sp)
	return out, err
}

// summarizeFleet reduces a fleet outcome to a passOut under the tracer.
func summarizeFleet(out *cluster.Outcome, slo float64, tr *tracer) *passOut {
	sp := tr.span("metrics.summarize")
	st := out.Stats(slo)
	sp.end()
	return &passOut{res: fleetRes(out.Results), stats: internalServeStats(st.ServeStats), fleet: internalFleetStats(st), keep: out}
}

// --- fleet-dispatch / fleet-observed ---

// fleetDevices builds the -perf fleet: homogeneous RTX 4090s serving
// chain-of-thought requests FCFS behind an admission limit.
func fleetDevices(n int, seed uint64, tr *tracer) ([]cluster.Device, error) {
	pol, err := search.New(search.SingleCoT, 1, 1)
	if err != nil {
		return nil, err
	}
	pol = tr.searchPolicy(pol)
	serve := tr.servePolicy(sched.AdmissionLimit{Inner: sched.FCFS{}, MaxInFlight: fleetMaxInFlight})
	devs := make([]cluster.Device, n)
	for i := range devs {
		devs[i] = cluster.Device{
			Config: core.Config{
				GPU:       hw.RTX4090,
				Generator: model.Qwen25Math1_5B,
				Verifier:  model.Qwen25Math1_5B,
				Policy:    pol,
				Opts:      core.BaselineOptions(),
				Seed:      seed + uint64(i),
			},
			Policy: serve,
		}
	}
	return devs, nil
}

func prepFleetDispatch(w *workloadDef, refs []reqRef) (*prepared, error) {
	coreReqs, err := bindCore(refs)
	if err != nil {
		return nil, err
	}
	pass := func(tr *tracer) (*passOut, error) {
		devs, err := fleetDevices(256, engineSeed, tr)
		if err != nil {
			return nil, err
		}
		out, err := runFleetTraced(cluster.Config{Devices: devs, Router: tr.router(cluster.LeastWork{}), Seed: engineSeed}, coreReqs, tr)
		if err != nil {
			return nil, err
		}
		return summarizeFleet(out, w.slo, tr), nil
	}
	return &prepared{
		coreReqs: coreReqs, width: 1,
		plain:  func() (*passOut, error) { return pass(nil) },
		traced: pass,
	}, nil
}

func prepFleetObserved(w *workloadDef, refs []reqRef) (*prepared, error) {
	const devices = 32
	coreReqs, err := bindCore(refs)
	if err != nil {
		return nil, err
	}
	// The controller ticks 64 times over the stream's expected span and
	// may scale into an 8-slot warm pool, as fastttsbench's perfControl.
	interval := float64(len(refs)) / (fleetDeviceRate * devices) / 64
	pass := func(tr *tracer, observed bool) (*passOut, error) {
		devs, err := fleetDevices(devices, engineSeed, tr)
		if err != nil {
			return nil, err
		}
		warm, err := fleetDevices(8, engineSeed+1000, tr)
		if err != nil {
			return nil, err
		}
		cfg := cluster.Config{
			Devices: devs, Router: tr.router(cluster.LeastWork{}), Seed: engineSeed,
			Metrics: metrics.ModeStreaming, SLOLatency: w.slo,
			Control: &cluster.ControlConfig{
				Controller: tr.controller(control.NewThreshold()), Interval: interval,
				Warm: warm, WarmupDelay: interval / 2, SLOLatency: w.slo,
			},
		}
		var rec *obs.Recorder
		if observed {
			rec = obs.NewRecorder()
			cfg.Obs = rec
		}
		out, err := runFleetTraced(cfg, coreReqs, tr)
		if err != nil {
			return nil, err
		}
		po := summarizeFleet(out, w.slo, tr)
		if !observed {
			return po, nil
		}
		// What a monitored deployment does with its recorder after a run.
		sp := tr.span("obs.collect")
		spans := rec.Spans()
		sp.end()
		sp = tr.span("obs.attribute")
		attrs := obs.Attribute(spans)
		sp.end()
		sp = tr.span("obs.perfetto")
		err = obs.WritePerfetto(io.Discard, spans)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("perfetto export: %w", err)
		}
		po.spans, po.attrs = spans, attrs
		return po, nil
	}
	return &prepared{
		coreReqs: coreReqs, width: 1,
		plain:       func() (*passOut, error) { return pass(nil, true) },
		traced:      func(tr *tracer) (*passOut, error) { return pass(tr, true) },
		observedOff: func() (*passOut, error) { return pass(nil, false) },
	}, nil
}
