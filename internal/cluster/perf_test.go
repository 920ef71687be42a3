package cluster

// Tag-uniqueness validation and fleet-scale micro-benchmarks for the
// event-heap core.

import (
	"io"
	"strings"
	"testing"

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

// TestDuplicateTagsRejected: Run keys requeue telemetry and deferred
// prefix accounting by request Tag. Before validation existed, a stream
// with colliding tags was served silently while the collided requests
// shared one origArrival/requeue/accounting slot — a fail-stop that
// displaced one of them bumped the requeue count and rewrote the arrival
// telemetry of both, and their prefix hits landed on whichever device
// settled last. Now the collision is rejected up front with a
// descriptive error instead of corrupting the outcome.
func TestDuplicateTagsRejected(t *testing.T) {
	devices := []Device{
		{Config: devConfig(t, hw.RTX4090, 4, 42), FailAt: 5},
		{Config: devConfig(t, hw.RTX4070Ti, 4, 43)},
	}
	probs := repeatedProblems(t, 4, 2)
	reqs := taggedStream(t, probs, 0.5, 11)
	reqs[2].Tag = reqs[0].Tag // collide two distinct requests

	f, err := New(Config{Devices: devices, Router: &RoundRobin{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Run(reqs)
	if err == nil {
		t.Fatal("Run accepted a stream with duplicate tags; the old behavior silently corrupted requeue and prefix telemetry")
	}
	if !strings.Contains(err.Error(), "duplicate request tag") {
		t.Fatalf("want a descriptive duplicate-tag error, got: %v", err)
	}

	// The same stream with unique tags runs, and its telemetry is
	// coherent: every request accounted for exactly once.
	reqs = taggedStream(t, probs, 0.5, 11)
	out := runFleet(t, devices, &RoundRobin{}, 1, reqs)
	if len(out.Results) != len(reqs) {
		t.Fatalf("served %d results for %d unique-tag requests", len(out.Results), len(reqs))
	}
	seen := map[int]bool{}
	for _, r := range out.Results {
		if seen[r.Tag] {
			t.Fatalf("tag %d reported twice", r.Tag)
		}
		seen[r.Tag] = true
	}
}

// benchSpec mirrors the fleet-dispatch benchmark workload's dataset
// (benchmark/workloads.go): tiny prompts and chains so the fleet core,
// not token arithmetic, dominates.
var benchSpec = workload.DatasetSpec{
	Name: "BENCH", Problems: 64,
	DiffLo: 0.30, DiffHi: 0.70,
	StepLogMu: 2.3, StepLogSigma: 0.4, MinStepTokens: 4,
	MaxSteps: 2, TypicalSteps: 1.3,
	PromptLo: 8, PromptHi: 16,
	AnswerSpace: 10, QualityDriftScale: 1.0,
}

// benchDevices builds n homogeneous RTX 4090s serving chain-of-thought
// requests FCFS behind an admission limit, seeded from seed.
func benchDevices(tb testing.TB, n int, seed uint64) []Device {
	tb.Helper()
	pol, err := search.New(search.SingleCoT, 1, 1)
	if err != nil {
		tb.Fatal(err)
	}
	devs := make([]Device, n)
	for i := range devs {
		devs[i] = Device{
			Config: core.Config{
				GPU:       hw.RTX4090,
				Generator: model.Qwen25Math1_5B,
				Verifier:  model.Qwen25Math1_5B,
				Policy:    pol,
				Opts:      core.BaselineOptions(),
				Seed:      seed + uint64(i),
			},
			Policy: sched.AdmissionLimit{Inner: sched.FCFS{}, MaxInFlight: 32},
		}
	}
	return devs
}

// benchFleet is an n-device fleet plus a Poisson stream of the given
// length at 30 req/s per device, far above the service rate.
func benchFleet(tb testing.TB, n, requests int) ([]Device, []core.Request) {
	tb.Helper()
	devs := benchDevices(tb, n, 42)
	root := rng.New(42)
	ds := workload.NewDataset(benchSpec, root)
	times := workload.PoissonArrivals(requests, 30*float64(n), root.Child("bench/arrivals"))
	reqs := make([]core.Request, requests)
	for i := range reqs {
		reqs[i] = core.Request{Problem: ds.Problems[i%len(ds.Problems)], Arrival: times[i], Tag: i}
	}
	return devs, reqs
}

func benchmarkFleetRun(b *testing.B, devices int, router string) {
	devs, reqs := benchFleet(b, devices, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := RouterByName(router)
		if err != nil {
			b.Fatal(err)
		}
		f, err := New(Config{Devices: devs, Router: r, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Run(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFleetRun64LeastWork(b *testing.B)  { benchmarkFleetRun(b, 64, "least-work") }
func BenchmarkFleetRun64RoundRobin(b *testing.B) { benchmarkFleetRun(b, 64, "rr") }
func BenchmarkFleetRun256LeastWork(b *testing.B) { benchmarkFleetRun(b, 256, "least-work") }
func BenchmarkFleetRun256P2C(b *testing.B)       { benchmarkFleetRun(b, 256, "p2c") }

// BenchmarkFleetDispatch is the shape of the benchmark's fleet-dispatch
// pass: 256 devices, 100k requests, least-work routing, every optional
// hook off (make profile-dispatch profiles it).
func BenchmarkFleetDispatch(b *testing.B) {
	devs, reqs := benchFleet(b, 256, 100000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := New(Config{Devices: devs, Router: LeastWork{}, Seed: 42})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Run(reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
}

// observedFleet is the benchmark's fleet-observed workload at a chosen
// size: least-work routing over n devices with streaming metrics, an SLO
// and a threshold controller that ticks 64 times over the stream's
// expected span and may scale into an 8-slot warm pool. mk builds a
// fresh Config per run (the controller carries state); the caller
// attaches the recorder.
func observedFleet(tb testing.TB, n, requests int) (mk func() Config, reqs []core.Request) {
	tb.Helper()
	devs, reqs := benchFleet(tb, n, requests)
	warm := benchDevices(tb, 8, 1042)
	interval := float64(requests) / (30 * float64(n)) / 64
	return func() Config {
		return Config{
			Devices: devs, Router: LeastWork{}, Seed: 42,
			Metrics: metrics.ModeStreaming, SLOLatency: 10,
			Control: &ControlConfig{
				Controller: control.NewThreshold(), Interval: interval,
				Warm: warm, WarmupDelay: interval / 2, SLOLatency: 10,
			},
		}
	}, reqs
}

// BenchmarkFleetRun32Observed is the shape of the benchmark's
// fleet-observed pass: serve with the span recorder attached, then do
// what a monitored deployment does with it — merge the tracks, attribute
// every request's latency, export the Perfetto trace.
func BenchmarkFleetRun32Observed(b *testing.B) {
	mk, reqs := observedFleet(b, 32, 20000)
	b.ReportAllocs()
	b.ResetTimer()
	recorded := 0
	for i := 0; i < b.N; i++ {
		_, spans := runTraced(b, mk, reqs)
		if attrs := obs.Attribute(spans); len(attrs) == 0 {
			b.Fatal("no request attributed")
		}
		if err := obs.WritePerfetto(io.Discard, spans); err != nil {
			b.Fatal(err)
		}
		recorded = len(spans)
	}
	b.ReportMetric(float64(recorded)/float64(len(reqs)), "spans/req")
}

// kvPressureFleet is the benchmark's kv-pressure workload: a fast 4090 and
// a 3070 Ti serving FCFS around a 4070 Ti serving SJF, each beam search
// n=8 in FastTTS mode behind a 512 MiB KV plane, routed cache-aware; and
// requests drawn uniformly from 18 hot few-shot prompts (the first six of
// each few-shot tenant, thousands of prompt tokens each) arriving Poisson
// at 0.1 req/s, so the planes admit, evict and re-prefill throughout.
func kvPressureFleet(tb testing.TB, requests int) ([]Device, []core.Request) {
	tb.Helper()
	var devs []Device
	for i, d := range []struct {
		gpu    hw.GPU
		policy sched.ServePolicy
	}{{hw.RTX4090, sched.FCFS{}}, {hw.RTX4070Ti, sched.SJF{}}, {hw.RTX3070Ti, sched.FCFS{}}} {
		cfg := devConfig(tb, d.gpu, 8, 43+uint64(i))
		cfg.KVPlane = memplane.Config{CapacityBytes: 512 << 20}
		devs = append(devs, Device{Config: cfg, Policy: d.policy})
	}
	var hot []*workload.Problem
	for _, spec := range []workload.DatasetSpec{workload.MATH500FewShot, workload.AMC23FewShot, workload.AIME24FewShot} {
		hot = append(hot, workload.NewDataset(spec, rng.New(42)).Subset(6)...)
	}
	r := rng.New(42).Child("bench/kv-pressure")
	times := workload.PoissonArrivals(requests, 0.10, r.Child("arrivals"))
	reqs := make([]core.Request, requests)
	for i := range reqs {
		reqs[i] = core.Request{Problem: hot[r.IntN(len(hot))], Arrival: times[i], Tag: i}
	}
	return devs, reqs
}

// BenchmarkKVPressure is the shape of the benchmark's kv-pressure pass,
// the workload where the solver's answer draws, eviction heap and beam
// sort weigh most (make profile-kv profiles it).
func BenchmarkKVPressure(b *testing.B) {
	devs, reqs := kvPressureFleet(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := New(Config{Devices: devs, Router: CacheAware{}, Seed: 42, SLOLatency: 60})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := f.Run(reqs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/req")
}
