package cluster

// Tag-uniqueness validation and fleet-scale micro-benchmarks for the
// event-heap core.

import (
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"sort"
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
// shared one arrival/requeue/accounting slot — a fail-stop that
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
	// Each case collides two distinct requests' tags. Run finds a repeat
	// by sorting the tags, so a pair at the two ends of the stream and a
	// repeated negative tag (allowed when the fleet does not hedge) must
	// be caught as surely as two neighbours.
	for _, c := range []struct {
		name string
		i, j int
		tag  int
	}{
		{"nearby", 0, 2, 0},
		{"first and last", 0, len(probs) - 1, 0},
		{"negative", 1, 3, -3},
	} {
		reqs := taggedStream(t, probs, 0.5, 11)
		reqs[c.i].Tag, reqs[c.j].Tag = c.tag, c.tag
		f, err := New(Config{Devices: devices, Router: &RoundRobin{}, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		_, err = f.Run(reqs)
		if err == nil {
			t.Fatalf("%s: Run accepted a stream with duplicate tags; the old behavior silently corrupted requeue and prefix telemetry", c.name)
		}
		if want := fmt.Sprintf("duplicate request tag %d", c.tag); !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: want a descriptive duplicate-tag error naming tag %d, got: %v", c.name, c.tag, err)
		}
	}

	// The same stream with unique tags runs, and its telemetry is
	// coherent: every request accounted for exactly once.
	reqs := taggedStream(t, probs, 0.5, 11)
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

// TestRunRoutesUnsortedStreamReadOnly: Run routes the caller's stream
// through a permutation — by arrival, ties in input order — and never
// writes to it. An unsorted stream with equal arrivals and out-of-order
// tags serves exactly as the same stream pre-sorted by a stable sort, a
// fail-stop's requeues included, and is left as it was passed in. The
// pre-sorted run is tagged by position, so it routes in input order under
// any tie rule that looks at tags, and round-robin routing, whose k-th
// pick is device k mod 3, pins the order itself.
func TestRunRoutesUnsortedStreamReadOnly(t *testing.T) {
	devices := []Device{
		{Config: devConfig(t, hw.RTX4090, 4, 42), FailAt: 6},
		{Config: devConfig(t, hw.RTX4070Ti, 4, 43)},
		{Config: devConfig(t, hw.RTX4090, 4, 44)},
	}
	const n = 24
	probs := repeatedProblems(t, n, 5)
	reqs := make([]core.Request, n)
	for i := range reqs {
		// Arrivals in ties of three, tags scattered over 0..n-1, and the
		// stream reversed: ties now sit against both input and tag order.
		k := n - 1 - i
		reqs[k] = core.Request{Problem: probs[i], Arrival: 0.7 * float64(i/3), Tag: 7 * i % n}
	}
	presorted := slices.Clone(reqs)
	sort.SliceStable(presorted, func(i, j int) bool { return presorted[i].Arrival < presorted[j].Arrival })
	byPosition := slices.Clone(presorted)
	for k := range byPosition {
		byPosition[k].Tag = k
	}
	for _, name := range []string{"least-work", "prefix", "rr"} {
		route := func(stream []core.Request) *Outcome {
			router, err := RouterByName(name)
			if err != nil {
				t.Fatal(err)
			}
			return runFleet(t, devices, router, 3, stream)
		}
		before := slices.Clone(reqs)
		got := route(reqs)
		if !slices.Equal(reqs, before) {
			t.Fatalf("%s: Run wrote to the caller's stream", name)
		}
		want := route(byPosition)
		for i := range want.Results {
			want.Results[i].Tag = presorted[want.Results[i].Tag].Tag
		}
		if got.Requeues == 0 {
			t.Fatalf("%s: the fail-stop displaced nothing; the case lost its requeues", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the unsorted stream served differently from its stable pre-sort", name)
		}
		if name != "rr" {
			continue
		}
		// Every arrival routes before the fail-stop at 6.
		for _, res := range got.Results {
			k := slices.IndexFunc(presorted, func(rq core.Request) bool { return rq.Tag == res.Tag })
			if res.Requeues == 0 && res.Device != k%len(devices) {
				t.Errorf("rr: tag %d, routed %d-th, served on device %d", res.Tag, k, res.Device)
			}
		}
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

// TestFleetRunAllocsPerRequest pins what an untraced fleet pass allocates
// per request, in the fleet-dispatch shape at a quarter of its devices
// and a fifth of its stream: 64 devices, 20k requests, least-work
// routing, every optional hook off. The fresh fleet's set-up and pool
// growth are included. Before the arrival queue was bounded, the result
// slice became caller-owned and the wake heap typed, the pass read 5.86
// (5.87 under -race); before the per-request tag and prefix-key maps went
// it read 1.45, and 1.41 (1.42 under -race) while each served request
// allocated its own Result and finished paths. Those now come from the
// run's one result store, and the pass reads 0.33 (0.33 under -race):
// what is left is mostly the new sessions and solvers of the devices'
// pools. The pin leaves about 20 % of room, so a new per-request
// allocator shows.
func TestFleetRunAllocsPerRequest(t *testing.T) {
	const n, pin = 20000, 0.4
	devs, reqs := benchFleet(t, 64, n)
	got := testing.AllocsPerRun(1, func() {
		f, err := New(Config{Devices: devs, Router: LeastWork{}, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run(reqs); err != nil {
			t.Fatal(err)
		}
	}) / n
	t.Logf("%.3f allocations per request over a fresh %d-request fleet pass", got, n)
	if got > pin {
		t.Errorf("a fleet request allocates %.3f times, want at most %v", got, pin)
	}
}

// TestFleetRunBytesPerRequest pins the bytes an untraced fleet pass
// allocates per request, in TestFleetRunAllocsPerRequest's shape: the
// TotalAlloc delta of a fresh 64-device, 20k-request least-work pass,
// set-up included, after one warm-up pass. newRun once copied the stream
// up front (an 80-byte record per request, plus a copy of the tags to
// find duplicates): two allocations, which the object pin above cannot
// tell from two small ones. With the copies the pass read 394.4 B per
// request, without them 312.4. The pin sits between, so the copies cannot
// come back unnoticed.
func TestFleetRunBytesPerRequest(t *testing.T) {
	const n, pin = 20000, 340.0
	devs, reqs := benchFleet(t, 64, n)
	pass := func() {
		f, err := New(Config{Devices: devs, Router: LeastWork{}, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Run(reqs); err != nil {
			t.Fatal(err)
		}
	}
	pass()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pass()
	runtime.ReadMemStats(&after)
	got := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f bytes allocated per request over a fresh %d-request fleet pass", got, n)
	if got > pin {
		t.Errorf("a fleet request allocates %.1f bytes, want at most %v", got, pin)
	}
}
