package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/metrics"
	"fasttts/internal/model"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// devConfig builds a small, fast per-device deployment.
func devConfig(t testing.TB, gpu hw.GPU, beams int, seed uint64) core.Config {
	t.Helper()
	pol, err := search.New(search.BeamSearch, beams, 4)
	if err != nil {
		t.Fatal(err)
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
		Opts:           core.FastTTSOptions(),
		Seed:           seed,
	}
}

// mustStrategy is search.ParseStrategy of a spec known to be valid.
func mustStrategy(spec string) search.Strategy {
	s, err := search.ParseStrategy(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// hetero4 is the seeded heterogeneous 4-device fleet of the acceptance
// tests: two fast 4090s (one straggling), a mid-range 4070 Ti, and a
// low-end 3070 Ti.
func hetero4(t testing.TB) []Device {
	t.Helper()
	return []Device{
		{Config: devConfig(t, hw.RTX4090, 8, 42)},
		{Config: devConfig(t, hw.RTX4090, 8, 43), Slowdown: 4},
		{Config: devConfig(t, hw.RTX4070Ti, 8, 44)},
		{Config: devConfig(t, hw.RTX3070Ti, 8, 45)},
	}
}

// equivFleet builds a small heterogeneous fleet: a fast founder, a
// straggler, a mid-run fail-stop, and a fourth plain member.
func equivFleet(t testing.TB) []Device {
	t.Helper()
	return []Device{
		{Config: devConfig(t, hw.RTX4090, 4, 40)},
		{Config: devConfig(t, hw.RTX4070Ti, 4, 41), Slowdown: 2.5},
		{Config: devConfig(t, hw.RTX3070Ti, 4, 42), FailAt: 12},
		{Config: devConfig(t, hw.RTX4070Ti, 4, 43)},
	}
}

// taggedStream builds an open-loop Poisson request stream over the given
// problems, tagged by stream index.
func taggedStream(t testing.TB, probs []*workload.Problem, rate float64, seed uint64) []core.Request {
	t.Helper()
	times := workload.PoissonArrivals(len(probs), rate, rng.New(seed).Child("arrivals"))
	reqs := make([]core.Request, len(probs))
	for i, p := range probs {
		reqs[i] = core.Request{Problem: p, Arrival: times[i], Tag: i}
	}
	return reqs
}

// repeatedProblems returns n requests cycling over k distinct problems —
// the prefix-heavy traffic pattern affinity routing exploits.
func repeatedProblems(t testing.TB, n, k int) []*workload.Problem {
	t.Helper()
	ds := workload.NewDataset(workload.AMC23, rng.New(7))
	out := make([]*workload.Problem, n)
	for i := range out {
		out[i] = ds.Problems[i%k]
	}
	return out
}

func runFleet(t testing.TB, devices []Device, router Router, seed uint64, reqs []core.Request) *Outcome {
	t.Helper()
	f, err := New(Config{Devices: devices, Router: router, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSingleDevicePassThroughMatchesServer: a 1-device fleet under the
// pass-through router must reproduce the single-Server served stream
// bit-identically — the cluster layer adds no simulation artifacts.
func TestSingleDevicePassThroughMatchesServer(t *testing.T) {
	cfg := devConfig(t, hw.RTX4090, 8, 42)
	probs := repeatedProblems(t, 8, 8)
	reqs := taggedStream(t, probs, 0.5, 11)

	srv, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}

	out := runFleet(t, []Device{{Config: cfg}}, Single{}, 1, reqs)
	if len(out.Results) != len(want) {
		t.Fatalf("fleet served %d results, server %d", len(out.Results), len(want))
	}
	for i, r := range out.Results {
		if r.Device != 0 || r.Requeues != 0 {
			t.Errorf("result %d: device %d requeues %d, want 0 and 0", i, r.Device, r.Requeues)
		}
		if !reflect.DeepEqual(r.ServedResult, want[i]) {
			t.Errorf("result %d differs from single-server stream:\n got %+v\nwant %+v",
				i, r.ServedResult, want[i])
		}
	}
}

// TestFleetDeterminism: equal seeds give bit-identical fleet outcomes for
// every router, including under straggler and fail-stop injection.
func TestFleetDeterminism(t *testing.T) {
	probs := repeatedProblems(t, 10, 3)
	reqs := taggedStream(t, probs, 0.3, 11)
	for _, name := range RouterNames() {
		t.Run(name, func(t *testing.T) {
			run := func() *Outcome {
				devices := []Device{
					{Config: devConfig(t, hw.RTX4090, 8, 42)},
					{Config: devConfig(t, hw.RTX4070Ti, 8, 43), Slowdown: 2},
					{Config: devConfig(t, hw.RTX3070Ti, 8, 44), FailAt: 120},
				}
				r, err := RouterByName(name)
				if err != nil {
					t.Fatal(err)
				}
				return runFleet(t, devices, r, 9, reqs)
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("router %s: repeated fleet runs differ", name)
			}
		})
	}
}

// TestPrefixAffinityBeatsRoundRobinHitRate: on prefix-heavy traffic over
// a heterogeneous 4-device fleet, affinity routing achieves a strictly
// higher fleet KV-cache hit rate than round-robin, which scatters each
// prompt's repeats across devices.
func TestPrefixAffinityBeatsRoundRobinHitRate(t *testing.T) {
	probs := repeatedProblems(t, 24, 3) // 3 prompts × 8 repeats
	reqs := taggedStream(t, probs, 0.5, 11)

	rr := runFleet(t, hetero4(t), &RoundRobin{}, 9, reqs).Stats(0)
	aff := runFleet(t, hetero4(t), &PrefixAffinity{}, 9, reqs).Stats(0)

	if aff.PrefixHitRate <= rr.PrefixHitRate {
		t.Errorf("prefix-affinity hit rate %.3f not strictly above round-robin %.3f",
			aff.PrefixHitRate, rr.PrefixHitRate)
	}
	if aff.Served != 24 || rr.Served != 24 {
		t.Errorf("served %d/%d of 24 requests", aff.Served, rr.Served)
	}
}

// TestPowerOfTwoBeatsRoundRobinImbalance: on the same heterogeneous
// fleet, load-aware power-of-two-choices routing yields a strictly lower
// load-imbalance coefficient than round-robin, which assigns the 4×
// straggler as much work as the fast devices.
func TestPowerOfTwoBeatsRoundRobinImbalance(t *testing.T) {
	probs := repeatedProblems(t, 24, 24)
	reqs := taggedStream(t, probs, 0.5, 11)

	rr := runFleet(t, hetero4(t), &RoundRobin{}, 9, reqs).Stats(0)
	p2c := runFleet(t, hetero4(t), PowerOfTwo{}, 9, reqs).Stats(0)

	if p2c.ImbalanceCV >= rr.ImbalanceCV {
		t.Errorf("p2c imbalance CV %.3f not strictly below round-robin %.3f",
			p2c.ImbalanceCV, rr.ImbalanceCV)
	}
}

// TestFailStopRequeuesToSurvivors: when a device fail-stops mid-run, its
// unfinished requests migrate to the survivors and every request is still
// reported exactly once.
func TestFailStopRequeuesToSurvivors(t *testing.T) {
	const failAt = 20.0
	devices := []Device{
		{Config: devConfig(t, hw.RTX4090, 8, 42), FailAt: failAt},
		{Config: devConfig(t, hw.RTX4090, 8, 43)},
	}
	probs := repeatedProblems(t, 10, 10)
	reqs := taggedStream(t, probs, 0.5, 11)
	out := runFleet(t, devices, &RoundRobin{}, 9, reqs)

	if out.Requeues == 0 {
		t.Fatal("no requeues despite a mid-run fail-stop")
	}
	seen := map[int]int{}
	for _, r := range out.Results {
		seen[r.Tag]++
		if r.Rejected {
			t.Errorf("request %d rejected; survivors had capacity", r.Tag)
		}
		if r.Device == 0 {
			if r.Start >= failAt {
				t.Errorf("request %d started on the failed device at %v, after its fail-stop at %v",
					r.Tag, r.Start, failAt)
			}
		}
		if r.Requeues > 0 && r.Device != 1 {
			t.Errorf("requeued request %d completed on device %d, want survivor 1", r.Tag, r.Device)
		}
		// Client-facing telemetry survives the migration: the arrival is
		// the original submission time, not the requeue instant.
		if r.Arrival != reqs[r.Tag].Arrival {
			t.Errorf("request %d arrival %v, want submission time %v",
				r.Tag, r.Arrival, reqs[r.Tag].Arrival)
		}
		if got := r.Finish - r.Arrival; math.Abs(r.WallLatency-got) > 1e-12 {
			t.Errorf("request %d WallLatency %v != Finish-Arrival %v", r.Tag, r.WallLatency, got)
		}
		if r.Requeues > 0 && r.Start < failAt {
			t.Errorf("requeued request %d started at %v, before the fail-stop at %v freed it",
				r.Tag, r.Start, failAt)
		}
	}
	for i := range reqs {
		if seen[i] != 1 {
			t.Errorf("request %d reported %d times, want exactly once", i, seen[i])
		}
	}
	st := out.Stats(0)
	if st.FailedDevices != 1 {
		t.Errorf("failed devices %d, want 1", st.FailedDevices)
	}
	if st.Requeues != out.Requeues {
		t.Errorf("stats requeues %d != outcome %d", st.Requeues, out.Requeues)
	}
	if !out.Devices[0].Failed || out.Devices[1].Failed {
		t.Errorf("device failure flags %v/%v, want true/false",
			out.Devices[0].Failed, out.Devices[1].Failed)
	}
	// The failed device's lifetime starts at the fail time and stretches
	// at most through its final overrunning slice, keeping utilization
	// within [0, 1].
	if lt := out.Devices[0].LiveSeconds; lt < failAt {
		t.Errorf("failed device lifetime %v below fail time %v", lt, failAt)
	}
	for i, ds := range st.Devices {
		if ds.Utilization < 0 || ds.Utilization > 1 {
			t.Errorf("device %d utilization %v outside [0,1]", i, ds.Utilization)
		}
	}
}

// TestTwiceRequeuedKeepsFirstSubmission: a request two fail-stops
// displace in turn reports its first submission as Arrival (and its
// latencies from it) with Requeues 2, and under the deadline strategy its
// deadline runs from that first submission too, not from either requeue.
// The pass-through router sends every routing to the first alive device,
// so the request runs on device 0, then 1, then 2.
func TestTwiceRequeuedKeepsFirstSubmission(t *testing.T) {
	const submit, fail1, fail2, slo = 0.5, 2.0, 4.0, 6.0
	devices := []Device{
		{Config: devConfig(t, hw.RTX4090, 8, 42), FailAt: fail1},
		{Config: devConfig(t, hw.RTX4090, 8, 43), FailAt: fail2},
		{Config: devConfig(t, hw.RTX4090, 8, 44)},
	}
	reqs := []core.Request{{Problem: repeatedProblems(t, 1, 1)[0], Arrival: submit, Tag: 7}}
	for _, deadline := range []bool{false, true} {
		cfg := Config{Devices: devices, Router: Single{}, SLOLatency: slo}
		if deadline {
			cfg.Strategy = mustStrategy("deadline")
		}
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := f.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Results) != 1 || out.Requeues != 2 {
			t.Fatalf("deadline %v: %d results and %d requeues, want 1 and 2", deadline, len(out.Results), out.Requeues)
		}
		r := out.Results[0]
		if r.Rejected || r.Device != 2 || r.Requeues != 2 {
			t.Fatalf("deadline %v: rejected %v on device %d after %d requeues, want served on 2 after 2",
				deadline, r.Rejected, r.Device, r.Requeues)
		}
		if r.Arrival != submit || r.QueueDelay != r.Start-submit || r.WallLatency != r.Finish-submit {
			t.Errorf("deadline %v: arrival %v, queue delay %v, wall latency %v; want them from the submission at %v",
				deadline, r.Arrival, r.QueueDelay, r.WallLatency, submit)
		}
		// The deadline strategy cuts at the first slice end past the
		// deadline. From the submission that lands before fail1+slo, the
		// earliest a deadline taken from a requeue could cut.
		if !deadline && r.Finish < fail2+slo {
			t.Fatalf("the uncut solve finishes at %v, too early to tell the deadlines apart", r.Finish)
		}
		if deadline && (r.Finish < submit+slo || r.Finish >= fail1+slo) {
			t.Errorf("cut at %v, want within [%v, %v): the deadline runs from the submission",
				r.Finish, submit+slo, fail1+slo)
		}
	}
}

// TestWholeFleetFailureShedsRemainingLoad: once every device has
// fail-stopped, undeliverable requests come back Rejected with Device -1
// rather than disappearing.
func TestWholeFleetFailureShedsRemainingLoad(t *testing.T) {
	devices := []Device{{Config: devConfig(t, hw.RTX4090, 8, 42), FailAt: 30}}
	probs := repeatedProblems(t, 6, 6)
	reqs := taggedStream(t, probs, 0.2, 11) // stream extends well past the failure
	out := runFleet(t, devices, Single{}, 9, reqs)

	if len(out.Results) != len(reqs) {
		t.Fatalf("reported %d of %d requests", len(out.Results), len(reqs))
	}
	shed := 0
	for _, r := range out.Results {
		if r.Rejected {
			shed++
			if r.Device != -1 {
				t.Errorf("lost-capacity rejection on device %d, want -1", r.Device)
			}
			if r.Result != nil {
				t.Error("rejected request carries a Result")
			}
		}
	}
	if shed == 0 {
		t.Error("no shed requests despite whole-fleet failure at t=30")
	}
}

// TestPrefixAccountingSkipsShedRequests: requests shed by a device's
// admission control prefill nothing, so they must not move the fleet
// prefix hit/miss counters.
func TestPrefixAccountingSkipsShedRequests(t *testing.T) {
	devices := []Device{{
		Config: devConfig(t, hw.RTX4090, 8, 42),
		Policy: sched.AdmissionLimit{Inner: sched.FCFS{}, MaxInFlight: 1},
	}}
	// Four copies of one prompt in a simultaneous burst: one is admitted
	// (a miss), three are shed before any prefill.
	probs := repeatedProblems(t, 4, 1)
	reqs := make([]core.Request, len(probs))
	for i, p := range probs {
		reqs[i] = core.Request{Problem: p, Tag: i}
	}
	out := runFleet(t, devices, Single{}, 9, reqs)

	served, shed := 0, 0
	for _, r := range out.Results {
		if r.Rejected {
			shed++
		} else {
			served++
		}
	}
	if served != 1 || shed != 3 {
		t.Fatalf("served %d shed %d of a 4-burst with MaxInFlight=1, want 1 and 3", served, shed)
	}
	if out.PrefixHits != 0 {
		t.Errorf("prefix hits %d from shed requests, want 0", out.PrefixHits)
	}
	if want := int64(probs[0].PromptTokens); out.PrefixMisses != want {
		t.Errorf("prefix misses %d, want the one served prefill (%d)", out.PrefixMisses, want)
	}
}

// TestStragglerStretchesWallClock: a slowdown factor stretches a device's
// served wall latency relative to its nominal service time.
func TestStragglerStretchesWallClock(t *testing.T) {
	cfg := devConfig(t, hw.RTX4090, 8, 42)
	probs := repeatedProblems(t, 1, 1)
	reqs := []core.Request{{Problem: probs[0], Tag: 0}}

	fast := runFleet(t, []Device{{Config: cfg}}, Single{}, 1, reqs)
	slow := runFleet(t, []Device{{Config: cfg, Slowdown: 3}}, Single{}, 1, reqs)

	ff, sf := fast.Results[0], slow.Results[0]
	if want := 3 * ff.Finish; math.Abs(sf.Finish-want) > 1e-9*want {
		t.Errorf("straggler finish %v, want 3× nominal %v", sf.Finish, ff.Finish)
	}
	if sf.Latency != ff.Latency {
		t.Errorf("nominal service time changed under slowdown: %v vs %v", sf.Latency, ff.Latency)
	}
}

// TestRouterByName covers the name table and the error path.
func TestRouterByName(t *testing.T) {
	for name, want := range map[string]string{
		"":               "rr",
		"rr":             "rr",
		"round-robin":    "rr",
		"single":         "single",
		"passthrough":    "single",
		"least-work":     "least-work",
		"lw":             "least-work",
		"jsq":            "jsq",
		"shortest-queue": "jsq",
		"P2C":            "p2c",
		"power-of-two":   "p2c",
		"prefix":         "prefix",
		"cache-aware":    "cache-aware",
		"cache":          "cache-aware",
	} {
		r, err := RouterByName(name)
		if err != nil {
			t.Errorf("RouterByName(%q): %v", name, err)
			continue
		}
		if r.Name() != want {
			t.Errorf("RouterByName(%q) = %s, want %s", name, r.Name(), want)
		}
	}
	if _, err := RouterByName("random"); err == nil {
		t.Error("RouterByName(random) did not fail")
	}
}

// TestFleetSingleRun: a Fleet refuses a second Run — routers and engines
// carry state.
func TestFleetSingleRun(t *testing.T) {
	f, err := New(Config{Devices: []Device{{Config: devConfig(t, hw.RTX4090, 8, 42)}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(nil); err == nil {
		t.Error("second Run did not fail")
	}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("New accepted an empty fleet")
	}
	bad := devConfig(t, hw.RTX4090, 8, 42)
	bad.GPU = hw.GPU{}
	if _, err := New(Config{Devices: []Device{{Config: bad}}}); err == nil {
		t.Error("New accepted an invalid device config")
	}
	for _, at := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := Device{Config: devConfig(t, hw.RTX4090, 8, 42), FailAt: at}
		if _, err := New(Config{Devices: []Device{d}}); err == nil {
			t.Errorf("New accepted FailAt %v", at)
		}
	}
}

// streamingTestRun serves the metrics-mode test stream on the
// equivalence fleet under least-work routing.
func streamingTestRun(t *testing.T, mode metrics.Mode, slo float64) *Outcome {
	t.Helper()
	rt, err := RouterByName("least-work")
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{Devices: equivFleet(t), Router: rt, Seed: 3, Metrics: mode, SLOLatency: slo})
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Run(taggedStream(t, repeatedProblems(t, 80, 5), 2.0, 13))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStreamingStatsSLOOnlyMovesAttainment: a streaming run's Stats must
// summarize the same latencies whatever target it is asked about — only
// SLOAttainment follows the argument.
func TestStreamingStatsSLOOnlyMovesAttainment(t *testing.T) {
	out := streamingTestRun(t, metrics.ModeStreaming, 30)
	at30, none := out.Stats(30), out.Stats(0)
	if at30.SLOAttainment != 0.1375 || none.SLOAttainment != 1 {
		t.Errorf("attainment %v under Stats(30), %v under Stats(0); want 0.1375 and 1",
			at30.SLOAttainment, none.SLOAttainment)
	}
	at30.SLOAttainment, none.SLOAttainment = 0, 0
	if !reflect.DeepEqual(at30, none) {
		t.Errorf("Stats(30) and Stats(0) differ beyond attainment:\n  Stats(30): %+v\n  Stats(0):  %+v",
			at30.ServeStats, none.ServeStats)
	}
}

// TestStreamingStatsNearExact compares a streaming run's fleet stats to
// the same run in exact mode: counters and maxima identical, latency
// distribution within the sketch's documented error.
func TestStreamingStatsNearExact(t *testing.T) {
	const slo = 30.0
	exact := streamingTestRun(t, metrics.ModeExact, slo).Stats(slo)
	stream := streamingTestRun(t, metrics.ModeStreaming, slo).Stats(slo)
	if stream.Served != exact.Served || stream.Rejected != exact.Rejected ||
		stream.Makespan != exact.Makespan || stream.Goodput != exact.Goodput ||
		stream.SLOAttainment != exact.SLOAttainment {
		t.Errorf("exact-agreement fields diverge:\n  stream: %+v\n  exact: %+v", stream, exact)
	}
	for _, c := range []struct {
		label         string
		stream, exact float64
	}{
		{"p50", stream.P50Latency, exact.P50Latency},
		{"p95", stream.P95Latency, exact.P95Latency},
		{"p99", stream.P99Latency, exact.P99Latency},
		{"mean latency", stream.MeanLatency, exact.MeanLatency},
	} {
		if c.exact == 0 {
			continue
		}
		if rel := math.Abs(c.stream-c.exact) / c.exact; rel > metrics.SketchRelErr {
			t.Errorf("%s: streaming %v vs exact %v, relative error %v > %v",
				c.label, c.stream, c.exact, rel, metrics.SketchRelErr)
		}
	}
}

// TestCancelledHitKeepsConfirmedPrefix: cancelling an unstarted copy
// that routed as a prefix hit must leave the directory alone — only the
// miss that marked a key may refund it. Tag 0 is the case a zero-valued
// mark lookup once mistook for the marking tag, so the cancel removed a
// prefix another request's prefill had confirmed.
func TestCancelledHitKeepsConfirmedPrefix(t *testing.T) {
	st, err := search.ParseStrategy("hedged")
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Devices:  []Device{{Config: devConfig(t, hw.RTX4090, 4, 1)}, {Config: devConfig(t, hw.RTX4070Ti, 4, 2)}},
		Strategy: st,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := repeatedProblems(t, 1, 1)[0]
	r, err := f.newRun([]core.Request{{Problem: p}}) // p's prompt id is 0
	if err != nil {
		t.Fatal(err)
	}
	d := r.devs[0]

	r.pushTo(0, core.Request{Problem: p, Tag: 5}, 0)
	if d.acct[5].hit {
		t.Fatal("tag 5 routed as a hit to an empty directory")
	}
	r.deliver(0, &core.ServedResult{Tag: 5}) // served: the mark is confirmed

	r.pushTo(0, core.Request{Problem: p, Tag: 0}, 0)
	if !d.acct[0].hit {
		t.Fatal("tag 0 routed as a miss after tag 5 confirmed the prefix")
	}
	r.applyCancel(cancelEvent{dev: 0, tag: 0})
	if _, ok := d.acct[0]; ok {
		t.Fatal("the cancel left tag 0's prefix accounting unsettled")
	}
	if !d.prefixes[0].marked {
		t.Error("cancelling a hit removed a prefix it never marked")
	}
}

// pastEndRouter picks the first device for a request and one past the end
// of the routable set for the copies selected by past.
type pastEndRouter struct{ past func(RequestView) bool }

func (pastEndRouter) Name() string { return "past-end" }

func (r pastEndRouter) Route(rq RequestView, devices []DeviceView, _ *rng.Stream) int {
	if r.past(rq) {
		return len(devices)
	}
	return 0
}

// A router that picks one past the end of the routable set, for a primary
// or for a hedge twin (routed over the alive set less the primary's
// device), fails the run with an error instead of indexing out of range.
func TestRouterPickPastEndFailsRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		past func(RequestView) bool
		want string
	}{
		{"primary", func(rq RequestView) bool { return rq.Tag >= 0 }, "picked 2 of 2 alive devices"},
		{"hedge twin", func(rq RequestView) bool { return rq.Tag < 0 }, "picked 1 of 1 alive devices"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := New(Config{
				Devices:  []Device{{Config: devConfig(t, hw.RTX4090, 4, 1)}, {Config: devConfig(t, hw.RTX4070Ti, 4, 2)}},
				Router:   pastEndRouter{tc.past},
				Strategy: mustStrategy("hedged"),
			})
			if err != nil {
				t.Fatal(err)
			}
			_, err = f.Run([]core.Request{{Problem: repeatedProblems(t, 1, 1)[0]}})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run err = %v, want one saying %q", err, tc.want)
			}
		})
	}
}
