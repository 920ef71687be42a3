package core

import (
	"math"
	"reflect"
	"sort"
	"testing"

	"fasttts/internal/hw"
	"fasttts/internal/metrics"
	"fasttts/internal/model"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// serveConfig is a small, fast deployment for serving tests.
func serveConfig(t *testing.T) Config {
	t.Helper()
	pol, err := search.New(search.BeamSearch, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	return testConfig(t, pol, FastTTSOptions())
}

// mixedProblems interleaves long AIME24 and short MATH500 requests: the
// heterogeneous service demands shortest-job scheduling exploits.
func mixedProblems(t *testing.T, n int) []*workload.Problem {
	t.Helper()
	aime := workload.NewDataset(workload.AIME24, rng.New(7))
	short := workload.NewDataset(workload.MATH500, rng.New(7))
	var out []*workload.Problem
	for i := 0; len(out) < n; i++ {
		out = append(out, aime.Problems[i%len(aime.Problems)])
		if len(out) < n {
			out = append(out, short.Problems[i])
		}
	}
	return out
}

func poissonRequests(t *testing.T, probs []*workload.Problem, rate float64, seed uint64) []Request {
	t.Helper()
	times := workload.PoissonArrivals(len(probs), rate, rng.New(seed).Child("arrivals"))
	reqs := make([]Request, len(probs))
	for i, p := range probs {
		reqs[i] = Request{Problem: p, Arrival: times[i]}
	}
	return reqs
}

func runServer(t *testing.T, cfg Config, pol sched.ServePolicy, reqs []Request) []ServedResult {
	t.Helper()
	srv, err := NewServerWithPolicy(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	served, err := srv.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return served
}

// TestServerFCFSMatchesSolveSingleRequest: on a single-request stream the
// multi-tenant engine must reproduce the sequential solver bit-for-bit.
func TestServerFCFSMatchesSolveSingleRequest(t *testing.T) {
	cfg := serveConfig(t)
	p := aimeProblem(t, 0)

	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Solve(p)
	if err != nil {
		t.Fatal(err)
	}

	served := runServer(t, cfg, sched.FCFS{}, []Request{{Problem: p, Arrival: 3.5}})
	if len(served) != 1 {
		t.Fatalf("served %d results, want 1", len(served))
	}
	sv := served[0]
	if !reflect.DeepEqual(sv.Result, want) {
		t.Errorf("served result differs from sequential solve:\n got %+v\nwant %+v", sv.Result, want)
	}
	if sv.Start != 3.5 || sv.QueueDelay != 0 {
		t.Errorf("start %v queue delay %v, want 3.5 and 0", sv.Start, sv.QueueDelay)
	}
	if got, want := sv.Finish, 3.5+want.Latency; math.Abs(got-want) > 1e-12 {
		t.Errorf("finish %v, want %v", got, want)
	}
	if sv.Slices != want.Iterations {
		t.Errorf("slices %d, want one per iteration (%d)", sv.Slices, want.Iterations)
	}
}

// TestServerFCFSMatchesSequentialStream: FCFS over a multi-request stream
// must equal the seed's strictly sequential loop (run each request to
// completion in arrival order, preempting speculation once the next
// request has arrived).
func TestServerFCFSMatchesSequentialStream(t *testing.T) {
	cfg := serveConfig(t)
	probs := mixedProblems(t, 4)
	reqs := []Request{
		{Problem: probs[0], Arrival: 0},
		{Problem: probs[1], Arrival: 2},
		{Problem: probs[2], Arrival: 2.5},
		{Problem: probs[3], Arrival: 400},
	}

	// The sequential reference, verbatim from the pre-multi-tenant server.
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []ServedResult
	now := 0.0
	for i, rq := range reqs {
		start := now
		if rq.Arrival > start {
			start = rq.Arrival
		}
		nextArrival := -1.0
		if i+1 < len(reqs) {
			nextArrival = reqs[i+1].Arrival
		}
		at := math.Inf(1) // the next arrival, on the request's own clock
		if nextArrival >= 0 {
			at = nextArrival - start
		}
		res, err := solveWithPreemption(r, rq.Problem, at)
		if err != nil {
			t.Fatal(err)
		}
		finish := start + res.Latency
		want = append(want, ServedResult{
			Result:  res,
			Arrival: rq.Arrival, Start: start, Finish: finish,
			QueueDelay: start - rq.Arrival,
		})
		now = finish
	}

	got := runServer(t, cfg, sched.FCFS{}, reqs)
	if len(got) != len(want) {
		t.Fatalf("served %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Result, want[i].Result) {
			t.Errorf("request %d: result differs from sequential reference", i)
		}
		if got[i].Start != want[i].Start || math.Abs(got[i].Finish-want[i].Finish) > 1e-9 {
			t.Errorf("request %d: start/finish (%v, %v), want (%v, %v)",
				i, got[i].Start, got[i].Finish, want[i].Start, want[i].Finish)
		}
		if got[i].QueueDelay != want[i].QueueDelay {
			t.Errorf("request %d: queue delay %v, want %v", i, got[i].QueueDelay, want[i].QueueDelay)
		}
	}
}

// TestServeTelemetryInvariants checks the queueing-telemetry invariants
// for every policy: Start ≥ Arrival, QueueDelay = Start − Arrival,
// WallLatency = Finish − Arrival, Finish monotone in completion order
// (the device is serial), and service time fits inside [Start, Finish].
func TestServeTelemetryInvariants(t *testing.T) {
	cfg := serveConfig(t)
	probs := mixedProblems(t, 12)
	reqs := poissonRequests(t, probs, 0.5, 11)
	for i := range reqs {
		reqs[i].Priority = i % 3
		if i%2 == 0 {
			reqs[i].Deadline = reqs[i].Arrival + 60
		}
	}
	for _, pol := range []sched.ServePolicy{sched.FCFS{}, sched.SJF{}, sched.Priority{}, sched.Deadline{}} {
		t.Run(pol.Name(), func(t *testing.T) {
			served := runServer(t, cfg, pol, reqs)
			if len(served) != len(reqs) {
				t.Fatalf("served %d of %d requests", len(served), len(reqs))
			}
			prevFinish := 0.0
			for i, sv := range served {
				if sv.Rejected {
					t.Fatalf("request %d rejected under accept-all policy", i)
				}
				if sv.Start < sv.Arrival {
					t.Errorf("request %d: Start %v < Arrival %v", i, sv.Start, sv.Arrival)
				}
				if got := sv.Start - sv.Arrival; sv.QueueDelay != got {
					t.Errorf("request %d: QueueDelay %v != Start-Arrival %v", i, sv.QueueDelay, got)
				}
				if got := sv.Finish - sv.Arrival; math.Abs(sv.WallLatency-got) > 1e-12 {
					t.Errorf("request %d: WallLatency %v != Finish-Arrival %v", i, sv.WallLatency, got)
				}
				if sv.Finish < prevFinish {
					t.Errorf("request %d: Finish %v not monotone (prev %v)", i, sv.Finish, prevFinish)
				}
				prevFinish = sv.Finish
				if span := sv.Finish - sv.Start; span < sv.Latency-1e-9 {
					t.Errorf("request %d: service time %v exceeds residency span %v", i, sv.Latency, span)
				}
				if sv.Slices < 1 {
					t.Errorf("request %d: %d slices", i, sv.Slices)
				}
			}
		})
	}
}

// TestSJFLowerMeanQueueDelay is the headline property: on a 32-request
// Poisson open-loop stream with heterogeneous service demands, shortest-
// job-first achieves strictly lower mean queue delay than FCFS.
func TestSJFLowerMeanQueueDelay(t *testing.T) {
	cfg := serveConfig(t)
	reqs := poissonRequests(t, mixedProblems(t, 32), 0.5, 11)

	fcfs := Stats(runServer(t, cfg, sched.FCFS{}, reqs), 0)
	sjf := Stats(runServer(t, cfg, sched.SJF{}, reqs), 0)
	if sjf.MeanQueueDelay >= fcfs.MeanQueueDelay {
		t.Errorf("SJF mean queue delay %.3f not strictly below FCFS %.3f",
			sjf.MeanQueueDelay, fcfs.MeanQueueDelay)
	}
}

// TestPriorityPolicyServesHighFirst: in a simultaneous burst, strictly
// higher priorities start (and finish) first.
func TestPriorityPolicyServesHighFirst(t *testing.T) {
	cfg := serveConfig(t)
	probs := mixedProblems(t, 4)
	reqs := make([]Request, len(probs))
	for i, p := range probs {
		reqs[i] = Request{Problem: p, Priority: i, Tag: i} // later requests more urgent
	}
	served := runServer(t, cfg, sched.Priority{}, reqs)
	// Completion order must be descending priority: 3, 2, 1, 0.
	for i, sv := range served {
		if wantIdx := len(reqs) - 1 - i; sv.Tag != wantIdx {
			t.Errorf("completion %d served input index %d, want %d", i, sv.Tag, wantIdx)
		}
	}
}

// TestDeadlinePolicyEDF: with arrivals in a burst, earlier deadlines are
// served first and no-deadline requests run last.
func TestDeadlinePolicyEDF(t *testing.T) {
	cfg := serveConfig(t)
	probs := mixedProblems(t, 4)
	reqs := []Request{
		{Problem: probs[0], Tag: 0},                // no deadline: runs last
		{Problem: probs[1], Tag: 1, Deadline: 300}, // third
		{Problem: probs[2], Tag: 2, Deadline: 100}, // first
		{Problem: probs[3], Tag: 3, Deadline: 200}, // second
	}
	served := runServer(t, cfg, sched.Deadline{}, reqs)
	wantOrder := []int{2, 3, 1, 0}
	for i, sv := range served {
		if sv.Tag != wantOrder[i] {
			t.Errorf("completion %d served input index %d, want %d", i, sv.Tag, wantOrder[i])
		}
	}
}

// TestAdmissionLimitShedsLoad: a burst beyond MaxInFlight is rejected and
// reported, and shed requests carry no Result.
func TestAdmissionLimitShedsLoad(t *testing.T) {
	cfg := serveConfig(t)
	probs := mixedProblems(t, 6)
	reqs := make([]Request, len(probs))
	for i, p := range probs {
		reqs[i] = Request{Problem: p} // all arrive at t=0
	}
	pol := sched.AdmissionLimit{Inner: sched.FCFS{}, MaxInFlight: 2}
	served := runServer(t, cfg, pol, reqs)
	if len(served) != len(reqs) {
		t.Fatalf("got %d results, want %d", len(served), len(reqs))
	}
	rejected := 0
	for _, sv := range served {
		if sv.Rejected {
			rejected++
			if sv.Result != nil {
				t.Error("rejected request carries a Result")
			}
		} else if sv.Result == nil {
			t.Error("served request missing its Result")
		}
	}
	if rejected != 4 {
		t.Errorf("rejected %d of a 6-burst with MaxInFlight=2, want 4", rejected)
	}
}

// TestClosedLoopGatesArrivals: under a fixed-concurrency closed loop,
// request k (beyond the initial window) arrives exactly think seconds
// after the (k−C)-th completion.
func TestClosedLoopGatesArrivals(t *testing.T) {
	cfg := serveConfig(t)
	probs := mixedProblems(t, 6)
	const conc, think = 2, 1.5
	srv, err := NewServerWithPolicy(cfg, sched.FCFS{})
	if err != nil {
		t.Fatal(err)
	}
	served, err := srv.RunClosedLoop(probs, workload.ClosedLoop{Concurrency: conc, Think: think})
	if err != nil {
		t.Fatal(err)
	}
	if len(served) != len(probs) {
		t.Fatalf("served %d of %d closed-loop requests", len(served), len(probs))
	}
	finishes := make([]float64, len(served)) // completion order
	for i, sv := range served {
		finishes[i] = sv.Finish
	}
	arrivals := make([]float64, len(served))
	for i, sv := range served {
		arrivals[i] = sv.Arrival
	}
	sort.Float64s(arrivals)
	for k := 0; k < len(arrivals); k++ {
		if k < conc {
			if arrivals[k] != 0 {
				t.Errorf("initial request %d arrives at %v, want 0", k, arrivals[k])
			}
			continue
		}
		want := finishes[k-conc] + think
		if math.Abs(arrivals[k]-want) > 1e-9 {
			t.Errorf("request %d arrives at %v, want completion %d + think = %v",
				k, arrivals[k], k-conc, want)
		}
	}
}

// TestClosedLoopSurvivesAdmissionRejection: a rejection must not retire
// a closed-loop client slot — the client issues its next request after
// its think time, so every problem in the stream is eventually reported
// (served or rejected) even when MaxInFlight < Concurrency.
func TestClosedLoopSurvivesAdmissionRejection(t *testing.T) {
	cfg := serveConfig(t)
	probs := mixedProblems(t, 6)
	pol := sched.AdmissionLimit{Inner: sched.FCFS{}, MaxInFlight: 2}
	srv, err := NewServerWithPolicy(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	// Think must exceed typical service time so capacity frees up between
	// a client's rejection and its next attempt.
	served, err := srv.RunClosedLoop(probs, workload.ClosedLoop{Concurrency: 3, Think: 25})
	if err != nil {
		t.Fatal(err)
	}
	if len(served) != len(probs) {
		t.Fatalf("reported %d of %d requests (rejected clients must keep issuing)", len(served), len(probs))
	}
	servedN, rejectedN := 0, 0
	for _, sv := range served {
		if sv.Rejected {
			rejectedN++
		} else {
			servedN++
		}
	}
	if rejectedN == 0 {
		t.Error("expected at least one rejection with MaxInFlight 2 < Concurrency 3")
	}
	if servedN < 3 {
		t.Errorf("served only %d requests; freed capacity should re-admit fed requests", servedN)
	}
}

// TestServerDeterminism: equal seeds give bit-identical served streams,
// for every policy.
func TestServerDeterminism(t *testing.T) {
	cfg := serveConfig(t)
	reqs := poissonRequests(t, mixedProblems(t, 8), 0.5, 11)
	for _, mk := range []func() sched.ServePolicy{
		func() sched.ServePolicy { return sched.FCFS{} },
		func() sched.ServePolicy { return sched.SJF{} },
	} {
		a := runServer(t, cfg, mk(), reqs)
		b := runServer(t, cfg, mk(), reqs)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("policy %s: repeated runs differ", mk().Name())
		}
	}
}

func BenchmarkServePoisson(b *testing.B) {
	pol, err := search.New(search.BeamSearch, 8, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		GPU:            hw.RTX4090,
		Generator:      model.Qwen25Math1_5B,
		GenSkill:       workload.SkillQwen1_5B,
		Verifier:       model.SkyworkPRM1_5B,
		VerSkill:       workload.SkillSkywork1_5B,
		MemoryFraction: 0.4,
		Policy:         pol,
		Opts:           FastTTSOptions(),
		Seed:           42,
	}
	aime := workload.NewDataset(workload.AIME24, rng.New(7))
	times := workload.PoissonArrivals(8, 0.5, rng.New(11).Child("arrivals"))
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Problem: aime.Problems[i], Arrival: times[i]}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := NewServerWithPolicy(cfg, sched.SJF{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := srv.Run(reqs); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStatsDegenerateStreams locks the engine-level zero-value contract:
// empty and all-rejected served streams reduce to zero-valued, finite
// aggregates (the public Server.Stats and FleetRun.Stats contracts build
// on this one).
func TestStatsDegenerateStreams(t *testing.T) {
	rej := func(at float64) ServedResult {
		return ServedResult{Arrival: at, Start: at, Finish: at, Rejected: true}
	}
	cases := []struct {
		name   string
		served []ServedResult
		slo    float64
		want   metrics.ServeStats
	}{
		{name: "nil no SLO", want: metrics.ServeStats{SLOAttainment: 1}},
		{name: "nil with SLO", slo: 5, want: metrics.ServeStats{SLOAttainment: 1}},
		{
			name:   "all rejected with SLO",
			served: []ServedResult{rej(0), rej(1)},
			slo:    5,
			want:   metrics.ServeStats{Rejected: 2, SLOAttainment: 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := Stats(tc.served, tc.slo)
			if got != tc.want {
				t.Errorf("got %+v\nwant %+v", got, tc.want)
			}
			v := reflect.ValueOf(got)
			for i := 0; i < v.NumField(); i++ {
				if v.Field(i).Kind() == reflect.Float64 {
					if x := v.Field(i).Float(); math.IsNaN(x) || math.IsInf(x, 0) {
						t.Errorf("field %s = %v, want finite", v.Type().Field(i).Name, x)
					}
				}
			}
		})
	}
}
