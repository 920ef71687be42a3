package core

// The safety net under solver recycling: a Loop hands every request a
// retired solver re-initialised in place, and nothing observable may depend
// on it. The tests here serve the same streams with recycling on, with
// recycling defeated, and on Runner.Solve's fresh stack per problem, and
// demand deep-equal results; then pin how little a warm Loop allocates.

import (
	"math"
	"reflect"
	"testing"

	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// poolCases are the deployments the differential tests run on: the
// benchmark's own setting, a narrow time-sliced one (several solvers in
// flight at once), the baseline options (random order, no generator prefix
// cache, static split — the other branch of every scheduling `if`), and
// chain-of-thought (one mega-step per request).
func poolCases(t *testing.T) []struct {
	name string
	cfg  Config
	pol  sched.ServePolicy
} {
	t.Helper()
	beam := func(n int, opts Options) Config {
		pol, err := search.New(search.BeamSearch, n, 4)
		if err != nil {
			t.Fatal(err)
		}
		return testConfig(t, pol, opts)
	}
	return []struct {
		name string
		cfg  Config
		pol  sched.ServePolicy
	}{
		{"beam64-fasttts-fcfs", beam(64, FastTTSOptions()), sched.FCFS{}},
		{"beam8-fasttts-sjf", beam(8, FastTTSOptions()), sched.SJF{}},
		{"beam8-baseline-fcfs", beam(8, BaselineOptions()), sched.FCFS{}},
		{"cot-fcfs", cotConfig(t, 42), sched.FCFS{}},
	}
}

// playMixedStream serves one scripted stream on a fresh Loop and returns
// everything it produced. The stream mixes every way a session can end —
// completion at full and narrowed width, first-finish satisfaction, a
// deadline cut, a Cancel of a live session (of an admitted one under
// chain-of-thought, whose requests never stay live across steps), and
// arrivals requeued from a sibling loop that fail-stopped mid-request — so
// a recycled solver follows each of them. The loop is stepped in short horizons chosen from its own
// clock (identical in both runs as long as the runs are); with defeat set,
// the free list is emptied after every step, so a request that starts in a
// later step gets a newly built stack.
func playMixedStream(t *testing.T, cfg Config, pol sched.ServePolicy, defeat bool) (out []ServedResult, reused bool) {
	t.Helper()
	srv, err := NewServerWithPolicy(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	probs := mixedProblems(t, 14)
	const cancelTag = 5

	// The sibling device: two requests, stopped while the first is live
	// (chain-of-thought serves a request in one slice, so there the first
	// has completed and only the second is withdrawn).
	sib := srv.NewLoop([]Request{{Problem: probs[12], Tag: 12}, {Problem: probs[13], Tag: 13}})
	done, err := sib.StepTo(0.2)
	if err != nil {
		t.Fatal(err)
	}
	withdrawn := sib.Fail()
	if len(withdrawn) == 0 || len(withdrawn)+len(done) != 2 {
		t.Fatalf("sibling served %d and fail-stop withdrew %d of 2 requests", len(done), len(withdrawn))
	}
	for _, c := range sib.sessions {
		if c.solver != nil {
			t.Error("fail-stop left a session holding its solver")
		}
	}

	reqs := []Request{
		{Problem: probs[0], Arrival: 0, Tag: 0},
		{Problem: probs[1], Arrival: 0.4, Tag: 1}, // lands mid-slice: preempts speculation
		{Problem: probs[2], Arrival: 1, Tag: 2, Width: 4},
		{Problem: probs[3], Arrival: 1.5, Tag: 3, Strategy: search.FirstFinish{K: 2}},
		{Problem: probs[4], Arrival: 2, Tag: 4, Strategy: search.DeadlineCut{}, Deadline: 2.5},
		{Problem: probs[5], Arrival: 2.5, Tag: cancelTag},
		{Problem: probs[6], Arrival: 3, Tag: 6},
		{Problem: probs[7], Arrival: 3, Tag: 7, Priority: 2},
		{Problem: probs[8], Arrival: 400, Tag: 8}, // the device idles first
		{Problem: probs[9], Arrival: 400, Tag: 9, Width: 4, Strategy: search.FirstFinish{K: 1}},
		{Problem: probs[10], Arrival: 401, Tag: 10},
		{Problem: probs[11], Arrival: 900, Tag: 11},
	}
	l := srv.NewLoop(reqs)
	for _, rq := range withdrawn {
		rq.Arrival = 4
		l.Push(rq)
	}
	cancelled := false
	for steps := 0; !l.Idle(); steps++ {
		if steps > 100000 {
			t.Fatal("loop does not drain")
		}
		wake, _ := l.Wake()
		res, err := l.StepTo(math.Max(wake, l.Now()) + 0.3)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res...)
		for _, c := range l.sessions {
			multiSlice := cfg.Policy.UsesVerifier()
			if !cancelled && c.req.Tag == cancelTag && c.started == multiSlice {
				if started, ok := l.Cancel(cancelTag); started != multiSlice || !ok {
					t.Fatalf("Cancel(%d) = (%v, %v), want (%v, true)", cancelTag, started, ok, multiSlice)
				}
				cancelled = true
				break
			}
		}
		reused = reused || len(l.freeSolvers) > 0
		if defeat {
			l.freeSolvers = nil
		}
	}
	if !cancelled {
		t.Fatal("the request to cancel was never caught in flight")
	}
	return out, reused
}

func TestPooledLoopMatchesFreshStacks(t *testing.T) {
	for _, tc := range poolCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			pooled, reused := playMixedStream(t, tc.cfg, tc.pol, false)
			fresh, _ := playMixedStream(t, tc.cfg, tc.pol, true)
			if !reused {
				t.Fatal("no solver was ever retired: the pooled run recycled nothing")
			}
			// 12 own requests less the cancelled one, plus the one or two
			// the sibling's fail-stop requeued.
			if len(pooled) < 12 || len(fresh) != len(pooled) {
				t.Fatalf("pooled run served %d results, fresh run %d, want 12 or 13 of each", len(pooled), len(fresh))
			}
			cut := false
			for i := range pooled {
				a, b := pooled[i], fresh[i]
				if !reflect.DeepEqual(a, b) {
					t.Errorf("result %d (tag %d) differs:\n pooled %+v %+v\n fresh  %+v %+v",
						i, a.Tag, servedSummary(a), a.Result, servedSummary(b), b.Result)
				}
				cut = cut || (a.Tag == 4 && a.Result.Abandoned > 0)
			}
			if tc.cfg.Policy.UsesVerifier() && !cut {
				t.Error("the deadline request was not cut mid-solve")
			}
		})
	}
}

// With arrivals spaced so requests never overlap, each request served on the
// Loop's recycled solver must equal Runner.Solve on a fresh stack — paths,
// scores, latency breakdown, cache stats, speculation counters and all.
func TestPooledLoopMatchesRunnerSolve(t *testing.T) {
	for _, tc := range poolCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			probs := mixedProblems(t, 8)
			var reqs []Request
			for i, p := range probs {
				reqs = append(reqs, Request{Problem: p, Arrival: 1000 * float64(i), Tag: i})
			}
			reqs[2].Width = 4
			reqs[3].Strategy = search.FirstFinish{K: 2}
			reqs[5].Width, reqs[5].Strategy = 4, search.FirstFinish{K: 1}
			served := runServer(t, tc.cfg, tc.pol, reqs)
			if len(served) != len(reqs) {
				t.Fatalf("served %d of %d", len(served), len(reqs))
			}
			for i, sv := range served {
				rq := reqs[sv.Tag]
				cfg := tc.cfg
				cfg.Strategy = rq.Strategy
				if sv.Width != cfg.Policy.Width() {
					if cfg.Policy, _ = search.WithWidth(cfg.Policy, sv.Width); cfg.Policy == nil {
						t.Fatalf("cannot narrow to width %d", sv.Width)
					}
				}
				if want := solveOne(t, cfg, rq.Problem); !reflect.DeepEqual(sv.Result, want) {
					t.Errorf("request %d (tag %d): recycled solver\n got %+v\nwant %+v", i, sv.Tag, sv.Result, want)
				}
				if sv.Slices != sv.Result.Iterations {
					t.Errorf("request %d: %d slices for %d iterations", i, sv.Slices, sv.Result.Iterations)
				}
			}
		})
	}
}

// One 64-beam MATH500 request (problem 17 of the rng.New(7) deck, FastTTS
// options) served over and over on one Loop. When every request built two
// engines, two caches and every beam anew, each serve cost 5,373
// allocations. Recycled, the first serve costs a few hundred while the
// pools grow and a warm one 29: two per search iteration inside the search
// policy's Select (sortByScore's copy and the branch slice), the rest the
// Result, its paths, the session and the served slice. The pin leaves a
// little room above that count, so a new per-request allocator shows.
func TestWarmLoopAllocsPerRequest(t *testing.T) {
	const parentAllocs, pin = 5373, 35
	pol, err := search.New(search.BeamSearch, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(testConfig(t, pol, FastTTSOptions()))
	if err != nil {
		t.Fatal(err)
	}
	p := workload.NewDataset(workload.MATH500, rng.New(7)).Problems[17]
	l := srv.NewLoop(nil)
	serve := func() {
		l.Push(Request{Problem: p, Arrival: l.Now()})
		if out, err := l.StepTo(NoHorizon); err != nil || len(out) != 1 {
			t.Fatalf("served %d results, err %v", len(out), err)
		}
	}
	for i := 0; i < 30; i++ {
		serve() // the first builds the stack; the pools settle over the next few
	}
	got := testing.AllocsPerRun(5, serve)
	t.Logf("%v allocations per warm request (parent: %d)", got, parentAllocs)
	if got > pin {
		t.Errorf("warm request allocates %v times, want at most %d", got, pin)
	}
}
