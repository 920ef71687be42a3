package fasttts

// Direct table tests for result.go: wrapResult's field mapping, the
// voting/ranking accessors, and Summarize's aggregation.

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"fasttts/internal/core"
)

func coreResult(latency, goodput float64, paths ...Path) *core.Result {
	return &core.Result{
		Finished:         paths,
		Latency:          latency,
		GenTime:          latency * 0.6,
		VerTime:          latency * 0.3,
		TransferTime:     latency * 0.1,
		Goodput:          goodput,
		Iterations:       7,
		TokensDecoded:    1000,
		SpecTokens:       200,
		SpecRetained:     150,
		RecomputedTokens: 30,
	}
}

func TestWrapResultFieldMapping(t *testing.T) {
	inner := coreResult(40, 512.5,
		Path{BeamID: 0, Steps: 4, Tokens: 900, Answer: 0, Score: 0.8, CompletedAt: 31},
		Path{BeamID: 1, Steps: 5, Tokens: 1100, Answer: 3, Score: 0.4, CompletedAt: 39},
	)
	res := wrapResult(inner)
	if res.Latency != 40 || res.Goodput != 512.5 || res.Iterations != 7 {
		t.Errorf("headline fields: %+v", res)
	}
	if got := res.GenLatency + res.VerLatency + res.TransferLatency; math.Abs(got-res.Latency) > 1e-9 {
		t.Errorf("latency components sum to %v, want %v", got, res.Latency)
	}
	if res.SpecTokens != 200 || res.SpecRetained != 150 || res.RecomputedTokens != 30 {
		t.Errorf("token counters: %+v", res)
	}
	if len(res.Paths) != 2 {
		t.Fatalf("%d paths, want 2", len(res.Paths))
	}
	want := Path{BeamID: 1, Tokens: 1100, Steps: 5, Answer: 3, Score: 0.4, CompletedAt: 39}
	if res.Paths[1] != want {
		t.Errorf("path 1 = %+v, want %+v", res.Paths[1], want)
	}
	if &res.Paths[0] != &inner.Finished[0] {
		t.Error("Paths copies the solver's Finished instead of sharing it")
	}
	if none := wrapResult(coreResult(10, 0, []Path{}...)); none.Paths != nil {
		t.Errorf("no finished path: Paths = %#v, want nil", none.Paths)
	}
}

func TestResultVotingAccessors(t *testing.T) {
	cases := []struct {
		name     string
		paths    []Path
		wantTop1 bool
		wantPass map[int]bool
	}{
		{
			name: "majority correct",
			paths: []Path{
				{Answer: 0, Score: 0.6}, {Answer: 0, Score: 0.5}, {Answer: 2, Score: 0.9},
			},
			wantTop1: true,
			wantPass: map[int]bool{1: false, 2: true, 3: true},
		},
		{
			name: "majority wrong but top-scored correct",
			paths: []Path{
				{Answer: 5, Score: 0.3}, {Answer: 5, Score: 0.2}, {Answer: 0, Score: 0.9},
			},
			wantTop1: false,
			wantPass: map[int]bool{1: true, 3: true},
		},
		{
			name:     "no paths",
			wantTop1: false,
			wantPass: map[int]bool{1: false},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := wrapResult(coreResult(10, 100, tc.paths...))
			if got := res.Top1Correct(); got != tc.wantTop1 {
				t.Errorf("Top1Correct = %v, want %v", got, tc.wantTop1)
			}
			for n, want := range tc.wantPass {
				if got := res.PassAtN(n); got != want {
					t.Errorf("PassAtN(%d) = %v, want %v", n, got, want)
				}
			}
		})
	}
}

func TestSummarizeTable(t *testing.T) {
	correct := coreResult(20, 400, Path{Answer: 0, Score: 0.9})
	wrong := coreResult(60, 200, Path{Answer: 4, Score: 0.9})
	s := Summarize([]*Result{wrapResult(correct), wrapResult(wrong)})
	if s.Problems != 2 {
		t.Errorf("Problems = %d, want 2", s.Problems)
	}
	if s.Top1Accuracy != 50 {
		t.Errorf("Top1Accuracy = %v, want 50", s.Top1Accuracy)
	}
	if s.MeanLatency != 40 || s.MeanGoodput != 300 {
		t.Errorf("means: latency %v goodput %v, want 40/300", s.MeanLatency, s.MeanGoodput)
	}
	if s.MeanGenTime != 24 || s.MeanVerTime != 12 {
		t.Errorf("component means: gen %v ver %v, want 24/12", s.MeanGenTime, s.MeanVerTime)
	}
	if s.TotalSpec != 400 || s.TotalRetained != 300 {
		t.Errorf("speculation totals: %d/%d, want 400/300", s.TotalSpec, s.TotalRetained)
	}
}

func TestSummarizeEmptyTable(t *testing.T) {
	s := Summarize(nil)
	if s != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero value", s)
	}
}

// TestServedResultsDoNotAlias: a served run's public Results come from one
// batch and their Paths from the engine's shared chunks, yet no two share
// an element. Appending to one result's Paths, or writing over it, leaves
// every later result as it was, on Server.Run, RunClosedLoop and
// Cluster.Run alike; each Paths is cut with cap == len, and a request with
// no path still reads nil Paths. Two System.Solve results share nothing.
// Every entry point's Results name the caller's own problem.
func TestServedResultsDoNotAlias(t *testing.T) {
	cfg := Config{GPU: "RTX 4090", NumBeams: 8, Seed: 42}
	probs := clusterProblems(t, 10, 10)
	reqs := PoissonRequests(probs, 0.5, 11)
	t.Run("server", func(t *testing.T) {
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		served, err := srv.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		var rs []*Result
		for _, sv := range served {
			if sv.Result != nil {
				checkProblem(t, sv.Result, reqs[sv.Tag].Problem)
				rs = append(rs, sv.Result)
			}
		}
		checkPublicNoAlias(t, rs)
	})
	t.Run("closed-loop", func(t *testing.T) {
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		served, err := srv.RunClosedLoop(probs, 3, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		var rs []*Result
		for _, sv := range served {
			if sv.Result != nil {
				checkProblem(t, sv.Result, probs[sv.Tag])
				rs = append(rs, sv.Result)
			}
		}
		checkPublicNoAlias(t, rs)
	})
	t.Run("cluster", func(t *testing.T) {
		cl, err := NewCluster(ClusterConfig{
			Devices: []DeviceSpec{fleetSpec("RTX 4090", 42), fleetSpec("RTX 4070 Ti", 43)},
			Router:  "rr",
		})
		if err != nil {
			t.Fatal(err)
		}
		run, err := cl.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		var rs []*Result
		for _, r := range run.Results {
			if r.Result != nil {
				checkProblem(t, r.Result, reqs[r.Tag].Problem)
				rs = append(rs, r.Result)
			}
		}
		checkPublicNoAlias(t, rs)
	})
	t.Run("solve", func(t *testing.T) {
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sys.Solve(probs[0])
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys.Solve(probs[1])
		if err != nil {
			t.Fatal(err)
		}
		checkProblem(t, a, probs[0])
		checkProblem(t, b, probs[1])
		checkPublicNoAlias(t, []*Result{a, b})
	})
}

// checkProblem checks that r names the problem the caller asked, want.
func checkProblem(t *testing.T, r *Result, want *Problem) {
	t.Helper()
	if r.Problem != want {
		t.Errorf("Result.Problem = %p (%v), want the caller's %p", r.Problem, r.Problem, want)
	}
}

// checkPublicNoAlias clobbers each result in turn — its Paths appended to
// and overwritten, then the Result itself — and checks every later one
// against a deep copy taken before.
func checkPublicNoAlias(t *testing.T, rs []*Result) {
	t.Helper()
	if len(rs) < 2 {
		t.Fatalf("%d results, want several", len(rs))
	}
	want := make([]Result, len(rs))
	for i, r := range rs {
		if r.Paths != nil && len(r.Paths) == 0 {
			t.Errorf("result %d: empty Paths not nil", i)
		}
		want[i] = *r
		want[i].Paths = slices.Clone(r.Paths)
	}
	for i, r := range rs {
		if cap(r.Paths) != len(r.Paths) {
			t.Errorf("result %d: Paths has len %d, cap %d", i, len(r.Paths), cap(r.Paths))
		}
		_ = append(r.Paths, Path{BeamID: -1})
		for k := range r.Paths {
			r.Paths[k] = Path{BeamID: -2}
		}
		*r = Result{Iterations: -3}
		for j := i + 1; j < len(rs); j++ {
			if !reflect.DeepEqual(*rs[j], want[j]) {
				t.Fatalf("clobbering result %d changed result %d:\n got %+v\nwant %+v", i, j, *rs[j], want[j])
			}
		}
	}
}
