package core

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"fasttts/internal/metrics"
	"fasttts/internal/sched"
)

// TestServedResultsDoNotAlias: the Results a run hands out share chunks
// of its result store, never elements. Appending to one result's
// Finished, or writing over it, leaves every later result as it was; each
// Finished is cut with cap == len; a request that finished no path reads
// an empty, non-nil Finished, as it did when every request allocated its
// own; and Runner.Solve calls, concurrent ones included, share nothing.
func TestServedResultsDoNotAlias(t *testing.T) {
	t.Run("served", func(t *testing.T) {
		served := runServer(t, serveConfig(t), sched.FCFS{}, poissonRequests(t, mixedProblems(t, 12), 0.5, 3))
		var rs []*Result
		for _, sv := range served {
			if sv.Result != nil {
				rs = append(rs, sv.Result)
			}
		}
		if len(rs) < 2 {
			t.Fatalf("served %d results, want several", len(rs))
		}
		checkNoAlias(t, rs)
	})
	t.Run("no path", func(t *testing.T) {
		s, err := newTestSolver(serveConfig(t), aimeProblem(t, 0), nil)
		if err != nil {
			t.Fatal(err)
		}
		s.begin()
		s.abandon()
		var st resultStore
		res, err := s.result(&st)
		if err != nil {
			t.Fatal(err)
		}
		if res.Finished == nil || len(res.Finished) != 0 {
			t.Errorf("no finished path: Finished = %#v, want empty and non-nil", res.Finished)
		}
	})
	t.Run("runner", func(t *testing.T) {
		r, err := NewRunner(serveConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		a, err := r.Solve(aimeProblem(t, 0))
		if err != nil {
			t.Fatal(err)
		}
		b, err := r.Solve(aimeProblem(t, 1))
		if err != nil {
			t.Fatal(err)
		}
		checkNoAlias(t, []*Result{a, b})
	})
	t.Run("runner shared by goroutines", func(t *testing.T) {
		r, err := NewRunner(serveConfig(t))
		if err != nil {
			t.Fatal(err)
		}
		const n = 4
		var got [n]*Result
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := r.Solve(aimeProblem(t, i))
				if err != nil {
					t.Error(err)
				}
				got[i] = res
			}()
		}
		wg.Wait()
		for i := range n {
			if want := solveOne(t, serveConfig(t), aimeProblem(t, i)); !reflect.DeepEqual(got[i], want) {
				t.Errorf("problem %d solved concurrently differs from a lone solve", i)
			}
		}
		checkNoAlias(t, got[:])
	})
}

// checkNoAlias clobbers each result in turn — its Finished appended to
// and overwritten, then the Result itself — and checks every later one
// against a deep copy taken before.
func checkNoAlias(t *testing.T, rs []*Result) {
	t.Helper()
	want := make([]Result, len(rs))
	for i, r := range rs {
		want[i] = *r
		want[i].Finished = slices.Clone(r.Finished)
	}
	for i, r := range rs {
		if cap(r.Finished) != len(r.Finished) {
			t.Errorf("result %d: Finished has len %d, cap %d", i, len(r.Finished), cap(r.Finished))
		}
		_ = append(r.Finished, metrics.PathResult{BeamID: -1})
		for k := range r.Finished {
			r.Finished[k] = metrics.PathResult{BeamID: -2}
		}
		*r = Result{Iterations: -3}
		for j := i + 1; j < len(rs); j++ {
			if !reflect.DeepEqual(*rs[j], want[j]) {
				t.Fatalf("clobbering result %d changed result %d:\n got %+v\nwant %+v", i, j, *rs[j], want[j])
			}
		}
	}
}
