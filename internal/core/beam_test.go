package core

import (
	"testing"

	"fasttts/internal/kvcache"
	"fasttts/internal/rng"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// appendNodeRuns must emit the exact value stream the token-by-token
// k<<tokenShift | j materialization produced, including its overflow into
// the node bits past 4096 tokens: cache sharing and collisions — hence
// every golden — depend on those values.
func TestNodeRunsMatchTokenStream(t *testing.T) {
	for _, node := range []int{0, 1, 2, 3, 6, 7, 1001, 4096, 1<<20 - 1} {
		for _, count := range []int{0, 1, 4095, 4096, 4097, 4800, 10000} {
			runs := appendNodeRuns(nil, node, count)
			j := 0
			for _, r := range runs {
				if r.N <= 0 {
					t.Fatalf("node %d count %d: empty run %+v", node, count, r)
				}
				for k := 0; k < r.N; k, j = k+1, j+1 {
					want := kvcache.Token(node)<<tokenShift | kvcache.Token(j)
					if got := r.First + kvcache.Token(k); got != want {
						t.Fatalf("node %d count %d: token %d = %#x, want %#x", node, count, j, got, want)
					}
				}
			}
			if j != count {
				t.Fatalf("node %d count %d: runs expand to %d tokens", node, count, j)
			}
			// One run per 4096-token chunk, merged where adjacent: an even
			// node's first two chunks are contiguous, an odd node's alias.
			if count == 4800 && len(runs) != 1+node%2 {
				t.Errorf("node %d count 4800: %d runs, want %d", node, len(runs), 1+node%2)
			}
		}
	}
}

// appendNodeRuns never merges into a run that was already in dst, even a
// contiguous one: the solver cuts a beam's path at node boundaries by run
// index.
func TestAppendNodeRunsKeepsNodeBoundary(t *testing.T) {
	runs := appendNodeRuns(appendNodeRuns(nil, 4, 4096), 5, 10)
	if len(runs) != 2 || runs[1] != (kvcache.Run{First: 5 << tokenShift, N: 10}) {
		t.Errorf("runs = %+v, want node 5 as its own run", runs)
	}
}

// BenchmarkSolverIteration times one search iteration (allocate → generate
// → verify → select) of a 64-beam FastTTS solve. When a solve finishes the
// next starts the way a Loop starts it: on the finished solver,
// re-initialised in place.
func BenchmarkSolverIteration(b *testing.B) {
	pol, err := search.New(search.BeamSearch, 64, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := testConfig(b, pol, FastTTSOptions())
	p := aimeProblem(b, 0)
	s, err := newSolver(cfg, p, nil)
	if err != nil {
		b.Fatal(err)
	}
	s.begin()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.done() {
			if err := s.init(cfg, p, nil); err != nil {
				b.Fatal(err)
			}
			s.begin()
		}
		if err := s.stepOnce(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeBeam64 is the solver-beam workload in miniature: one
// Server.Run over 50 MATH500 requests at n=64 with the FastTTS options, so
// all but the first request run on a recycled solver. `make profile-solver`
// profiles it.
func BenchmarkServeBeam64(b *testing.B) {
	pol, err := search.New(search.BeamSearch, 64, 4)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := NewServer(testConfig(b, pol, FastTTSOptions()))
	if err != nil {
		b.Fatal(err)
	}
	probs := workload.NewDataset(workload.MATH500, rng.New(7)).Problems
	reqs := make([]Request, 50)
	for i := range reqs {
		reqs[i] = Request{Problem: probs[i], Arrival: 40 * float64(i), Tag: i}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		served, err := srv.Run(reqs)
		if err != nil || len(served) != len(reqs) {
			b.Fatalf("served %d of %d, err %v", len(served), len(reqs), err)
		}
	}
}
