package core

import (
	"slices"
	"testing"

	"fasttts/internal/kvcache"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/search"
)

// appendNodeRuns appends node's tokens as the one run {Stream(node), count}
// of its own, never merged into what dst holds (the solver cuts a beam's
// path at node boundaries by run index, and a run that ends where the next
// node's stream starts is still two nodes), and distinct nodes' value
// ranges are disjoint however long they are, past 4,096 tokens included.
func TestNodeRunsMatchTokenStream(t *testing.T) {
	nodes := []int{0, 1, 2, 3, 6, 7, 1001, 4096, 1<<20 - 1, 1 << 20, 1<<32 - 1}
	const maxCount = 10000
	for _, node := range nodes {
		first := kvcache.Stream(uint32(node))
		var dst []kvcache.Run
		if node > 0 {
			dst = append(dst, kvcache.Run{First: first - 5, N: 5}) // ends where node starts
		}
		for count := 0; count <= maxCount; count++ {
			runs := appendNodeRuns(slices.Clone(dst), node, count)
			want := append(slices.Clone(dst), kvcache.Run{First: first, N: count})
			if !slices.Equal(runs, want) {
				t.Fatalf("node %d count %d: runs = %+v, want %+v", node, count, runs, want)
			}
		}
	}
	// Node k's longest run covers [Stream(k), Stream(k)+maxCount): sorted
	// by node, every range ends before the next begins.
	for i := 1; i < len(nodes); i++ {
		prev := appendNodeRuns(nil, nodes[i-1], maxCount)[0]
		next := appendNodeRuns(nil, nodes[i], 1)[0]
		if prev.First+kvcache.Token(prev.N) > next.First {
			t.Errorf("node %d's %d tokens reach node %d's first value", nodes[i-1], prev.N, nodes[i])
		}
	}
}

// A node's run is never merged into the run before it, even one whose
// values end exactly where the node's stream begins.
func TestAppendNodeRunsKeepsNodeBoundary(t *testing.T) {
	prev := kvcache.Run{First: kvcache.Stream(5) - 4096, N: 4096}
	runs := appendNodeRuns([]kvcache.Run{prev}, 5, 10)
	if len(runs) != 2 || runs[1] != (kvcache.Run{First: kvcache.Stream(5), N: 10}) {
		t.Errorf("runs = %+v, want node 5 as its own run", runs)
	}
}

// Without prefix reuse a group that exactly fills capacity holds together:
// the next path starts a new group only when it would overflow.
func TestLengthGroupExactlyFillsCapacity(t *testing.T) {
	path := func(tokens int) sched.Path {
		return sched.Path{Lineage: []sched.NodeRef{{Tokens: tokens}}}
	}
	paths := []sched.Path{path(3), path(2), path(5), path(7), path(1)}
	got := appendLengthGroups(nil, paths, 5)
	if want := []int{2, 3, 4, 5}; !slices.Equal(got, want) {
		t.Errorf("group ends = %v, want %v", got, want)
	}
}

// A duplicate whose retained speculation truncates to zero tokens starts
// with nothing pending: no run, no lineage ref.
func TestZeroTokenRetentionLeavesNothingPending(t *testing.T) {
	s := &solver{reqState: reqState{cfg: &Config{}}} // TruncationRatio 0
	parent := &beam{specs: []specBranch{{node: 9, count: 1}}}
	child := &beam{specR: rng.Make(1)}
	s.seedChildPending(parent, child, 0)
	if len(child.pending) != 0 || len(child.pendingLin) != 0 || child.pendLen != 0 || s.specRetained != 0 {
		t.Errorf("pending %+v, lineage %+v, pendLen %d, retained %d; want none",
			child.pending, child.pendingLin, child.pendLen, s.specRetained)
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
	budget, err := cfg.KVBudget()
	if err != nil {
		b.Fatal(err)
	}
	s, err := newSolver(&cfg, budget, p, nil)
	if err != nil {
		b.Fatal(err)
	}
	s.begin()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.done() {
			if err := s.init(&cfg, budget, cfg.Policy, cfg.Strategy, p, nil); err != nil {
				b.Fatal(err)
			}
			s.begin()
		}
		if err := s.stepOnce(); err != nil {
			b.Fatal(err)
		}
	}
}
