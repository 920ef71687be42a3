package sched

import (
	"math"
	"testing"
	"testing/quick"

	"fasttts/internal/rng"
)

// randomTree builds a random reasoning-tree genealogy of nPaths paths.
func randomTree(r *rng.Stream, nPaths int) []Path {
	nodeID := 0
	newNode := func() NodeRef {
		nodeID++
		return NodeRef{Node: nodeID, Tokens: r.IntN(60) + 5}
	}
	lineages := [][]NodeRef{{{Node: 0, Tokens: 50}, newNode()}}
	for len(lineages) < nPaths {
		parent := lineages[r.IntN(len(lineages))]
		child := append(append([]NodeRef{}, parent...), newNode())
		lineages = append(lineages, child)
	}
	paths := make([]Path, len(lineages))
	for i, l := range lineages {
		paths[i] = Path{ID: i, Lineage: l}
	}
	return paths
}

func TestSharedPrefixBasics(t *testing.T) {
	a := Path{ID: 0, Lineage: []NodeRef{{0, 50}, {1, 10}, {2, 20}}}
	b := Path{ID: 1, Lineage: []NodeRef{{0, 50}, {1, 10}, {3, 30}}}
	c := Path{ID: 2, Lineage: []NodeRef{{0, 50}, {4, 5}}}
	if got := SharedPrefixTokens(a, b); got != 60 {
		t.Errorf("P(a,b) = %d, want 60", got)
	}
	if got := SharedPrefixTokens(a, c); got != 50 {
		t.Errorf("P(a,c) = %d, want 50", got)
	}
	if SharedPrefixTokens(a, b) != SharedPrefixTokens(b, a) {
		t.Error("shared prefix not symmetric")
	}
	if got := SharedPrefixTokens(a, a); got != a.TotalTokens() {
		t.Errorf("P(a,a) = %d, want %d", got, a.TotalTokens())
	}
}

// Shared prefix on a tree is an ultrametric-like similarity:
// P(a,c) >= min(P(a,b), P(b,c)).
func TestSharedPrefixUltrametric(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		paths := randomTree(r, 12)
		for i := 0; i < 30; i++ {
			a := paths[r.IntN(len(paths))]
			b := paths[r.IntN(len(paths))]
			c := paths[r.IntN(len(paths))]
			ab, bc, ac := SharedPrefixTokens(a, b), SharedPrefixTokens(b, c), SharedPrefixTokens(a, c)
			lo := ab
			if bc < lo {
				lo = bc
			}
			if ac < lo {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyInvariant(t *testing.T) {
	r := rng.New(3)
	paths := randomTree(r, 20)
	out := GreedyOrder(paths)
	if len(out) != len(paths) {
		t.Fatalf("greedy lost paths: %d != %d", len(out), len(paths))
	}
	scheduled := map[int]bool{out[0].ID: true}
	for k := 0; k+1 < len(out); k++ {
		share := SharedPrefixTokens(out[k], out[k+1])
		for _, p := range paths {
			if scheduled[p.ID] || p.ID == out[k+1].ID {
				continue
			}
			if SharedPrefixTokens(out[k], p) > share {
				t.Fatalf("greedy invariant violated at position %d", k)
			}
		}
		scheduled[out[k+1].ID] = true
	}
}

// On tree-structured paths the DFS grouping and the literal greedy both
// keep every subtree contiguous, so their surrogate scores coincide and
// equal the optimum.
func TestPrefixAwareMatchesGreedyScore(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		paths := randomTree(r, 14)
		return ScheduleScore(PrefixAwareOrder(paths)) == ScheduleScore(GreedyOrder(paths))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Brute-force optimality on tiny instances: the greedy score equals the
// max over all permutations (Appendix A.2's local optimality, checked
// globally at small scale).
func TestGreedyOptimalSmall(t *testing.T) {
	r := rng.New(7)
	for trial := 0; trial < 25; trial++ {
		paths := randomTree(r, 6)
		best := 0
		order := make([]Path, len(paths))
		used := make([]bool, len(paths))
		var dfs func(k int)
		dfs = func(k int) {
			if k == len(paths) {
				if s := ScheduleScore(order); s > best {
					best = s
				}
				return
			}
			for i := range paths {
				if used[i] {
					continue
				}
				used[i] = true
				order[k] = paths[i]
				dfs(k + 1)
				used[i] = false
			}
		}
		dfs(0)
		if got := ScheduleScore(GreedyOrder(paths)); got != best {
			t.Fatalf("trial %d: greedy score %d != optimal %d", trial, got, best)
		}
	}
}

// No single swap may improve the greedy schedule (Appendix A.2).
func TestGreedyLocallyOptimal(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		paths := randomTree(r, 10)
		out := GreedyOrder(paths)
		base := ScheduleScore(out)
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				out[i], out[j] = out[j], out[i]
				s := ScheduleScore(out)
				out[i], out[j] = out[j], out[i]
				if s > base {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderingHierarchy(t *testing.T) {
	// prefix-aware >= random >= worst-case (in surrogate score), on
	// average and for nearly every instance.
	r := rng.New(11)
	winsPA, winsRnd := 0, 0
	const trials = 30
	for i := 0; i < trials; i++ {
		paths := randomTree(r.Child("tree"), 24)
		pa := ScheduleScore(PrefixAwareOrder(paths))
		rnd := ScheduleScore(RandomOrder(paths, r.Child("shuffle")))
		worst := ScheduleScore(WorstCaseOrder(paths))
		if pa >= rnd {
			winsPA++
		}
		if rnd >= worst {
			winsRnd++
		}
	}
	if winsPA < trials-2 {
		t.Errorf("prefix-aware beat random only %d/%d times", winsPA, trials)
	}
	if winsRnd < trials*2/3 {
		t.Errorf("random beat worst-case only %d/%d times", winsRnd, trials)
	}
}

func TestOrderingsPreserveMultiset(t *testing.T) {
	r := rng.New(13)
	paths := randomTree(r, 15)
	for name, ordered := range map[string][]Path{
		"prefix": PrefixAwareOrder(paths),
		"greedy": GreedyOrder(paths),
		"random": RandomOrder(paths, r),
		"worst":  WorstCaseOrder(paths),
	} {
		if len(ordered) != len(paths) {
			t.Fatalf("%s: length %d != %d", name, len(ordered), len(paths))
		}
		seen := map[int]bool{}
		for _, p := range ordered {
			if seen[p.ID] {
				t.Fatalf("%s: duplicate path %d", name, p.ID)
			}
			seen[p.ID] = true
		}
	}
}

func TestPrefixAwarePreservesParentOrder(t *testing.T) {
	// §4.2: relative order of parent beams is preserved. Two subtrees A
	// (first in queue) and B: all A-paths must precede all B-paths.
	mk := func(root, leaf int) Path {
		return Path{ID: leaf, Lineage: []NodeRef{{0, 10}, {root, 5}, {leaf, 5}}}
	}
	queue := []Path{mk(1, 100), mk(2, 200), mk(1, 101), mk(2, 201)}
	out := PrefixAwareOrder(queue)
	pos := map[int]int{}
	for i, p := range out {
		pos[p.ID] = i
	}
	if !(pos[100] < pos[200] && pos[101] < pos[200]) {
		t.Errorf("subtree order not preserved: %v", pos)
	}
	if pos[100]+1 != pos[101] && pos[101]+1 != pos[100] {
		t.Errorf("siblings not grouped: %v", pos)
	}
}

func TestPackTriesRespectsCapacity(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		paths := PrefixAwareOrder(randomTree(r, 16))
		capacity := 150 + r.IntN(400)
		tries := PackTries(paths, capacity)
		total := 0
		for _, tr := range tries {
			total += len(tr.Paths)
			if tr.UniqueTokens > capacity && len(tr.Paths) > 1 {
				return false // only singleton tries may overflow
			}
		}
		return total == len(paths)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPackTriesUniqueTokens(t *testing.T) {
	a := Path{ID: 0, Lineage: []NodeRef{{0, 50}, {1, 10}}}
	b := Path{ID: 1, Lineage: []NodeRef{{0, 50}, {2, 20}}}
	tries := PackTries([]Path{a, b}, 1000)
	if len(tries) != 1 {
		t.Fatalf("tries = %d, want 1", len(tries))
	}
	if tries[0].UniqueTokens != 80 {
		t.Errorf("UniqueTokens = %d, want 80 (50 shared + 10 + 20)", tries[0].UniqueTokens)
	}
}

// The Fig 8 worked example: capacity 4 beams, paths ABDG/ABDH/ABEI/ACFJ
// (every node 1 token). Prefix-aware order evicts 6; the suboptimal
// order shown evicts 8.
func TestFig8WorkedExample(t *testing.T) {
	// Node IDs: A=1 B=2 C=3 D=4 E=5 F=6 G=7 H=8 I=9 J=10.
	mk := func(ids ...int) Path {
		var l []NodeRef
		for _, id := range ids {
			l = append(l, NodeRef{Node: id, Tokens: 1})
		}
		return Path{ID: ids[len(ids)-1], Lineage: l}
	}
	abdg := mk(1, 2, 4, 7)
	abdh := mk(1, 2, 4, 8)
	abei := mk(1, 2, 5, 9)
	acfj := mk(1, 3, 6, 10)

	good := PackTries([]Path{abdg, abdh, abei, acfj}, 4)
	if got := EvictionCost(good); got != 6 {
		t.Errorf("prefix-aware eviction cost = %d, want 6", got)
	}
	bad := PackTries([]Path{abdh, abei, acfj, abdg}, 4)
	if got := EvictionCost(bad); got != 8 {
		t.Errorf("suboptimal eviction cost = %d, want 8", got)
	}
}

func TestEvictionCostPrefixAwareBeatsRandom(t *testing.T) {
	r := rng.New(17)
	wins := 0
	const trials = 30
	for i := 0; i < trials; i++ {
		paths := randomTree(r.Child("t"), 32)
		capacity := 300
		pa := EvictionCost(PackTries(PrefixAwareOrder(paths), capacity))
		rnd := EvictionCost(PackTries(RandomOrder(paths, r.Child("s")), capacity))
		if pa <= rnd {
			wins++
		}
	}
	if wins < trials-3 {
		t.Errorf("prefix-aware lower eviction cost only %d/%d times", wins, trials)
	}
}

func TestPairwiseSharedSymmetric(t *testing.T) {
	r := rng.New(19)
	paths := randomTree(r, 10)
	m := PairwiseShared(paths)
	for i := range m {
		for j := range m[i] {
			if m[i][j] != m[j][i] {
				t.Fatalf("matrix not symmetric at %d,%d", i, j)
			}
		}
		if m[i][i] != paths[i].TotalTokens() {
			t.Errorf("diagonal %d = %d, want %d", i, m[i][i], paths[i].TotalTokens())
		}
	}
}

func TestCumulativeUniqueTokens(t *testing.T) {
	a := Path{ID: 0, Lineage: []NodeRef{{0, 50}, {1, 10}}}
	b := Path{ID: 1, Lineage: []NodeRef{{0, 50}, {2, 20}}}
	c := Path{ID: 2, Lineage: []NodeRef{{9, 5}}}
	got := CumulativeUniqueTokens([]Path{a, b, c})
	want := []int{60, 80, 85}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cumulative[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

// Prefix-aware ordering grows the KV footprint strictly no faster than the
// worst-case ordering at every batch-growth point (Fig 18 left).
func TestCumulativeGrowthOrdering(t *testing.T) {
	r := rng.New(23)
	paths := randomTree(r, 40)
	pa := CumulativeUniqueTokens(PrefixAwareOrder(paths))
	wc := CumulativeUniqueTokens(WorstCaseOrder(paths))
	// Same total (same multiset of nodes).
	if pa[len(pa)-1] != wc[len(wc)-1] {
		t.Fatalf("totals differ: %d vs %d", pa[len(pa)-1], wc[len(wc)-1])
	}
	// Area under the prefix-aware curve must be smaller.
	sum := func(xs []int) int {
		s := 0
		for _, x := range xs {
			s += x
		}
		return s
	}
	if sum(pa) >= sum(wc) {
		t.Errorf("prefix-aware growth area %d not below worst-case %d", sum(pa), sum(wc))
	}
}

func TestEmptyInputs(t *testing.T) {
	if out := GreedyOrder(nil); out != nil {
		t.Error("GreedyOrder(nil) != nil")
	}
	if out := WorstCaseOrder(nil); out != nil {
		t.Error("WorstCaseOrder(nil) != nil")
	}
	if out := PrefixAwareOrder(nil); len(out) != 0 {
		t.Error("PrefixAwareOrder(nil) not empty")
	}
	if cost := EvictionCost(nil); cost != 0 {
		t.Error("EvictionCost(nil) != 0")
	}
	if got := ScheduleScore(nil); got != 0 {
		t.Error("ScheduleScore(nil) != 0")
	}
}

func TestMaxGrowthOrderIsPermutation(t *testing.T) {
	r := rng.New(29)
	paths := randomTree(r, 20)
	out := MaxGrowthOrder(paths)
	if len(out) != len(paths) {
		t.Fatalf("length %d != %d", len(out), len(paths))
	}
	seen := map[int]bool{}
	for _, p := range out {
		if seen[p.ID] {
			t.Fatalf("duplicate %d", p.ID)
		}
		seen[p.ID] = true
	}
}

// MaxGrowthOrder's cumulative-unique curve dominates both prefix-aware
// and random orderings at every point (it is the adversary for Fig 18l).
func TestMaxGrowthDominatesGrowth(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		paths := randomTree(r, 24)
		mg := CumulativeUniqueTokens(MaxGrowthOrder(paths))
		pa := CumulativeUniqueTokens(PrefixAwareOrder(paths))
		rnd := CumulativeUniqueTokens(RandomOrder(paths, r.Child("s")))
		for i := range mg {
			if mg[i] < pa[i] || mg[i] < rnd[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeSet(t *testing.T) {
	var s NodeSet
	if s.Has(3) || !s.Add(3) || s.Add(3) || !s.Has(3) || s.Has(2) || s.Has(400) {
		t.Fatal("zero-value set: Add/Has disagree")
	}
	s.Clear()
	if s.Has(3) || !s.Add(3) {
		t.Error("Clear kept a member")
	}
	s.epoch = math.MaxUint32 // the next Clear wraps
	s.Add(7)
	s.Clear()
	if s.Has(7) || s.Has(3) || !s.Add(7) || !s.Has(7) {
		t.Error("members survived an epoch wrap")
	}
}
