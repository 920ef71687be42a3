package search

import (
	"cmp"
	"flag"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"fasttts/internal/rng"
)

func mkCands(scores ...float64) []Candidate {
	out := make([]Candidate, len(scores))
	for i, s := range scores {
		out[i] = Candidate{ID: i, Subtree: i / 4, Score: s}
	}
	return out
}

func totalChildren(bs []Branch) int {
	total := 0
	for _, b := range bs {
		total += b.Children
	}
	return total
}

func TestNewValidation(t *testing.T) {
	for _, alg := range []Algorithm{BestOfN, BeamSearch, DVTS, DynamicBranching, VaryingGranularity, SingleCoT} {
		p, err := New(alg, 16, 4)
		if err != nil {
			t.Fatalf("New(%s): %v", alg, err)
		}
		if p.Name() == "" {
			t.Errorf("%s: empty name", alg)
		}
	}
	if _, err := New("MCTS-9000", 16, 4); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := New(BeamSearch, 0, 4); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := New(BeamSearch, 16, 0); err == nil {
		t.Error("zero branch factor accepted")
	}
	if _, err := New(DVTS, 2, 4); err == nil {
		t.Error("DVTS with n < b accepted")
	}
}

func TestBestOfNKeepsAll(t *testing.T) {
	p, _ := New(BestOfN, 8, 4)
	if p.UsesVerifier() {
		t.Error("BoN must not use intermediate verification")
	}
	bs := p.Select(mkCands(0.1, 0.9, 0.5), rng.New(1))
	if len(bs) != 3 || totalChildren(bs) != 3 {
		t.Errorf("BoN select = %v", bs)
	}
	for _, b := range bs {
		if b.Children != 1 {
			t.Errorf("BoN branched: %v", b)
		}
	}
}

func TestBeamSearchKeepsTopAndRestoresWidth(t *testing.T) {
	p, _ := New(BeamSearch, 8, 4)
	cands := mkCands(0.1, 0.9, 0.5, 0.8, 0.2, 0.7, 0.3, 0.6)
	bs := p.Select(cands, rng.New(1))
	if len(bs) != 2 { // 8/4
		t.Fatalf("kept %d, want 2", len(bs))
	}
	if bs[0].ID != 1 || bs[1].ID != 3 {
		t.Errorf("kept wrong beams: %v (want IDs 1 and 3)", bs)
	}
	if totalChildren(bs) != 8 {
		t.Errorf("width not restored: %d", totalChildren(bs))
	}
}

func TestBeamSearchShrinkingPool(t *testing.T) {
	p, _ := New(BeamSearch, 8, 4)
	// Only 2 candidates left: keep max(1, 2/4)=1, branch 4 ways.
	bs := p.Select(mkCands(0.3, 0.6), rng.New(1))
	if len(bs) != 1 || bs[0].ID != 1 || bs[0].Children != 4 {
		t.Errorf("select = %v", bs)
	}
	if out := p.Select(nil, rng.New(1)); out != nil {
		t.Errorf("empty select = %v", out)
	}
}

func TestBeamSearchDeterministicTieBreak(t *testing.T) {
	p, _ := New(BeamSearch, 4, 4)
	bs := p.Select(mkCands(0.5, 0.5, 0.5, 0.5), rng.New(1))
	if len(bs) != 1 || bs[0].ID != 0 {
		t.Errorf("tie break = %v, want lowest ID", bs)
	}
}

func TestDVTSOnePerSubtree(t *testing.T) {
	p, _ := New(DVTS, 16, 4)
	// Subtrees of 4 beams each (ID/4).
	cands := mkCands(0.1, 0.9, 0.5, 0.8, 0.2, 0.7, 0.3, 0.6)
	bs := p.Select(cands, rng.New(1))
	if len(bs) != 2 {
		t.Fatalf("kept %d, want one per subtree (2)", len(bs))
	}
	if bs[0].ID != 1 || bs[1].ID != 5 {
		t.Errorf("subtree winners = %v, want IDs 1 and 5", bs)
	}
	for _, b := range bs {
		if b.Children != 4 {
			t.Errorf("branch = %v, want 4 children", b)
		}
	}
}

func TestDVTSSubtreeIndependence(t *testing.T) {
	// Even when one subtree dominates globally, every subtree keeps its
	// local best: diversity by construction.
	p, _ := New(DVTS, 8, 4)
	cands := []Candidate{
		{ID: 0, Subtree: 0, Score: 0.99},
		{ID: 1, Subtree: 0, Score: 0.98},
		{ID: 2, Subtree: 1, Score: 0.01},
		{ID: 3, Subtree: 1, Score: 0.02},
	}
	bs := p.Select(cands, rng.New(1))
	if len(bs) != 2 {
		t.Fatalf("kept %d subtrees, want 2", len(bs))
	}
	if bs[0].ID != 0 || bs[1].ID != 3 {
		t.Errorf("winners = %v, want 0 and 3", bs)
	}
}

func TestDynamicBranchingProportional(t *testing.T) {
	p, _ := New(DynamicBranching, 8, 4)
	cands := mkCands(0.0, 0.9, 0.0, 0.3, 0.0, 0.0, 0.0, 0.0)
	bs := p.Select(cands, rng.New(1))
	if totalChildren(bs) != 8 {
		t.Fatalf("children = %d, want 8 (width preserved)", totalChildren(bs))
	}
	// Beam 1 (score 0.9) must get more children than beam 3 (0.3).
	byID := map[int]int{}
	for _, b := range bs {
		byID[b.ID] = b.Children
	}
	if byID[1] <= byID[3] {
		t.Errorf("children not proportional to score: %v", byID)
	}
}

func TestDynamicBranchingZeroScores(t *testing.T) {
	p, _ := New(DynamicBranching, 8, 4)
	bs := p.Select(mkCands(0, 0, 0, 0), rng.New(1))
	if totalChildren(bs) != 4 {
		t.Errorf("children = %d, want 4", totalChildren(bs))
	}
}

func TestVaryingGranularityBudgets(t *testing.T) {
	p, _ := New(VaryingGranularity, 8, 4)
	for step, want := range map[int]int{0: 64, 1: 64, 2: 64, 3: 2048, 7: 2048} {
		if got := p.StepBudget(step); got != want {
			t.Errorf("StepBudget(%d) = %d, want %d", step, got, want)
		}
	}
	if p.Name() != string(VaryingGranularity) {
		t.Errorf("name = %q", p.Name())
	}
}

func TestSingleCoT(t *testing.T) {
	p, _ := New(SingleCoT, 99, 7) // width/branch are fixed to 1
	if p.Width() != 1 || p.BranchFactor() != 1 || p.UsesVerifier() {
		t.Errorf("CoT policy misconfigured: w=%d b=%d", p.Width(), p.BranchFactor())
	}
	if p.StepBudget(5) != DefaultStepBudget || p.InitialSubtree(3) != 3 {
		t.Errorf("CoT step budget %d, subtree %d", p.StepBudget(5), p.InitialSubtree(3))
	}
	// The chain continues unbranched, whatever its score, in input order.
	cands := []Candidate{{ID: 4, Score: 0.1}, {ID: 2, Score: 0.9}, {ID: 7}}
	want := []Branch{{ID: 4, Score: 0.1, Children: 1}, {ID: 2, Score: 0.9, Children: 1}, {ID: 7, Children: 1}}
	if got := p.Select(cands, rng.New(1)); !reflect.DeepEqual(got, want) {
		t.Errorf("CoT select = %v, want %v", got, want)
	}
	if got := p.Select(nil, rng.New(1)); len(got) != 0 {
		t.Errorf("CoT select of nothing = %v", got)
	}
}

// sortByScoreReflect is sortByScore as it was, on sort.SliceStable: the
// reference the typed sort must match element for element.
func sortByScoreReflect(cands []Candidate) []Candidate {
	out := append([]Candidate(nil), cands...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// TestSortByScoreMatchesSliceStable: on candidates drawn to tie — scores
// from a handful of values (NaN among them), IDs repeated, so whole
// candidates tie and only stability orders them, told apart by Subtree —
// the typed sort returns its own input, sorted in place into the order the
// reflection-based sort gives a copy of it.
func TestSortByScoreMatchesSliceStable(t *testing.T) {
	scores := []float64{0, 0.25, 0.5, 0.5, 1, math.NaN()}
	r := rng.New(3)
	for trial := 0; trial < 2000; trial++ {
		cands := make([]Candidate, r.IntN(80))
		for i := range cands {
			cands[i] = Candidate{ID: r.IntN(12), Subtree: i, Score: scores[r.IntN(len(scores))]}
		}
		want := sortByScoreReflect(cands)
		got := sortByScore(cands)
		if len(got) != len(cands) || len(got) > 0 && &got[0] != &cands[0] {
			t.Fatalf("trial %d: sortByScore returned a slice other than its input", trial)
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Subtree != want[i].Subtree {
				t.Fatalf("trial %d position %d: typed %+v, reflection %+v", trial, i, got[i], want[i])
			}
		}
	}
}

// Property: for every verifier-guided policy and any candidate set, the
// selected IDs exist in the input, children are positive, and no ID is
// selected twice.
func TestPropertySelectWellFormed(t *testing.T) {
	algs := []Algorithm{BestOfN, BeamSearch, DVTS, DynamicBranching, VaryingGranularity}
	f := func(seed uint64, raw []byte) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		cands := make([]Candidate, len(raw))
		for i, b := range raw {
			cands[i] = Candidate{ID: i, Subtree: i / 4, Score: float64(b) / 255}
		}
		r := rng.New(seed)
		for _, alg := range algs {
			p, err := New(alg, 64, 4)
			if err != nil {
				return false
			}
			seen := map[int]bool{}
			for _, br := range p.Select(cands, r) {
				if br.ID < 0 || br.ID >= len(cands) {
					return false
				}
				if br.Children < 1 {
					return false
				}
				if seen[br.ID] {
					return false
				}
				seen[br.ID] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: beam search and DVTS preserve total width (children sum equals
// a stable working width) when the candidate pool is a multiple of B.
func TestPropertyWidthPreservation(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := (r.IntN(8) + 1) * 4 // multiple of 4
		cands := make([]Candidate, n)
		for i := range cands {
			cands[i] = Candidate{ID: i, Subtree: i / 4, Score: r.Float64()}
		}
		bp, _ := New(BeamSearch, n, 4)
		dp, _ := New(DVTS, n, 4)
		db, _ := New(DynamicBranching, n, 4)
		return totalChildren(bp.Select(cands, r)) == n &&
			totalChildren(dp.Select(cands, r)) == n &&
			totalChildren(db.Select(cands, r)) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestInitialSubtreeAssignment(t *testing.T) {
	p, _ := New(DVTS, 16, 4)
	// Beams 0..3 → subtree 0, 4..7 → subtree 1, ...
	for i := 0; i < 16; i++ {
		if got := p.InitialSubtree(i); got != i/4 {
			t.Errorf("InitialSubtree(%d) = %d, want %d", i, got, i/4)
		}
	}
}

func TestMCTSWellFormed(t *testing.T) {
	p, err := New(MCTS, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !p.UsesVerifier() || p.Width() != 16 || p.BranchFactor() != 4 {
		t.Fatalf("MCTS policy misconfigured")
	}
	cands := mkCands(0.1, 0.9, 0.5, 0.8, 0.2, 0.7, 0.3, 0.6)
	bs := p.Select(cands, rng.New(1))
	if totalChildren(bs) != len(cands) {
		t.Errorf("children = %d, want %d (width preserved)", totalChildren(bs), len(cands))
	}
	seen := map[int]bool{}
	for _, b := range bs {
		if b.Children < 1 || seen[b.ID] {
			t.Errorf("malformed branch %+v", b)
		}
		seen[b.ID] = true
	}
}

func TestMCTSExploresLaggingSubtrees(t *testing.T) {
	// A subtree with consistently mediocre scores must keep receiving
	// budget early on (UCB exploration) rather than being starved the
	// way pure beam search would starve it.
	p, _ := New(MCTS, 8, 4)
	cands := []Candidate{
		{ID: 0, Subtree: 0, Score: 0.9},
		{ID: 1, Subtree: 0, Score: 0.9},
		{ID: 2, Subtree: 1, Score: 0.3},
		{ID: 3, Subtree: 1, Score: 0.3},
	}
	bs := p.Select(cands, rng.New(1))
	got := map[int]int{}
	for _, b := range bs {
		got[b.ID] = b.Children
	}
	if got[2]+got[3] == 0 {
		t.Error("lagging subtree starved on the first round")
	}
}

func TestMCTSStatePersistsAcrossRounds(t *testing.T) {
	p, _ := New(MCTS, 8, 4)
	cands := mkCands(0.9, 0.8, 0.2, 0.1)
	first := p.Select(cands, rng.New(1))
	second := p.Select(cands, rng.New(1))
	if totalChildren(first) != totalChildren(second) {
		t.Errorf("budget drifted: %d vs %d", totalChildren(first), totalChildren(second))
	}
}

func TestMCTSValidation(t *testing.T) {
	if _, err := New(MCTS, 2, 4); err == nil {
		t.Error("MCTS with n < b accepted")
	}
}

var quickSeed = flag.Int("quick.seed", int(time.Now().UnixNano())%100000, "seed for the Select oracle test")

// refSelect is the selection each algorithm made when Select built a new
// branch slice per call, kept as the oracle for the in-place policies. It
// selects from a copy of cands, and each branch is the whole selected
// candidate with Children set.
func refSelect(alg Algorithm, b int, cands []Candidate) []Branch {
	cands = append([]Candidate(nil), cands...)
	switch alg {
	case BestOfN, SingleCoT:
		out := make([]Branch, len(cands))
		for i, c := range cands {
			c.Children = 1
			out[i] = c
		}
		return out
	case BeamSearch, VaryingGranularity:
		if len(cands) == 0 {
			return nil
		}
		keep := max(len(cands)/b, 1)
		out := make([]Branch, 0, keep)
		for _, c := range sortByScoreReflect(cands)[:keep] {
			c.Children = b
			out = append(out, c)
		}
		return out
	case DVTS:
		bySubtree := map[int]Candidate{}
		var order []int
		for _, c := range cands {
			best, ok := bySubtree[c.Subtree]
			if !ok {
				order = append(order, c.Subtree)
				bySubtree[c.Subtree] = c
				continue
			}
			if c.Score > best.Score || (c.Score == best.Score && c.ID < best.ID) {
				bySubtree[c.Subtree] = c
			}
		}
		slices.Sort(order)
		out := make([]Branch, 0, len(order))
		for _, st := range order {
			c := bySubtree[st]
			c.Children = b
			out = append(out, c)
		}
		return out
	case DynamicBranching:
		return refDynamicBranching(b, cands)
	}
	panic("refSelect: no reference for " + string(alg))
}

func refDynamicBranching(b int, cands []Candidate) []Branch {
	if len(cands) == 0 {
		return nil
	}
	keep := max(len(cands)/b, 1)
	sorted := sortByScoreReflect(cands)[:keep]
	budget := len(cands)
	var total float64
	for _, c := range sorted {
		total += c.Score
	}
	type alloc struct {
		idx  int
		base int
		frac float64
	}
	allocs := make([]alloc, len(sorted))
	assigned := 0
	for i, c := range sorted {
		share := float64(budget) / float64(len(sorted))
		if total > 0 {
			share = c.Score / total * float64(budget)
		}
		base := int(share)
		allocs[i] = alloc{idx: i, base: base, frac: share - float64(base)}
		assigned += base
	}
	slices.SortStableFunc(allocs, func(a, b alloc) int {
		switch {
		case a.frac > b.frac:
			return -1
		case a.frac < b.frac:
			return 1
		}
		return 0
	})
	for k := 0; assigned < budget && k < len(allocs); k++ {
		allocs[k].base++
		assigned++
	}
	slices.SortStableFunc(allocs, func(a, b alloc) int { return cmp.Compare(a.idx, b.idx) })
	out := make([]Branch, 0, len(sorted))
	for i, a := range allocs {
		if a.base > 0 {
			c := sorted[i]
			c.Children = a.base
			out = append(out, c)
		}
	}
	if len(out) == 0 {
		c := sorted[0]
		c.Children = budget
		out = append(out, c)
	}
	return out
}

// refMCTS is MCTS as it was with map-held statistics and per-call
// subtree groups: the oracle the in-place policy runs in lockstep with.
type refMCTS struct {
	b      int
	c      float64
	visits map[int]int
	value  map[int]float64
	total  int
}

func newRefMCTS(b int) *refMCTS {
	return &refMCTS{b: b, c: 1.0, visits: map[int]int{}, value: map[int]float64{}}
}

func (p *refMCTS) ucb(subtree int) float64 {
	v := p.visits[subtree]
	if v == 0 {
		return math.Inf(1)
	}
	mean := p.value[subtree] / float64(v)
	return mean + p.c*math.Sqrt(math.Log(float64(p.total+1))/float64(v))
}

func (p *refMCTS) Select(cands []Candidate) []Branch {
	if len(cands) == 0 {
		return nil
	}
	bySubtree := map[int][]Candidate{}
	var subtrees []int
	for _, c := range cands {
		if _, ok := bySubtree[c.Subtree]; !ok {
			subtrees = append(subtrees, c.Subtree)
		}
		bySubtree[c.Subtree] = append(bySubtree[c.Subtree], c)
		p.visits[c.Subtree]++
		p.value[c.Subtree] += c.Score
		p.total++
	}
	slices.Sort(subtrees)
	slices.SortStableFunc(subtrees, func(a, b int) int {
		if ua, ub := p.ucb(a), p.ucb(b); ua != ub {
			if ua > ub {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
	out := make([]Branch, 0, len(subtrees))
	remaining := len(cands)
	for idx, st := range subtrees {
		group := bySubtree[st]
		best := group[0]
		for _, c := range group[1:] {
			if c.Score > best.Score || (c.Score == best.Score && c.ID < best.ID) {
				best = c
			}
		}
		share := p.b
		if idx == 0 {
			share = 2 * p.b
		}
		left := len(subtrees) - idx - 1
		if share > remaining-left {
			share = remaining - left
		}
		if share < 1 {
			share = 1
		}
		best.Children = share
		out = append(out, best)
		remaining -= share
	}
	if remaining > 0 && len(out) > 0 {
		out[0].Children += remaining
	}
	return out
}

// oracleCands draws a candidate set built to tie: scores from a handful of
// values with NaN and a negative among them, IDs repeated, subtrees
// shuffled over a sparse range. One set in four is the solver's shape
// instead: distinct IDs, subtree i/b.
func oracleCands(r *rng.Stream, b int) []Candidate {
	scores := []float64{0, 0.25, 0.5, 0.5, 1, math.NaN(), -0.25}
	cands := make([]Candidate, r.IntN(80))
	solverShape := r.IntN(4) == 0
	for i := range cands {
		c := Candidate{ID: r.IntN(12), Subtree: r.IntN(9), Score: scores[r.IntN(len(scores))], Children: r.IntN(5)}
		if solverShape {
			c.ID, c.Subtree, c.Score = i, i/b, r.Float64()
		}
		cands[i] = c
	}
	return cands
}

// selectEdgeCases are the candidate sets at the edges of a top-len/b
// selection: every candidate kept, one kept, a NaN score (which has no
// strict order, so selection sorts), and equal candidates — the same ID
// and score — on both sides of the last kept place.
func selectEdgeCases() []struct {
	name  string
	b     int
	cands []Candidate
} {
	ranked := func(scores ...float64) []Candidate {
		cands := make([]Candidate, len(scores))
		for i, sc := range scores {
			cands[i] = Candidate{ID: i, Subtree: i / 2, Score: sc}
		}
		return cands
	}
	nan := math.NaN()
	dup := ranked(0.1, 0.9, 0.5, 0.5, 0.2, 0.5, 0.7, 0.5)
	for i := range dup {
		if dup[i].Score == 0.5 {
			dup[i].ID = 3 // four equal candidates across the boundary
		}
	}
	return []struct {
		name  string
		b     int
		cands []Candidate
	}{
		{"keep == len", 1, ranked(0.3, 0.9, 0.3, 0.1, 0.9, 0.5)},
		{"keep == len, one candidate", 4, ranked(0.4)},
		{"keep == 1", 4, ranked(0.2, 0.8, 0.8, 0.1, 0.6, 0.8, 0.3)},
		{"keep == 1, best last", 8, ranked(0.2, 0.3, 0.1, 0.9)},
		{"NaN first", 2, ranked(nan, 0.5, 0.9, 0.1, 0.5, 0.7)},
		{"NaN in the middle", 2, ranked(0.5, 0.9, nan, 0.1, 0.5, 0.7, nan, 0.2)},
		{"NaN last", 3, ranked(0.4, 0.9, 0.1, 0.4, 0.6, nan)},
		{"all NaN", 2, ranked(nan, nan, nan, nan)},
		{"duplicates at the boundary", 2, dup},
		{"duplicates at the boundary, keep 2", 4, dup},
	}
}

// sameBranches reports whether got and want hold the same candidates with
// the same Children, scores compared bit for bit (so NaN matches NaN).
func sameBranches(got, want []Branch) bool {
	return slices.EqualFunc(got, want, func(a, b Branch) bool {
		return a.ID == b.ID && a.Subtree == b.Subtree && a.Children == b.Children &&
			math.Float64bits(a.Score) == math.Float64bits(b.Score)
	})
}

// checkInPlace fails unless got is a prefix of cands and cands is still a
// permutation of in (Children aside).
func checkInPlace(t *testing.T, label string, in, cands []Candidate, got []Branch) {
	t.Helper()
	if len(got) > 0 && &got[0] != &cands[0] {
		t.Fatalf("%s: result does not alias cands", label)
	}
	key := func(c Candidate) [3]uint64 {
		return [3]uint64{uint64(c.ID), uint64(c.Subtree), math.Float64bits(c.Score)}
	}
	order := func(a, b Candidate) int {
		ka, kb := key(a), key(b)
		return slices.Compare(ka[:], kb[:])
	}
	a, b := slices.Clone(in), slices.Clone(cands)
	slices.SortFunc(a, order)
	slices.SortFunc(b, order)
	if !slices.EqualFunc(a, b, func(x, y Candidate) bool { return key(x) == key(y) }) {
		t.Fatalf("%s: cands is no longer a permutation of the input", label)
	}
}

// TestSelectMatchesReference: every policy's in-place Select returns what
// its allocating reference returned, candidate for candidate, on random
// sets with tied scores, NaN, repeated IDs and shuffled subtrees; MCTS
// runs against its reference in lockstep over several rounds. Reproduce a
// failure with -quick.seed.
func TestSelectMatchesReference(t *testing.T) {
	t.Logf("quick.seed=%d", *quickSeed)
	r := rng.New(uint64(*quickSeed))
	stateless := []Algorithm{BestOfN, BeamSearch, DVTS, DynamicBranching, VaryingGranularity, SingleCoT}
	for _, ec := range selectEdgeCases() {
		for _, alg := range stateless {
			p, err := New(alg, 64, ec.b)
			if err != nil {
				t.Fatal(err)
			}
			want := refSelect(alg, ec.b, ec.cands)
			cands := slices.Clone(ec.cands)
			got := p.Select(cands, r)
			label := fmt.Sprintf("%s, %s b=%d", ec.name, alg, ec.b)
			checkInPlace(t, label, ec.cands, cands, got)
			if !sameBranches(got, want) {
				t.Fatalf("%s on %v:\n got %v\nwant %v", label, ec.cands, got, want)
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		b := []int{1, 2, 3, 4, 8}[r.IntN(5)]
		for _, alg := range stateless {
			p, err := New(alg, 64, b)
			if err != nil {
				t.Fatal(err)
			}
			in := oracleCands(r, b)
			want := refSelect(alg, b, in)
			cands := slices.Clone(in)
			got := p.Select(cands, r)
			label := fmt.Sprintf("trial %d %s b=%d", trial, alg, b)
			checkInPlace(t, label, in, cands, got)
			if !sameBranches(got, want) {
				t.Fatalf("%s on %v:\n got %v\nwant %v", label, in, got, want)
			}
		}
		p, err := New(MCTS, 64, b)
		if err != nil {
			t.Fatal(err)
		}
		ref := newRefMCTS(b)
		for round := 0; round < 6; round++ {
			in := oracleCands(r, b)
			want := ref.Select(in)
			cands := slices.Clone(in)
			got := p.Select(cands, r)
			label := fmt.Sprintf("trial %d MCTS b=%d round %d", trial, b, round)
			checkInPlace(t, label, in, cands, got)
			if !sameBranches(got, want) {
				t.Fatalf("%s on %v:\n got %v\nwant %v", label, in, got, want)
			}
		}
	}
}

// TestSelectAllocatesNothing: at the solver's shape (n=64, B=4) no policy
// allocates in Select; MCTS once its statistics have seen the subtrees.
func TestSelectAllocatesNothing(t *testing.T) {
	const n, b = 64, 4
	r := rng.New(5)
	in := make([]Candidate, n)
	for i := range in {
		in[i] = Candidate{ID: i, Subtree: i / b, Score: r.Float64()}
	}
	cands := make([]Candidate, n)
	for _, alg := range []Algorithm{BestOfN, BeamSearch, DVTS, DynamicBranching, VaryingGranularity, SingleCoT, MCTS} {
		p, err := New(alg, n, b)
		if err != nil {
			t.Fatal(err)
		}
		sel := func() {
			copy(cands, in)
			if len(p.Select(cands, r)) == 0 {
				t.Fatalf("%s selected nothing", alg)
			}
		}
		sel() // warms MCTS's statistics
		if got := testing.AllocsPerRun(20, sel); got != 0 {
			t.Errorf("%s: Select allocates %v times, want 0", alg, got)
		}
	}
}
