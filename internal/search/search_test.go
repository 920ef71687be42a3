package search

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

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
	want := []Branch{{ID: 4, Children: 1}, {ID: 2, Children: 1}, {ID: 7, Children: 1}}
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
