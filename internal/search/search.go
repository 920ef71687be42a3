// Package search implements the TTS search algorithms the paper abstracts
// in §3.1 and evaluates in Fig 11: Best-of-N, Beam Search, DVTS (diverse
// verifier tree search), Dynamic Branching, and Varying Granularity, plus
// plain single-chain CoT. Every algorithm is expressed as a Policy: the
// algorithm-specific heuristics plugged into the common two-stage
// generation/verification loop that internal/core executes.
//
// Selection is deliberately pure and deterministic (scores in, branches
// out) — this is what lets the runtime guarantee algorithmic equivalence
// between baseline and FastTTS execution (§4.1).
package search

import (
	"cmp"
	"fmt"
	"slices"

	"fasttts/internal/rng"
)

// Algorithm names a search method.
type Algorithm string

const (
	BestOfN            Algorithm = "Best-of-N"
	BeamSearch         Algorithm = "Beam Search"
	DVTS               Algorithm = "DVTS"
	DynamicBranching   Algorithm = "Dynamic Branching"
	VaryingGranularity Algorithm = "Varying Granularity"
	SingleCoT          Algorithm = "CoT"
)

// Candidate is a non-terminated beam presented for selection.
type Candidate struct {
	ID      int
	Subtree int // root subtree (used by DVTS)
	Score   float64
}

// Branch is a selection outcome: beam ID continues with Children
// successors (1 = continue unbranched; 0 never appears — unselected beams
// are simply absent).
type Branch struct {
	ID       int
	Children int
}

// Policy is one search algorithm's heuristics.
type Policy interface {
	// Name returns the figure label of the algorithm.
	Name() string
	// Width is n: the initial number of parallel reasoning paths.
	Width() int
	// BranchFactor is B: the branching factor (and the number of score
	// bins used by speculative candidate selection, §4.1.1).
	BranchFactor() int
	// StepBudget caps the token count of thinking step stepIdx
	// (0-based); 0 means unlimited.
	StepBudget(stepIdx int) int
	// UsesVerifier reports whether intermediate steps are scored; when
	// false (Best-of-N, CoT) only terminal solutions are scored.
	UsesVerifier() bool
	// InitialSubtree assigns root beam i to a subtree.
	InitialSubtree(i int) int
	// Select maps the current candidates to the next set of branches. It
	// may reorder cands, which the caller treats as scratch.
	Select(cands []Candidate, r *rng.Stream) []Branch
}

// DefaultStepBudget is the per-step token cap used by all policies unless
// overridden (matches the paper's 2048-token step limit).
const DefaultStepBudget = 2048

// New constructs the named policy with width n and branch factor b.
func New(alg Algorithm, n, b int) (Policy, error) {
	if n < 1 {
		return nil, fmt.Errorf("search: width %d < 1", n)
	}
	if b < 1 {
		return nil, fmt.Errorf("search: branch factor %d < 1", b)
	}
	switch alg {
	case BestOfN:
		return bestOfN{n: n}, nil
	case BeamSearch:
		return beamSearch{n: n, b: b}, nil
	case DVTS:
		if n < b {
			return nil, fmt.Errorf("search: DVTS needs n >= b (got n=%d b=%d)", n, b)
		}
		return dvts{n: n, b: b}, nil
	case DynamicBranching:
		return dynamicBranching{n: n, b: b}, nil
	case VaryingGranularity:
		return varyingGranularity{beamSearch{n: n, b: b}}, nil
	case SingleCoT:
		return singleCoT{}, nil
	case MCTS:
		if n < b {
			return nil, fmt.Errorf("search: MCTS needs n >= b (got n=%d b=%d)", n, b)
		}
		return newMCTS(n, b), nil
	}
	return nil, fmt.Errorf("search: unknown algorithm %q", alg)
}

// WithWidth re-derives the policy's algorithm at a different search
// width n, preserving the branch factor — the vertical knob of the
// elastic control plane's compute-budget governor. The width is clamped
// to stay constructible: at least 1, and at least the branch factor for
// the algorithms that require n >= b (DVTS, MCTS). Asking for the
// policy's current width returns the policy unchanged.
func WithWidth(p Policy, n int) (Policy, error) {
	n = ClampWidth(p, n)
	if n == p.Width() {
		return p, nil
	}
	return New(Algorithm(p.Name()), n, p.BranchFactor())
}

// ClampWidth returns the nearest width to n that p's algorithm can be
// constructed with: at least 1, and at least the branch factor for the
// algorithms that require n >= b. Demand estimators use it so the
// estimate and the actual narrowed policy agree on the width.
func ClampWidth(p Policy, n int) int {
	if n < 1 {
		n = 1
	}
	alg := Algorithm(p.Name())
	if b := p.BranchFactor(); (alg == DVTS || alg == MCTS) && n < b {
		n = b
	}
	return n
}

// DegradedWidth maps a compute-budget tier to an effective search width:
// tier 0 is the full width, and every deeper tier halves it (floored at
// the branch factor via WithWidth's clamping, and at 1). This is the
// budget schedule the fleet's vertical governor actuates.
func DegradedWidth(width, tier int) int {
	for ; tier > 0 && width > 1; tier-- {
		width /= 2
	}
	if width < 1 {
		return 1
	}
	return width
}

// sortByScore orders cands in place by descending score, breaking ties by
// ascending ID for determinism, and returns them. The sort is stable:
// byScore is not a strict order once a score is NaN.
func sortByScore(cands []Candidate) []Candidate {
	slices.SortStableFunc(cands, byScore)
	return cands
}

// byScore is sortByScore's order: higher score first, then lower ID. The
// scores are compared with != and > rather than cmp.Compare so that a NaN
// score goes before nothing, as under >, instead of first.
func byScore(a, b Candidate) int {
	if a.Score != b.Score {
		if a.Score > b.Score {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.ID, b.ID)
}

// --- Best-of-N ---

type bestOfN struct{ n int }

func (p bestOfN) Name() string             { return string(BestOfN) }
func (p bestOfN) Width() int               { return p.n }
func (p bestOfN) BranchFactor() int        { return 1 }
func (p bestOfN) StepBudget(int) int       { return DefaultStepBudget }
func (p bestOfN) UsesVerifier() bool       { return false }
func (p bestOfN) InitialSubtree(i int) int { return i }

// Select keeps every chain: BoN provides no intermediate guidance (§2.2).
func (p bestOfN) Select(cands []Candidate, _ *rng.Stream) []Branch {
	out := make([]Branch, len(cands))
	for i, c := range cands {
		out[i] = Branch{ID: c.ID, Children: 1}
	}
	return out
}

// --- Beam Search ---

type beamSearch struct{ n, b int }

func (p beamSearch) Name() string             { return string(BeamSearch) }
func (p beamSearch) Width() int               { return p.n }
func (p beamSearch) BranchFactor() int        { return p.b }
func (p beamSearch) StepBudget(int) int       { return DefaultStepBudget }
func (p beamSearch) UsesVerifier() bool       { return true }
func (p beamSearch) InitialSubtree(i int) int { return i / p.b }

// Select keeps the global top len(cands)/B candidates and branches each
// B ways, restoring the working width (§3.1).
func (p beamSearch) Select(cands []Candidate, _ *rng.Stream) []Branch {
	if len(cands) == 0 {
		return nil
	}
	keep := len(cands) / p.b
	if keep < 1 {
		keep = 1
	}
	sorted := sortByScore(cands)
	out := make([]Branch, 0, keep)
	for _, c := range sorted[:keep] {
		out = append(out, Branch{ID: c.ID, Children: p.b})
	}
	return out
}

// --- DVTS (diverse selection) ---

type dvts struct{ n, b int }

func (p dvts) Name() string             { return string(DVTS) }
func (p dvts) Width() int               { return p.n }
func (p dvts) BranchFactor() int        { return p.b }
func (p dvts) StepBudget(int) int       { return DefaultStepBudget }
func (p dvts) UsesVerifier() bool       { return true }
func (p dvts) InitialSubtree(i int) int { return i / p.b }

// Select keeps the best candidate of every live subtree and branches it
// B ways: diversity by construction (§3.1, "Diverse Selection").
func (p dvts) Select(cands []Candidate, _ *rng.Stream) []Branch {
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
		out = append(out, Branch{ID: bySubtree[st].ID, Children: p.b})
	}
	return out
}

// --- Dynamic Branching ---

type dynamicBranching struct{ n, b int }

func (p dynamicBranching) Name() string             { return string(DynamicBranching) }
func (p dynamicBranching) Width() int               { return p.n }
func (p dynamicBranching) BranchFactor() int        { return p.b }
func (p dynamicBranching) StepBudget(int) int       { return DefaultStepBudget }
func (p dynamicBranching) UsesVerifier() bool       { return true }
func (p dynamicBranching) InitialSubtree(i int) int { return i / p.b }

// Select keeps the top len/B candidates and distributes len(cands)
// children proportionally to verifier scores (largest-remainder rounding)
// — the paper's "each beam branches proportionally to its verifier score"
// (Fig 11 caption). Beams rounded to zero children are pruned.
func (p dynamicBranching) Select(cands []Candidate, _ *rng.Stream) []Branch {
	if len(cands) == 0 {
		return nil
	}
	keep := len(cands) / p.b
	if keep < 1 {
		keep = 1
	}
	sorted := sortByScore(cands)[:keep]
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
	// Largest remainder for the leftover children.
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
			out = append(out, Branch{ID: sorted[i].ID, Children: a.base})
		}
	}
	if len(out) == 0 { // degenerate all-zero scores: keep the best
		out = append(out, Branch{ID: sorted[0].ID, Children: budget})
	}
	return out
}

// --- Varying Granularity (VG-Search) ---

type varyingGranularity struct{ beamSearch }

func (p varyingGranularity) Name() string { return string(VaryingGranularity) }

// StepBudget uses short steps early (fine-grained verification) and long
// steps later: 64 tokens for the first 3 steps, 2048 after (Fig 11
// caption).
func (p varyingGranularity) StepBudget(stepIdx int) int {
	if stepIdx < 3 {
		return 64
	}
	return 2048
}

// --- Single chain CoT ---

type singleCoT struct{}

func (p singleCoT) Name() string             { return string(SingleCoT) }
func (p singleCoT) Width() int               { return 1 }
func (p singleCoT) BranchFactor() int        { return 1 }
func (p singleCoT) StepBudget(int) int       { return DefaultStepBudget }
func (p singleCoT) UsesVerifier() bool       { return false }
func (p singleCoT) InitialSubtree(i int) int { return i }
func (p singleCoT) Select(cands []Candidate, _ *rng.Stream) []Branch {
	out := make([]Branch, len(cands))
	for i, c := range cands {
		out[i] = Branch{ID: c.ID, Children: 1}
	}
	return out
}
