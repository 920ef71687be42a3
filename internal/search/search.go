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
	Subtree int // root subtree (used by DVTS and MCTS)
	Score   float64
	// Children is set by Select on the candidates it keeps: the selected
	// beam continues with Children successors (1 = continue unbranched).
	// Its value on input is ignored.
	Children int
}

// Branch is a selected candidate: beam ID continues with Children
// successors (0 never appears — unselected beams are simply absent).
type Branch = Candidate

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
	// reorders cands, moving the candidates it keeps to a prefix, sets
	// their Children, and returns that prefix: the result aliases cands
	// and is valid until the caller next writes cands. Select allocates
	// nothing once the policy is warm.
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

// Fresh returns a policy for one search: p itself when its selection
// keeps no state between Select calls, and a new instance with empty
// statistics when it does (MCTS). A policy in a shared Config thereby
// serves any number of searches, one after another or at once, each as
// if it were the first.
func Fresh(p Policy) (Policy, error) {
	if Algorithm(p.Name()) != MCTS {
		return p, nil
	}
	return New(MCTS, p.Width(), p.BranchFactor())
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

// insertKeepMax is the largest keep topByScore selects by insertion.
// Insertion moves up to keep candidates per entry, so it loses to the
// stable sort as keep grows: on uniform random scores it takes 0.35× the
// sort's time at 64 candidates keeping 16 and 0.55× at 128 keeping 32, but
// 1.2× at 96 keeping 48 and 2.8× at 512 keeping 256. Scores rising in
// input order, where every candidate enters, cost it 1.25× the sort at 64
// keeping 32 and 1.5× at 128 keeping 32.
const insertKeepMax = 32

// topByScore moves the first keep (1 ≤ keep ≤ len(cands)) of
// sortByScore's order to a prefix of cands, in that order, and returns the
// prefix; the rest of cands is left in no particular order. For a keep up
// to insertKeepMax it keeps the prefix sorted by stable insertion, and a
// later candidate displaces the last kept one only if it is strictly
// better, so ties keep the earliest, as the stable sort does. A larger keep,
// or a set without a strict order (a NaN score), is sorted.
func topByScore(cands []Candidate, keep int) []Candidate {
	if keep > insertKeepMax {
		return sortByScore(cands)[:keep]
	}
	for i := range cands {
		if cands[i].Score != cands[i].Score {
			return sortByScore(cands)[:keep]
		}
	}
	for i := 1; i < keep; i++ {
		insertByScore(cands[:i+1], cands[i])
	}
	for i := keep; i < len(cands); i++ {
		if byScore(cands[i], cands[keep-1]) < 0 {
			c := cands[i]
			cands[i] = cands[keep-1]
			insertByScore(cands[:keep], c)
		}
	}
	return cands[:keep]
}

// insertByScore puts c into sorted[len-1], whose old value is dropped,
// then moves it down past every candidate it goes strictly before, leaving
// sorted in byScore order after ties.
func insertByScore(sorted []Candidate, c Candidate) {
	j := len(sorted) - 1
	for ; j > 0 && byScore(c, sorted[j-1]) < 0; j-- {
		sorted[j] = sorted[j-1]
	}
	sorted[j] = c
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
	return branchEach(cands, 1)
}

// branchEach gives every candidate children successors and returns them.
func branchEach(cands []Candidate, children int) []Branch {
	for i := range cands {
		cands[i].Children = children
	}
	return cands
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
	return branchEach(topByScore(cands, keep), p.b)
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
	return branchEach(keepSubtreeBests(cands), p.b)
}

// keepSubtreeBests moves the best candidate of every subtree — higher
// score, then lower ID — to a prefix of cands, in ascending subtree
// order, and returns that prefix. The stable sort keeps each subtree's
// candidates in input order, so ties and NaN scores resolve as a scan of
// the input resolves them: the earlier candidate stays.
func keepSubtreeBests(cands []Candidate) []Candidate {
	slices.SortStableFunc(cands, bySubtree)
	kept := 0
	for lo := 0; lo < len(cands); {
		best, hi := lo, lo+1
		for ; hi < len(cands) && cands[hi].Subtree == cands[lo].Subtree; hi++ {
			if c, b := &cands[hi], &cands[best]; c.Score > b.Score || (c.Score == b.Score && c.ID < b.ID) {
				best = hi
			}
		}
		keepAt(cands, kept, best)
		kept++
		lo = hi
	}
	return cands[:kept]
}

// keepAt swaps the kept candidate cands[i] into place k <= i, where a
// candidate already passed over lies, and returns it.
func keepAt(cands []Candidate, k, i int) *Candidate {
	cands[k], cands[i] = cands[i], cands[k]
	return &cands[k]
}

// bySubtree orders candidates by ascending root subtree.
func bySubtree(a, b Candidate) int { return cmp.Compare(a.Subtree, b.Subtree) }

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
	sorted := topByScore(cands, keep)
	budget := len(cands)
	var total float64
	for _, c := range sorted {
		total += c.Score
	}
	// While the leftover children are handed out, Children carries
	// 2*rank + extra: rank (the position in score order) restores that
	// order afterwards, extra marks a leftover child.
	assigned := 0
	for i := range sorted {
		base, _ := childShare(sorted[i].Score, total, budget, keep)
		sorted[i].Children = 2 * i
		assigned += base
	}
	// Largest remainder for the leftover children.
	slices.SortStableFunc(sorted, func(a, b Candidate) int {
		_, fa := childShare(a.Score, total, budget, keep)
		_, fb := childShare(b.Score, total, budget, keep)
		switch {
		case fa > fb:
			return -1
		case fa < fb:
			return 1
		}
		return 0
	})
	for k := 0; assigned < budget && k < len(sorted); k++ {
		sorted[k].Children++
		assigned++
	}
	slices.SortFunc(sorted, func(a, b Candidate) int { return cmp.Compare(a.Children, b.Children) })
	kept := 0
	for i := range sorted {
		base, _ := childShare(sorted[i].Score, total, budget, keep)
		if children := base + sorted[i].Children&1; children > 0 {
			keepAt(cands, kept, i).Children = children
			kept++
		}
	}
	if kept == 0 { // degenerate all-zero scores: keep the best
		cands[0].Children = budget
		kept = 1
	}
	return cands[:kept]
}

// childShare is a kept candidate's claim on the budget children, split
// into whole children and the remainder: proportional to its score when
// the kept candidates' scores sum to a positive total, an even split of
// the budget over the keep of them otherwise.
func childShare(score, total float64, budget, keep int) (base int, frac float64) {
	share := float64(budget) / float64(keep)
	if total > 0 {
		share = score / total * float64(budget)
	}
	base = int(share)
	return base, share - float64(base)
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
	return branchEach(cands, 1)
}
