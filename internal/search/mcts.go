package search

import (
	"cmp"
	"math"
	"slices"

	"fasttts/internal/rng"
)

// MCTS is the Monte-Carlo-tree-search-style method of Fig 2's taxonomy.
// The paper excludes it from FastTTS's target pattern because multi-step
// lookahead "introduces significant sampling and latency overhead with
// inferior accuracy" (§2.2); it is implemented here as a comparison
// baseline so that claim is checkable.
const MCTS Algorithm = "MCTS"

// mcts runs a UCT-flavoured selection over root subtrees: each iteration
// the candidate pool is scored, per-subtree value statistics are updated,
// and the branching budget is allocated to subtrees by upper-confidence
// bound — so unlike beam search, under-explored subtrees keep receiving
// budget even when their current scores lag.
type mcts struct {
	n, b int
	// exploration constant of the UCB term.
	c float64
	// per-subtree statistics, accumulated across Select calls.
	visits map[int]int
	value  map[int]float64
	total  int
}

func newMCTS(n, b int) *mcts {
	return &mcts{
		n: n, b: b, c: 1.0,
		visits: map[int]int{},
		value:  map[int]float64{},
	}
}

func (p *mcts) Name() string             { return string(MCTS) }
func (p *mcts) Width() int               { return p.n }
func (p *mcts) BranchFactor() int        { return p.b }
func (p *mcts) StepBudget(int) int       { return DefaultStepBudget }
func (p *mcts) UsesVerifier() bool       { return true }
func (p *mcts) InitialSubtree(i int) int { return i / p.b }

// ucb returns the upper confidence bound of a subtree.
func (p *mcts) ucb(subtree int) float64 {
	v := p.visits[subtree]
	if v == 0 {
		return math.Inf(1)
	}
	mean := p.value[subtree] / float64(v)
	return mean + p.c*math.Sqrt(math.Log(float64(p.total+1))/float64(v))
}

// Select backs up the candidates' scores into their subtrees, then
// allocates the next width across subtrees by UCB: the winning subtree's
// best candidate branches wider.
func (p *mcts) Select(cands []Candidate, _ *rng.Stream) []Branch {
	if len(cands) == 0 {
		return nil
	}
	// Backpropagation: fold this round's scores into subtree statistics.
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
	// Allocation: rank live subtrees by UCB; each keeps its local best
	// candidate, and branching budget is distributed front-loaded so
	// high-UCB subtrees expand more.
	slices.SortStableFunc(subtrees, func(a, b int) int {
		if ua, ub := p.ucb(a), p.ucb(b); ua != ub {
			if ua > ub {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
	budget := len(cands)
	out := make([]Branch, 0, len(subtrees))
	remaining := budget
	for idx, st := range subtrees {
		group := bySubtree[st]
		best := group[0]
		for _, c := range group[1:] {
			if c.Score > best.Score || (c.Score == best.Score && c.ID < best.ID) {
				best = c
			}
		}
		// Front-loaded budget: the top-ranked subtree gets up to 2B
		// children, the tail at least 1, never exceeding the budget.
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
		out = append(out, Branch{ID: best.ID, Children: share})
		remaining -= share
	}
	// Any leftover budget tops up the best subtree.
	if remaining > 0 && len(out) > 0 {
		out[0].Children += remaining
	}
	return out
}
