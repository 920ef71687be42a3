// Package sched implements Dynamic Prefix-Aware Scheduling (paper §4.2,
// Fig 8, Appendix A) together with the Random and Worst-Case comparison
// orderings used in the evaluation (Fig 18 left), and the serving-level
// ServePolicy admission/ordering disciplines (FCFS, SJF, priority,
// deadline-SLO) used by the multi-tenant serving engine (serve.go).
//
// A reasoning path (CoT) is described by its lineage: the chain of
// radix-tree nodes from the root of the reasoning tree to the path's
// leaf, with a token count per node. The shared prefix P(a, b) of two
// paths is the token count along their common lineage prefix. The
// scheduler orders paths to maximize Σ P(cₖ, cₖ₊₁), which — given the
// constant-total-work assumption (Appendix A.1) — minimizes KV-cache
// evictions between consecutively executed groups.
//
// The two functions a solver calls every search iteration, PrefixAwareOrder
// and PackTries, run on a Scratch: tables indexed by node ID and stamped
// with a call epoch, so a call neither clears nor allocates anything once
// the tables have grown to the tree's size. That is why node IDs must be
// small non-negative integers (a solve numbers its nodes consecutively from
// zero). The package-level PrefixAwareOrder is that method on a throwaway
// Scratch, for callers that schedule once.
package sched

import (
	"slices"

	"fasttts/internal/rng"
)

// NodeRef is one reasoning-tree node along a path's lineage.
type NodeRef struct {
	// Node is the node's ID, unique within the reasoning tree. IDs index the
	// scheduler's tables: they must be non-negative and dense enough that a
	// table of max ID + 1 entries is affordable.
	Node   int
	Tokens int // tokens stored at this node
}

// Path is a schedulable reasoning path.
type Path struct {
	ID      int
	Lineage []NodeRef // root → leaf
}

// TotalTokens returns the path's full length in tokens.
func (p Path) TotalTokens() int {
	total := 0
	for _, n := range p.Lineage {
		total += n.Tokens
	}
	return total
}

// SharedPrefixTokens returns P(a, b): tokens along the common lineage
// prefix of the two paths.
func SharedPrefixTokens(a, b Path) int {
	shared := 0
	for i := 0; i < len(a.Lineage) && i < len(b.Lineage); i++ {
		if a.Lineage[i].Node != b.Lineage[i].Node {
			break
		}
		shared += a.Lineage[i].Tokens
	}
	return shared
}

// ScheduleScore is the surrogate objective Σₖ P(cₖ, cₖ₊₁) from §4.2.
func ScheduleScore(ordered []Path) int {
	score := 0
	for i := 0; i+1 < len(ordered); i++ {
		score += SharedPrefixTokens(ordered[i], ordered[i+1])
	}
	return score
}

// NodeSet is a set of node IDs backed by a table indexed by ID, emptied in
// O(1): stamp[node] == epoch means node is a member, and bumping epoch
// forgets every member at once. The zero value is an empty set.
type NodeSet struct {
	epoch uint32
	stamp []uint32
}

// Clear empties the set, keeping its table.
func (s *NodeSet) Clear() {
	s.epoch++
	if s.epoch == 0 { // wrapped: stale stamps could alias the new epoch
		clear(s.stamp)
		s.epoch = 1
	}
}

// Has reports whether node is a member.
func (s *NodeSet) Has(node int) bool {
	return node < len(s.stamp) && s.stamp[node] == s.epoch
}

// Add makes node a member and reports whether it was not one already.
func (s *NodeSet) Add(node int) bool {
	if s.epoch == 0 {
		s.epoch = 1 // zero value: the table is still empty, so 1 marks members
	}
	if node >= len(s.stamp) {
		s.stamp = append(s.stamp, make([]uint32, node+1-len(s.stamp))...)
	}
	if s.stamp[node] == s.epoch {
		return false
	}
	s.stamp[node] = s.epoch
	return true
}

// Scratch is the reusable working storage of PrefixAwareOrder and
// PackTries. The zero value is ready. What a method returns is the
// scratch's own storage, overwritten by the next call of that method.
type Scratch struct {
	nodes NodeSet // seen by the call or, in PackTries, the open trie
	rank  []int32 // per node ID: first-appearance rank, for members of nodes
	order []Path
	tries []Trie
}

// PrefixAwareOrder is the production implementation of the greedy policy:
// beams spawned from the same parent are grouped adjacently while the
// relative order of parents is preserved across iterations (§4.2 final
// paragraph). This equals a DFS ordering of the reasoning tree where
// sibling order follows first appearance in the input queue, and runs in
// O(n·d·log n) rather than the O(n²) literal greedy.
func PrefixAwareOrder(paths []Path) []Path {
	var s Scratch
	return s.PrefixAwareOrder(paths)
}

// PrefixAwareOrder orders paths as the package-level function does.
func (s *Scratch) PrefixAwareOrder(paths []Path) []Path {
	// Rank nodes by first appearance so the sort preserves queue order.
	s.nodes.Clear()
	next := int32(0)
	for _, p := range paths {
		for _, n := range p.Lineage {
			if s.nodes.Add(n.Node) {
				if n.Node >= len(s.rank) {
					s.rank = append(s.rank, make([]int32, n.Node+1-len(s.rank))...)
				}
				s.rank[n.Node] = next
				next++
			}
		}
	}
	s.order = append(s.order[:0], paths...)
	slices.SortStableFunc(s.order, s.byRank)
	return s.order
}

// byRank compares two paths node by node in first-appearance rank; a path
// sorts before its extensions.
func (s *Scratch) byRank(x, y Path) int {
	a, b := x.Lineage, y.Lineage
	for k := 0; k < len(a) && k < len(b); k++ {
		if ra, rb := s.rank[a[k].Node], s.rank[b[k].Node]; ra != rb {
			return int(ra - rb)
		}
	}
	return len(a) - len(b)
}

// RandomOrder shuffles the paths in place and returns them (the
// vLLM-baseline behaviour: insertion order scrambled by beam replication,
// Fig 18 caption). A caller that still needs the original order passes a
// copy.
func RandomOrder(paths []Path, r *rng.Stream) []Path {
	r.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	return paths
}

// MaxGrowthOrder is the adversarial ordering for KV *growth*: it
// repeatedly schedules the unscheduled path that adds the most new unique
// tokens given everything already scheduled (farthest-first traversal).
// This is the "Worst-Case" curve of Fig 18 (left): the batch's KV
// footprint grows as fast as possible.
func MaxGrowthOrder(paths []Path) []Path {
	if len(paths) == 0 {
		return nil
	}
	used := make([]bool, len(paths))
	seen := map[int]bool{}
	out := make([]Path, 0, len(paths))
	for len(out) < len(paths) {
		bestIdx, bestNew := -1, -1
		for i, p := range paths {
			if used[i] {
				continue
			}
			added := 0
			for _, n := range p.Lineage {
				if !seen[n.Node] {
					added += n.Tokens
				}
			}
			if added > bestNew {
				bestIdx, bestNew = i, added
			}
		}
		p := paths[bestIdx]
		used[bestIdx] = true
		for _, n := range p.Lineage {
			seen[n.Node] = true
		}
		out = append(out, p)
	}
	return out
}

// Trie is one memory-resident batch: the largest group of consecutively
// scheduled paths whose union of lineage nodes fits the KV budget (§4.2).
type Trie struct {
	// Paths is the trie's run of the ordered schedule — a sub-slice of the
	// slice given to PackTries, not a copy.
	Paths []Path
}

// PackTries partitions an ordered schedule into consecutive tries, each
// fitting capacityTokens of KV memory. A single path larger than the
// budget gets its own (oversized) trie; the engine streams it.
func (s *Scratch) PackTries(ordered []Path, capacityTokens int) []Trie {
	s.tries = s.tries[:0]
	s.nodes.Clear()
	start, unique := 0, 0 // the open trie is ordered[start:i]
	for i, p := range ordered {
		added := 0
		for _, n := range p.Lineage {
			if !s.nodes.Has(n.Node) {
				added += n.Tokens
			}
		}
		if i > start && unique+added > capacityTokens {
			s.tries = append(s.tries, Trie{Paths: ordered[start:i:i]})
			s.nodes.Clear()
			start, unique = i, 0
			added = p.TotalTokens()
		}
		for _, n := range p.Lineage {
			s.nodes.Add(n.Node)
		}
		unique += added
	}
	if n := len(ordered); n > start {
		s.tries = append(s.tries, Trie{Paths: ordered[start:n:n]})
	}
	return s.tries
}

// PairwiseShared returns the matrix of shared-prefix token counts for an
// ordered schedule — the Fig 5 (right) heatmap.
func PairwiseShared(ordered []Path) [][]int {
	m := make([][]int, len(ordered))
	for i := range ordered {
		m[i] = make([]int, len(ordered))
		for j := range ordered {
			m[i][j] = SharedPrefixTokens(ordered[i], ordered[j])
		}
	}
	return m
}

// CumulativeUniqueTokens returns, for each prefix of the schedule, the KV
// footprint (unique tokens) of the first k+1 paths — the Fig 18 (left)
// "KV cache size vs batch growth" curve.
func CumulativeUniqueTokens(ordered []Path) []int {
	seen := map[int]bool{}
	out := make([]int, len(ordered))
	total := 0
	for i, p := range ordered {
		for _, n := range p.Lineage {
			if !seen[n.Node] {
				seen[n.Node] = true
				total += n.Tokens
			}
		}
		out[i] = total
	}
	return out
}
