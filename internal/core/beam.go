package core

import (
	"slices"

	"fasttts/internal/kvcache"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/workload"
)

// Token identity layout: every reasoning-tree node (prompt, thinking step,
// speculative branch) gets a unique node ID, which is its kvcache stream, so
// a node's tokens are one kvcache.Run from kvcache.Stream(k) and a beam's
// path is one run per node on its genealogy (appendNodeRuns), never a
// materialized token array. Children copy their parent's runs, so equal
// genealogy prefixes are equal token sequences and the radix caches share
// them physically.

// appendNodeRuns appends the first count tokens of node to dst as one run
// of its own: callers index dst by node boundary.
func appendNodeRuns(dst []kvcache.Run, node, count int) []kvcache.Run {
	return append(dst, kvcache.Run{First: kvcache.Stream(uint32(node)), N: count})
}

// LineageRuns is a scheduled path's token sequence under the same layout:
// its genealogy's nodes in order, one run each, so code outside the solver
// that rebuilds a beam's tokens from a sched.Path (the block-size ablation)
// names them exactly as the solver does.
func LineageRuns(path sched.Path) []kvcache.Run {
	runs := make([]kvcache.Run, 0, len(path.Lineage))
	for _, ref := range path.Lineage {
		runs = appendNodeRuns(runs, ref.Node, ref.Tokens)
	}
	return runs
}

// specBranch is one speculative continuation generated for a finished
// beam during the current iteration (§4.1.1).
type specBranch struct {
	node   int
	count  int // tokens decoded so far
	cap    int // token budget: the pre-sampled next step's length
	ctxLen int // context length when the branch started (for ctx sums)
}

// beam is one active reasoning path. Beams are recycled through their
// solver's free list (solver.newBeam/freeBeam) with the capacity of every
// slice below; nothing may hold a *beam past the iteration that freed it.
type beam struct {
	id      int
	subtree int
	state   workload.PathState

	// tokens is the committed sequence: prompt + all thinking steps,
	// including the step being generated this iteration (token values
	// are known upfront; decode rounds only account for the time), as
	// runs that never merge across nodes; tokLen is its token count and
	// freshAt the index of the first run of this iteration's fresh step.
	tokens  []kvcache.Run
	tokLen  int
	freshAt int
	lineage []sched.NodeRef

	// pending are speculative tokens retained from previous iterations
	// that have not been committed into a step yet (the beam's "head
	// start"), pendLen tokens in all; pendingLin tracks their node
	// structure.
	pending    []kvcache.Run
	pendLen    int
	pendingLin []sched.NodeRef

	// Per-iteration working state.
	stepTerminal bool // step concludes the path
	rem          int  // decode rounds still needed this iteration
	specs        []specBranch
	specEligible int  // M_i: remaining speculative branches allowed
	selected     bool // picked by this iteration's selection (selectAndBranch only)

	// nextSteps is the queue of pre-sampled upcoming thinking steps
	// (drawn as speculation advances, §4.1.3); commitStep consumes them
	// in order. Pre-sampling preserves algorithmic equivalence because
	// each stream serves a single purpose, so per-stream draw order is
	// identical with and without speculation.
	nextSteps []workload.Step

	score    float64 // latest verifier score
	hasScore bool
	// verifiedLen is the PRM high-water mark: committed+speculative
	// tokens already run through the verifier (LookAhead Verification
	// lets fully covered beams skip engine work next iteration, §4.1.3).
	verifiedLen int
	seq         kvcache.Seq   // generator-cache handle, live while resident
	resident    bool          // seq pins the beam's path (execTrie only)
	chain       []kvcache.Run // specChain's result, rebuilt per call
	r           rng.Stream    // step-sampling stream
	obsR        rng.Stream    // verifier-score and answer stream
	specR       rng.Stream    // speculation-only stream (truncation draws)
	answer      int
}

// schedPath adapts the beam for the prefix-aware scheduler.
func (b *beam) schedPath() sched.Path {
	return sched.Path{ID: b.id, Lineage: b.lineage}
}

// takePending consumes up to n pending tokens into the committed
// sequence, returning how many were consumed.
func (b *beam) takePending(n int) int {
	if n > b.pendLen {
		n = b.pendLen
	}
	if n == 0 {
		return 0
	}
	b.tokLen += n
	b.pendLen -= n
	// Move runs across, splitting the last one if needed.
	k := 0 // pending runs wholly consumed
	for remaining := n; remaining > 0; {
		run := b.pending[k]
		if run.N <= remaining {
			k++
		} else {
			b.pending[k] = kvcache.Run{First: run.First + kvcache.Token(remaining), N: run.N - remaining}
			run.N = remaining
		}
		b.tokens = append(b.tokens, run)
		remaining -= run.N
	}
	// Shifted down, not resliced: the slice keeps its backing array's full
	// capacity for the beam's next life.
	b.pending = slices.Delete(b.pending, 0, k)
	// Move lineage refs across likewise.
	k = 0
	for remaining := n; remaining > 0; {
		ref := b.pendingLin[k]
		if ref.Tokens <= remaining {
			b.lineage = append(b.lineage, ref)
			remaining -= ref.Tokens
			k++
		} else {
			b.lineage = append(b.lineage, sched.NodeRef{Node: ref.Node, Tokens: remaining})
			b.pendingLin[k] = sched.NodeRef{Node: ref.Node, Tokens: ref.Tokens - remaining}
			remaining = 0
		}
	}
	b.pendingLin = slices.Delete(b.pendingLin, 0, k)
	return n
}

// specChain returns all currently known speculative tokens for the
// beam: leftover pending plus the primary (first) spec branch, in decode
// order. LookAhead Verification scores them with the committed path. The
// result lives in the beam and is valid until its next specChain call.
func (b *beam) specChain() []kvcache.Run {
	b.chain = append(b.chain[:0], b.pending...)
	if len(b.specs) > 0 && b.specs[0].count > 0 {
		b.chain = appendNodeRuns(b.chain, b.specs[0].node, b.specs[0].count)
	}
	return b.chain
}

// adoptSpecChain turns the beam's primary spec branch into pending tokens
// behind whatever is pending already — the head start a selected beam
// carries into the next iteration — and drops all spec branches.
func (b *beam) adoptSpecChain() {
	if len(b.specs) > 0 && b.specs[0].count > 0 {
		sp := b.specs[0]
		b.pending = appendNodeRuns(b.pending, sp.node, sp.count)
		b.pendingLin = append(b.pendingLin, sched.NodeRef{Node: sp.node, Tokens: sp.count})
		b.pendLen += sp.count
	}
	b.specs = b.specs[:0]
}
