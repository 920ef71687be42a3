// Package verify implements the discriminative Process Reward Model
// (PRM) side of the serving system (paper §2.2): batched scoring of
// reasoning paths on the verifier engine, with optional cross-request
// prefix caching and LookAhead Verification (§4.1.3).
//
// A discriminative PRM takes the full reasoning path as input and scores
// it in a single prefill pass. The engine cost of scoring is therefore
// the prefill of whatever part of the path is not already resident in the
// verifier's KV cache. LookAhead Verification concatenates the current
// step with the retained speculative step and scores them in one request,
// so the shared prefix is attended once instead of twice across
// iterations.
package verify

import (
	"errors"
	"slices"

	"fasttts/internal/engine"
	"fasttts/internal/kvcache"
	"fasttts/internal/rng"
	"fasttts/internal/trace"
	"fasttts/internal/workload"
)

// Verifier wraps the verifier engine with scoring policy.
type Verifier struct {
	Eng   *engine.Engine
	Skill workload.VerifierSkill
	// BatchSize is B_pre: requests per prefill batch (from the
	// asymmetric allocator, §4.3.1).
	BatchSize int
	// PrefixCache enables KV reuse across requests and iterations.
	// The vLLM-baseline PRM pipeline recomputes each request from
	// scratch (the paper's "naive but robust" §6.1 baseline); FastTTS
	// caches.
	PrefixCache bool
	// LookAhead co-verifies speculative tokens with the current step.
	LookAhead bool

	// Scored counts scoring requests served.
	Scored int64

	// Per-call working storage, reused across ScoreAll calls.
	scores  []float64
	items   []engine.PrefillItem
	merged  []kvcache.Run  // committed + speculative path of the request in hand
	handles []*kvcache.Seq // cache handles; the first held are pinned by the open batch
	held    int
}

// Request is one path to score.
type Request struct {
	// Tokens is the committed path: prompt plus all verified thinking
	// steps, including the step generated this iteration.
	Tokens []kvcache.Run
	// SpecTokens is the retained speculative continuation; co-verified
	// only when LookAhead is enabled.
	SpecTokens []kvcache.Run
	// Covered counts leading tokens already scored by an earlier
	// LookAhead pass (§4.1.3). A discriminative PRM emits per-step scores
	// in one forward pass, so covered steps need no further engine work;
	// a request whose tokens are fully covered skips the verifier
	// entirely. Only meaningful when PrefixCache is enabled.
	Covered int
	// State is the path's latent state; the score is a noisy observation
	// of it. Speculative tokens never influence the score (algorithmic
	// equivalence, §4.1).
	State *workload.PathState
	// R is the beam's private sampling stream.
	R *rng.Stream
}

// ScoreAll scores every request, charging the verifier engine for the
// prefill work, and returns the scores aligned with reqs. The returned
// slice is the verifier's own and is overwritten by the next call.
func (v *Verifier) ScoreAll(reqs []Request) []float64 {
	v.scores = slices.Grow(v.scores[:0], len(reqs))[:len(reqs)]
	batch := v.BatchSize
	if batch < 1 {
		batch = 1
	}
	for i := range reqs {
		req := &reqs[i]
		tk := req.Tokens
		if v.LookAhead && len(req.SpecTokens) > 0 {
			v.merged = append(append(v.merged[:0], tk...), req.SpecTokens...)
			tk = v.merged
		}
		covered := 0
		if v.PrefixCache {
			covered = req.Covered
		}
		if it, needed := v.charge(tk, covered); needed {
			v.items = append(v.items, it)
			if len(v.items) >= batch {
				v.flush()
			}
		}
		// The score observes the committed state only.
		v.scores[i] = workload.Score(req.State, v.Skill, req.R)
		v.Scored++
	}
	v.flush()
	return v.scores
}

// flush charges the open prefill batch and unpins its paths.
func (v *Verifier) flush() {
	v.Eng.PrefillBatch(v.items, trace.PhaseVerify)
	v.items = v.items[:0]
	for _, s := range v.handles[:v.held] {
		v.Eng.Cache.Release(s)
	}
	v.held = 0
}

// charge computes the prefill item for one request, using the cache when
// enabled. Covered tokens are charged at most once across the path's
// lifetime: their per-step scores were produced by an earlier merged
// pass, so the verifier only processes the uncovered suffix.
func (v *Verifier) charge(tk []kvcache.Run, covered int) (engine.PrefillItem, bool) {
	total := kvcache.Len(tk)
	if !v.PrefixCache {
		return engine.PrefillItem{NewTokens: total, CtxTokens: total}, true
	}
	uncovered := total - covered
	if uncovered <= 0 {
		// Fully covered by a previous LookAhead pass: no verifier call.
		return engine.PrefillItem{}, false
	}
	newTokens := uncovered
	if v.held == len(v.handles) {
		v.handles = append(v.handles, new(kvcache.Seq))
	}
	_, miss, err := v.Eng.Cache.AcquireInto(v.handles[v.held], tk)
	switch {
	case err == nil:
		v.held++
		if miss < newTokens {
			newTokens = miss
		}
	case errors.Is(err, kvcache.ErrPinned):
		// The running batch pins the whole cache; stream uncached.
	default: // ErrTooLarge: path exceeds the verifier cache entirely.
	}
	return engine.PrefillItem{NewTokens: newTokens, CtxTokens: total}, true
}
