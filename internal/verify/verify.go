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
// prefill work, and returns the scores aligned with reqs.
func (v *Verifier) ScoreAll(reqs []Request) []float64 {
	scores := make([]float64, len(reqs))
	batch := v.BatchSize
	if batch < 1 {
		batch = 1
	}
	var items []engine.PrefillItem
	var held []*kvcache.Seq
	var merged []kvcache.Run // committed + speculative path, reused
	flush := func() {
		v.Eng.PrefillBatch(items, trace.PhaseVerify)
		items = items[:0]
		for _, s := range held {
			v.Eng.Cache.Release(s)
		}
		held = held[:0]
	}
	for i, req := range reqs {
		tk := req.Tokens
		if v.LookAhead && len(req.SpecTokens) > 0 {
			merged = append(append(merged[:0], tk...), req.SpecTokens...)
			tk = merged
		}
		covered := 0
		if v.PrefixCache {
			covered = req.Covered
		}
		if it, needed := v.charge(tk, covered, &held); needed {
			items = append(items, it)
			if len(items) >= batch {
				flush()
			}
		}
		// The score observes the committed state only.
		scores[i] = workload.Score(req.State, v.Skill, req.R)
		v.Scored++
	}
	flush()
	return scores
}

// charge computes the prefill item for one request, using the cache when
// enabled. Covered tokens are charged at most once across the path's
// lifetime: their per-step scores were produced by an earlier merged
// pass, so the verifier only processes the uncovered suffix.
func (v *Verifier) charge(tk []kvcache.Run, covered int, held *[]*kvcache.Seq) (engine.PrefillItem, bool) {
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
	seq, _, miss, err := v.Eng.Cache.AcquireRuns(tk)
	switch {
	case err == nil:
		*held = append(*held, seq)
		if miss < newTokens {
			newTokens = miss
		}
	case errors.Is(err, kvcache.ErrPinned):
		// The running batch pins the whole cache; stream uncached.
	default: // ErrTooLarge: path exceeds the verifier cache entirely.
	}
	return engine.PrefillItem{NewTokens: newTokens, CtxTokens: total}, true
}
