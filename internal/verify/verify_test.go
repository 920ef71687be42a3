package verify

import (
	"testing"

	"fasttts/internal/engine"
	"fasttts/internal/hw"
	"fasttts/internal/kvcache"
	"fasttts/internal/model"
	"fasttts/internal/rng"
	"fasttts/internal/sim"
	"fasttts/internal/workload"
)

func newVerifier(t *testing.T, prefixCache, lookahead bool, kvBytes int64) (*Verifier, *sim.Clock) {
	t.Helper()
	clk := &sim.Clock{}
	eng, err := engine.New("verifier", model.SkyworkPRM1_5B, hw.RTX4090, kvBytes, clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &Verifier{
		Eng:         eng,
		Skill:       workload.SkillSkywork1_5B,
		BatchSize:   8,
		PrefixCache: prefixCache,
		LookAhead:   lookahead,
	}, clk
}

func seqTok(node, n int) []kvcache.Run {
	return []kvcache.Run{{First: kvcache.Token(node << 12), N: n}}
}

func req(tokens []kvcache.Run, st *workload.PathState, r *rng.Stream) Request {
	return Request{Tokens: tokens, State: st, R: r}
}

func TestScoreAllReturnsAlignedScores(t *testing.T) {
	v, _ := newVerifier(t, true, false, 1<<30)
	r := rng.New(1)
	good := &workload.PathState{Quality: 2}
	bad := &workload.PathState{Quality: -2}
	scores := v.ScoreAll([]Request{
		req(seqTok(1, 100), good, r.Child("a")),
		req(seqTok(2, 100), bad, r.Child("b")),
	})
	if len(scores) != 2 {
		t.Fatalf("scores = %d", len(scores))
	}
	if scores[0] <= scores[1] {
		t.Errorf("good path scored %v <= bad path %v", scores[0], scores[1])
	}
}

func TestPrefixCacheSavesRepeatScoring(t *testing.T) {
	// Scoring the same growing path twice: the second pass should cost
	// far less time with the cache than without.
	run := func(prefixCache bool) float64 {
		v, clk := newVerifier(t, prefixCache, false, 1<<30)
		r := rng.New(2)
		st := &workload.PathState{}
		base := seqTok(1, 500)
		v.ScoreAll([]Request{req(base, st, r)})
		t1 := clk.Now()
		longer := append(append([]kvcache.Run(nil), base...), seqTok(2, 100)...)
		v.ScoreAll([]Request{req(longer, st, r)})
		return clk.Now() - t1
	}
	cached := run(true)
	uncached := run(false)
	if cached >= uncached {
		t.Errorf("cached second pass %.2e not cheaper than uncached %.2e", cached, uncached)
	}
}

func TestSiblingSharingWithinBatch(t *testing.T) {
	// Two siblings share a 500-token parent prefix; with the cache the
	// second sibling only pays its 50-token suffix.
	v, clk := newVerifier(t, true, false, 1<<30)
	r := rng.New(3)
	parent := seqTok(1, 500)
	a := append(append([]kvcache.Run(nil), parent...), seqTok(2, 50)...)
	b := append(append([]kvcache.Run(nil), parent...), seqTok(3, 50)...)
	st := &workload.PathState{}
	v.ScoreAll([]Request{req(a, st, r)})
	t1 := clk.Now()
	v.ScoreAll([]Request{req(b, st, r)})
	dt := clk.Now() - t1
	// An uncached verifier would prefill all 550 tokens.
	v2, clk2 := newVerifier(t, false, false, 1<<30)
	v2.ScoreAll([]Request{req(a, st, rng.New(3))})
	t2 := clk2.Now()
	v2.ScoreAll([]Request{req(b, st, rng.New(3))})
	dtUncached := clk2.Now() - t2
	if dt >= dtUncached {
		t.Errorf("sibling scoring with cache %.2e not cheaper than without %.2e", dt, dtUncached)
	}
}

func TestLookAheadCoVerifiesSpec(t *testing.T) {
	v, clkLA := newVerifier(t, true, true, 1<<30)
	r := rng.New(4)
	st := &workload.PathState{}
	tk := seqTok(1, 200)
	spec := seqTok(2, 100)
	v.ScoreAll([]Request{{Tokens: tk, SpecTokens: spec, State: st, R: r}})
	withSpec := clkLA.Now()
	v2, clk2 := newVerifier(t, true, true, 1<<30)
	v2.ScoreAll([]Request{{Tokens: tk, State: st, R: rng.New(4)}})
	withoutSpec := clk2.Now()
	if withSpec <= withoutSpec {
		t.Errorf("co-verification %.2e should cost more than plain %.2e", withSpec, withoutSpec)
	}
	// With LookAhead disabled, spec tokens are ignored.
	v3, clk3 := newVerifier(t, true, false, 1<<30)
	v3.ScoreAll([]Request{{Tokens: tk, SpecTokens: spec, State: st, R: rng.New(4)}})
	if clk3.Now() != withoutSpec {
		t.Errorf("spec tokens charged despite LookAhead off: %.2e vs %.2e", clk3.Now(), withoutSpec)
	}
}

func TestCoveredSkipsEngineWork(t *testing.T) {
	v, clk := newVerifier(t, true, true, 1<<30)
	r := rng.New(5)
	st := &workload.PathState{}
	tk := seqTok(1, 300)
	before := clk.Now()
	scores := v.ScoreAll([]Request{{Tokens: tk, Covered: 300, State: st, R: r}})
	if clk.Now() != before {
		t.Errorf("fully covered request charged engine time")
	}
	if len(scores) != 1 || scores[0] < 0 || scores[0] > 1 {
		t.Errorf("covered request must still produce a score: %v", scores)
	}
	// Partial coverage charges only the uncovered suffix.
	v2, clk2 := newVerifier(t, true, true, 1<<30)
	v2.ScoreAll([]Request{{Tokens: tk, Covered: 250, State: st, R: rng.New(5)}})
	partial := clk2.Now()
	v3, clk3 := newVerifier(t, true, true, 1<<30)
	v3.ScoreAll([]Request{{Tokens: tk, State: st, R: rng.New(5)}})
	full := clk3.Now()
	if partial >= full {
		t.Errorf("partially covered %.2e not cheaper than uncovered %.2e", partial, full)
	}
}

func TestCoveredIgnoredWithoutPrefixCache(t *testing.T) {
	// The baseline pipeline has no score memoization: Covered is a
	// FastTTS-runtime concept and must not discount baseline charges.
	v, clk := newVerifier(t, false, false, 1<<30)
	st := &workload.PathState{}
	v.ScoreAll([]Request{{Tokens: seqTok(1, 300), Covered: 300, State: st, R: rng.New(6)}})
	if clk.Now() == 0 {
		t.Error("baseline verifier skipped work based on Covered")
	}
}

func TestTinyCacheStillScores(t *testing.T) {
	// A path larger than the whole verifier cache must still be scored
	// (streamed uncached).
	v, clk := newVerifier(t, true, false, 64*28672) // 64 tokens of cache
	st := &workload.PathState{}
	scores := v.ScoreAll([]Request{req(seqTok(1, 500), st, rng.New(7))})
	if len(scores) != 1 || clk.Now() == 0 {
		t.Error("oversized path was not scored")
	}
}

func TestScoreDrawsIndependentOfCharging(t *testing.T) {
	// Identical streams must yield identical scores regardless of cache
	// configuration (the equivalence property core relies on).
	st1 := &workload.PathState{Quality: 0.4}
	st2 := &workload.PathState{Quality: 0.4}
	v1, _ := newVerifier(t, true, true, 1<<30)
	v2, _ := newVerifier(t, false, false, 1<<30)
	s1 := v1.ScoreAll([]Request{{Tokens: seqTok(1, 100), SpecTokens: seqTok(2, 30), State: st1, R: rng.New(8)}})
	s2 := v2.ScoreAll([]Request{{Tokens: seqTok(1, 100), State: st2, R: rng.New(8)}})
	if s1[0] != s2[0] {
		t.Errorf("scores differ across configurations: %v vs %v", s1[0], s2[0])
	}
}

func TestBatchingBoundsBatches(t *testing.T) {
	v, _ := newVerifier(t, true, false, 1<<30)
	v.BatchSize = 4
	var reqs []Request
	r := rng.New(9)
	for i := 0; i < 10; i++ {
		reqs = append(reqs, req(seqTok(i+1, 50), &workload.PathState{}, r.Child(string(rune('a'+i)))))
	}
	scores := v.ScoreAll(reqs)
	if len(scores) != 10 {
		t.Fatalf("scores = %d", len(scores))
	}
	if v.Eng.PrefilledTokens != 500 {
		t.Errorf("prefilled = %d, want 500", v.Eng.PrefilledTokens)
	}
}

// When live requests pin the whole verifier cache mid-batch, further
// requests stream uncached instead of failing (the ErrPinned fallback).
func TestPinnedCacheFallsBackToStreaming(t *testing.T) {
	// Cache of 200 tokens; batch of 3 requests x 100 tokens: the third
	// cannot be pinned alongside the first two.
	v, clk := newVerifier(t, true, false, 200*28672)
	v.BatchSize = 3
	r := rng.New(11)
	var reqs []Request
	for i := 0; i < 3; i++ {
		reqs = append(reqs, req(seqTok(i+1, 100), &workload.PathState{}, r.Child(string(rune('a'+i)))))
	}
	scores := v.ScoreAll(reqs)
	if len(scores) != 3 {
		t.Fatalf("scores = %d", len(scores))
	}
	if clk.Now() <= 0 {
		t.Error("no engine time charged")
	}
	// All tokens were charged exactly once (two cached + one streamed).
	if v.Eng.PrefilledTokens != 300 {
		t.Errorf("prefilled = %d, want 300", v.Eng.PrefilledTokens)
	}
}

// A warm verifier scores a batch — merged LookAhead paths, cache handles,
// prefill items, the score slice — out of its own storage.
func TestScoreAllWarmAllocatesNothing(t *testing.T) {
	v, _ := newVerifier(t, true, true, 1<<30)
	v.BatchSize = 4
	r := rng.New(12)
	var reqs []Request
	for i := 0; i < 10; i++ {
		reqs = append(reqs, Request{
			Tokens: seqTok(i+1, 50), SpecTokens: seqTok(100+i, 20),
			State: &workload.PathState{}, R: r.ChildN("beam", i),
		})
	}
	first := append([]float64(nil), v.ScoreAll(reqs)...)
	if got := testing.AllocsPerRun(20, func() { v.ScoreAll(reqs) }); got != 0 {
		t.Errorf("warm ScoreAll: %v allocs, want 0", got)
	}
	if len(first) != 10 || v.held != 0 || len(v.items) != 0 {
		t.Errorf("scores=%d held=%d items=%d after ScoreAll", len(first), v.held, len(v.items))
	}
}
