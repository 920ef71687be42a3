package core

import (
	"reflect"
	"sync"
	"testing"

	"fasttts/internal/hw"
	"fasttts/internal/model"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// Offloading must engage — and charge PCIe transfer time — when the
// verifier's KV appetite dwarfs a tiny shared budget (§4.3.2).
func TestOffloadEngagesAndChargesTransfers(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 32, 4)
	opts := FastTTSOptions()
	opts.AllowOffload = true
	cfg := Config{
		GPU:              hw.RTX4090,
		Generator:        model.Qwen25Math1_5B,
		GenSkill:         workload.SkillQwen1_5B,
		Verifier:         model.ShepherdPRM7B, // 128 KiB/token KV
		VerSkill:         workload.SkillShepherd7B,
		MemoryFraction:   0.9,
		KVBudgetOverride: 384 << 20, // 384 MiB shared budget
		Policy:           pol,
		Opts:             opts,
		Seed:             42,
	}
	res := solveOne(t, cfg, aimeProblem(t, 0))
	if res.TransferTime == 0 {
		t.Skip("allocator found partitioning cheaper at this budget; offload not exercised")
	}
	if res.TransferTime <= 0 || res.TransferTime >= res.Latency {
		t.Errorf("transfer time %v outside (0, latency %v)", res.TransferTime, res.Latency)
	}
}

// The generator prefix cache is what lets FastTTS avoid re-prefilling
// full paths: baseline recompute must dwarf FastTTS recompute.
func TestPrefixCacheCutsRecompute(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 64, 4)
	p := aimeProblem(t, 2)
	base := solveOne(t, testConfig(t, pol, BaselineOptions()), p)
	fast := solveOne(t, testConfig(t, pol, FastTTSOptions()), p)
	if base.RecomputedTokens < 10*fast.RecomputedTokens {
		t.Errorf("baseline recompute %d not >> FastTTS %d",
			base.RecomputedTokens, fast.RecomputedTokens)
	}
}

// Verifier-side prefix-aware ordering: with a tight verifier cache,
// grouping siblings adjacently should cut verifier time versus random
// order, holding everything else fixed.
func TestVerifierOrderingEffect(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 128, 4)
	p := aimeProblem(t, 0)
	base := Options{
		PrefixCache:        true,
		StaticVerifierFrac: 0.1, // starve the verifier cache
	}
	ordered := base
	ordered.PrefixAware = true
	cfgRandom := testConfig(t, pol, base)
	cfgOrdered := testConfig(t, pol, ordered)
	r1 := solveOne(t, cfgRandom, p)
	r2 := solveOne(t, cfgOrdered, p)
	if r2.VerTime >= r1.VerTime {
		t.Errorf("prefix-aware verifier time %v not below random %v",
			r2.VerTime, r1.VerTime)
	}
}

// Per-path goodput decays as the search widens (more beams share the
// same hardware), in both systems — the denominator of every Fig 12
// panel.
func TestGoodputDecaysWithN(t *testing.T) {
	p := aimeProblem(t, 0)
	for _, opts := range []Options{BaselineOptions(), FastTTSOptions()} {
		prev := 1e18
		for _, n := range []int{8, 32, 128} {
			pol, _ := search.New(search.BeamSearch, n, 4)
			res := solveOne(t, testConfig(t, pol, opts), p)
			if res.Goodput >= prev {
				t.Errorf("goodput did not decay at n=%d: %v -> %v", n, prev, res.Goodput)
			}
			prev = res.Goodput
		}
	}
}

// MCTS runs end-to-end through the same runtime and preserves
// baseline/FastTTS equivalence.
func TestMCTSEndToEnd(t *testing.T) {
	pol, err := search.New(search.MCTS, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := aimeProblem(t, 3)
	// One policy for both runs: each search takes statistics of its own.
	base := solveOne(t, testConfig(t, pol, BaselineOptions()), p)
	fast := solveOne(t, testConfig(t, pol, FastTTSOptions()), p)
	if len(base.Finished) == 0 || len(base.Finished) != len(fast.Finished) {
		t.Fatalf("finished %d vs %d", len(base.Finished), len(fast.Finished))
	}
	for i := range base.Finished {
		if base.Finished[i].Answer != fast.Finished[i].Answer ||
			base.Finished[i].Tokens != fast.Finished[i].Tokens {
			t.Fatalf("MCTS equivalence broken at path %d", i)
		}
	}
}

// MCTS keeps per-subtree statistics across its selections; a search must
// start from none, whatever the Runner solved before. Problem 0 solved
// again after problem 1 gives the result it gave the first time.
func TestMCTSSearchesShareNoStatistics(t *testing.T) {
	pol, err := search.New(search.MCTS, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(testConfig(t, pol, FastTTSOptions()))
	if err != nil {
		t.Fatal(err)
	}
	var res [3]*Result
	for i, idx := range []int{0, 1, 0} {
		if res[i], err = r.Solve(aimeProblem(t, idx)); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(res[0], res[2]) {
		t.Errorf("problem 0 after problem 1: latency %v, first time %v", res[2].Latency, res[0].Latency)
	}
}

// A Runner is safe to share between goroutines: two concurrent MCTS
// searches on one Runner (its policy shared) race on nothing — go test
// -race checks that — and each gives the result it gives alone.
func TestRunnerSolveConcurrently(t *testing.T) {
	pol, err := search.New(search.MCTS, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(testConfig(t, pol, FastTTSOptions()))
	if err != nil {
		t.Fatal(err)
	}
	problems := []*workload.Problem{aimeProblem(t, 0), aimeProblem(t, 1)}
	var got [2]*Result
	var errs [2]error
	var wg sync.WaitGroup
	for i, p := range problems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = r.Solve(p)
		}()
	}
	wg.Wait()
	for i, p := range problems {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if want := solveOne(t, testConfig(t, pol, FastTTSOptions()), p); !reflect.DeepEqual(got[i], want) {
			t.Errorf("problem %d solved concurrently: latency %v, alone %v", i, got[i].Latency, want.Latency)
		}
	}
}

// The serving loop is FCFS and deterministic.
func TestServerDeterministicFCFS(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 16, 4)
	cfg := testConfig(t, pol, FastTTSOptions())
	mk := func() []ServedResult {
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := srv.Run([]Request{
			{Problem: aimeProblem(t, 0), Arrival: 10, Tag: 0},
			{Problem: aimeProblem(t, 1), Arrival: 0, Tag: 1},
			{Problem: aimeProblem(t, 2), Arrival: 5, Tag: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := mk()
	b := mk()
	if len(a) != 3 {
		t.Fatalf("served %d", len(a))
	}
	// Sorted by arrival: problems 1, 2, 0.
	if a[0].Tag != 1 {
		t.Errorf("first served = request %d, want the earliest arrival (1)", a[0].Tag)
	}
	for i := range a {
		if a[i].Finish != b[i].Finish || a[i].Result.Goodput != b[i].Result.Goodput {
			t.Errorf("server run not deterministic at %d", i)
		}
		if i > 0 && a[i].Start < a[i-1].Finish {
			t.Errorf("request %d started before predecessor finished", i)
		}
	}
}

// Speculation volume is bounded: the spec context guard and one-chain-
// per-beam policy keep speculative decode within a small multiple of
// useful work, even at large n.
func TestSpeculationBounded(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 256, 4)
	res := solveOne(t, testConfig(t, pol, FastTTSOptions()), aimeProblem(t, 1))
	if res.SpecTokens == 0 {
		t.Skip("no speculation at this scale (memory pressure)")
	}
	useful := res.TokensDecoded - res.SpecTokens
	if res.SpecTokens > useful {
		t.Errorf("speculative tokens %d exceed useful decode %d", res.SpecTokens, useful)
	}
	if res.SpecRetained*4 < res.SpecTokens {
		t.Errorf("retention %d/%d below 25%%: speculation poorly targeted",
			res.SpecRetained, res.SpecTokens)
	}
}

// The dynamic allocator adapts across iterations: under FastTTS the
// verifier batch (and cache) follow the growing request lengths without
// ever breaking the budget. Indirect check: runs complete across a range
// of overridden budgets without error and latency is monotone.
func TestDynamicAllocationAcrossBudgets(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 64, 4)
	p := aimeProblem(t, 0)
	prev := -1.0
	for _, budget := range []int64{1 << 30, 2 << 30, 6 << 30} {
		cfg := testConfig(t, pol, FastTTSOptions())
		cfg.KVBudgetOverride = budget
		res := solveOne(t, cfg, p)
		if prev > 0 && res.Latency > prev*1.02 {
			t.Errorf("budget %d: latency %v regressed vs smaller budget %v", budget, res.Latency, prev)
		}
		prev = res.Latency
	}
}
