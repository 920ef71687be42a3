package core

import (
	"math"
	"testing"

	"fasttts/internal/hw"
	"fasttts/internal/metrics"
	"fasttts/internal/model"
	"fasttts/internal/obs"
	"fasttts/internal/rng"
	"fasttts/internal/search"
	"fasttts/internal/trace"
	"fasttts/internal/workload"
)

// testConfig returns the memory-constrained 1.5B+1.5B deployment (§6.1).
func testConfig(t testing.TB, pol search.Policy, opts Options) Config {
	t.Helper()
	return Config{
		GPU:            hw.RTX4090,
		Generator:      model.Qwen25Math1_5B,
		GenSkill:       workload.SkillQwen1_5B,
		Verifier:       model.SkyworkPRM1_5B,
		VerSkill:       workload.SkillSkywork1_5B,
		MemoryFraction: 0.4,
		Policy:         pol,
		Opts:           opts,
		Seed:           42,
	}
}

// newTestSolver is newSolver on a test's own Config, under its policy and
// strategy, with the KV budget a Server would compute at construction.
func newTestSolver(cfg Config, p *workload.Problem, kernels *obs.Track) (*solver, error) {
	budget, err := cfg.KVBudget()
	if err != nil {
		return nil, err
	}
	return newSolver(&cfg, budget, p, kernels)
}

func aimeProblem(t testing.TB, idx int) *workload.Problem {
	t.Helper()
	return workload.NewDataset(workload.AIME24, rng.New(7)).Problems[idx]
}

func solveOne(t *testing.T, cfg Config, p *workload.Problem) *Result {
	t.Helper()
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Solve(p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSolveSmoke(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 16, 4)
	res := solveOne(t, testConfig(t, pol, FastTTSOptions()), aimeProblem(t, 0))
	if len(res.Finished) == 0 {
		t.Fatal("no finished paths")
	}
	if res.Latency <= 0 || res.Goodput <= 0 {
		t.Errorf("latency=%v goodput=%v", res.Latency, res.Goodput)
	}
	if res.Iterations < 1 {
		t.Errorf("iterations = %d", res.Iterations)
	}
	for _, f := range res.Finished {
		if f.Tokens <= 0 || f.Steps <= 0 {
			t.Errorf("degenerate path %+v", f)
		}
		if f.CompletedAt <= 0 || f.CompletedAt > res.Latency {
			t.Errorf("completion time %v outside (0, %v]", f.CompletedAt, res.Latency)
		}
	}
}

func TestLatencyBreakdownSums(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 32, 4)
	for _, opts := range []Options{BaselineOptions(), FastTTSOptions()} {
		res := solveOne(t, testConfig(t, pol, opts), aimeProblem(t, 1))
		sum := res.GenTime + res.VerTime + res.TransferTime
		if math.Abs(sum-res.Latency) > 1e-6*res.Latency {
			t.Errorf("breakdown %v + %v + %v = %v != latency %v",
				res.GenTime, res.VerTime, res.TransferTime, sum, res.Latency)
		}
	}
}

func TestDeterminism(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 16, 4)
	cfg := testConfig(t, pol, FastTTSOptions())
	p := aimeProblem(t, 2)
	a := solveOne(t, cfg, p)
	b := solveOne(t, cfg, p)
	if a.Latency != b.Latency || a.Goodput != b.Goodput {
		t.Errorf("non-deterministic timing: %v vs %v", a.Latency, b.Latency)
	}
	if len(a.Finished) != len(b.Finished) {
		t.Fatalf("finished counts differ: %d vs %d", len(a.Finished), len(b.Finished))
	}
	for i := range a.Finished {
		if a.Finished[i] != b.Finished[i] {
			t.Fatalf("path %d differs: %+v vs %+v", i, a.Finished[i], b.Finished[i])
		}
	}
}

// The central §4.1 guarantee: FastTTS's optimizations change timing only.
// The search trajectory — every path's steps, token counts, answers, and
// scores — is identical with all optimizations on or off.
func TestAlgorithmicEquivalence(t *testing.T) {
	for _, alg := range []search.Algorithm{
		search.BeamSearch, search.DVTS, search.DynamicBranching,
		search.VaryingGranularity, search.BestOfN,
	} {
		pol, err := search.New(alg, 16, 4)
		if err != nil {
			t.Fatal(err)
		}
		p := aimeProblem(t, 3)
		base := solveOne(t, testConfig(t, pol, BaselineOptions()), p)
		fast := solveOne(t, testConfig(t, pol, FastTTSOptions()), p)
		if len(base.Finished) != len(fast.Finished) {
			t.Fatalf("%s: finished %d vs %d", alg, len(base.Finished), len(fast.Finished))
		}
		for i := range base.Finished {
			bp, fp := base.Finished[i], fast.Finished[i]
			if bp.BeamID != fp.BeamID || bp.Steps != fp.Steps ||
				bp.Tokens != fp.Tokens || bp.Answer != fp.Answer ||
				bp.Score != fp.Score {
				t.Fatalf("%s: path %d diverged:\nbase %+v\nfast %+v", alg, i, bp, fp)
			}
		}
		if fast.Latency >= base.Latency {
			t.Errorf("%s: FastTTS latency %v not below baseline %v", alg, fast.Latency, base.Latency)
		}
	}
}

func TestFastTTSBeatsBaseline(t *testing.T) {
	// The headline result (Fig 12): goodput improves at every n, more at
	// larger n.
	p := aimeProblem(t, 0)
	prevGain := 0.0
	for _, n := range []int{8, 64, 256} {
		pol, _ := search.New(search.BeamSearch, n, 4)
		base := solveOne(t, testConfig(t, pol, BaselineOptions()), p)
		fast := solveOne(t, testConfig(t, pol, FastTTSOptions()), p)
		gain := fast.Goodput / base.Goodput
		if gain < 1.05 {
			t.Errorf("n=%d: goodput gain %.2fx below threshold", n, gain)
		}
		cut := 1 - fast.Latency/base.Latency
		if cut < 0.05 {
			t.Errorf("n=%d: latency cut %.0f%% too small", n, 100*cut)
		}
		_ = prevGain
		prevGain = gain
	}
}

func TestAblationMonotonicity(t *testing.T) {
	// Fig 16: enabling P, then M, then S improves goodput cumulatively.
	p := aimeProblem(t, 1)
	pol, _ := search.New(search.BeamSearch, 128, 4)
	opts := []Options{
		BaselineOptions(),
		{PrefixAware: true, PrefixCache: true, StaticVerifierFrac: 0.5},
		{PrefixAware: true, PrefixCache: true, AsymmetricMemory: true, StaticVerifierFrac: 0.5},
		FastTTSOptions(),
	}
	var goodputs []float64
	for _, o := range opts {
		res := solveOne(t, testConfig(t, pol, o), p)
		goodputs = append(goodputs, res.Goodput)
	}
	for i := 1; i < len(goodputs); i++ {
		if goodputs[i] < goodputs[i-1]*0.98 { // small tolerance for noise
			t.Errorf("ablation step %d regressed: %.2f -> %.2f (all: %v)",
				i, goodputs[i-1], goodputs[i], goodputs)
		}
	}
	if goodputs[len(goodputs)-1] <= goodputs[0] {
		t.Errorf("full FastTTS %.2f not above baseline %.2f", goodputs[3], goodputs[0])
	}
}

func TestSpeculationStats(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 32, 4)
	fast := solveOne(t, testConfig(t, pol, FastTTSOptions()), aimeProblem(t, 4))
	if fast.SpecTokens == 0 {
		t.Error("no speculative tokens decoded")
	}
	if fast.SpecRetained > fast.SpecTokens {
		t.Errorf("retained %d > decoded %d", fast.SpecRetained, fast.SpecTokens)
	}
	if fast.SpecRetained == 0 {
		t.Error("no speculative tokens retained: speculation is useless")
	}
	base := solveOne(t, testConfig(t, pol, BaselineOptions()), aimeProblem(t, 4))
	if base.SpecTokens != 0 {
		t.Errorf("baseline decoded %d speculative tokens", base.SpecTokens)
	}
}

func TestPreemptionStopsSpeculation(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 32, 4)
	cfg := testConfig(t, pol, FastTTSOptions())
	r, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := solveWithPreemption(r, aimeProblem(t, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpecTokens != 0 {
		t.Errorf("speculation ran despite permanent preemption: %d tokens", res.SpecTokens)
	}
	// Preemption from t=5s onward: some speculation happens before.
	res2, err := solveWithPreemption(r, aimeProblem(t, 4), 5)
	if err != nil {
		t.Fatal(err)
	}
	if res2.SpecTokens == 0 {
		t.Error("no speculation before the preemption point")
	}
}

func TestBestOfNSingleIteration(t *testing.T) {
	pol, _ := search.New(search.BestOfN, 16, 1)
	res := solveOne(t, testConfig(t, pol, BaselineOptions()), aimeProblem(t, 0))
	if res.Iterations != 1 {
		t.Errorf("BoN iterations = %d, want 1", res.Iterations)
	}
	if len(res.Finished) != 16 {
		t.Errorf("BoN finished = %d, want 16", len(res.Finished))
	}
}

func TestBeamSearchPathConservation(t *testing.T) {
	// Beam search's working width decays into the finished pool: the
	// total collected paths stay near n.
	for _, n := range []int{16, 64} {
		pol, _ := search.New(search.BeamSearch, n, 4)
		res := solveOne(t, testConfig(t, pol, FastTTSOptions()), aimeProblem(t, 5))
		if len(res.Finished) < n*9/10 || len(res.Finished) > n*2 {
			t.Errorf("n=%d: finished %d outside [0.9n, 2n]", n, len(res.Finished))
		}
	}
}

func TestVerifierHeavyConfig(t *testing.T) {
	// 1.5B+7B (§6.1): the 7B verifier dominates latency at larger n on
	// the baseline, and FastTTS cuts verifier time hard (Fig 13).
	pol, _ := search.New(search.BeamSearch, 64, 4)
	cfg := Config{
		GPU:            hw.RTX4090,
		Generator:      model.Qwen25Math1_5B,
		GenSkill:       workload.SkillQwen1_5B,
		Verifier:       model.ShepherdPRM7B,
		VerSkill:       workload.SkillShepherd7B,
		MemoryFraction: 0.9,
		Policy:         pol,
		Seed:           42,
	}
	cfg.Opts = BaselineOptions()
	rb, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, err := rb.Solve(aimeProblem(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Opts = FastTTSOptions()
	rf, err := NewRunner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := rf.Solve(aimeProblem(t, 0))
	if err != nil {
		t.Fatal(err)
	}
	if base.VerTime < base.GenTime {
		t.Logf("note: baseline verifier %v < generator %v at n=64", base.VerTime, base.GenTime)
	}
	verCut := 1 - fast.VerTime/base.VerTime
	if verCut < 0.4 {
		t.Errorf("verifier latency cut %.0f%%, want >= 40%% (paper: 75-85%%)", 100*verCut)
	}
}

func TestOffloadOn8GBGPU(t *testing.T) {
	// RTX 3070 Ti + 1.5B pair: weights alone eat most of 8 GB; the
	// offload path must engage and still complete (Fig 15).
	pol, _ := search.New(search.BeamSearch, 16, 4)
	opts := FastTTSOptions()
	opts.AllowOffload = true
	cfg := Config{
		GPU:            hw.RTX3070Ti,
		Generator:      model.Qwen25Math1_5B,
		GenSkill:       workload.SkillQwen1_5B,
		Verifier:       model.SkyworkPRM1_5B,
		VerSkill:       workload.SkillSkywork1_5B,
		MemoryFraction: 0.95,
		ReservedBytes:  256 << 20,
		Policy:         pol,
		Opts:           opts,
		Seed:           42,
	}
	res := solveOne(t, cfg, aimeProblem(t, 0))
	if len(res.Finished) == 0 {
		t.Fatal("no finished paths on constrained GPU")
	}
}

func TestMemoryBudgetValidation(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 8, 4)
	cfg := Config{
		GPU:            hw.RTX3070Ti,
		Generator:      model.Qwen25Math7B, // 15.2 GB weights > 8 GB VRAM
		Verifier:       model.SkyworkPRM1_5B,
		MemoryFraction: 0.9,
		Policy:         pol,
		Opts:           BaselineOptions(),
	}
	if _, err := NewRunner(cfg); err == nil {
		t.Error("expected error: weights exceed VRAM")
	}
	cfg2 := testConfig(t, nil, BaselineOptions())
	if _, err := NewRunner(cfg2); err == nil {
		t.Error("expected error: nil policy")
	}
}

func TestTruncationRatioValidation(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 8, 4)
	opts := FastTTSOptions()
	opts.TruncationRatio = 1.5
	cfg := testConfig(t, pol, opts)
	if _, err := NewRunner(cfg); err == nil {
		t.Error("expected error for R > 1")
	}
}

func TestTruncationRatioAffectsGoodput(t *testing.T) {
	// Fig 17 right: R=0.85 retains more speculative work than R=0 and
	// yields higher goodput.
	pol, _ := search.New(search.BeamSearch, 128, 4)
	p := aimeProblem(t, 0)
	r0 := FastTTSOptions()
	r0.TruncationRatio = 0
	r85 := FastTTSOptions()
	res0 := solveOne(t, testConfig(t, pol, r0), p)
	res85 := solveOne(t, testConfig(t, pol, r85), p)
	if res85.SpecRetained <= res0.SpecRetained {
		t.Errorf("R=0.85 retained %d <= R=0 retained %d",
			res85.SpecRetained, res0.SpecRetained)
	}
	if res85.Goodput < res0.Goodput*0.95 {
		t.Errorf("R=0.85 goodput %.2f well below R=0 %.2f", res85.Goodput, res0.Goodput)
	}
}

func TestKVBudgetOverride(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 32, 4)
	cfg := testConfig(t, pol, FastTTSOptions())
	cfg.KVBudgetOverride = 1 << 30
	small := solveOne(t, cfg, aimeProblem(t, 0))
	cfg.KVBudgetOverride = 8 << 30
	big := solveOne(t, cfg, aimeProblem(t, 0))
	if big.Latency > small.Latency*1.02 {
		t.Errorf("more KV memory increased latency: %v -> %v", small.Latency, big.Latency)
	}
}

// TestRecorderPhases checks that a Runner's solve puts its kernel spans on
// the recorder's device-0 track: generate and verify time both recorded,
// and the spans tile the solve without overlapping (one clock drives both
// engines).
func TestRecorderPhases(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 16, 4)
	rec := obs.NewRecorder()
	cfg := testConfig(t, pol, BaselineOptions())
	cfg.Obs = rec
	res := solveOne(t, cfg, aimeProblem(t, 0))
	phase := map[obs.Kind]float64{}
	prevEnd := 0.0
	for _, s := range rec.Spans() {
		if s.Track != 0 || s.Start < prevEnd {
			t.Fatalf("span %+v: off track 0 or before the previous end %v", s, prevEnd)
		}
		phase[s.Kind] += s.End - s.Start
		prevEnd = s.End
	}
	if phase[trace.PhaseGenerate] <= 0 {
		t.Error("no generate-phase spans recorded")
	}
	if phase[trace.PhaseVerify] <= 0 {
		t.Error("no verify-phase spans recorded")
	}
	if prevEnd != res.Latency {
		t.Errorf("last kernel span ends at %v, want the solve's latency %v", prevEnd, res.Latency)
	}
}

func TestGoodputMatchesMetricsPackage(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 16, 4)
	res := solveOne(t, testConfig(t, pol, FastTTSOptions()), aimeProblem(t, 0))
	want := metrics.PreciseGoodput(res.PathResults())
	if math.Abs(res.Goodput-want) > 1e-12 {
		t.Errorf("goodput %v != metrics %v", res.Goodput, want)
	}
}

func TestDVTSAndDynamicBranchingComplete(t *testing.T) {
	for _, alg := range []search.Algorithm{search.DVTS, search.DynamicBranching, search.VaryingGranularity} {
		pol, err := search.New(alg, 32, 4)
		if err != nil {
			t.Fatal(err)
		}
		res := solveOne(t, testConfig(t, pol, FastTTSOptions()), aimeProblem(t, 6))
		if len(res.Finished) == 0 {
			t.Errorf("%s: no finished paths", alg)
		}
	}
}

func TestVaryingGranularityFineEarlySteps(t *testing.T) {
	// VG's 64-token caps make early steps non-terminal (a capped thought
	// continues), so no path can finish before step 4 and the search
	// needs at least 4 iterations.
	vg, _ := search.New(search.VaryingGranularity, 16, 4)
	res := solveOne(t, testConfig(t, vg, FastTTSOptions()), aimeProblem(t, 0))
	if res.Iterations < 4 {
		t.Errorf("VG iterations = %d, want >= 4", res.Iterations)
	}
	// Most paths need several fine-grained steps; short sampled thoughts
	// (<64 tokens) may still terminate early, so check the median.
	early := 0
	for _, f := range res.Finished {
		if f.Steps < 4 {
			early++
		}
	}
	if early > len(res.Finished)/2 {
		t.Errorf("%d/%d paths finished before step 4", early, len(res.Finished))
	}
}
