package core

import (
	"math"
	"testing"

	"fasttts/internal/obs"
	"fasttts/internal/rng"
	"fasttts/internal/search"
	"fasttts/internal/trace"
	"fasttts/internal/workload"
)

// stubbyDataset draws many zero-token thinking steps (MinStepTokens 0, a
// lognormal below 1 token about a fifth of the time), so speculative
// branches chain into empty future steps and reach their cap again on the
// very next round.
var stubbyDataset = workload.DatasetSpec{
	Name: "stubby", Problems: 2,
	DiffLo: 0.3, DiffHi: 0.5,
	StepLogMu: 1.0, StepLogSigma: 1.2, MinStepTokens: 0,
	MaxSteps: 12, TypicalSteps: 8,
	PromptLo: 40, PromptHi: 60,
	AnswerSpace: 10, QualityDriftScale: 1.0,
}

// solveWithPreemption is r.Solve with a preemption boundary: once the
// solver's virtual clock reaches at, speculative execution is suspended for
// the rest of the search (two-phase scheduling, §4.1.2), as the server
// suspends it when the next arrival lands mid-request. A boundary at or
// before 0 suspends speculation from the start; math.Inf(1) never does.
func solveWithPreemption(r *Runner, p *workload.Problem, at float64) (*Result, error) {
	s, err := newSolver(&r.cfg, r.kvBudget, p, r.cfg.Obs.Device(0))
	if err != nil {
		return nil, err
	}
	s.preempt = preemptProbe{pending: max(at, 0), scale: 1}
	var st resultStore
	return s.run(&st)
}

// TestPreemptionBoundarySweep pins solveWithPreemption across preemption
// boundaries: never, 0, in the past, inside a round, exactly on a round's
// end, one ulp either side of it, on and after the finish. A boundary on a
// round end fires at the top of the next round; one ulp later it fires a
// round later, so an off-by-one-round decode loop moves SpecTokens,
// TokensDecoded or the latency bits. The values were recorded from a
// decode loop that stepped round by round and walked every speculative
// slot each round.
func TestPreemptionBoundarySweep(t *testing.T) {
	beam32, err := search.New(search.BeamSearch, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	beam16, err := search.New(search.BeamSearch, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	runs := []struct {
		name string
		pol  search.Policy
		p    *workload.Problem
	}{
		{"aime", beam32, aimeProblem(t, 4)},
		{"stubby", beam16, workload.NewDataset(stubbyDataset, rng.New(7)).Problems[1]},
	}
	// A boundary is picked from the unpreempted run's decode-round end
	// times and its latency.
	boundaries := []struct {
		name string
		at   func(ends []float64, latency float64) float64
	}{
		{"never", func([]float64, float64) float64 { return math.Inf(1) }},
		{"zero", func([]float64, float64) float64 { return 0 }},
		{"past", func([]float64, float64) float64 { return -1 }},
		{"first round end", func(e []float64, _ float64) float64 { return e[0] }},
		{"round end 1/32", func(e []float64, _ float64) float64 { return e[len(e)/32] }},
		{"after round end 1/32", func(e []float64, _ float64) float64 { return math.Nextafter(e[len(e)/32], math.Inf(1)) }},
		{"mid round 1/16", func(e []float64, _ float64) float64 { k := len(e) / 16; return (e[k] + e[k+1]) / 2 }},
		{"round end 1/8", func(e []float64, _ float64) float64 { return e[len(e)/8] }},
		{"after round end 1/8", func(e []float64, _ float64) float64 { return math.Nextafter(e[len(e)/8], math.Inf(1)) }},
		{"before round end 1/4", func(e []float64, _ float64) float64 { return math.Nextafter(e[len(e)/4], 0) }},
		{"round end 1/4", func(e []float64, _ float64) float64 { return e[len(e)/4] }},
		{"mid round 1/3", func(e []float64, _ float64) float64 { k := len(e) / 3; return (e[k] + e[k+1]) / 2 }},
		{"finish", func(_ []float64, lat float64) float64 { return lat }},
		{"after finish", func(_ []float64, lat float64) float64 { return lat + 1 }},
	}
	type pinned struct {
		run, boundary string
		spec, decoded int64
		latencyBits   uint64
	}
	want := []pinned{
		{"aime", "never", 15703, 38257, 0x402e4e2e3ee14d89},
		{"aime", "zero", 0, 29340, 0x402f88cfd508c717},
		{"aime", "past", 0, 29340, 0x402f88cfd508c717},
		{"aime", "first round end", 0, 29340, 0x402f88cfd508c717},
		{"aime", "round end 1/32", 337, 29592, 0x402f88bdc9930039},
		{"aime", "after round end 1/32", 347, 29597, 0x402f88b60b0057a8},
		{"aime", "mid round 1/16", 2099, 29581, 0x402f1e1221a87d3f},
		{"aime", "round end 1/8", 7015, 31601, 0x402e007e428cece4},
		{"aime", "after round end 1/8", 7036, 31613, 0x402dfe8c8b857b22},
		{"aime", "before round end 1/4", 13447, 36754, 0x402e2a7923e98b97},
		{"aime", "round end 1/4", 13447, 36754, 0x402e2a7923e98b97},
		{"aime", "mid round 1/3", 15018, 38027, 0x402e45e43e35284f},
		{"aime", "finish", 15703, 38257, 0x402e4e2e3ee14d89},
		{"aime", "after finish", 15703, 38257, 0x402e4e2e3ee14d89},
		{"stubby", "never", 148, 776, 0x3ff6610fdef5ada9},
		{"stubby", "zero", 0, 738, 0x3ff6f510dab2bfdd},
		{"stubby", "past", 0, 738, 0x3ff6f510dab2bfdd},
		{"stubby", "first round end", 0, 738, 0x3ff6f510dab2bfdd},
		{"stubby", "round end 1/32", 52, 771, 0x3ff6f54854b932da},
		{"stubby", "after round end 1/32", 56, 773, 0x3ff6f54be8fbade2},
		{"stubby", "mid round 1/16", 91, 782, 0x3ff694842a6a3367},
		{"stubby", "round end 1/8", 126, 782, 0x3ff6727033de9776},
		{"stubby", "after round end 1/8", 127, 780, 0x3ff67248c7083962},
		{"stubby", "before round end 1/4", 148, 776, 0x3ff6610fdef5ada9},
		{"stubby", "round end 1/4", 148, 776, 0x3ff6610fdef5ada9},
		{"stubby", "mid round 1/3", 148, 776, 0x3ff6610fdef5ada9},
		{"stubby", "finish", 148, 776, 0x3ff6610fdef5ada9},
		{"stubby", "after finish", 148, 776, 0x3ff6610fdef5ada9},
	}
	var got []pinned
	for _, run := range runs {
		cfg := testConfig(t, run.pol, FastTTSOptions())
		cfg.Obs = obs.NewRecorder()
		ref := solveOne(t, cfg, run.p)
		var ends []float64
		for _, sp := range cfg.Obs.Spans() {
			if sp.Kind == trace.PhaseGenerate && sp.N > 0 {
				ends = append(ends, sp.End)
			}
		}
		cfg.Obs = nil
		r, err := NewRunner(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range boundaries {
			at := b.at(ends, ref.Latency)
			res, err := solveWithPreemption(r, run.p, at)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, pinned{run.name, b.name, res.SpecTokens, res.TokensDecoded, math.Float64bits(res.Latency)})
		}
		if got[len(got)-len(boundaries)] != (pinned{run.name, "never", ref.SpecTokens, ref.TokensDecoded, math.Float64bits(ref.Latency)}) {
			t.Errorf("%s: a boundary that never fires differs from Solve", run.name)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d cases, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s, %s: spec %d, decoded %d, latency %v (%#x); want %d, %d, %v (%#x)",
				got[i].run, got[i].boundary, got[i].spec, got[i].decoded,
				math.Float64frombits(got[i].latencyBits), got[i].latencyBits,
				want[i].spec, want[i].decoded, math.Float64frombits(want[i].latencyBits), want[i].latencyBits)
		}
	}
}

// TestProbeHitFlag pins when a slice's probe-hit flag (the slice span's
// Flag) is set. The decode loop consults the probe at the top of every
// round and, while speculating, after every round too; the probe is
// monotone, so the flag is the probe's value at the last of those points:
// the last round's top without speculation, its end with it.
func TestProbeHitFlag(t *testing.T) {
	pol, err := search.New(search.BeamSearch, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := aimeProblem(t, 4)
	for _, tc := range []struct {
		name        string
		opts        Options
		speculating bool
	}{
		{"speculating", FastTTSOptions(), true},
		{"baseline", BaselineOptions(), false},
	} {
		cfg := testConfig(t, pol, tc.opts)
		rec := obs.NewRecorder()
		ref, err := newTestSolver(cfg, p, rec.Device(0))
		if err != nil {
			t.Fatal(err)
		}
		ref.begin()
		if err := ref.stepOnce(); err != nil {
			t.Fatal(err)
		}
		var last obs.Span // the first iteration's last decode round
		for _, sp := range rec.Spans() {
			if sp.Kind == trace.PhaseGenerate {
				last = sp
			}
		}
		consulted := last.Start
		if tc.speculating {
			consulted = last.End
		}
		for _, b := range []struct {
			at   float64
			want bool
		}{
			{last.Start, true},
			{math.Nextafter(last.Start, math.Inf(1)), tc.speculating},
			{consulted, true},
			{math.Nextafter(consulted, math.Inf(1)), false},
		} {
			s, err := newTestSolver(cfg, p, nil)
			if err != nil {
				t.Fatal(err)
			}
			s.preempt = preemptProbe{pending: b.at, scale: 1}
			s.begin()
			if err := s.stepOnce(); err != nil {
				t.Fatal(err)
			}
			if s.preempt.hit != b.want {
				t.Errorf("%s: boundary %v (last round %v–%v): hit %v, want %v",
					tc.name, b.at, last.Start, last.End, s.preempt.hit, b.want)
			}
		}
	}
}
