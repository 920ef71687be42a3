package core

import (
	"testing"

	"fasttts/internal/obs"
	"fasttts/internal/rng"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// mustStrategy is search.ParseStrategy of a spec known to be valid.
func mustStrategy(spec string) search.Strategy {
	s, err := search.ParseStrategy(spec)
	if err != nil {
		panic(err)
	}
	return s
}

// TestFirstFinishTerminatesEarly: first-finish must stop at the first
// completed path, strictly before full-beam finishes the same problem,
// abandoning the still-active beams.
func TestFirstFinishTerminatesEarly(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 16, 4)
	p := aimeProblem(t, 0)

	full := solveOne(t, testConfig(t, pol, FastTTSOptions()), p)
	cfg := testConfig(t, pol, FastTTSOptions())
	cfg.Strategy = search.FirstFinish(0)
	ff := solveOne(t, cfg, p)

	if ff.Abandoned == 0 {
		t.Errorf("first-finish abandoned no beams (finished=%d)", len(ff.Finished))
	}
	if full.Abandoned != 0 {
		t.Errorf("full-beam abandoned %d beams", full.Abandoned)
	}
	if len(ff.Finished) == 0 {
		t.Fatal("first-finish returned no finished path")
	}
	if ff.Latency >= full.Latency {
		t.Errorf("first-finish latency %v not below full-beam %v", ff.Latency, full.Latency)
	}
	if ff.TokensDecoded >= full.TokensDecoded {
		t.Errorf("first-finish decoded %d tokens, full-beam %d — early termination saved nothing",
			ff.TokensDecoded, full.TokensDecoded)
	}
}

// TestFirstFinishChainCap: first-finish:k launches at most k chains.
func TestFirstFinishChainCap(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 16, 4)
	cfg := testConfig(t, pol, FastTTSOptions())
	cfg.Strategy = search.FirstFinish(4)
	s, err := newTestSolver(cfg, aimeProblem(t, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if w := s.pol.Width(); w != 4 {
		t.Errorf("first-finish:4 launched %d chains, want 4", w)
	}
}

// TestFullBeamStrategyIsIdentity: an explicit full-beam strategy must
// reproduce the strategies-off (legacy) run bit-identically.
func TestFullBeamStrategyIsIdentity(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 16, 4)
	p := aimeProblem(t, 1)
	legacy := solveOne(t, testConfig(t, pol, FastTTSOptions()), p)
	cfg := testConfig(t, pol, FastTTSOptions())
	cfg.Strategy = mustStrategy("full-beam")
	explicit := solveOne(t, cfg, p)
	if legacy.Latency != explicit.Latency || legacy.TokensDecoded != explicit.TokensDecoded ||
		len(legacy.Finished) != len(explicit.Finished) {
		t.Errorf("full-beam diverged from legacy: latency %v vs %v, tokens %d vs %d, paths %d vs %d",
			legacy.Latency, explicit.Latency, legacy.TokensDecoded, explicit.TokensDecoded,
			len(legacy.Finished), len(explicit.Finished))
	}
}

// TestDeadlineStrategyCutsMidSolve: under the deadline strategy a
// request whose deadline passes mid-solve finishes early with a
// degraded answer instead of running its full beam.
func TestDeadlineStrategyCutsMidSolve(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 16, 4)
	p := aimeProblem(t, 0)

	base := testConfig(t, pol, FastTTSOptions())
	srv, err := NewServer(base)
	if err != nil {
		t.Fatal(err)
	}
	full, err := srv.Run([]Request{{Problem: p, Tag: 0}})
	if err != nil {
		t.Fatal(err)
	}

	cut := testConfig(t, pol, FastTTSOptions())
	cut.Strategy = mustStrategy("deadline")
	srv2, err := NewServer(cut)
	if err != nil {
		t.Fatal(err)
	}
	deadline := full[0].WallLatency / 2
	out, err := srv2.Run([]Request{{Problem: p, Deadline: deadline, Tag: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Result == nil {
		t.Fatalf("deadline run produced %d results", len(out))
	}
	if out[0].Result.Abandoned == 0 {
		t.Error("deadline cut abandoned no beams")
	}
	if out[0].WallLatency >= full[0].WallLatency {
		t.Errorf("deadline cut latency %v not below full %v", out[0].WallLatency, full[0].WallLatency)
	}
	if len(out[0].Result.Finished) == 0 {
		t.Error("deadline cut returned no path")
	}
}

// TestDeadlineCutAtExactDeadline: a deadline-strategy session whose slice
// ends exactly at its Deadline is cut at that slice — a deadline is met
// by a clock that reaches it, not one that passes it — rather than
// running a slice past it.
func TestDeadlineCutAtExactDeadline(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 16, 4)
	p := aimeProblem(t, 0)
	cfg := testConfig(t, pol, FastTTSOptions())
	cfg.Strategy = mustStrategy("deadline")
	serve := func(cfg Config, deadline float64) ServedResult {
		t.Helper()
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out, err := srv.Run([]Request{{Problem: p, Deadline: deadline, Tag: 0}})
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 1 || out[0].Result == nil {
			t.Fatalf("run produced %d results", len(out))
		}
		return out[0]
	}

	// Without a deadline nothing is cut; the recorder gives the instant
	// the first slice ends.
	traced := cfg
	rec := obs.NewRecorder()
	traced.Obs = rec
	if full := serve(traced, 0); full.Slices < 2 {
		t.Fatalf("the uncut request ran %d slice(s); the case needs at least 2", full.Slices)
	}
	firstEnd := -1.0
	for _, sp := range rec.Spans() {
		if sp.Kind == obs.KindSlice {
			firstEnd = sp.End
			break
		}
	}
	if firstEnd <= 0 {
		t.Fatal("no slice span recorded")
	}

	cut := serve(cfg, firstEnd)
	if cut.Slices != 1 || cut.Finish != firstEnd {
		t.Errorf("deadline %v: served in %d slice(s) finishing at %v, want 1 slice finishing at the deadline",
			firstEnd, cut.Slices, cut.Finish)
	}
	if cut.Result.Abandoned == 0 {
		t.Error("the cut abandoned no beams")
	}
}

// TestCancelReleasesSession: cancelling a live session releases its
// in-flight slot and load-index contribution; cancelling a queued
// arrival removes it before admission; unknown tags are no-ops.
func TestCancelReleasesSession(t *testing.T) {
	pol, _ := search.New(search.BeamSearch, 8, 4)
	srv, err := NewServer(testConfig(t, pol, FastTTSOptions()))
	if err != nil {
		t.Fatal(err)
	}
	ds := workload.NewDataset(workload.MATH500, rng.New(11))
	l := srv.NewLoop([]Request{
		{Problem: ds.Problems[0], Arrival: 0, Tag: 0},
		{Problem: ds.Problems[1], Arrival: 1000, Tag: 1},
	})

	// Step until the first request is mid-flight.
	if _, err := l.StepTo(0.5, nil); err != nil {
		t.Fatal(err)
	}
	if l.InFlight() != 1 {
		t.Fatalf("in-flight = %d, want 1", l.InFlight())
	}
	started, ok := l.Cancel(0)
	if !ok || !started {
		t.Fatalf("Cancel(0) = (%v, %v), want started live session", started, ok)
	}
	if l.InFlight() != 0 {
		t.Errorf("in-flight after cancel = %d", l.InFlight())
	}

	// The queued arrival cancels before admission.
	started, ok = l.Cancel(1)
	if !ok || started {
		t.Fatalf("Cancel(1) = (%v, %v), want unstarted queued arrival", started, ok)
	}
	if l.OutstandingWork() != 0 {
		t.Errorf("outstanding work after cancelling everything = %v", l.OutstandingWork())
	}

	// Unknown and already-cancelled tags are no-ops.
	if _, ok := l.Cancel(0); ok {
		t.Error("Cancel(0) found an already-cancelled request")
	}
	if _, ok := l.Cancel(99); ok {
		t.Error("Cancel(99) found a request that was never pushed")
	}

	// The loop drains with nothing left to serve.
	out, err := l.StepTo(NoHorizon, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("cancelled requests still produced %d results", len(out))
	}
	if !l.Idle() {
		t.Error("loop not idle after cancelling all work")
	}
}
