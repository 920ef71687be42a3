package core

// Regression tests for the loop's incrementally maintained load indexes
// and the de-allocated StepTo hot path: OutstandingWork and Pending must
// be O(1) reads (no per-call scans, no allocations), the incremental
// index must track the explicit scan it replaced, and a no-op StepTo
// must not allocate.

import (
	"math"
	"testing"

	"fasttts/internal/hw"
	"fasttts/internal/model"
	"fasttts/internal/rng"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// cotConfig is a minimal chain-of-thought deployment: single-slice
// requests keep index-tracking tests fast.
func cotConfig(t testing.TB, seed uint64) Config {
	t.Helper()
	pol, err := search.New(search.SingleCoT, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		GPU:            hw.RTX4090,
		Generator:      model.Qwen25Math1_5B,
		GenSkill:       workload.SkillQwen1_5B,
		Verifier:       model.Qwen25Math1_5B,
		VerSkill:       workload.SkillSkywork1_5B,
		MemoryFraction: 0.4,
		Policy:         pol,
		Opts:           BaselineOptions(),
		Seed:           seed,
	}
}

// scanOutstandingWork recomputes the load signal the way the pre-index
// implementation did: an explicit pass over live sessions and the
// unadmitted queue.
func scanOutstandingWork(l *Loop) float64 {
	var w float64
	for _, c := range l.sessions {
		w += l.s.viewOf(c).RemainingWork
	}
	for _, q := range l.queue[l.next:] {
		w += l.s.estimateWork(q.Request)
	}
	return w
}

// steppedLoop builds a loop mid-run: half the stream admitted and
// partially executed, half still queued in the future.
func steppedLoop(t testing.TB, n int) *Loop {
	t.Helper()
	srv, err := NewServer(cotConfig(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	ds := workload.NewDataset(workload.MATH500, rng.New(7))
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Problem: ds.Problems[i%len(ds.Problems)], Arrival: float64(i), Tag: i}
	}
	l := srv.NewLoop(reqs)
	if _, err := l.StepTo(float64(n)/2, nil); err != nil {
		t.Fatal(err)
	}
	return l
}

func TestOutstandingWorkTracksScan(t *testing.T) {
	l := steppedLoop(t, 24)
	for {
		got, want := l.OutstandingWork(), scanOutstandingWork(l)
		tol := 1e-9 * math.Max(1, math.Abs(want))
		if math.Abs(got-want) > tol {
			t.Fatalf("OutstandingWork = %v, scan = %v (diff %v beyond tolerance)", got, want, got-want)
		}
		if l.Idle() {
			break
		}
		if _, err := l.StepTo(l.Now()+3, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.OutstandingWork(); got != 0 {
		t.Fatalf("drained loop OutstandingWork = %v, want exactly 0", got)
	}
	if got := l.Pending(); got != 0 {
		t.Fatalf("drained loop Pending = %d, want 0", got)
	}
}

func TestLoadIndexReadsAllocFree(t *testing.T) {
	l := steppedLoop(t, 24)
	if l.Pending() == 0 {
		t.Fatal("test loop should have outstanding population")
	}
	var sink float64
	var sinkN int
	if avg := testing.AllocsPerRun(100, func() { sink = l.OutstandingWork() }); avg != 0 {
		t.Errorf("OutstandingWork allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() { sinkN = l.Pending() }); avg != 0 {
		t.Errorf("Pending allocates %.1f objects per call, want 0", avg)
	}
	_, _ = sink, sinkN
}

// TestStepToNoOpAllocFree pins the de-allocated hot path: stepping a busy
// loop to a horizon it has already reached must do nothing and allocate
// nothing — the fleet event core relies on no-op steps being free (and
// the event heap makes most of them unnecessary altogether).
func TestStepToNoOpAllocFree(t *testing.T) {
	l := steppedLoop(t, 24)
	if l.InFlight() == 0 {
		t.Fatal("test loop should be busy")
	}
	horizon := l.Now() // already reached: StepTo must be a no-op
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := l.StepTo(horizon, nil); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("no-op StepTo allocates %.1f objects per call, want 0", avg)
	}
}

func BenchmarkLoopStepTo(b *testing.B) {
	ds := workload.NewDataset(workload.MATH500, rng.New(7))
	reqs := make([]Request, 256)
	times := workload.PoissonArrivals(len(reqs), 4, rng.New(11).Child("arrivals"))
	for i := range reqs {
		reqs[i] = Request{Problem: ds.Problems[i%len(ds.Problems)], Arrival: times[i], Tag: i}
	}
	cfg := cotConfig(b, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv, err := NewServer(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := srv.NewLoop(reqs).StepTo(NoHorizon, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOutstandingWork(b *testing.B) {
	l := steppedLoop(b, 64)
	if l.Pending() == 0 {
		b.Fatal("bench loop should have outstanding population")
	}
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = l.OutstandingWork()
	}
	_ = sink
}
