package core

// Edge-case coverage for Loop.Cancel — the fleet layer's hedge-loser
// withdrawal primitive. Cancel's (started, ok) contract:
//
//	unknown / already-completed tag -> (false, false), a no-op;
//	queued, never admitted         -> (false, true);
//	admitted, executing            -> (true, true).
//
// And its conservation law: after cancelling everything outstanding, the
// loop's load indexes and the KV memory plane's decode state settle to
// exactly the state a naturally drained loop reaches.

import (
	"testing"

	"fasttts/internal/memplane"
	"fasttts/internal/rng"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// cancelLoop builds a single-slice (SingleCoT) loop over n MATH500
// requests arriving one per virtual second, tags 0..n-1.
func cancelLoop(t *testing.T, n int, kv memplane.Config) *Loop {
	t.Helper()
	cfg := cotConfig(t, 42)
	cfg.KVPlane = kv
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := workload.NewDataset(workload.MATH500, rng.New(7))
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Problem: ds.Problems[i%len(ds.Problems)], Arrival: float64(i), Tag: i}
	}
	return srv.NewLoop(reqs)
}

func TestCancelUnknownTag(t *testing.T) {
	l := cancelLoop(t, 4, memplane.Config{})
	if started, ok := l.Cancel(999); started || ok {
		t.Fatalf("Cancel(unknown) = (%v, %v), want (false, false)", started, ok)
	}
	// A no-op: the full stream still drains.
	res, err := l.StepTo(NoHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("drained %d results after no-op cancel, want 4", len(res))
	}
}

func TestCancelBeforeFirstAdmission(t *testing.T) {
	l := cancelLoop(t, 4, memplane.Config{})
	// The loop has not stepped: every request is queued, none admitted.
	if l.InFlight() != 0 || l.Queued() != 4 {
		t.Fatalf("fresh loop inFlight/queued = %d/%d, want 0/4", l.InFlight(), l.Queued())
	}
	before := l.OutstandingWork()
	started, ok := l.Cancel(2)
	if started || !ok {
		t.Fatalf("Cancel(queued) = (%v, %v), want (false, true)", started, ok)
	}
	if l.Queued() != 3 {
		t.Fatalf("queued after cancel = %d, want 3", l.Queued())
	}
	if after := l.OutstandingWork(); after >= before {
		t.Fatalf("OutstandingWork did not shrink: %v -> %v", before, after)
	}
	// The cancelled tag must not surface as a result.
	res, err := l.StepTo(NoHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("drained %d results, want 3", len(res))
	}
	for _, r := range res {
		if r.Tag == 2 {
			t.Fatal("cancelled tag 2 still produced a result")
		}
	}
}

// TestCancelAtFinalSliceInstant pins the completion/cancellation race:
// a cancel arriving at the exact virtual instant the request's final
// slice completed is too late — slices are atomic, the produced result
// stands, and Cancel reports the tag unknown.
func TestCancelAtFinalSliceInstant(t *testing.T) {
	l := cancelLoop(t, 2, memplane.Config{})
	// Step until the first completion and stop the clock exactly there.
	var first *ServedResult
	for first == nil {
		res, err := l.StepTo(l.Now() + 0.25)
		if err != nil {
			t.Fatal(err)
		}
		for i := range res {
			if first == nil || res[i].Finish < first.Finish {
				first = &res[i]
			}
		}
		if l.Idle() && first == nil {
			t.Fatal("loop drained without completing anything")
		}
	}
	if first.Finish > l.Now() {
		t.Fatalf("completion at %v is past the loop clock %v", first.Finish, l.Now())
	}
	started, ok := l.Cancel(first.Tag)
	if started || ok {
		t.Fatalf("Cancel(completed tag %d at t=%v) = (%v, %v), want (false, false)",
			first.Tag, l.Now(), started, ok)
	}
	// The remaining request is unaffected.
	rest, err := l.StepTo(NoHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 1 || rest[0].Tag == first.Tag {
		t.Fatalf("remaining drain produced %d results (first tag %d)", len(rest), first.Tag)
	}
}

func TestCancelLiveSession(t *testing.T) {
	// Multi-slice requests (beam search under time-slicing), so a session
	// can be mid-execution — started but unfinished — at a step boundary.
	pol, err := search.New(search.BeamSearch, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(testConfig(t, pol, FastTTSOptions()))
	if err != nil {
		t.Fatal(err)
	}
	ds := workload.NewDataset(workload.MATH500, rng.New(7))
	reqs := make([]Request, 3)
	for i := range reqs {
		reqs[i] = Request{Problem: ds.Problems[i], Arrival: float64(i), Tag: i}
	}
	l := srv.NewLoop(reqs)
	var live *session
	for live == nil {
		if l.Idle() {
			t.Fatal("loop drained before exposing a started live session")
		}
		if _, err := l.StepTo(l.Now() + 1); err != nil {
			t.Fatal(err)
		}
		for _, c := range l.sessions {
			if !c.done && c.started {
				live = c
				break
			}
		}
	}
	started, ok := l.Cancel(live.req.Tag)
	if !started || !ok {
		t.Fatalf("Cancel(live started tag %d) = (%v, %v), want (true, true)", live.req.Tag, started, ok)
	}
	if started, ok := l.Cancel(live.req.Tag); started || ok {
		t.Fatalf("second Cancel = (%v, %v), want (false, false)", started, ok)
	}
}

// TestCancelAccountingSettles cancels every outstanding request mid-run
// (live and queued) and checks the books: load indexes at exactly zero,
// no stray results, and — with the KV memory plane enabled — decode
// state fully released, leaving the plane in the same prompt-only
// occupancy a naturally drained twin loop reaches.
func TestCancelAccountingSettles(t *testing.T) {
	kv := memplane.Config{CapacityBytes: 8 << 30} // ample: no eviction pressure
	n := 6

	l := cancelLoop(t, n, kv)
	if _, err := l.StepTo(2.5); err != nil {
		t.Fatal(err)
	}
	if l.InFlight() == 0 && l.Queued() == 0 {
		t.Fatal("mid-run loop should have outstanding requests")
	}
	for tag := 0; tag < n; tag++ {
		l.Cancel(tag) // completed tags report (false, false); that's fine
	}
	if l.InFlight() != 0 || l.Queued() != 0 || l.Pending() != 0 {
		t.Fatalf("after cancel-all: inFlight/queued/pending = %d/%d/%d, want 0/0/0",
			l.InFlight(), l.Queued(), l.Pending())
	}
	if w := l.OutstandingWork(); w != 0 {
		t.Fatalf("after cancel-all: OutstandingWork = %v, want exactly 0", w)
	}
	res, err := l.StepTo(NoHorizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("cancelled loop still produced %d results", len(res))
	}

	// Plane conservation: cancellation releases every session's decode
	// state immediately, so what remains resident is exactly the admitted
	// prompt prefixes (which stay cached by design — that is the cache's
	// job). Any surplus over the prompt-resident sum would be leaked
	// decode tokens.
	got := l.PlaneStats()
	ds := workload.NewDataset(workload.MATH500, rng.New(7))
	promptResident := int64(0)
	for i := 0; i < n; i++ {
		p := ds.Problems[i%len(ds.Problems)]
		promptResident += int64(l.Plane().ResidentPromptTokens(p.Key(), p.PromptTokens))
	}
	if got.UsedTokens != promptResident {
		t.Fatalf("cancelled plane holds %d tokens but only %d prompt tokens are resident — decode state leaked",
			got.UsedTokens, promptResident)
	}
	if got.UsedTokens == 0 {
		t.Fatal("plane should retain resident prompt prefixes")
	}
	if got.EvictedTokens != 0 {
		t.Fatalf("unexpected eviction pressure (%d evicted tokens)", got.EvictedTokens)
	}
}
