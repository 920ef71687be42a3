package metrics

import (
	"math"
	"testing"
)

func TestTickWindow(t *testing.T) {
	var w TickWindow
	if w.Completions() != 0 || w.MeanQueueDelay() != 0 || w.Attainment(5) != 1 {
		t.Fatal("zero window must be vacuous")
	}
	w.Observe(1, 4, false, 5) // hit
	w.Observe(3, 9, false, 5) // miss
	w.Observe(0, 0, true, 5)  // rejection: completion, no hit
	if w.Served != 2 || w.Rejected != 1 || w.Completions() != 3 {
		t.Errorf("served/rejected/completions = %d/%d/%d, want 2/1/3", w.Served, w.Rejected, w.Completions())
	}
	if got := w.MeanQueueDelay(); got != 2 {
		t.Errorf("mean queue delay %v, want 2", got)
	}
	if got, want := w.Attainment(5), 1.0/3; math.Abs(got-want) > 1e-12 {
		t.Errorf("attainment %v, want %v", got, want)
	}
	if got := w.Attainment(0); got != 1 {
		t.Errorf("no-target attainment %v, want 1", got)
	}
	w.Reset()
	if w != (TickWindow{}) {
		t.Errorf("Reset left state: %+v", w)
	}

	// No target at observe time: every served completion is a hit.
	var w2 TickWindow
	w2.Observe(0, 99, false, 0)
	if w2.SLOHits != 1 {
		t.Errorf("no-target observe SLOHits = %d, want 1", w2.SLOHits)
	}
}
