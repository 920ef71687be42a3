package trace

import (
	"math"
	"testing"
)

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(Sample{Start: 0, End: 1})
	r.Reset()
	if got := r.PhaseTime(PhaseGenerate); got != 0 {
		t.Errorf("nil PhaseTime = %v", got)
	}
	if s, e := r.Span(); s != 0 || e != 0 {
		t.Errorf("nil Span = %v,%v", s, e)
	}
	if pts := r.UtilSeries(0.1, ""); pts != nil {
		t.Errorf("nil UtilSeries = %v", pts)
	}
}

func TestPhaseTime(t *testing.T) {
	r := &Recorder{}
	r.Record(Sample{Start: 0, End: 2, Phase: PhaseGenerate, Util: 0.5})
	r.Record(Sample{Start: 2, End: 3, Phase: PhaseVerify, Util: 0.9})
	r.Record(Sample{Start: 3, End: 5, Phase: PhaseGenerate, Util: 0.2})
	if got := r.PhaseTime(PhaseGenerate); math.Abs(got-4) > 1e-12 {
		t.Errorf("generate time = %v, want 4", got)
	}
	if got := r.PhaseTime(PhaseVerify); math.Abs(got-1) > 1e-12 {
		t.Errorf("verify time = %v, want 1", got)
	}
}

func TestSpan(t *testing.T) {
	r := &Recorder{}
	r.Record(Sample{Start: 1, End: 2})
	r.Record(Sample{Start: 0.5, End: 3})
	s, e := r.Span()
	if s != 0.5 || e != 3 {
		t.Errorf("span = %v,%v", s, e)
	}
}

func TestUtilSeriesConstantKernel(t *testing.T) {
	r := &Recorder{}
	// One kernel [0,1) at util 0.6: every bin inside should read 0.6.
	r.Record(Sample{Start: 0, End: 1, Phase: PhaseGenerate, Util: 0.6})
	pts := r.UtilSeries(0.1, "")
	if len(pts) == 0 {
		t.Fatal("no points")
	}
	for _, p := range pts[:9] {
		if math.Abs(p.Util-0.6) > 1e-9 {
			t.Errorf("t=%.2f util=%v, want 0.6", p.Time, p.Util)
		}
	}
}

func TestUtilSeriesGapIsZero(t *testing.T) {
	r := &Recorder{}
	r.Record(Sample{Start: 0, End: 1, Util: 1})
	r.Record(Sample{Start: 2, End: 3, Util: 1})
	pts := r.UtilSeries(0.5, "")
	// Bin covering [1.0,1.5) is a gap.
	var gap *Point
	for i := range pts {
		if pts[i].Time > 1.0 && pts[i].Time < 1.5 {
			gap = &pts[i]
		}
	}
	if gap == nil {
		t.Fatal("no gap bin found")
	}
	if gap.Util != 0 {
		t.Errorf("gap util = %v, want 0", gap.Util)
	}
}

func TestUtilSeriesPhaseFilter(t *testing.T) {
	r := &Recorder{}
	r.Record(Sample{Start: 0, End: 1, Phase: PhaseGenerate, Util: 1})
	r.Record(Sample{Start: 1, End: 2, Phase: PhaseVerify, Util: 1})
	pts := r.UtilSeries(1.0, PhaseVerify)
	if len(pts) < 2 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Util != 0 || pts[1].Util != 1 {
		t.Errorf("filtered series = %+v", pts)
	}
}

func TestReset(t *testing.T) {
	r := &Recorder{}
	r.Record(Sample{Start: 0, End: 1})
	r.Reset()
	if len(r.Samples) != 0 {
		t.Errorf("samples after reset: %d", len(r.Samples))
	}
}
