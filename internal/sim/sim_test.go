package sim

import "testing"

func TestClockAdvances(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock at %v", c.Now())
	}
	if got := c.Advance(1.5); got != 1.5 {
		t.Errorf("Advance returned %v", got)
	}
	c.Advance(0.5)
	if c.Now() != 2.0 {
		t.Errorf("Now = %v, want 2.0", c.Now())
	}
}

func TestClockZeroAdvance(t *testing.T) {
	var c Clock
	c.Advance(0)
	if c.Now() != 0 {
		t.Errorf("Now = %v", c.Now())
	}
}

func TestClockPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on negative advance")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestClockReset(t *testing.T) {
	var c Clock
	c.Advance(10)
	c.Reset()
	if c.Now() != 0 {
		t.Errorf("Now after reset = %v", c.Now())
	}
}

// TestClockTable exercises advance sequences as data: cumulative sums,
// fractional steps, resets mid-sequence.
func TestClockTable(t *testing.T) {
	cases := []struct {
		name     string
		steps    []float64
		resetAt  int // index before which Reset is called; -1 = never
		wantNow  float64
		wantRets []float64
	}{
		{name: "single step", steps: []float64{2.5}, resetAt: -1, wantNow: 2.5, wantRets: []float64{2.5}},
		{name: "accumulates", steps: []float64{1, 2, 3}, resetAt: -1, wantNow: 6, wantRets: []float64{1, 3, 6}},
		{name: "fractional", steps: []float64{0.1, 0.2}, resetAt: -1, wantNow: 0.30000000000000004, wantRets: []float64{0.1, 0.30000000000000004}},
		{name: "zero steps ok", steps: []float64{0, 0, 5}, resetAt: -1, wantNow: 5, wantRets: []float64{0, 0, 5}},
		{name: "reset restarts", steps: []float64{4, 1}, resetAt: 1, wantNow: 1, wantRets: []float64{4, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var c Clock
			for i, dt := range tc.steps {
				if i == tc.resetAt {
					c.Reset()
				}
				if got := c.Advance(dt); got != tc.wantRets[i] {
					t.Fatalf("Advance #%d returned %v, want %v", i, got, tc.wantRets[i])
				}
			}
			if c.Now() != tc.wantNow {
				t.Errorf("Now = %v, want %v", c.Now(), tc.wantNow)
			}
		})
	}
}

// TestClockNegativePanicsTable covers the panic guard across magnitudes.
func TestClockNegativePanicsTable(t *testing.T) {
	for _, dt := range []float64{-1e-12, -0.5, -1e9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Advance(%v) did not panic", dt)
				}
			}()
			var c Clock
			c.Advance(dt)
		}()
	}
}

// TestClockAdvanceTo checks the commit of a stretch summed elsewhere: the
// clock reads what the same Advance calls leave, standing still is
// allowed, and moving back panics.
func TestClockAdvanceTo(t *testing.T) {
	var stepped, committed Clock
	stepped.Advance(3)
	committed.Advance(3)
	local := committed.Now()
	for _, dt := range []float64{0.1, 0.2, 1e-9, 7} {
		stepped.Advance(dt)
		local += dt
	}
	if committed.AdvanceTo(local); committed.Now() != stepped.Now() {
		t.Errorf("AdvanceTo: clock %v, stepping gives %v", committed.Now(), stepped.Now())
	}
	committed.AdvanceTo(committed.Now())
	defer func() {
		if recover() == nil {
			t.Error("AdvanceTo into the past did not panic")
		}
	}()
	committed.AdvanceTo(1)
}
