package perfctr

import (
	"runtime"
	"testing"
)

// spin is a loop the compiler cannot drop.
//
//go:noinline
func spin(n int) (s int) {
	for i := 0; i < n; i++ {
		s += i ^ s>>3
	}
	return s
}

var sink int

// TestCountsOwnLoop: a counted loop of a million iterations costs at
// least a million user-space instructions and, at a few per iteration,
// well under twenty times that; twice the loop counts about twice as many.
// It skips, with the reason, where the counter cannot open.
func TestCountsOwnLoop(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c, err := open()
	if err != nil {
		t.Skip(err)
	}
	defer c.close()
	count := func(n int) uint64 {
		if err := c.start(); err != nil {
			t.Fatal(err)
		}
		sink += spin(n)
		v, err := c.stop()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	one, two := count(1e6), count(2e6)
	t.Logf("%d instructions for 1M iterations, %d for 2M", one, two)
	if one < 1e6 || one > 2e7 {
		t.Fatalf("1M iterations counted %d instructions, want within [1e6, 2e7]", one)
	}
	if r := float64(two) / float64(one); r < 1.8 || r > 2.2 {
		t.Fatalf("2M iterations counted %.2f times 1M's", r)
	}
}

// TestCountSummarizes: Count's median and spread describe its passes.
func TestCountSummarizes(t *testing.T) {
	median, spread, err := Count(8, func() { sink += spin(1e5) })
	if err != nil {
		t.Skip(err)
	}
	t.Logf("median %.0f instructions, spread %.4f", median, spread)
	if median < 1e5 || spread < 0 || spread > 0.5 {
		t.Fatalf("median %.0f, spread %.4f for a 100k-iteration loop", median, spread)
	}
}
