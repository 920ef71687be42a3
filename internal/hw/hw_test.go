package hw

import (
	"math"
	"testing"
	"testing/quick"
)

func TestByName(t *testing.T) {
	for _, name := range []string{"RTX 4090", "RTX 4070 Ti", "RTX 3070 Ti"} {
		g, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if g.Name != name {
			t.Errorf("got %q", g.Name)
		}
	}
	if _, err := ByName("H100"); err == nil {
		t.Error("expected error for unknown GPU")
	}
}

func TestRooflineIsMaxOfRegimes(t *testing.T) {
	g := RTX4090
	// Heavily compute-bound: tiny bytes.
	flops := 1e15
	tc := flops / (g.PeakFLOPS * g.ComputeEff)
	if got := g.Roofline(flops, 1); math.Abs(got-tc-g.KernelOverhead) > 1e-9 {
		t.Errorf("compute-bound roofline = %v, want %v", got, tc+g.KernelOverhead)
	}
	// Heavily memory-bound: tiny flops.
	bytes := 1e12
	tm := bytes / (g.MemBW * g.MemEff)
	if got := g.Roofline(1, bytes); math.Abs(got-tm-g.KernelOverhead) > 1e-9 {
		t.Errorf("memory-bound roofline = %v, want %v", got, tm+g.KernelOverhead)
	}
}

func TestRooflineMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		g := RTX4090
		fl, by := float64(a)+1, float64(b)+1
		base := g.Roofline(fl, by)
		return g.Roofline(fl*2, by) >= base && g.Roofline(fl, by*2) >= base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestComputeBoundConsistentWithRoofline(t *testing.T) {
	g := RTX4090
	cases := []struct{ flops, bytes float64 }{
		{1e15, 1e6}, {1e6, 1e12}, {1e12, 1e9},
	}
	for _, c := range cases {
		cb := g.ComputeBound(c.flops, c.bytes)
		tc := c.flops / (g.PeakFLOPS * g.ComputeEff)
		tm := c.bytes / (g.MemBW * g.MemEff)
		if cb != (tc >= tm) {
			t.Errorf("ComputeBound(%g,%g) = %v inconsistent", c.flops, c.bytes, cb)
		}
	}
}

func TestUtilizationBounds(t *testing.T) {
	g := RTX4090
	if u := g.Utilization(0, 1); u != 0 {
		t.Errorf("zero flops utilization = %v", u)
	}
	if u := g.Utilization(1e30, 1); u != 1 {
		t.Errorf("utilization not capped: %v", u)
	}
	if u := g.Utilization(1, 0); u != 0 {
		t.Errorf("zero elapsed utilization = %v", u)
	}
	// A kernel that ran exactly at half of raw peak.
	u := g.Utilization(g.PeakFLOPS/2, 1)
	if math.Abs(u-0.5) > 1e-12 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
}

func TestTransferTime(t *testing.T) {
	g := RTX4090
	if got := g.TransferTime(0); got != 0 {
		t.Errorf("zero-byte transfer = %v", got)
	}
	oneGB := g.TransferTime(1 << 30)
	twoGB := g.TransferTime(2 << 30)
	if twoGB <= oneGB {
		t.Error("transfer time not monotone in bytes")
	}
}

func TestDecodeIsBandwidthBoundPrefillComputeBound(t *testing.T) {
	// The premise of §3.2.3 / Fig 6: single-sequence decode is memory
	// bound; large prefill is compute bound. Use a 1.5B-scale kernel.
	g := RTX4090
	weights := 3.1e9
	decodeFLOPs := 2 * 1.5e9 // one token
	if g.ComputeBound(decodeFLOPs, weights) {
		t.Error("single-token decode should be bandwidth-bound")
	}
	prefillFLOPs := 2 * 1.5e9 * 4096 // 4096 tokens
	if !g.ComputeBound(prefillFLOPs, weights) {
		t.Error("long prefill should be compute-bound")
	}
}

func TestVRAMOrdering(t *testing.T) {
	if !(RTX3070Ti.VRAMBytes < RTX4070Ti.VRAMBytes && RTX4070Ti.VRAMBytes < RTX4090.VRAMBytes) {
		t.Error("device VRAM ordering wrong")
	}
}

func TestStringContainsName(t *testing.T) {
	s := RTX4090.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

// ComputeBound reports whether a kernel with the given intensity is
// compute-bound on this device.
func (g GPU) ComputeBound(flops, bytes float64) bool {
	return flops/(g.PeakFLOPS*g.ComputeEff) >= bytes/(g.MemBW*g.MemEff)
}
