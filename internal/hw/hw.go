// Package hw models the edge GPUs the paper evaluates on and provides the
// roofline latency model used throughout the system (paper §3.2.3, §4.3.1).
//
// The roofline model estimates the latency of a kernel as
//
//	T = max(FLOPs / PeakFLOPS, Bytes / MemBW)
//
// scaled by empirical efficiency factors, since real kernels reach only a
// fraction of peak. All system-level phenomena FastTTS exploits (decode is
// bandwidth-bound, prefill is compute-bound, batch size amortizes weight
// reads) fall directly out of this model.
package hw

import "fmt"

// GPU describes an edge accelerator.
type GPU struct {
	Name string
	// VRAMBytes is the total device memory.
	VRAMBytes int64
	// PeakFLOPS is peak dense FP16 tensor throughput, FLOP/s.
	PeakFLOPS float64
	// MemBW is peak device memory bandwidth, bytes/s.
	MemBW float64
	// PCIeBW is host<->device transfer bandwidth, bytes/s (for KV
	// offloading, §4.3.2).
	PCIeBW float64
	// ComputeEff and MemEff are the fractions of peak that realistic
	// transformer kernels achieve for compute-bound (prefill) and
	// bandwidth-bound (decode) work respectively.
	ComputeEff float64
	MemEff     float64
	// KernelOverhead is fixed per-batch launch overhead in seconds.
	KernelOverhead float64
}

const (
	gb = 1 << 30
)

// The device table mirrors the paper's evaluation platforms (§6.1, §6.4).
var (
	// RTX4090 is the primary platform: 24 GB, Ada Lovelace.
	RTX4090 = GPU{
		Name:           "RTX 4090",
		VRAMBytes:      24 * gb,
		PeakFLOPS:      165e12, // dense FP16 tensor
		MemBW:          1008e9,
		PCIeBW:         25e9, // PCIe 4.0 x16 effective
		ComputeEff:     0.55,
		MemEff:         0.80,
		KernelOverhead: 120e-6,
	}
	// RTX4070Ti is the 12 GB mid-range platform (Fig 15).
	RTX4070Ti = GPU{
		Name:           "RTX 4070 Ti",
		VRAMBytes:      12 * gb,
		PeakFLOPS:      80e12,
		MemBW:          504e9,
		PCIeBW:         25e9,
		ComputeEff:     0.55,
		MemEff:         0.80,
		KernelOverhead: 120e-6,
	}
	// RTX3070Ti is the 8 GB low-end platform that requires KV offloading
	// (Fig 15).
	RTX3070Ti = GPU{
		Name:           "RTX 3070 Ti",
		VRAMBytes:      8 * gb,
		PeakFLOPS:      43e12,
		MemBW:          608e9,
		PCIeBW:         12e9, // PCIe 4.0 x8-class effective
		ComputeEff:     0.50,
		MemEff:         0.78,
		KernelOverhead: 150e-6,
	}
)

// ByName returns the GPU with the given name.
func ByName(name string) (GPU, error) {
	for _, g := range []GPU{RTX4090, RTX4070Ti, RTX3070Ti} {
		if g.Name == name {
			return g, nil
		}
	}
	return GPU{}, fmt.Errorf("hw: unknown GPU %q", name)
}

// Roofline returns the estimated latency in seconds of a kernel that
// executes flops floating-point operations and moves bytes through device
// memory.
func (g GPU) Roofline(flops, bytes float64) float64 {
	tc := flops / (g.PeakFLOPS * g.ComputeEff)
	tm := bytes / (g.MemBW * g.MemEff)
	t := tc
	if tm > t {
		t = tm
	}
	return t + g.KernelOverhead
}

// Utilization returns achieved compute utilization (0..1] for a kernel
// that executed flops in elapsed seconds. Utilization is measured against
// raw peak, matching how Nsight reports tensor-core occupancy (Fig 4).
func (g GPU) Utilization(flops, elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := flops / (g.PeakFLOPS * elapsed)
	if u > 1 {
		u = 1
	}
	return u
}

// TransferTime returns the host<->device transfer time for n bytes.
func (g GPU) TransferTime(bytes float64) float64 {
	if bytes <= 0 {
		return 0
	}
	return bytes/g.PCIeBW + g.KernelOverhead
}

func (g GPU) String() string {
	return fmt.Sprintf("%s (%.0f GB, %.0f TFLOPS, %.0f GB/s)",
		g.Name, float64(g.VRAMBytes)/gb, g.PeakFLOPS/1e12, g.MemBW/1e9)
}
