// Package alloc implements Asymmetric Multi-Model Memory Allocation
// (paper §4.3): the roofline-guided search that splits the KV-cache budget
// between the verifier's prefill stage and the generator's decode stage,
// and the offloading extension for extremely constrained devices.
//
// The optimizer minimizes
//
//	T_tot = ceil(N/B_pre)·T_roof_pre(B_pre, S)
//	      + ceil(N/B_dec)·S_dec·T_roof_dec(B_dec, S̄_cache)
//
// subject to B_pre·KVBytes(1,S) + B_dec·KVBytes(1,S_dec) ≤ M, via the
// paper's exhaustive linear search over feasible integer B_pre (Eq. 1),
// resolving ties toward the larger decode batch.
package alloc

import (
	"errors"
	"fmt"

	"fasttts/internal/hw"
	"fasttts/internal/model"
)

// Input describes one allocation problem.
type Input struct {
	GPU       hw.GPU
	Generator model.Config
	Verifier  model.Config
	// N is the number of sequences each stage must process per iteration
	// (the search width).
	N int
	// SeqVerifier is S: the verifier's input length per request.
	SeqVerifier int
	// SeqDecode is S_dec: the generator's decode horizon per request.
	SeqDecode int
	// BudgetBytes is M: the KV memory budget shared by both models
	// (device memory minus weights and reserved space).
	BudgetBytes int64
	// AllowOffload enables the §4.3.2 extended search space.
	AllowOffload bool
}

// Plan is the chosen allocation.
type Plan struct {
	BPre, BDec int
	// PreBytes is the verifier's KV reservation; the generator's is
	// BDec sequences of Generator.KVBytes(1, SeqDecode).
	PreBytes int64
	// TotalTime is the modeled execution time of one full
	// generate+verify cycle over N requests: Optimize's objective. A
	// StaticSplit plan, which optimizes nothing, leaves it 0.
	TotalTime float64
	// Offload reports whether the inactive model's KV is offloaded to
	// host memory (§4.3.2); its per-cycle PCIe cost is in TotalTime.
	Offload bool
}

// ErrInfeasible is returned when not even a batch of one fits.
var ErrInfeasible = errors.New("alloc: memory budget cannot fit a single sequence per stage")

// PrefillTime models T_roof of one verifier prefill batch (B sequences of
// length S each).
func PrefillTime(g hw.GPU, m model.Config, batch, seq int) float64 {
	if batch <= 0 {
		return 0
	}
	flops := float64(batch) * m.PrefillFLOPs(seq, seq)
	bytes := m.PrefillBytes(batch * seq)
	return g.Roofline(flops, bytes)
}

// DecodeTime models T_roof of one decode step, on dec, for a batch whose
// average cached context is cacheLen tokens.
func DecodeTime(dec *model.DecodeRoofline, batch, cacheLen int) float64 {
	if batch <= 0 {
		return 0
	}
	dt, _ := dec.Step(batch, int64(batch)*int64(cacheLen))
	return dt
}

// cycleTime evaluates T_tot for a candidate batch pair; dec is the
// generator's decode roofline on in.GPU.
func cycleTime(in Input, dec *model.DecodeRoofline, bPre, bDec int) float64 {
	return preTime(in, bPre) + decTime(in, dec, bDec)
}

// preTime is T_tot's verifier prefill term.
func preTime(in Input, bPre int) float64 {
	return float64(ceilDiv(in.N, bPre)) * PrefillTime(in.GPU, in.Verifier, bPre, in.SeqVerifier)
}

// decTime is T_tot's generator decode term.
func decTime(in Input, dec *model.DecodeRoofline, bDec int) float64 {
	avgCache := in.SeqDecode / 2 // S̄_cache ≈ S_dec/2 (paper §4.3.1)
	return float64(ceilDiv(in.N, bDec)) * float64(in.SeqDecode) * DecodeTime(dec, bDec, avgCache)
}

// Optimize runs the roofline-guided linear search. The search space is
// every feasible integer B_pre (capped at N — larger batches cannot help);
// for each, B_dec is the largest batch satisfying the budget (Eq. 1).
// When AllowOffload is set, the relaxed dual-constraint strategy is also
// evaluated and the cheaper plan wins.
func Optimize(in Input) (Plan, error) {
	if in.N <= 0 {
		return Plan{}, fmt.Errorf("alloc: N must be positive, got %d", in.N)
	}
	kvPre := in.Verifier.KVBytes(1, in.SeqVerifier)
	kvDec := in.Generator.KVBytes(1, in.SeqDecode)
	dec := model.NewDecodeRoofline(in.Generator, in.GPU)

	best := Plan{TotalTime: -1}
	maxPre := int(in.BudgetBytes / kvPre)
	if maxPre > in.N {
		maxPre = in.N
	}
	// B_dec only falls as B_pre grows, and stays at N for as long as the
	// budget allows, so the decode term is computed once per B_dec.
	tDec, tDecOf := 0.0, 0
	for bPre := 1; bPre <= maxPre; bPre++ {
		rem := in.BudgetBytes - int64(bPre)*kvPre
		bDec := int(rem / kvDec) // Eq. 1
		if bDec > in.N {
			bDec = in.N
		}
		if bDec < 1 {
			continue
		}
		if bDec != tDecOf {
			tDec, tDecOf = decTime(in, &dec, bDec), bDec
		}
		t := preTime(in, bPre) + tDec
		// Ties resolve in favor of the larger decode batch (§4.3.1).
		if best.TotalTime < 0 || t < best.TotalTime ||
			(t == best.TotalTime && bDec > best.BDec) {
			best = Plan{
				BPre: bPre, BDec: bDec,
				PreBytes:  int64(bPre) * kvPre,
				TotalTime: t,
			}
		}
	}

	if in.AllowOffload {
		// §4.3.2: each model gets the whole budget while active; the
		// inactive model's KV lives in host memory. Two swaps per cycle.
		bPre := int(in.BudgetBytes / kvPre)
		bDec := int(in.BudgetBytes / kvDec)
		if bPre > in.N {
			bPre = in.N
		}
		if bDec > in.N {
			bDec = in.N
		}
		if bPre >= 1 && bDec >= 1 {
			moved := float64(int64(bPre)*kvPre + int64(bDec)*kvDec)
			t := cycleTime(in, &dec, bPre, bDec) + in.GPU.TransferTime(moved)
			if best.TotalTime < 0 || t < best.TotalTime {
				best = Plan{
					BPre: bPre, BDec: bDec,
					PreBytes:  int64(bPre) * kvPre,
					TotalTime: t, Offload: true,
				}
			}
		}
	}

	if best.TotalTime < 0 {
		return Plan{}, ErrInfeasible
	}
	return best, nil
}

// StaticSplit returns the naive baseline plan: the budget is divided in
// fixed proportion preFrac to the verifier and the rest to the generator
// (the vLLM-baseline behaviour of running two instances with fixed
// gpu_memory_utilization each). It sizes the two batches and their
// reservations only; no cycle time is modeled.
func StaticSplit(in Input, preFrac float64) (Plan, error) {
	kvPre := in.Verifier.KVBytes(1, in.SeqVerifier)
	kvDec := in.Generator.KVBytes(1, in.SeqDecode)
	preBudget := int64(float64(in.BudgetBytes) * preFrac)
	decBudget := in.BudgetBytes - preBudget
	bPre := int(preBudget / kvPre)
	bDec := int(decBudget / kvDec)
	if bPre > in.N {
		bPre = in.N
	}
	if bDec > in.N {
		bDec = in.N
	}
	if bPre < 1 || bDec < 1 {
		return Plan{}, ErrInfeasible
	}
	return Plan{
		BPre: bPre, BDec: bDec,
		PreBytes: int64(bPre) * kvPre,
	}, nil
}

// Throughput helpers for Fig 6 / Fig 10.

// PrefillThroughput returns tokens/s of the verifier's prefill stage when
// given kvBytes of cache (batch size = kvBytes / KVBytes(1, seq)).
func PrefillThroughput(g hw.GPU, m model.Config, seq int, kvBytes int64) float64 {
	b := int(kvBytes / m.KVBytes(1, seq))
	if b < 1 {
		return 0
	}
	return float64(b*seq) / PrefillTime(g, m, b, seq)
}

// DecodeThroughput returns tokens/s of the generator's decode stage when
// given kvBytes of cache.
func DecodeThroughput(g hw.GPU, m model.Config, seq int, kvBytes int64) float64 {
	b := int(kvBytes / m.KVBytes(1, seq))
	if b < 1 {
		return 0
	}
	dec := model.NewDecodeRoofline(m, g)
	return float64(b) / DecodeTime(&dec, b, seq/2)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
