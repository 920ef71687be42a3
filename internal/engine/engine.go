// Package engine simulates an LLM serving engine (one model instance) on
// a virtual clock: batched prefill and single-token decode rounds whose
// latency comes from the roofline model, backed by a prefix-sharing KV
// cache. Two engines — a generator and a verifier — collocated on one GPU
// form the paper's serving substrate (§2.3, §5).
//
// The engine is where the paper's core hardware phenomenon lives: a decode
// round streams the full weights regardless of batch size, so a batch that
// has shrunk to a few straggler beams runs barely faster than a full batch
// — the idle compute Speculative Beam Extension reclaims (§3.2.1).
package engine

import (
	"fmt"

	"fasttts/internal/hw"
	"fasttts/internal/kvcache"
	"fasttts/internal/model"
	"fasttts/internal/obs"
	"fasttts/internal/sim"
	"fasttts/internal/trace"
)

// Engine is one simulated model instance.
type Engine struct {
	Name  string
	Model model.Config
	GPU   hw.GPU
	Cache *kvcache.Cache
	Clock *sim.Clock
	// Kernels receives one span per kernel interval (see obs.KindGenerate);
	// nil records nothing.
	Kernels *obs.Track

	// BusyTime accumulates the engine's total charged time (the paper's
	// generator/verifier latency breakdown in Fig 13).
	BusyTime float64
	// DecodedTokens and PrefilledTokens count work performed.
	DecodedTokens   int64
	PrefilledTokens int64
	// TransferTime accumulates offload PCIe time (§4.3.2).
	TransferTime float64

	// dec is Model's decode roofline on GPU, built once by New; Model
	// and GPU are not to change after that.
	dec model.DecodeRoofline
}

// New validates that the model's weights fit and returns an engine whose
// KV cache holds kvBytes and whose kernel spans go on kernels (nil: none).
func New(name string, m model.Config, g hw.GPU, kvBytes int64, clk *sim.Clock, kernels *obs.Track) (*Engine, error) {
	if m.WeightBytes() > g.VRAMBytes {
		return nil, fmt.Errorf("engine %s: weights (%d B) exceed %s VRAM", name, m.WeightBytes(), g.Name)
	}
	if kvBytes <= 0 {
		return nil, fmt.Errorf("engine %s: non-positive KV budget %d", name, kvBytes)
	}
	return &Engine{
		Name:    name,
		Model:   m,
		GPU:     g,
		Cache:   kvcache.New(kvBytes, m.KVBytesPerToken()),
		Clock:   clk,
		Kernels: kernels,
		dec:     model.NewDecodeRoofline(m, g),
	}, nil
}

// Reset returns the engine to its just-constructed state with a KV cache of
// kvBytes: counters zero, cache empty (see kvcache.Cache.Reset). Model, GPU,
// clock and kernel track are kept; the serving loop resets one engine per
// request instead of building one.
func (e *Engine) Reset(kvBytes int64) error {
	if kvBytes <= 0 {
		return fmt.Errorf("engine %s: non-positive KV budget %d", e.Name, kvBytes)
	}
	e.Cache.Reset(kvBytes)
	e.BusyTime, e.TransferTime = 0, 0
	e.DecodedTokens, e.PrefilledTokens = 0, 0
	return nil
}

// DecodeRound charges one decode step for a batch of `batch` sequences
// whose cached contexts total ctxTokens, attributing the span to phase,
// and returns the round latency. It is DecodeRun's one-round case; the
// roofline terms were computed by New (model.DecodeRoofline), so a round is
// a few flops and one clock advance.
func (e *Engine) DecodeRound(batch int, ctxTokens int64, phase trace.Phase) float64 {
	_, _, _, dt := e.decode(batch, ctxTokens, 1, phase, nil)
	return dt
}

// DecodeRun charges up to rounds decode rounds of one batch of `batch`
// sequences whose cached contexts total ctxTokens (non-negative) before the
// first round and grow by batch tokens each round — the stretch of decoding
// between two events that change the batch. Before each round it asks stop
// whether the run ends at that round's top, the clock the round would start
// at; stop must be monotone in the clock (once true, true at every later
// time), and nil never stops. DecodeRun returns the rounds run, the context
// total after them, and the top of the last round reached: the one stop
// ended the run at, or else the last one run (the clock, if none).
//
// A run is bit for bit that many DecodeRound calls — clock, BusyTime,
// counters and kernel spans — but keeps the clock, busy time, context
// and mean context in locals and commits them once.
func (e *Engine) DecodeRun(batch int, ctxTokens int64, rounds int, phase trace.Phase, stop func(top float64) bool) (ran int, ctx int64, top float64) {
	ran, ctx, top, _ = e.decode(batch, ctxTokens, rounds, phase, stop)
	return ran, ctx, top
}

// decode is DecodeRun, also returning the latency of the last round run.
//
// Unless the run is exact, the rounds before the last are charged in a loop
// that neither reads stop nor emits spans: stop is monotone, so if it does not
// fire at the last top it fires at none. If it does fire there, the run
// starts over from its uncommitted start, exact this time, to find the
// first top it fires at. A run with a kernel track is exact from the start.
// Where those rounds are memory-bound from first to last
// (model.DecodeRoofline.MemoryBound), each costs the memory term alone,
// one division, which is what the full roofline gives it.
func (e *Engine) decode(batch int, ctxTokens int64, rounds int, phase trace.Phase, stop func(float64) bool) (ran int, ctx int64, top, dt float64) {
	start := e.Clock.Now()
	if batch <= 0 || rounds <= 0 {
		return 0, ctxTokens, start, 0
	}
	kernels, b := e.Kernels, int64(batch)
	exact := kernels != nil
	for {
		now, busy, mean := start, e.BusyTime, ctxTokens/b
		ctx, dt, ran = ctxTokens, 0, 0
		if n := rounds - 1; !exact && e.dec.MemoryBound(batch, ctx, mean, n) {
			for ; ran < n; ran++ {
				dt = e.dec.StepMem(batch, ctx)
				now, busy, ctx = now+dt, busy+dt, ctx+b
			}
			mean += int64(n)
		} else if !exact {
			for ; ran < n; ran++ {
				dt, _ = e.dec.StepMean(batch, ctx, mean)
				now, busy, ctx, mean = now+dt, busy+dt, ctx+b, mean+1
			}
		}
		for ; ran < rounds; ran++ {
			top = now
			if stop != nil && stop(now) {
				break
			}
			var flops float64
			dt, flops = e.dec.StepMean(batch, ctx, mean)
			if kernels != nil {
				kernels.Emit(obs.Span{
					Kind: phase, Start: now, End: now + dt,
					V1: e.GPU.Utilization(flops, dt), N: batch,
				})
			}
			now, busy, ctx, mean = now+dt, busy+dt, ctx+b, mean+1
		}
		if exact || ran == 0 || ran == rounds {
			e.Clock.AdvanceTo(now)
			e.BusyTime = busy
			e.DecodedTokens += int64(ran) * b
			return ran, ctx, top, dt
		}
		exact = true // stop fired at the last top, maybe at an earlier one first
	}
}

// PrefillItem is one sequence's contribution to a prefill batch.
type PrefillItem struct {
	NewTokens int // tokens to prefill
	CtxTokens int // total context length the new tokens attend over
}

// PrefillBatch charges one batched prefill: weights stream once, each
// item contributes its attention FLOPs. Returns the batch latency.
func (e *Engine) PrefillBatch(items []PrefillItem, phase trace.Phase) float64 {
	var flops, bytes float64
	newTotal := 0
	for _, it := range items {
		if it.NewTokens <= 0 {
			continue
		}
		flops += e.Model.PrefillFLOPs(it.NewTokens, it.CtxTokens)
		newTotal += it.NewTokens
	}
	if newTotal == 0 {
		return 0
	}
	bytes = e.Model.PrefillBytes(newTotal)
	dt := e.GPU.Roofline(flops, bytes)
	start := e.Clock.Now()
	e.Clock.Advance(dt)
	e.BusyTime += dt
	e.PrefilledTokens += int64(newTotal)
	if e.Kernels != nil {
		e.Kernels.Emit(obs.Span{
			Kind: phase, Start: start, End: start + dt,
			V1: e.GPU.Utilization(flops, dt), N: len(items),
		})
	}
	return dt
}

// SwapTransfer charges a PCIe transfer of the given bytes (KV offload,
// §4.3.2) and returns the latency.
func (e *Engine) SwapTransfer(bytes int64) float64 {
	if bytes <= 0 {
		return 0
	}
	dt := e.GPU.TransferTime(float64(bytes))
	start := e.Clock.Now()
	e.Clock.Advance(dt)
	e.TransferTime += dt
	e.BusyTime += dt
	if e.Kernels != nil {
		e.Kernels.Emit(obs.Span{Kind: trace.PhaseTransfer, Start: start, End: start + dt})
	}
	return dt
}

// ResizeCache re-partitions this engine's KV budget (invoked by the
// asymmetric allocator when system state changes).
func (e *Engine) ResizeCache(kvBytes int64) error {
	return e.Cache.Resize(kvBytes)
}
