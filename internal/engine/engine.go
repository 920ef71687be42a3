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
	Rec   *trace.Recorder

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
// KV cache holds kvBytes.
func New(name string, m model.Config, g hw.GPU, kvBytes int64, clk *sim.Clock, rec *trace.Recorder) (*Engine, error) {
	if m.WeightBytes() > g.VRAMBytes {
		return nil, fmt.Errorf("engine %s: weights (%d B) exceed %s VRAM", name, m.WeightBytes(), g.Name)
	}
	if kvBytes <= 0 {
		return nil, fmt.Errorf("engine %s: non-positive KV budget %d", name, kvBytes)
	}
	return &Engine{
		Name:  name,
		Model: m,
		GPU:   g,
		Cache: kvcache.New(kvBytes, m.KVBytesPerToken()),
		Clock: clk,
		Rec:   rec,
		dec:   model.NewDecodeRoofline(m, g),
	}, nil
}

// Reset returns the engine to its just-constructed state with a KV cache of
// kvBytes: counters zero, cache empty (see kvcache.Cache.Reset). Model, GPU,
// clock and recorder are kept; the serving loop resets one engine per
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
// whose cached contexts total ctxTokens, attributing the sample to phase,
// and returns the round latency. The roofline terms were computed by New
// (model.DecodeRoofline), so a round is a few flops and one clock advance.
func (e *Engine) DecodeRound(batch int, ctxTokens int64, phase trace.Phase) float64 {
	if batch <= 0 {
		return 0
	}
	dt, flops := e.dec.Step(batch, ctxTokens)
	start := e.Clock.Now()
	e.Clock.Advance(dt)
	e.BusyTime += dt
	e.DecodedTokens += int64(batch)
	if e.Rec != nil {
		e.Rec.Record(trace.Sample{
			Start: start, End: start + dt, Phase: phase,
			Util:  e.GPU.Utilization(flops, dt),
			Batch: batch, KVBytes: e.Cache.UsedBytes(),
		})
	}
	return dt
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
	if e.Rec != nil {
		e.Rec.Record(trace.Sample{
			Start: start, End: start + dt, Phase: phase,
			Util:  e.GPU.Utilization(flops, dt),
			Batch: len(items), KVBytes: e.Cache.UsedBytes(),
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
	if e.Rec != nil {
		e.Rec.Record(trace.Sample{
			Start: start, End: start + dt, Phase: trace.PhaseTransfer,
			Util: 0, Batch: 0, KVBytes: e.Cache.UsedBytes(),
		})
	}
	return dt
}

// ResizeCache re-partitions this engine's KV budget (invoked by the
// asymmetric allocator when system state changes).
func (e *Engine) ResizeCache(kvBytes int64) error {
	return e.Cache.Resize(kvBytes)
}
