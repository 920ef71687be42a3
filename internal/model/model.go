// Package model describes the LLM architectures the paper serves and the
// arithmetic/memory cost of running them (paper §6.1, Fig 1a, Fig 9).
//
// The serving system never needs weights — only sizes and FLOP counts,
// which are fully determined by the architecture: weight bytes bound what
// fits on the device, KV bytes per token drive cache pressure, and
// FLOPs/bytes per token feed the roofline model in package hw.
package model

import (
	"fmt"

	"fasttts/internal/hw"
)

// Quantization selects the on-device numeric format of the weights
// (paper Fig 9: "Weights Memory: decided by model parameters &
// quantization config"). KV cache entries stay FP16 in all configs,
// matching the paper's setup.
type Quantization int

const (
	FP16 Quantization = iota
	INT8
	INT4
)

// BytesPerParam returns the storage cost of one parameter.
func (q Quantization) BytesPerParam() float64 {
	switch q {
	case INT8:
		return 1
	case INT4:
		return 0.5
	default:
		return 2
	}
}

func (q Quantization) String() string {
	switch q {
	case INT8:
		return "int8"
	case INT4:
		return "int4"
	default:
		return "fp16"
	}
}

// Config describes a transformer architecture.
type Config struct {
	Name    string
	Params  int64 // total parameter count
	Layers  int
	Hidden  int // model (embedding) dimension
	Heads   int // attention query heads
	KVHeads int // grouped-query KV heads
	HeadDim int
	Quant   Quantization
}

// The model zoo from the paper's evaluation (§6.1) plus the cloud
// reference points from Fig 1a.
var (
	// Qwen25Math1_5B is the 1.5B generator (and, with Skywork weights,
	// the 1.5B verifier shares this architecture).
	Qwen25Math1_5B = Config{
		Name:   "Qwen2.5-Math-1.5B",
		Params: 1_540_000_000,
		Layers: 28, Hidden: 1536, Heads: 12, KVHeads: 2, HeadDim: 128,
	}
	// Qwen25Math7B is the 7B generator.
	Qwen25Math7B = Config{
		Name:   "Qwen2.5-Math-7B",
		Params: 7_620_000_000,
		Layers: 28, Hidden: 3584, Heads: 28, KVHeads: 4, HeadDim: 128,
	}
	// ShepherdPRM7B is the Math-Shepherd-Mistral-7B discriminative PRM.
	ShepherdPRM7B = Config{
		Name:   "Math-Shepherd-Mistral-7B",
		Params: 7_240_000_000,
		Layers: 32, Hidden: 4096, Heads: 32, KVHeads: 8, HeadDim: 128,
	}
	// SkyworkPRM1_5B is the Skywork-o1-Open-PRM-Qwen-2.5-1.5B verifier.
	SkyworkPRM1_5B = Config{
		Name:   "Skywork-o1-Open-PRM-1.5B",
		Params: 1_540_000_000,
		Layers: 28, Hidden: 1536, Heads: 12, KVHeads: 2, HeadDim: 128,
	}
)

// CloudReference is a memory-inventory entry for Fig 1a (cloud models are
// never executed here; they exist only for the memory-cost figure).
type CloudReference struct {
	Name           string
	TotalBytes     int64
	ActivatedBytes int64 // for MoE models; equals TotalBytes for dense
}

// CloudModels reproduces the Fig 1a inventory.
var CloudModels = []CloudReference{
	{Name: "O1-Preview (est.)", TotalBytes: 559 << 30, ActivatedBytes: 559 << 30},
	{Name: "Qwen3-235B", TotalBytes: 438 << 30, ActivatedBytes: 41 << 30},
	{Name: "DeepSeek R1", TotalBytes: 1276 << 30, ActivatedBytes: 69 << 30},
}

// WithQuant returns a copy of the config using the given weight format.
func (c Config) WithQuant(q Quantization) Config {
	c.Quant = q
	return c
}

// WeightBytes returns the device memory occupied by the weights.
func (c Config) WeightBytes() int64 {
	return int64(float64(c.Params) * c.Quant.BytesPerParam())
}

// KVBytesPerToken returns the KV-cache footprint of one token: K and V
// vectors for every layer, FP16.
func (c Config) KVBytesPerToken() int64 {
	return int64(2 /*K+V*/ * c.Layers * c.KVHeads * c.HeadDim * 2 /*fp16*/)
}

// KVBytes returns the KV footprint of a batch of batch sequences of
// seqLen tokens each (paper Eq. 1 uses KVBytes(1, S)).
func (c Config) KVBytes(batch, seqLen int) int64 {
	return int64(batch) * int64(seqLen) * c.KVBytesPerToken()
}

// PrefillFLOPs returns the FLOPs to prefill n new tokens whose attention
// spans contextLen total tokens.
func (c Config) PrefillFLOPs(nTokens, contextLen int) float64 {
	mlp := 2 * float64(c.Params) * float64(nTokens)
	attn := 4 * float64(c.Layers) * float64(c.Heads*c.HeadDim) * float64(nTokens) * float64(contextLen) / 2
	return mlp + attn
}

// DecodeRoofline is the roofline latency of one decode step of a model on
// a GPU, with every term that does not depend on the batch computed once.
// A step costs, for batch sequences whose cached contexts total ctx tokens
// (each attending over the mean, ⌊ctx/batch⌋):
//
//	FLOPs = batch · (2·Params + 4·Layers·Heads·HeadDim · ⌊ctx/batch⌋)
//	Bytes = WeightBytes + ctx·KVBytesPerToken + batch·Hidden·2·Layers
//
// — 2 FLOPs per parameter (the MAC through every weight) plus attention
// over the context; the full weights streamed once per step (what makes
// small-batch decode bandwidth-bound, so a shrunken straggler batch runs
// no faster and the GPU idles, paper §3.2.1), the KV cache read for each
// sequence and the activations. Every term is evaluated as written, left
// to right, so the engine and the allocator charge bit-identical
// latencies for the same step.
type DecodeRoofline struct {
	mlpFLOPs    float64 // 2·Params, per sequence
	attnFLOPs   float64 // 4·Layers·Heads·HeadDim, per sequence and context token
	weightBytes float64
	kvBytes     float64 // per context token
	actBytes    float64 // Hidden·2·Layers, per sequence
	compute     float64 // achievable FLOP/s: PeakFLOPS·ComputeEff
	mem         float64 // achievable bytes/s: MemBW·MemEff
	overhead    float64 // per-step kernel launch overhead, seconds
}

// NewDecodeRoofline returns c's decode roofline on g.
func NewDecodeRoofline(c Config, g hw.GPU) DecodeRoofline {
	return DecodeRoofline{
		mlpFLOPs:    2 * float64(c.Params),
		attnFLOPs:   4 * float64(c.Layers) * float64(c.Heads*c.HeadDim),
		weightBytes: float64(c.WeightBytes()),
		kvBytes:     float64(c.KVBytesPerToken()),
		// Integers far below 2^53, so exact: batch·(Hidden·2·Layers)
		// equals batch·Hidden·2·Layers evaluated left to right.
		actBytes: float64(c.Hidden) * 2 * float64(c.Layers),
		compute:  g.PeakFLOPS * g.ComputeEff,
		mem:      g.MemBW * g.MemEff,
		overhead: g.KernelOverhead,
	}
}

// flops returns the FLOPs of one decode step whose sequences attend over
// mean context tokens each.
func (d *DecodeRoofline) flops(batch int, mean int64) float64 {
	return float64(batch) * (d.mlpFLOPs + d.attnFLOPs*float64(mean))
}

// bytes returns the device bytes one decode step moves.
func (d *DecodeRoofline) bytes(batch int, ctxTokens int64) float64 {
	return d.weightBytes + float64(ctxTokens)*d.kvBytes + float64(batch)*d.actBytes
}

// Step returns the latency of one decode step — max(compute time, memory
// time) plus the launch overhead, as hw.GPU.Roofline — and its FLOPs;
// batch must be positive.
func (d *DecodeRoofline) Step(batch int, ctxTokens int64) (dt, flops float64) {
	return d.StepMean(batch, ctxTokens, ctxTokens/int64(batch))
}

// StepMean is Step with the mean context ⌊ctxTokens/batch⌋ supplied by the
// caller. A run of rounds over one batch keeps it in a counter: each round
// adds batch tokens to a non-negative total, so exactly one to its mean.
func (d *DecodeRoofline) StepMean(batch int, ctxTokens, mean int64) (dt, flops float64) {
	flops = d.flops(batch, mean)
	t := flops / d.compute
	if tm := d.bytes(batch, ctxTokens) / d.mem; tm > t {
		t = tm
	}
	return t + d.overhead, flops
}

// memoryMargin is the relative lead MemoryBound asks of the memory term
// over the compute term. Each term is a handful of float operations, each
// within a relative 2^-53 of the exact value, so a lead of 2^-30 in the
// computed terms is a lead in the exact ones with room to spare.
const memoryMargin = 1.0 / (1 << 30)

// MemoryBound reports whether every one of rounds steps of a stretch is
// memory-bound: the first over ctxTokens total context at mean per
// sequence, each later one batch tokens (so one mean token) further. Both
// terms are affine in the step index, exact arithmetic aside, so a memory
// term that leads by memoryMargin at the first and the last step leads at
// every step between, rounding included; StepMem then equals Step at each.
// It is false when rounds < 1 or when either end is too close to call.
func (d *DecodeRoofline) MemoryBound(batch int, ctxTokens, mean int64, rounds int) bool {
	if rounds < 1 {
		return false
	}
	last := int64(rounds - 1)
	return d.memoryLeads(batch, ctxTokens, mean) &&
		d.memoryLeads(batch, ctxTokens+last*int64(batch), mean+last)
}

// memoryLeads reports whether one step's memory term beats its compute
// term by memoryMargin.
func (d *DecodeRoofline) memoryLeads(batch int, ctxTokens, mean int64) bool {
	return d.bytes(batch, ctxTokens)/d.mem > d.flops(batch, mean)/d.compute*(1+memoryMargin)
}

// StepMem is Step's latency for a step known to be memory-bound (see
// MemoryBound): the memory term plus the launch overhead, one division.
func (d *DecodeRoofline) StepMem(batch int, ctxTokens int64) float64 {
	return d.bytes(batch, ctxTokens)/d.mem + d.overhead
}

// PrefillBytes returns device bytes moved to prefill nTokens tokens.
func (c Config) PrefillBytes(nTokens int) float64 {
	weights := float64(c.WeightBytes())
	act := float64(nTokens) * float64(c.Hidden) * 2 * float64(c.Layers) * 4
	kvWrite := float64(nTokens) * float64(c.KVBytesPerToken())
	return weights + act + kvWrite
}

func (c Config) String() string {
	return fmt.Sprintf("%s (%.2fB params, %s, %d layers, kv %dB/token)",
		c.Name, float64(c.Params)/1e9, c.Quant, c.Layers, c.KVBytesPerToken())
}
