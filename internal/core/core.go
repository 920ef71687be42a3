// Package core implements the FastTTS runtime (paper §4, §5): the common
// two-stage generation/verification loop that all verifier-guided TTS
// methods share (§3.1), executed on the simulated serving substrate with
// the paper's three optimizations —
//
//   - Speculative Beam Extension (§4.1, Algorithm 1), including
//     score-binned speculative candidate selection (§4.1.1), the
//     two-phase preemptible scheduler (§4.1.2), and LookAhead
//     Verification (§4.1.3);
//   - Dynamic Prefix-Aware Scheduling (§4.2);
//   - Asymmetric Multi-Model Memory Allocation (§4.3), with offloading.
//
// Disabling every optimization yields the vLLM-style baseline the paper
// compares against (§6.1): random path ordering, a static 50/50 KV split,
// a verifier pipeline without prefix reuse, and no speculation.
package core

import (
	"fmt"

	"fasttts/internal/hw"
	"fasttts/internal/kvcache"
	"fasttts/internal/memplane"
	"fasttts/internal/metrics"
	"fasttts/internal/model"
	"fasttts/internal/obs"
	"fasttts/internal/search"
	"fasttts/internal/trace"
	"fasttts/internal/workload"
)

// Options toggles the FastTTS optimizations (the ablation axes of Fig 16).
type Options struct {
	// Speculative enables Speculative Beam Extension (S).
	Speculative bool
	// PrefixAware enables Dynamic Prefix-Aware Scheduling (P) for both
	// generator tries and verifier request order.
	PrefixAware bool
	// AsymmetricMemory enables the roofline-guided KV allocation (M);
	// otherwise the KV budget is split per StaticVerifierFrac.
	AsymmetricMemory bool
	// LookAhead enables LookAhead Verification (part of S in the paper's
	// ablation; exposed separately for finer studies).
	LookAhead bool
	// VerifierPrefixCache lets the verifier reuse KV across requests and
	// iterations. The baseline PRM pipeline recomputes every request.
	VerifierPrefixCache bool
	// GeneratorPrefixCache lets generator beams share and reuse KV via
	// the radix cache. The vLLM baseline (search-and-learn on vLLM
	// v0.9.2, automatic prefix caching off by default) submits each
	// beam's full path as a fresh prompt every iteration and re-prefills
	// it from scratch.
	GeneratorPrefixCache bool
	// TruncationRatio is R: the mean fraction of speculative tokens a
	// duplicate beam retains at branching (§4.1, Fig 17 right).
	TruncationRatio float64
	// SpecBins overrides the number of score bins B used by speculative
	// candidate selection; 0 means the policy's branch factor (§4.1.1).
	SpecBins int
	// AllowOffload enables the §4.3.2 extended search space.
	AllowOffload bool
	// StaticVerifierFrac is the baseline's fixed verifier share of the
	// KV budget (default 0.5).
	StaticVerifierFrac float64
}

// FastTTSOptions returns the full FastTTS configuration.
func FastTTSOptions() Options {
	return Options{
		Speculative:          true,
		PrefixAware:          true,
		AsymmetricMemory:     true,
		LookAhead:            true,
		VerifierPrefixCache:  true,
		GeneratorPrefixCache: true,
		TruncationRatio:      0.85,
	}
}

// BaselineOptions returns the vLLM-baseline configuration.
func BaselineOptions() Options {
	return Options{StaticVerifierFrac: 0.5}
}

// Config assembles one serving deployment: hardware, the generator /
// verifier pair, memory policy, and the search algorithm.
type Config struct {
	GPU       hw.GPU
	Generator model.Config
	GenSkill  workload.GeneratorSkill
	Verifier  model.Config
	VerSkill  workload.VerifierSkill
	// MemoryFraction is the share of VRAM the deployment may use
	// (0.9 for the throughput configs, 0.4 for the memory-constrained
	// 1.5B+1.5B config, §6.1).
	MemoryFraction float64
	// ReservedBytes models CUDA graphs and activation workspace (Fig 9).
	ReservedBytes int64
	// KVBudgetOverride, when positive, fixes the KV budget directly
	// (used by the Fig 18-right memory sweep).
	KVBudgetOverride int64
	// KVPlane configures the per-device KV-cache memory plane: a finite
	// prefix cache charged for prompt prefixes and live decode state,
	// with LRU eviction and roofline re-prefill penalties on prompt
	// misses. The zero value (capacity 0) disables the plane — behavior
	// is then bit-identical to builds without it.
	KVPlane memplane.Config
	Policy  search.Policy
	// Strategy is the test-time-compute strategy the solver honors
	// (first-finish early termination, deadline cuts). nil runs the full
	// beam — the legacy semantics, bit-identical to pre-strategy builds.
	Strategy search.Strategy
	Opts     Options
	Recorder *trace.Recorder
	// Obs, when non-nil, attaches the request-lifecycle span flight
	// recorder: the loop emits admission, queue, slice, and completion
	// spans onto the recorder's device-0 track. nil (the default) is
	// strictly off — every emission site short-circuits on a nil track,
	// adding zero allocations and zero behavioral difference. Tracing
	// observes scheduling; it never perturbs it.
	Obs  *obs.Recorder
	Seed uint64
}

// KVBudget returns the KV memory available after weights and reservation.
func (c Config) KVBudget() (int64, error) {
	if c.KVBudgetOverride > 0 {
		return c.KVBudgetOverride, nil
	}
	frac := c.MemoryFraction
	if frac <= 0 {
		frac = 0.9
	}
	reserved := c.ReservedBytes
	if reserved == 0 {
		reserved = 768 << 20
	}
	budget := int64(float64(c.GPU.VRAMBytes)*frac) -
		c.Generator.WeightBytes() - c.Verifier.WeightBytes() - reserved
	if budget <= 0 {
		return 0, fmt.Errorf("core: no KV memory left on %s: %.1f GiB usable, %.1f GiB weights",
			c.GPU.Name,
			float64(c.GPU.VRAMBytes)*frac/(1<<30),
			float64(c.Generator.WeightBytes()+c.Verifier.WeightBytes())/(1<<30))
	}
	return budget, nil
}

// FinalPath is one collected reasoning path.
type FinalPath struct {
	BeamID      int
	Steps       int
	Tokens      int // generated tokens, prompt excluded
	Answer      int // 0 = correct
	Score       float64
	CompletedAt float64
}

// Result reports one solved problem.
type Result struct {
	Problem  *workload.Problem
	Finished []FinalPath

	// Latency is end-to-end virtual seconds.
	Latency float64
	// GenTime / VerTime split the latency between the generator and
	// verifier engines (Fig 13's breakdown); TransferTime is offload
	// PCIe time.
	GenTime, VerTime, TransferTime float64
	// Goodput is the §6.1 Precise Goodput in tokens/s.
	Goodput float64

	Iterations int
	// Abandoned counts active beams the strategy discarded at early
	// termination (first-finish satisfaction or a deadline cut); 0 under
	// full-beam.
	Abandoned int
	// TokensDecoded counts all generator decode work, including
	// speculative tokens; SpecTokens of those were speculative and
	// SpecRetained were adopted by surviving beams.
	TokensDecoded int64
	SpecTokens    int64
	SpecRetained  int64
	// RecomputedTokens counts evicted-prefix re-prefills on the
	// generator (the cost Dynamic Prefix-Aware Scheduling minimizes).
	RecomputedTokens int64

	GenCache, VerCache kvcache.Stats
}

// PathResults adapts the finished paths for package metrics.
func (r *Result) PathResults() []metrics.PathResult {
	out := make([]metrics.PathResult, len(r.Finished))
	for i, p := range r.Finished {
		out[i] = metrics.PathResult{
			Tokens:      p.Tokens,
			CompletedAt: p.CompletedAt,
			Answer:      p.Answer,
			Score:       p.Score,
		}
	}
	return out
}

// validate fills defaults and sanity-checks the configuration.
func (c *Config) validate() error {
	if c.Policy == nil {
		return fmt.Errorf("core: nil search policy")
	}
	if c.GPU.Name == "" {
		return fmt.Errorf("core: missing GPU")
	}
	if c.GPU.VRAMBytes < 0 {
		return fmt.Errorf("core: GPU %s has negative VRAM %d bytes", c.GPU.Name, c.GPU.VRAMBytes)
	}
	if err := c.KVPlane.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if c.GenSkill.Name == "" {
		c.GenSkill = workload.SkillQwen1_5B
	}
	if c.VerSkill.Name == "" {
		c.VerSkill = workload.SkillSkywork1_5B
	}
	// The negated range tests also reject NaN.
	if !(c.Opts.TruncationRatio >= 0 && c.Opts.TruncationRatio <= 1) {
		return fmt.Errorf("core: truncation ratio %v outside [0,1]", c.Opts.TruncationRatio)
	}
	if !(c.MemoryFraction >= 0 && c.MemoryFraction <= 1) {
		return fmt.Errorf("core: memory fraction %v outside [0,1] (0 selects the default)", c.MemoryFraction)
	}
	if c.KVBudgetOverride < 0 {
		return fmt.Errorf("core: KV budget override must be non-negative, got %d bytes (0 sizes the budget from VRAM)", c.KVBudgetOverride)
	}
	if c.Opts.StaticVerifierFrac <= 0 || c.Opts.StaticVerifierFrac >= 1 {
		c.Opts.StaticVerifierFrac = 0.5
	}
	if _, err := c.KVBudget(); err != nil {
		return err
	}
	return nil
}
