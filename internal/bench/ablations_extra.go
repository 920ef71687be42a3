package bench

import (
	"fmt"

	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/model"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// Extensions returns the ablation experiments beyond the paper's figures
// (DESIGN.md §5): design-choice studies the paper motivates but does not
// plot.
func Extensions() []Figure {
	return []Figure{
		{ID: "a1", Title: "Ablation: truncation ratio R full sweep", Run: AblationTruncationSweep},
		{ID: "a2", Title: "Ablation: speculative score-bin count", Run: AblationSpecBins},
		{ID: "a3", Title: "Ablation: weight quantization", Run: AblationQuantization},
		{ID: "a4", Title: "Ablation: static split ratio vs roofline allocation", Run: AblationSplitRatio},
		{ID: "a5", Title: "Ablation: paged-KV block size", Run: AblationBlockSize},
		{ID: "a6", Title: "Extension: MCTS vs beam-search family", Run: ExtMCTSComparison},
		{ID: "s1", Title: "Extension: two-phase serving under load", Run: ExtServingLoad},
	}
}

// AblationTruncationSweep extends Fig 17 (right) to a full R grid.
func AblationTruncationSweep(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	pol, err := search.New(search.BeamSearch, min(128, o.MaxN), 4)
	if err != nil {
		return nil, err
	}
	pc := core.ModelPairs[0]
	r := &Report{
		ID:     "a1",
		Title:  "Goodput vs truncation ratio R (AIME, 1.5B+1.5B, n=128)",
		Header: []string{"R", "goodput_tok_s", "spec_retained_tokens"},
	}
	for _, ratio := range []float64{0, 0.25, 0.5, 0.75, 0.85, 1.0} {
		opts := core.FastTTSOptions()
		opts.TruncationRatio = ratio
		rs, err := solveSet(deployment(hw.RTX4090, pc, pol, opts, o.Seed), workload.AIME24, o)
		if err != nil {
			return nil, err
		}
		var retained int64
		for _, res := range rs {
			retained += res.SpecRetained
		}
		r.Rows = append(r.Rows, []string{f2(ratio), f2(meanGoodput(rs)), i64(retained)})
	}
	r.Notes = append(r.Notes,
		"higher R retains more speculative work on duplicates; goodput rises with R (paper evaluated R=0 and R=0.85)")
	return r, nil
}

// AblationSpecBins studies the §4.1.1 score-bin count B used by
// speculative candidate selection: 1 bin treats all beams equally;
// more bins concentrate speculation on likely survivors.
func AblationSpecBins(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	pol, err := search.New(search.BeamSearch, min(128, o.MaxN), 4)
	if err != nil {
		return nil, err
	}
	pc := core.ModelPairs[0]
	r := &Report{
		ID:     "a2",
		Title:  "Speculation utility vs score-bin count (AIME, n=128)",
		Header: []string{"bins", "goodput_tok_s", "retained_frac"},
	}
	for _, bins := range []int{1, 2, 4, 8} {
		opts := core.FastTTSOptions()
		opts.SpecBins = bins
		rs, err := solveSet(deployment(hw.RTX4090, pc, pol, opts, o.Seed), workload.AIME24, o)
		if err != nil {
			return nil, err
		}
		var spec, retained int64
		for _, res := range rs {
			spec += res.SpecTokens
			retained += res.SpecRetained
		}
		frac := 0.0
		if spec > 0 {
			frac = float64(retained) / float64(spec)
		}
		r.Rows = append(r.Rows, []string{itoa(bins), f2(meanGoodput(rs)), f3(frac)})
	}
	r.Notes = append(r.Notes,
		"more bins hand top-scored beams extra parallel branches; the extras serve duplicates and survive only after truncation, so the retained fraction falls while goodput peaks at a moderate bin count")
	return r, nil
}

// AblationQuantization studies weight quantization (Fig 9 mentions the
// quantization config as a memory knob; the paper calls it orthogonal).
// Smaller weights leave more KV budget AND speed up bandwidth-bound
// decode.
func AblationQuantization(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	pol, err := search.New(search.BeamSearch, min(128, o.MaxN), 4)
	if err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "a3",
		Title:  "Weight quantization (7B generator, RTX 4090, FastTTS)",
		Header: []string{"quant", "weights_gib", "kv_budget_gib", "goodput_tok_s", "latency_s"},
	}
	for _, q := range []model.Quantization{model.FP16, model.INT8, model.INT4} {
		pc := core.ModelPairs[2]
		pc.Generator = pc.Generator.WithQuant(q)
		cfg := deployment(hw.RTX4090, pc, pol, core.FastTTSOptions(), o.Seed)
		budget, err := cfg.KVBudget()
		if err != nil {
			return nil, err
		}
		rs, err := solveSet(cfg, workload.AIME24, o)
		if err != nil {
			return nil, err
		}
		lat, _, _ := meanLatency(rs)
		r.Rows = append(r.Rows, []string{
			q.String(),
			f2(float64(pc.Generator.WeightBytes()) / (1 << 30)),
			f2(float64(budget) / (1 << 30)),
			f2(meanGoodput(rs)), f1(lat),
		})
	}
	r.Notes = append(r.Notes,
		"quantization is orthogonal to FastTTS (§6.4): smaller weights free KV memory and cut weight-streaming time, compounding the gains")
	return r, nil
}

// AblationSplitRatio compares fixed verifier/generator split ratios
// against the roofline-guided allocation on the verifier-heavy config.
func AblationSplitRatio(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	pol, err := search.New(search.BeamSearch, min(128, o.MaxN), 4)
	if err != nil {
		return nil, err
	}
	pc := core.ModelPairs[1] // 7B verifier: the split matters most here
	r := &Report{
		ID:     "a4",
		Title:  "Static split ratios vs roofline allocation (1.5B+7B, AIME, n=128)",
		Header: []string{"policy", "goodput_tok_s"},
	}
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		opts := core.FastTTSOptions()
		opts.AsymmetricMemory = false
		opts.StaticVerifierFrac = frac
		rs, err := solveSet(deployment(hw.RTX4090, pc, pol, opts, o.Seed), workload.AIME24, o)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{fmt.Sprintf("static %.0f%% verifier", frac*100), f2(meanGoodput(rs))})
	}
	rs, err := solveSet(deployment(hw.RTX4090, pc, pol, core.FastTTSOptions(), o.Seed), workload.AIME24, o)
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, []string{"roofline-guided (M)", f2(meanGoodput(rs))})
	r.Notes = append(r.Notes,
		"the roofline allocation lands within a few percent of the best static ratio with no per-config tuning; static ratios must be re-tuned per model pair (§4.3.1)")
	return r, nil
}
