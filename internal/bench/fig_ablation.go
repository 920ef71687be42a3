package bench

import (
	"fmt"
	"slices"

	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/obs"
	"fasttts/internal/sched"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// ablationLadder returns the cumulative option sets of Fig 16:
// baseline → +P → +P+M → +P+M+S.
func ablationLadder() []struct {
	name string
	opts core.Options
} {
	p := core.Options{
		PrefixAware:        true,
		PrefixCache:        true,
		StaticVerifierFrac: 0.5,
	}
	pm := p
	pm.AsymmetricMemory = true
	return []struct {
		name string
		opts core.Options
	}{
		{"baseline", core.BaselineOptions()},
		{"+P", p},
		{"+P+M", pm},
		{"+P+M+S", core.FastTTSOptions()},
	}
}

// Fig16Ablation reproduces Fig 16: the cumulative goodput gain from
// Dynamic Prefix-Aware Scheduling (P), Asymmetric Multi-Model Memory
// Allocation (M), and Speculative Beam Extension (S).
func Fig16Ablation(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:     "16",
		Title:  "Cumulative goodput gain from P, M, S (AIME)",
		Header: []string{"config", "n", "variant", "goodput_tok_s", "gain_vs_baseline_pct"},
	}
	for _, pc := range core.ModelPairs {
		for _, n := range nSweep(o.MaxN, 8, 32, 128, 512) {
			pol, err := search.New(search.BeamSearch, n, 4)
			if err != nil {
				return nil, err
			}
			baseGP := 0.0
			for _, step := range ablationLadder() {
				rs, err := solveSet(deployment(hw.RTX4090, pc, pol, step.opts, o.Seed), workload.AIME24, o)
				if err != nil {
					return nil, err
				}
				gp := meanGoodput(rs)
				if step.name == "baseline" {
					baseGP = gp
				}
				r.Rows = append(r.Rows, []string{
					pc.Name, itoa(n), step.name, f2(gp), f1(100 * (gp/baseGP - 1)),
				})
			}
		}
	}
	r.Notes = append(r.Notes,
		"paper: P strongest in the memory-constrained 1.5B+7B setup; M adds most at large n; S is often the largest single contributor")
	return r, nil
}

// Fig17LeftUtil reproduces Fig 17 (left): compute utilization across one
// generation iteration, baseline vs FastTTS — speculation keeps the batch
// full so utilization stays flat instead of decaying.
func Fig17LeftUtil(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	pol, err := search.New(search.BeamSearch, min(64, o.MaxN), 4)
	if err != nil {
		return nil, err
	}
	pc := core.ModelPairs[0]
	r := &Report{
		ID:     "17l",
		Title:  "Compute utilization within the generation phase (n=64, AIME)",
		Header: []string{"system", "early_quarter_util", "late_quarter_util", "decay"},
	}
	for _, sys := range []struct {
		name string
		opts core.Options
	}{
		{"vLLM", core.BaselineOptions()},
		{"FastTTS", core.FastTTSOptions()},
	} {
		rec := obs.NewRecorder()
		cfg := deployment(hw.RTX4090, pc, pol, sys.opts, o.Seed)
		cfg.Obs = rec
		runner, err := core.NewRunner(cfg)
		if err != nil {
			return nil, err
		}
		ds := workload.NewDataset(workload.AIME24, rngFor(o.Seed))
		if _, err := runner.Solve(ds.Problems[0]); err != nil {
			return nil, err
		}
		early, late := firstIterationEdges(rec.Spans())
		r.Rows = append(r.Rows, []string{sys.name, f3(early), f3(late), f3(early - late)})
	}
	r.Notes = append(r.Notes,
		"paper: vLLM's utilization decays across the iteration; FastTTS stays high and consistent by speculating in freed slots")
	return r, nil
}

// firstIterationEdges isolates the first generation iteration (the first
// contiguous run of generate-phase kernels) among one solve's kernel spans
// and returns its early- and late-quarter mean utilization.
func firstIterationEdges(spans []obs.Span) (early, late float64) {
	var segment []obs.Span
	var lastEnd float64
	for _, s := range spans {
		if s.Kind != obs.KindGenerate && s.Kind != obs.KindRecompute {
			if len(segment) > 0 {
				break // first iteration ended (verification started)
			}
			continue
		}
		if s.Kind != obs.KindGenerate {
			continue
		}
		if len(segment) > 0 && s.Start-lastEnd > 1.0 {
			break
		}
		segment = append(segment, s)
		lastEnd = s.End
	}
	if len(segment) < 8 {
		return 0, 0
	}
	q := len(segment) / 4
	weigh := func(ss []obs.Span) float64 {
		var busy, span float64
		for _, s := range ss {
			busy += s.V1 * (s.End - s.Start)
			span += s.End - s.Start
		}
		if span == 0 {
			return 0
		}
		return busy / span
	}
	return weigh(segment[:q]), weigh(segment[len(segment)-q:])
}

// Fig17RightTruncation reproduces Fig 17 (right): the impact of the
// speculative truncation ratio R on goodput (R=0.85 retains speculative
// work aggressively and wins).
func Fig17RightTruncation(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:     "17r",
		Title:  "Truncation ratio R vs goodput (1.5B+1.5B)",
		Header: []string{"dataset", "n", "baseline", "fasttts_R0.00", "fasttts_R0.85"},
	}
	pc := core.ModelPairs[0]
	for _, spec := range []workload.DatasetSpec{workload.AIME24, workload.AMC23} {
		for _, n := range nSweep(o.MaxN, 64, 128, 256, 512) {
			pol, err := search.New(search.BeamSearch, n, 4)
			if err != nil {
				return nil, err
			}
			run := func(opts core.Options) (float64, error) {
				rs, err := solveSet(deployment(hw.RTX4090, pc, pol, opts, o.Seed), spec, o)
				if err != nil {
					return 0, err
				}
				return meanGoodput(rs), nil
			}
			base, err := run(core.BaselineOptions())
			if err != nil {
				return nil, err
			}
			r0opts := core.FastTTSOptions()
			r0opts.TruncationRatio = 0
			r0, err := run(r0opts)
			if err != nil {
				return nil, err
			}
			r85, err := run(core.FastTTSOptions())
			if err != nil {
				return nil, err
			}
			r.Rows = append(r.Rows, []string{spec.Name, itoa(n), f2(base), f2(r0), f2(r85)})
		}
	}
	r.Notes = append(r.Notes,
		"paper: R=0.85 (aggressively retaining speculative work) yields more goodput than R=0.0; both beat the baseline")
	return r, nil
}

// Fig18LeftSchedulers reproduces Fig 18 (left): KV footprint growth as
// the batch is assembled under prefix-aware, random, and worst-case
// scheduling, on a final-iteration trace.
func Fig18LeftSchedulers(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	stream := rngFor(o.Seed).Child("fig18l")
	ds := workload.NewDataset(workload.AIME24, rngFor(o.Seed))
	p := ds.Problems[0]
	snaps := growTree(p, stream.Child("tree"), 512, 4, false)
	paths := snaps[len(snaps)-1] // final TTS iteration
	kvPerToken := float64(28672) // 1.5B generator KV bytes/token
	// The three orders, in the order of Header's columns.
	orders := [][]sched.Path{
		sched.PrefixAwareOrder(paths),
		sched.RandomOrder(slices.Clone(paths), stream.Child("shuffle")),
		sched.MaxGrowthOrder(paths),
	}
	r := &Report{
		ID:     "18l",
		Title:  "KV cache growth by scheduling order (final iteration, n=512)",
		Header: []string{"batch_size", "prefix_aware_gib", "random_gib", "worst_case_gib"},
	}
	cums := make([][]int, len(orders))
	for i, ord := range orders {
		cums[i] = sched.CumulativeUniqueTokens(ord)
	}
	for k := 31; k < len(paths); k += 32 {
		row := []string{itoa(k + 1)}
		for i := range orders {
			row = append(row, f3(float64(cums[i][k])*kvPerToken/(1<<30)))
		}
		r.Rows = append(r.Rows, row)
	}
	// Fixed-budget batch capacity comparison (the figure's second claim).
	const budget = 1 << 30
	caps := make([]int, len(orders))
	for i := range orders {
		for k, c := range cums[i] {
			if float64(c)*kvPerToken > budget {
				break
			}
			caps[i] = k + 1
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("at a 1 GiB budget the schedulers fit %d (prefix-aware) vs %d (random) vs %d (worst-case) beams",
			caps[0], caps[1], caps[2]),
		"paper: prefix-aware KV grows much more slowly with batch size, supporting substantially larger batches for a fixed budget")
	return r, nil
}

// Fig18RightMemoryGain reproduces Fig 18 (right): the goodput gain of P
// and M+P over the baseline under varying available KV memory — gains
// concentrate in memory-constrained regimes.
func Fig18RightMemoryGain(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	pol, err := search.New(search.BeamSearch, min(256, o.MaxN), 4)
	if err != nil {
		return nil, err
	}
	pc := core.ModelPairs[0]
	r := &Report{
		ID:     "18r",
		Title:  "Goodput gain vs available KV memory (AIME, 1.5B+1.5B)",
		Header: []string{"kv_gib", "gain_P_pct", "gain_MP_pct"},
	}
	// Isolate the scheduling-order effect: the baseline here caches KV
	// but schedules randomly with a static split (the Fig 18 caption's
	// "vLLM baseline uses random scheduling").
	cacheOnBase := core.Options{
		PrefixCache:        true,
		StaticVerifierFrac: 0.5,
	}
	pOpts := cacheOnBase
	pOpts.PrefixAware = true
	mpOpts := pOpts
	mpOpts.AsymmetricMemory = true
	for _, gib := range []float64{1.5, 2, 4, 14} {
		budget := int64(gib * (1 << 30))
		run := func(opts core.Options) (float64, error) {
			cfg := deployment(hw.RTX4090, pc, pol, opts, o.Seed)
			cfg.KVBudgetOverride = budget
			rs, err := solveSet(cfg, workload.AIME24, o)
			if err != nil {
				return 0, err
			}
			return meanGoodput(rs), nil
		}
		base, err := run(cacheOnBase)
		if err != nil {
			return nil, err
		}
		pOnly, err := run(pOpts)
		if err != nil {
			return nil, err
		}
		mp, err := run(mpOpts)
		if err != nil {
			return nil, err
		}
		r.Rows = append(r.Rows, []string{
			f1(gib), f1(100 * (pOnly/base - 1)), f1(100 * (mp/base - 1)),
		})
	}
	r.Notes = append(r.Notes,
		"paper: at 1.5 GB the gains are 58% (P) and 145% (M+P); at 14 GB they shrink to ~5% — optimization value concentrates under memory pressure")
	return r, nil
}
