package bench

import (
	"fmt"
	"slices"

	"fasttts/internal/alloc"
	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/metrics"
	"fasttts/internal/model"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/search"
	"fasttts/internal/trace"
	"fasttts/internal/workload"
)

// Fig3LeftAccuracyLatency reproduces Fig 3 (left): accuracy vs latency of
// Best-of-N, Beam Search, and DVTS on MATH-500.
func Fig3LeftAccuracyLatency(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	if o.Problems < 60 {
		o.Problems = 60 // accuracy needs a reasonable sample
	}
	pc := core.ModelPairs[0]
	r := &Report{
		ID:     "3l",
		Title:  "Accuracy vs latency, MATH500, 1.5B+1.5B, n=64",
		Header: []string{"method", "latency_s", "top1_acc_pct"},
	}
	for _, alg := range []search.Algorithm{search.BestOfN, search.BeamSearch, search.DVTS} {
		pol, err := search.New(alg, min(64, o.MaxN), 4)
		if err != nil {
			return nil, err
		}
		rs, err := solveSet(deployment(hw.RTX4090, pc, pol, core.BaselineOptions(), o.Seed), workload.MATH500, o)
		if err != nil {
			return nil, err
		}
		var top1 []bool
		for _, res := range rs {
			top1 = append(top1, metrics.Top1Correct(res.PathResults()))
		}
		lat, _, _ := meanLatency(rs)
		r.Rows = append(r.Rows, []string{pol.Name(), f1(lat), f1(metrics.Accuracy(top1))})
	}
	r.Notes = append(r.Notes,
		"paper: BoN 179.5s/50.0%, Beam 207.0s/54.5%, DVTS 291.5s/56.5% — latency and accuracy both increase down the list")
	return r, nil
}

// Fig3RightStepTokens reproduces Fig 3 (right): average and maximum token
// count per generation step of the 1.5B generator on AIME.
func Fig3RightStepTokens(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	ds := workload.NewDataset(workload.AIME24, rngFor(o.Seed))
	r := &Report{
		ID:     "3r",
		Title:  "Tokens per generation step, Qwen2.5-Math-1.5B on AIME",
		Header: []string{"step", "avg_tokens", "max_tokens"},
	}
	const beams = 256
	stream := rngFor(o.Seed).Child("fig3r")
	for step := 1; step <= 10; step++ {
		sum, maxTok, count := 0.0, 0, 0
		for pi, p := range ds.Subset(o.Problems) {
			for b := 0; b < beams; b++ {
				st := &workload.PathState{Steps: step - 1}
				s := workload.SampleStep(p, st, workload.SkillQwen1_5B, search.DefaultStepBudget,
					stream.Child(fmt.Sprintf("%d/%d/%d", pi, b, step)))
				sum += float64(s.Tokens)
				count++
				if s.Tokens > maxTok {
					maxTok = s.Tokens
				}
			}
		}
		r.Rows = append(r.Rows, []string{itoa(step), f1(sum / float64(count)), itoa(maxTok)})
	}
	r.Notes = append(r.Notes,
		"paper: avg ~200 tokens/step with outliers beyond 1000 at every step — the straggler disparity persists across steps")
	return r, nil
}

// Fig4UtilPhases reproduces Fig 4: the baseline's GPU compute utilization
// decays through the generation phase (stragglers) but stays high and
// steady during verification.
func Fig4UtilPhases(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	rec := &trace.Recorder{}
	pol, err := search.New(search.BeamSearch, min(64, o.MaxN), 4)
	if err != nil {
		return nil, err
	}
	cfg := deployment(hw.RTX4090, core.ModelPairs[0], pol, core.BaselineOptions(), o.Seed)
	cfg.Recorder = rec
	runner, err := core.NewRunner(cfg)
	if err != nil {
		return nil, err
	}
	ds := workload.NewDataset(workload.AIME24, rngFor(o.Seed))
	if _, err := runner.Solve(ds.Problems[0]); err != nil {
		return nil, err
	}
	r := &Report{
		ID:     "4",
		Title:  "GPU compute utilization over time (baseline, n=64, AIME)",
		Header: []string{"time_s", "util_generate", "util_verify"},
	}
	gen := rec.UtilSeries(0.25, trace.PhaseGenerate)
	ver := rec.UtilSeries(0.25, trace.PhaseVerify)
	for i := range gen {
		vu := 0.0
		if i < len(ver) {
			vu = ver[i].Util
		}
		r.Rows = append(r.Rows, []string{f2(gen[i].Time), f3(gen[i].Util), f3(vu)})
	}
	gStart, gEnd := phaseEdges(gen)
	r.Notes = append(r.Notes,
		fmt.Sprintf("generation-phase utilization decays from %.2f (early) to %.2f (late) as beams finish", gStart, gEnd),
		"paper: generation peaks early then plummets while waiting for the straggler; verification stays uniformly high")
	return r, nil
}

// phaseEdges returns mean utilization over the first and last active
// quarter of a series.
func phaseEdges(pts []trace.Point) (early, late float64) {
	var active []trace.Point
	for _, p := range pts {
		if p.Util > 0 {
			active = append(active, p)
		}
	}
	if len(active) < 4 {
		return 0, 0
	}
	q := len(active) / 4
	var a, b float64
	for _, p := range active[:q] {
		a += p.Util
	}
	for _, p := range active[len(active)-q:] {
		b += p.Util
	}
	return a / float64(q), b / float64(q)
}

// Fig5LeftPrefixMemory reproduces Fig 5 (left): the number of beams whose
// KV state fits in memory, with and without prefix-cache sharing, as the
// reasoning tree grows.
func Fig5LeftPrefixMemory(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	r := &Report{
		ID:     "5l",
		Title:  "Beams resident in a fixed KV budget across iterations",
		Header: []string{"iteration", "beam_search_w_prefix", "dvts_w_prefix", "wo_prefix"},
	}
	const budgetTokens = 120_000 // ~3.4 GB of 1.5B-generator KV
	stream := rngFor(o.Seed).Child("fig5l")
	ds := workload.NewDataset(workload.AIME24, rngFor(o.Seed))
	p := ds.Problems[0]
	beamTree := growTree(p, stream.Child("beam"), 4096, 4, false)
	dvtsTree := growTree(p, stream.Child("dvts"), 4096, 4, true)
	for it := 0; it < len(beamTree); it++ {
		bs := fitCount(beamTree[it], budgetTokens, true)
		dv := fitCount(dvtsTree[it], budgetTokens, true)
		wo := fitCount(beamTree[it], budgetTokens, false)
		r.Rows = append(r.Rows, []string{itoa(it + 1), itoa(bs), itoa(dv), itoa(wo)})
	}
	r.Notes = append(r.Notes,
		"paper: prefix sharing keeps thousands of beams resident where unshared storage saturates early; DVTS shares slightly less (independent subtrees)")
	return r, nil
}

// growTree simulates per-iteration snapshots of a width-n reasoning tree:
// entry t holds the active paths after iteration t+1. diverse confines
// branching to independent subtrees (DVTS-style).
func growTree(p *workload.Problem, stream *rng.Stream, n, b int, diverse bool) [][]sched.Path {
	type pathState struct {
		lineage []sched.NodeRef
		subtree int
	}
	nextNode := 1
	paths := make([]pathState, n)
	for i := range paths {
		paths[i] = pathState{
			lineage: []sched.NodeRef{{Node: 0, Tokens: p.PromptTokens}},
			subtree: i / b,
		}
	}
	var snaps [][]sched.Path
	for it := 0; it < 10; it++ {
		for i := range paths {
			st := &workload.PathState{Steps: it}
			step := workload.SampleStep(p, st, workload.SkillQwen1_5B, search.DefaultStepBudget,
				stream.Child(fmt.Sprintf("s/%d/%d", it, i)))
			paths[i].lineage = append(append([]sched.NodeRef(nil), paths[i].lineage...),
				sched.NodeRef{Node: nextNode, Tokens: step.Tokens})
			nextNode++
		}
		var next []pathState
		if diverse {
			bySub := map[int][]pathState{}
			var order []int
			for _, ps := range paths {
				if _, ok := bySub[ps.subtree]; !ok {
					order = append(order, ps.subtree)
				}
				bySub[ps.subtree] = append(bySub[ps.subtree], ps)
			}
			for _, subtree := range order {
				winner := bySub[subtree][0]
				for c := 0; c < b; c++ {
					next = append(next, pathState{
						lineage: append([]sched.NodeRef(nil), winner.lineage...),
						subtree: winner.subtree,
					})
				}
			}
		} else {
			keep := len(paths) / b
			if keep < 1 {
				keep = 1
			}
			for k := 0; k < keep; k++ {
				for c := 0; c < b; c++ {
					next = append(next, pathState{
						lineage: append([]sched.NodeRef(nil), paths[k].lineage...),
						subtree: paths[k].subtree,
					})
				}
			}
		}
		paths = next
		snap := make([]sched.Path, len(paths))
		for i, ps := range paths {
			snap[i] = sched.Path{ID: i, Lineage: ps.lineage}
		}
		snaps = append(snaps, snap)
	}
	return snaps
}

// fitCount returns how many of the (prefix-aware-ordered) paths fit in
// budget tokens, with or without prefix sharing.
func fitCount(paths []sched.Path, budget int, shared bool) int {
	ordered := sched.PrefixAwareOrder(paths)
	if shared {
		cum := sched.CumulativeUniqueTokens(ordered)
		for i, c := range cum {
			if c > budget {
				return i
			}
		}
		return len(cum)
	}
	total := 0
	for i, p := range ordered {
		total += p.TotalTokens()
		if total > budget {
			return i
		}
	}
	return len(ordered)
}

// Fig5RightHeatmap reproduces Fig 5 (right): pairwise shared-prefix
// structure under the baseline's arbitrary scheduling order — similar
// beams are not grouped together.
func Fig5RightHeatmap(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	stream := rngFor(o.Seed).Child("fig5r")
	ds := workload.NewDataset(workload.AIME24, rngFor(o.Seed))
	p := ds.Problems[0]
	snaps := growTree(p, stream.Child("tree"), 128, 4, false)
	paths := snaps[4] // a mid-search snapshot
	naive := sched.RandomOrder(slices.Clone(paths), stream.Child("shuffle"))
	grouped := sched.PrefixAwareOrder(paths)
	r := &Report{
		ID:     "5r",
		Title:  "Adjacent shared-prefix tokens: naive vs prefix-aware order (n=128)",
		Header: []string{"order", "adjacent_share_sum", "mean_adjacent_share"},
	}
	for _, row := range []struct {
		name  string
		order []sched.Path
	}{{"naive(random)", naive}, {"prefix-aware", grouped}} {
		score := sched.ScheduleScore(row.order)
		r.Rows = append(r.Rows, []string{
			row.name, itoa(score), f1(float64(score) / float64(len(row.order)-1)),
		})
	}
	// Emit the heatmap itself (downsampled 16x16) for plotting.
	m := sched.PairwiseShared(naive)
	step := len(m) / 16
	for i := 0; i < 16; i++ {
		row := []string{fmt.Sprintf("heat_row_%d", i)}
		for j := 0; j < 16; j++ {
			row = append(row, itoa(m[i*step][j*step]))
		}
		r.Rows = append(r.Rows, row)
	}
	r.Notes = append(r.Notes,
		"paper: under naive scheduling, high-sharing pairs are scattered off-diagonal — similar beams are not adjacent")
	return r, nil
}

// Fig6ThroughputVsKV reproduces Fig 6: normalized throughput versus KV
// cache size for the prefill and decoding stages — prefill saturates with
// far less memory.
func Fig6ThroughputVsKV(o RunOpts) (*Report, error) {
	g := hw.RTX4090
	m := model.Qwen25Math1_5B
	r := &Report{
		ID:     "6",
		Title:  "Normalized throughput vs KV cache size (Qwen2.5-1.5B, RTX 4090)",
		Header: []string{"kv_gib", "prefill_640", "prefill_1152", "decode_512", "decode_1024"},
	}
	peak := func(f func(int64) float64) float64 { return f(64 << 30) }
	pre640 := func(kv int64) float64 { return alloc.PrefillThroughput(g, m, 640, kv) }
	pre1152 := func(kv int64) float64 { return alloc.PrefillThroughput(g, m, 1152, kv) }
	dec512 := func(kv int64) float64 { return alloc.DecodeThroughput(g, m, 512, kv) }
	dec1024 := func(kv int64) float64 { return alloc.DecodeThroughput(g, m, 1024, kv) }
	p640, p1152, d512, d1024 := peak(pre640), peak(pre1152), peak(dec512), peak(dec1024)
	var at80Pre, at80Dec float64
	for kv := int64(32 << 20); kv <= 16<<30; kv *= 2 {
		r.Rows = append(r.Rows, []string{
			f3(float64(kv) / (1 << 30)),
			f3(pre640(kv) / p640), f3(pre1152(kv) / p1152),
			f3(dec512(kv) / d512), f3(dec1024(kv) / d1024),
		})
		if at80Pre == 0 && pre640(kv) >= 0.8*p640 {
			at80Pre = float64(kv) / (1 << 30)
		}
		if at80Dec == 0 && dec1024(kv) >= 0.8*d1024 {
			at80Dec = float64(kv) / (1 << 30)
		}
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("measured: prefill reaches 80%% of peak at ~%.2f GiB; decode needs ~%.2f GiB (%.0fx more)",
			at80Pre, at80Dec, at80Dec/at80Pre),
		"paper: prefill saturates at 0.39-0.98 GB; decode needs 3.06-5.18 GB (5-10x more)")
	return r, nil
}
