package bench

import (
	"fmt"

	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/kvcache"
	"fasttts/internal/model"
	"fasttts/internal/sched"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// AblationBlockSize studies the paged-KV block granularity (DESIGN.md §5):
// large blocks waste capacity at node boundaries of the reasoning tree
// (internal fragmentation), shrinking the number of beams a fixed budget
// holds.
func AblationBlockSize(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	stream := rngFor(o.Seed).Child("a5")
	ds := workload.NewDataset(workload.AIME24, rngFor(o.Seed))
	p := ds.Problems[0]
	snaps := growTree(p, stream.Child("tree"), 512, 4, false)
	paths := snaps[len(snaps)-1]
	kvPerToken := model.Qwen25Math1_5B.KVBytesPerToken()
	const budget = (int64(5) << 30) / 4 // 1.25 GiB
	r := &Report{
		ID:     "a5",
		Title:  "Paged-KV block size: fragmentation vs resident beams (1.25 GiB budget)",
		Header: []string{"block_tokens", "resident_beams", "allocated_gib", "frag_overhead_pct"},
	}
	for _, block := range []int{1, 16, 64, 256} {
		cache := kvcache.NewBlocked(budget, kvPerToken, block)
		resident := 0
		for _, path := range paths {
			if _, _, _, err := cache.AcquireRuns(lineageRuns(path)); err != nil {
				break
			}
			resident++
		}
		// Exact usage of the same content for the fragmentation ratio.
		exact := kvcache.New(64<<30, kvPerToken)
		for i := 0; i < resident; i++ {
			exact.AcquireRuns(lineageRuns(paths[i]))
		}
		frag := 0.0
		if exact.UsedTokens() > 0 {
			frag = 100 * (float64(cache.UsedTokens())/float64(exact.UsedTokens()) - 1)
		}
		r.Rows = append(r.Rows, []string{
			itoa(block), itoa(resident),
			f3(float64(cache.UsedBytes()) / (1 << 30)), f1(frag),
		})
	}
	r.Notes = append(r.Notes,
		"token-granular allocation is the upper bound; 16-64-token blocks cost a few percent; very large blocks meaningfully cut resident beams")
	return r, nil
}

// lineageRuns is the path's token sequence, one run per node: token j of
// node k is k<<12 | j. growTree's nodes — an AIME prompt or one thinking
// step of at most search.DefaultStepBudget tokens — stay below the 4096
// values a node has.
func lineageRuns(path sched.Path) []kvcache.Run {
	runs := make([]kvcache.Run, len(path.Lineage))
	for i, ref := range path.Lineage {
		runs[i] = kvcache.Run{First: kvcache.Token(ref.Node << 12), N: ref.Tokens}
	}
	return runs
}

// ExtServingLoad measures the two-phase scheduler (§4.1.2) under an
// arrival stream: per-request latency and queueing with speculation
// preempted whenever the queue is non-empty, against a server that never
// speculates.
func ExtServingLoad(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	pol, err := search.New(search.BeamSearch, min(64, o.MaxN), 4)
	if err != nil {
		return nil, err
	}
	pc := pair1515()
	ds := workload.NewDataset(workload.AMC23, rngFor(o.Seed))
	probs := ds.Subset(max(o.Problems, 6))
	r := &Report{
		ID:     "s1",
		Title:  "Two-phase serving under load (AMC, n=64)",
		Header: []string{"inter_arrival_s", "system", "mean_latency_s", "mean_queue_s", "spec_tokens"},
	}
	for _, gap := range []float64{5, 30, 120} {
		for _, sys := range []struct {
			name string
			opts core.Options
		}{
			{"baseline", core.BaselineOptions()},
			{"fasttts", core.FastTTSOptions()},
		} {
			srv, err := core.NewServer(deployment(hw.RTX4090, pc, pol, sys.opts, o.Seed, nil))
			if err != nil {
				return nil, err
			}
			var reqs []core.Request
			for i, p := range probs {
				reqs = append(reqs, core.Request{Problem: p, Arrival: float64(i) * gap})
			}
			served, err := srv.Run(reqs)
			if err != nil {
				return nil, err
			}
			var lat, queue float64
			var spec int64
			for _, sv := range served {
				lat += sv.Result.Latency
				queue += sv.QueueDelay
				spec += sv.SpecTokens
			}
			n := float64(len(served))
			r.Rows = append(r.Rows, []string{
				fmt.Sprintf("%.0f", gap), sys.name,
				f1(lat / n), f1(queue / n), i64(spec),
			})
		}
	}
	r.Notes = append(r.Notes,
		"under tight arrivals FastTTS suspends speculation (two-phase preemption) yet still wins on latency via P+M; idle gaps re-enable speculation")
	return r, nil
}

// ExtMCTSComparison checks the paper's §2.2 claim that multi-step
// lookahead methods like MCTS "introduce significant sampling and latency
// overhead with inferior accuracy" compared to the beam-search family —
// the reason FastTTS's common pattern excludes them.
func ExtMCTSComparison(o RunOpts) (*Report, error) {
	o = o.withDefaults()
	if o.Problems < 12 {
		o.Problems = 12
	}
	pc := pair1515()
	r := &Report{
		ID:     "a6",
		Title:  "MCTS vs the beam-search family (AIME, n=64, FastTTS serving)",
		Header: []string{"method", "latency_s", "goodput_tok_s", "top1_acc_pct"},
	}
	for _, alg := range []search.Algorithm{search.BeamSearch, search.DVTS, search.MCTS} {
		pol, err := search.New(alg, min(64, o.MaxN), 4)
		if err != nil {
			return nil, err
		}
		rs, err := solveSet(deployment(hw.RTX4090, pc, pol, core.FastTTSOptions(), o.Seed, nil), workload.AIME24, o)
		if err != nil {
			return nil, err
		}
		var top1 []bool
		for _, res := range rs {
			top1 = append(top1, topCorrect(res))
		}
		lat, _, _ := meanLatency(rs)
		r.Rows = append(r.Rows, []string{pol.Name(), f1(lat), f2(meanGoodput(rs)), f1(accuracy(top1))})
	}
	r.Notes = append(r.Notes,
		"paper §2.2: MCTS-style lookahead adds sampling overhead without an accuracy edge; it is implemented here so the exclusion is checkable")
	return r, nil
}
