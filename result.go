package fasttts

import (
	"fasttts/internal/core"
	"fasttts/internal/metrics"
)

// Path is one finished reasoning path: the beam that finished it, its
// thinking steps and generated tokens (prompt excluded), its answer (0 =
// correct), final verifier score, and completion time from request start
// in seconds.
type Path = metrics.PathResult

// Result reports one solved problem.
type Result struct {
	// Problem is the problem solved: Solve's argument, or the served
	// request's own (Request.Problem, or the RunClosedLoop entry).
	Problem *Problem
	// Paths holds the finished paths in completion order; nil when none
	// finished. A served run's Paths share storage: see ServedResult.
	Paths []Path

	// Latency is the end-to-end time in (virtual) seconds; GenLatency,
	// VerLatency, and TransferLatency are its generator / verifier /
	// offload-PCIe components (they sum to Latency).
	Latency, GenLatency, VerLatency, TransferLatency float64
	// Goodput is the paper's Precise Goodput (§6.1) in tokens/s.
	Goodput float64

	Iterations int
	// SpecTokens counts speculatively decoded tokens; SpecRetained of
	// them were adopted by surviving beams. RecomputedTokens counts
	// evicted-prefix re-prefills on the generator.
	SpecTokens, SpecRetained, RecomputedTokens int64
}

// wrapResult reports a solved problem; Paths shares the solver's Finished.
func wrapResult(res *core.Result) *Result {
	out := resultOf(res)
	return &out
}

// resultOf is wrapResult by value, for callers that place the Result.
func resultOf(res *core.Result) Result {
	out := Result{
		Latency:          res.Latency,
		GenLatency:       res.GenTime,
		VerLatency:       res.VerTime,
		TransferLatency:  res.TransferTime,
		Goodput:          res.Goodput,
		Iterations:       res.Iterations,
		SpecTokens:       res.SpecTokens,
		SpecRetained:     res.SpecRetained,
		RecomputedTokens: res.RecomputedTokens,
	}
	if len(res.Finished) > 0 {
		out.Paths = res.Finished
	}
	return out
}

// Top1Correct reports whether majority voting over the finished paths
// selects the correct answer (§6.3).
func (r *Result) Top1Correct() bool {
	return metrics.Top1Correct(r.Paths)
}

// PassAtN reports whether any of the top-n paths (ranked by verifier
// score) answered correctly (§6.3).
func (r *Result) PassAtN(n int) bool {
	return metrics.PassAtN(r.Paths, n)
}

// Summary aggregates results across problems.
type Summary struct {
	Problems      int
	Top1Accuracy  float64 // percent
	MeanLatency   float64 // seconds
	MeanGoodput   float64 // tokens/s
	MeanGenTime   float64
	MeanVerTime   float64
	TotalSpec     int64
	TotalRetained int64
}

// Summarize reduces a batch of results to the paper's headline metrics.
func Summarize(results []*Result) Summary {
	var s Summary
	var top1 []bool
	var lat, gp, gt, vt []float64
	for _, r := range results {
		top1 = append(top1, r.Top1Correct())
		lat = append(lat, r.Latency)
		gp = append(gp, r.Goodput)
		gt = append(gt, r.GenLatency)
		vt = append(vt, r.VerLatency)
		s.TotalSpec += r.SpecTokens
		s.TotalRetained += r.SpecRetained
	}
	s.Problems = len(results)
	s.Top1Accuracy = metrics.Accuracy(top1)
	s.MeanLatency = metrics.Mean(lat)
	s.MeanGoodput = metrics.Mean(gp)
	s.MeanGenTime = metrics.Mean(gt)
	s.MeanVerTime = metrics.Mean(vt)
	return s
}
