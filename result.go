package fasttts

import (
	"fasttts/internal/core"
	"fasttts/internal/metrics"
)

// Path is one finished reasoning path.
type Path struct {
	Tokens      int     // generated tokens (prompt excluded)
	Steps       int     // thinking steps
	Answer      int     // 0 = correct answer
	Score       float64 // final verifier score
	CompletedAt float64 // completion time from request start, seconds
}

// Result reports one solved problem.
type Result struct {
	Problem *Problem
	Paths   []Path

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

	inner *core.Result
}

func wrapResult(res *core.Result) *Result {
	out := &Result{
		Latency:          res.Latency,
		GenLatency:       res.GenTime,
		VerLatency:       res.VerTime,
		TransferLatency:  res.TransferTime,
		Goodput:          res.Goodput,
		Iterations:       res.Iterations,
		SpecTokens:       res.SpecTokens,
		SpecRetained:     res.SpecRetained,
		RecomputedTokens: res.RecomputedTokens,
		inner:            res,
	}
	if len(res.Finished) > 0 {
		out.Paths = make([]Path, len(res.Finished))
	}
	for i, f := range res.Finished {
		out.Paths[i] = Path{
			Tokens:      f.Tokens,
			Steps:       f.Steps,
			Answer:      f.Answer,
			Score:       f.Score,
			CompletedAt: f.CompletedAt,
		}
	}
	return out
}

func (r *Result) pathResults() []metrics.PathResult {
	return r.inner.PathResults()
}

// Top1Correct reports whether majority voting over the finished paths
// selects the correct answer (§6.3).
func (r *Result) Top1Correct() bool {
	return metrics.Top1Correct(r.pathResults())
}

// PassAtN reports whether any of the top-n paths (ranked by verifier
// score) answered correctly (§6.3).
func (r *Result) PassAtN(n int) bool {
	return metrics.PassAtN(r.pathResults(), n)
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
