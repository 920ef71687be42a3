package sched

import "fasttts/internal/workload"

// EstimateDemand predicts a request's total service demand in token
// units: prompt prefill plus the expected decode work of a width-wide
// search. Harder problems hold quality down, which delays the
// termination logistic, so expected depth rises with difficulty.
//
// It is the single remaining-work estimator of the serving stack: the
// per-device engine seeds each admitted request's RemainingWork from it
// (consumed by the SJF policy), and the cluster's least-outstanding-work
// router sums it over a device's queued requests. The serving loop
// computes it once per request, when the request enters its queue.
func EstimateDemand(p *workload.Problem, width int) float64 {
	typical, maxSteps := p.Depth()
	steps := typical + 3*(p.Difficulty-0.5)
	if steps < 1 {
		steps = 1
	}
	if m := float64(maxSteps); steps > m {
		steps = m
	}
	return float64(p.PromptTokens) + float64(width)*steps*p.MeanStepTokens()
}
