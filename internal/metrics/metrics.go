// Package metrics implements the paper's evaluation metrics (§6.1) —
// Precise Goodput, completion latency, Top-1 accuracy via majority
// voting, Pass@N accuracy with verifier-score ranking — plus the
// serving-side aggregation layers built on them:
//
//   - serve.go: server-level aggregates over a served stream (latency
//     percentiles, queue delay, goodput, SLO attainment), all computed
//     by one accumulator, ServeAccum. Exact mode sorts every wall
//     latency (the golden-conformance path); streaming mode reads them
//     from sketches instead.
//   - sketch.go: the deterministic quantile sketch behind streaming
//     mode, within the documented SketchRelErr (< 1%) bound.
//   - fleet.go: fleet-level aggregates (per-device utilization,
//     imbalance, cache telemetry).
//   - control.go: elastic-control-plane summaries and the TickWindow
//     control-plane window.
package metrics

import (
	"math"
	"sort"
)

// PathResult is one finished reasoning path, as the solver collects it.
type PathResult struct {
	BeamID      int     // the beam that finished it
	Steps       int     // thinking steps
	Tokens      int     // generated tokens (prompt excluded)
	Answer      int     // 0 = correct answer
	Score       float64 // final verifier score
	CompletedAt float64 // completion time from request start, seconds
}

// PreciseGoodput implements the §6.1 metric:
//
//	Precise Goodput := (average token length per beam) /
//	                   (average beam completion time)
//
// Averaging across beams makes the metric robust to a single slow path
// and to inflation from branching copies.
func PreciseGoodput(paths []PathResult) float64 {
	if len(paths) == 0 {
		return 0
	}
	var tokens, completion float64
	for _, p := range paths {
		tokens += float64(p.Tokens)
		completion += p.CompletedAt
	}
	if completion == 0 {
		return 0
	}
	return tokens / completion
}

// Top1Correct implements majority voting over final answers (§6.3):
// the answer with the most votes wins; ties break toward the answer with
// the higher summed verifier score. It reports whether the winning
// answer is the correct one (answer 0).
func Top1Correct(paths []PathResult) bool {
	if len(paths) == 0 {
		return false
	}
	votes := map[int]int{}
	weight := map[int]float64{}
	for _, p := range paths {
		votes[p.Answer]++
		weight[p.Answer] += p.Score
	}
	best, bestVotes, bestWeight := -1, -1, math.Inf(-1)
	var answers []int
	for a := range votes {
		answers = append(answers, a)
	}
	sort.Ints(answers) // deterministic iteration
	for _, a := range answers {
		if votes[a] > bestVotes || (votes[a] == bestVotes && weight[a] > bestWeight) {
			best, bestVotes, bestWeight = a, votes[a], weight[a]
		}
	}
	return best == 0
}

// PassAtN ranks candidates by verifier score (descending) and reports
// whether any of the top n answers is correct (§6.3).
func PassAtN(paths []PathResult, n int) bool {
	if len(paths) == 0 || n <= 0 {
		return false
	}
	ranked := append([]PathResult(nil), paths...)
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].Score > ranked[j].Score })
	if n > len(ranked) {
		n = len(ranked)
	}
	for _, p := range ranked[:n] {
		if p.Answer == 0 {
			return true
		}
	}
	return false
}

// Accuracy aggregates a per-problem boolean outcome into a percentage.
func Accuracy(outcomes []bool) float64 {
	if len(outcomes) == 0 {
		return 0
	}
	hits := 0
	for _, ok := range outcomes {
		if ok {
			hits++
		}
	}
	return 100 * float64(hits) / float64(len(outcomes))
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// GeoMean returns the geometric mean of xs (0 for empty or non-positive
// input) — used for averaging speedup ratios across configurations.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
