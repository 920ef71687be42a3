package metrics

// Server-level aggregates for the multi-tenant serving engine: latency
// percentiles, queueing delay, server goodput, and SLO attainment over a
// whole served request stream. ServeAccum is the one path from a served
// stream to ServeStats; its Mode only picks where latencies go.

import (
	"fmt"
	"math"
	"sort"
)

// ServeSample is the telemetry of one request as seen by the server.
type ServeSample struct {
	// Arrival, Start, and Finish are on the server clock; Start and
	// Finish are meaningless when Rejected.
	Arrival, Start, Finish float64
	// Tokens is the request's useful generated output (prompt excluded).
	Tokens int64
	// Rejected marks requests shed by admission control.
	Rejected bool
}

// ServeStats aggregates a served request stream.
type ServeStats struct {
	Served, Rejected int
	// Makespan is the finish time of the last served request.
	Makespan float64
	// MeanQueueDelay / MaxQueueDelay aggregate Start − Arrival.
	MeanQueueDelay, MaxQueueDelay float64
	// Latency here is wall latency, Finish − Arrival: what a client
	// experiences, queueing included.
	MeanLatency, P50Latency, P95Latency, P99Latency float64
	// Goodput is useful tokens per second of makespan across the stream.
	Goodput float64
	// SLOAttainment is the fraction of all submitted requests whose wall
	// latency met the target; rejected requests count as misses, since
	// shed load is not attained load. It is 1 when no target was set.
	SLOAttainment float64
	// NonFinite counts served samples dropped from every aggregate
	// because their telemetry was NaN or ±Inf — a single unfiltered NaN
	// silently poisons sort.Float64s ordering and with it every
	// percentile, so corrupt samples are counted instead of aggregated.
	NonFinite int
}

// isFinite reports whether x is an ordinary float — not NaN, not ±Inf.
func isFinite(x float64) bool {
	return !math.IsNaN(x) && !math.IsInf(x, 0)
}

// checkPercentile enforces the documented percentile domain. A caller
// typo (p = 0.99 meaning 99, p = 999) must not masquerade as a valid
// percentile, so out-of-domain p panics rather than clamping.
func checkPercentile(p float64) {
	if math.IsNaN(p) || p < 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile p must be in [0, 100], got %v", p))
	}
}

// Percentile returns the p-th percentile of xs by the nearest-rank
// method, 0 for empty input. xs need not be sorted; NaN/±Inf entries are
// ignored (they have no rank). p outside [0, 100] panics.
func Percentile(xs []float64, p float64) float64 {
	checkPercentile(p)
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, 0, len(xs))
	for _, x := range xs {
		if isFinite(x) {
			sorted = append(sorted, x)
		}
	}
	sort.Float64s(sorted)
	return sortedPercentile(sorted, p)
}

// sortedPercentile is Percentile over an already-sorted, all-finite
// slice: the nearest-rank index, no copy, no re-sort. Aggregations that
// need several percentiles of one sample sort once and index repeatedly.
func sortedPercentile(sorted []float64, p float64) float64 {
	checkPercentile(p)
	if len(sorted) == 0 {
		return 0
	}
	if p == 0 {
		return sorted[0]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Mode selects how a ServeAccum aggregates the latency distribution.
type Mode string

const (
	// ModeExact keeps every wall latency and sorts them once at Stats
	// time: exact nearest-rank percentiles, and means summed in
	// observation order. The default, and the golden-trace conformance
	// path.
	ModeExact Mode = "exact"
	// ModeStreaming folds wall and queue latencies into two quantile
	// sketches: percentiles and means within SketchRelErr of exact.
	ModeStreaming Mode = "streaming"
)

// ParseMode maps a config string to a Mode. Empty means ModeExact.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", string(ModeExact):
		return ModeExact, nil
	case string(ModeStreaming), "sketch":
		return ModeStreaming, nil
	default:
		return "", fmt.Errorf("metrics: unknown metrics mode %q (want %q or %q)", s, ModeExact, ModeStreaming)
	}
}

// ServeAccum reduces a served request stream to ServeStats: build it
// with NewServeAccum, Observe every sample, then call Stats. Counters,
// maxima, goodput and SLO attainment are exact in both modes; the mode
// picks only where latencies go.
type ServeAccum struct {
	streaming bool
	slo       float64

	served, rejected, nonFinite, attained int
	tokens                                int64
	makespan, maxQueue                    float64

	// Exact mode: every wall latency, sorted by Stats, and the
	// observation-order sums the means divide.
	walls             []float64
	wallSum, queueSum float64
	// Streaming mode: the latency sketches.
	wall, queue Sketch
}

// NewServeAccum returns an empty accumulator judging SLO attainment
// against sloLatency (<= 0: no target). ModeStreaming sketches the
// latencies; every other mode, the empty one included, is exact.
func NewServeAccum(mode Mode, sloLatency float64) *ServeAccum {
	return &ServeAccum{streaming: mode == ModeStreaming, slo: sloLatency}
}

// Observe folds one sample in. Served samples whose queue or wall
// latency is NaN or ±Inf are counted in NonFinite and otherwise ignored.
// Streaming mode needs causally valid samples (Start ≥ Arrival,
// Finish ≥ Arrival): negative latencies panic in the sketch.
func (a *ServeAccum) Observe(sm ServeSample) {
	if sm.Rejected {
		a.rejected++
		return
	}
	q := sm.Start - sm.Arrival
	w := sm.Finish - sm.Arrival
	if !isFinite(q) || !isFinite(w) {
		a.nonFinite++
		return
	}
	a.served++
	a.tokens += sm.Tokens
	if q > a.maxQueue {
		a.maxQueue = q
	}
	if sm.Finish > a.makespan {
		a.makespan = sm.Finish
	}
	if w <= a.slo {
		a.attained++
	}
	if a.streaming {
		a.queue.Add(q)
		a.wall.Add(w)
		return
	}
	a.queueSum += q
	a.wallSum += w
	a.walls = append(a.walls, w)
}

// Stats materializes the aggregates. Empty and all-rejected streams are
// well-defined, never NaN/Inf: every aggregate is zero-valued, except
// SLOAttainment, which is 1 (vacuous) on an empty stream and 0 when load
// was submitted under a target but nothing met it.
func (a *ServeAccum) Stats() ServeStats {
	s := ServeStats{
		SLOAttainment: 1,
		Served:        a.served,
		Rejected:      a.rejected,
		NonFinite:     a.nonFinite,
	}
	if a.served == 0 {
		if a.slo > 0 && a.rejected > 0 {
			s.SLOAttainment = 0
		}
		return s
	}
	s.Makespan = a.makespan
	s.MaxQueueDelay = a.maxQueue
	if a.streaming {
		s.MeanQueueDelay = a.queue.Mean()
		s.MeanLatency = a.wall.Mean()
		s.P50Latency = a.wall.Quantile(50)
		s.P95Latency = a.wall.Quantile(95)
		s.P99Latency = a.wall.Quantile(99)
	} else {
		s.MeanQueueDelay = a.queueSum / float64(a.served)
		s.MeanLatency = a.wallSum / float64(a.served)
		// One sort serves all three percentiles.
		sort.Float64s(a.walls)
		s.P50Latency = sortedPercentile(a.walls, 50)
		s.P95Latency = sortedPercentile(a.walls, 95)
		s.P99Latency = sortedPercentile(a.walls, 99)
	}
	if s.Makespan > 0 {
		s.Goodput = float64(a.tokens) / s.Makespan
	}
	if a.slo > 0 {
		s.SLOAttainment = float64(a.attained) / float64(a.served+a.rejected)
	}
	return s
}
