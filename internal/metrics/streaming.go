package metrics

// Streaming (constant-memory) counterparts of the exact summary path.
//
// SummarizeServe buffers and sorts every wall latency, so its memory
// grows O(requests) — the real ceiling on million-user runs. ServeAccum
// replaces the sample buffers with two Sketches (~10 KiB each) plus a
// handful of counters, all of it order-independent: integer counts,
// exact min/max, and sums of integers. Even the means are derived from
// sketch buckets in fixed index order rather than from a sample-order
// float sum.
//
// Exact mode remains the default everywhere: the committed golden traces
// record exact percentiles, and conformance must stay bit-identical
// release over release. Streaming mode is the opt-in for runs whose
// request count makes O(requests) retention unacceptable; its error
// contract is SketchRelErr.

import "fmt"

// Mode selects how serve/fleet summaries aggregate latency
// distributions.
type Mode string

const (
	// ModeExact buffers and sorts every sample: exact nearest-rank
	// percentiles, O(requests) memory. The default, and the golden-trace
	// conformance path.
	ModeExact Mode = "exact"
	// ModeStreaming accumulates quantile sketches: constant memory,
	// percentiles within SketchRelErr of exact.
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

// ServeAccum accumulates a served request stream into constant state:
// the streaming counterpart of SummarizeServe. The zero value is not
// ready to use — construct with NewServeAccum so the SLO target is
// pinned (attainment must be judged at observe time; samples are not
// retained).
type ServeAccum struct {
	// SLOLatency is the wall-latency target in seconds (<= 0 disables
	// SLO accounting), fixed at construction.
	SLOLatency float64

	served    int
	rejected  int
	nonFinite int
	attained  int
	tokens    int64
	makespan  float64
	maxQueue  float64
	wall      Sketch
	queue     Sketch
}

// NewServeAccum returns an empty accumulator judging SLO attainment
// against sloLatency.
func NewServeAccum(sloLatency float64) *ServeAccum {
	return &ServeAccum{SLOLatency: sloLatency}
}

// Observe folds one sample in. Samples whose queue or wall latency is
// NaN or ±Inf are counted in NonFinite and otherwise ignored, matching
// the exact path's filter. Causally valid samples (Start ≥ Arrival,
// Finish ≥ Arrival) are required — negative latencies panic in the
// sketch.
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
	if w <= a.SLOLatency {
		a.attained++
	}
	a.queue.Add(q)
	a.wall.Add(w)
}

// Observed reports how many samples were folded in (served + rejected +
// non-finite).
func (a *ServeAccum) Observed() int { return a.served + a.rejected + a.nonFinite }

// StateBytes reports the accumulator's heap footprint — the constant
// that replaces the exact path's O(requests) sample buffers.
func (a *ServeAccum) StateBytes() int {
	return a.wall.StateBytes() + a.queue.StateBytes() + 8*8
}

// Stats materializes the accumulated aggregates. The contract matches
// SummarizeServe exactly — same zero-value rules for empty and
// all-rejected streams, same SLO semantics — except that the latency
// distribution (means and percentiles) carries the sketch's SketchRelErr
// error bound.
func (a *ServeAccum) Stats() ServeStats {
	s := ServeStats{
		SLOAttainment: 1,
		Served:        a.served,
		Rejected:      a.rejected,
		NonFinite:     a.nonFinite,
	}
	if a.served == 0 {
		if a.SLOLatency > 0 && a.rejected > 0 {
			s.SLOAttainment = 0
		}
		return s
	}
	s.Makespan = a.makespan
	s.MaxQueueDelay = a.maxQueue
	s.MeanQueueDelay = a.queue.Mean()
	s.MeanLatency = a.wall.Mean()
	s.P50Latency = a.wall.Quantile(50)
	s.P95Latency = a.wall.Quantile(95)
	s.P99Latency = a.wall.Quantile(99)
	if s.Makespan > 0 {
		s.Goodput = float64(a.tokens) / s.Makespan
	}
	if total := a.served + a.rejected; a.SLOLatency > 0 {
		s.SLOAttainment = float64(a.attained) / float64(total)
	}
	return s
}

// SummarizeServeStreaming is SummarizeServe through the streaming
// accumulator: one pass, constant aggregation state, percentiles within
// SketchRelErr of the exact path.
func SummarizeServeStreaming(samples []ServeSample, sloLatency float64) ServeStats {
	a := NewServeAccum(sloLatency)
	for _, sm := range samples {
		a.Observe(sm)
	}
	return a.Stats()
}

// TickWindow accumulates one control-plane window's completion signals
// incrementally — the per-tick counterpart of ServeAccum, shared with
// the fleet's elastic controller so window signals never re-scan served
// results. All state is counters plus one float sum accumulated in
// observation order.
type TickWindow struct {
	// Served / Rejected count completions in the window; Arrivals counts
	// routed requests.
	Served, Rejected, Arrivals int
	// SLOHits counts served completions whose wall latency met the
	// target (every completion when no target is set).
	SLOHits int
	// QueueDelaySum sums served completions' queue delay.
	QueueDelaySum float64
}

// Observe folds one completion into the window.
func (w *TickWindow) Observe(queueDelay, wallLatency float64, rejected bool, sloLatency float64) {
	if rejected {
		w.Rejected++
		return
	}
	w.Served++
	w.QueueDelaySum += queueDelay
	if sloLatency <= 0 || wallLatency <= sloLatency {
		w.SLOHits++
	}
}

// Completions reports served + rejected in the window.
func (w *TickWindow) Completions() int { return w.Served + w.Rejected }

// MeanQueueDelay is the window's mean served queue delay, 0 when
// nothing was served.
func (w *TickWindow) MeanQueueDelay() float64 {
	if w.Served == 0 {
		return 0
	}
	return w.QueueDelaySum / float64(w.Served)
}

// Attainment is the window's SLO attainment: hits over completions, 1
// (vacuous) when nothing completed or no target is set.
func (w *TickWindow) Attainment(sloLatency float64) float64 {
	done := w.Completions()
	if done == 0 || sloLatency <= 0 {
		return 1
	}
	return float64(w.SLOHits) / float64(done)
}

// Reset clears the window for the next tick.
func (w *TickWindow) Reset() { *w = TickWindow{} }
