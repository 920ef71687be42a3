package metrics

// Controller-level aggregates for the elastic control plane: what the
// feedback loop actually did (scaling actions, budget-tier moves) and
// what the elasticity cost (device-seconds), plus the per-tick window
// its feedback signals come from.

// ControlStats summarizes one controller-driven fleet run. The zero
// value describes a run without a controller.
type ControlStats struct {
	// Ticks counts control intervals the controller observed.
	Ticks int
	// ScaleUps / ScaleDowns count devices actually added from the warm
	// pool / put into drain (after clamping, not as requested).
	ScaleUps, ScaleDowns int
	// TierChanges counts applied budget-tier moves; FinalTier is the
	// tier in effect when the run ended (0 = full search budget).
	TierChanges int
	FinalTier   int
	// PeakDevices is the maximum concurrently routable device count.
	PeakDevices int
	// DegradedRequests counts requests routed while the budget tier was
	// above 0 (served with a narrowed search width).
	DegradedRequests int
}

// TickWindow accumulates one control-plane window's completion signals
// incrementally, so the fleet's elastic controller never re-scans served
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
