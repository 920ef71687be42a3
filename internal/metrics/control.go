package metrics

// Controller-level aggregates for the elastic control plane: what the
// feedback loop actually did (scaling actions, budget-tier moves) and
// what the elasticity cost (device-seconds).

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
