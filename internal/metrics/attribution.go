package metrics

// AttributionStats is the fleet rollup of the observability layer's
// per-request latency attribution (obs.Attribute): every finished
// request's wall latency decomposed into additive components, summed.
// The fleet computes it once per run, over the merged span stream.
type AttributionStats struct {
	// Requests counts attributed (finished) requests; Hedged counts how
	// many of them ran with a hedged twin.
	Requests int
	Hedged   int

	// Wall sums attributed wall latency; the five components below sum
	// back to it (per request, within 1 ulp).
	Wall       float64
	Queue      float64
	Service    float64
	Reprefill  float64
	Straggler  float64
	Preemption float64

	// HedgeWaste / LostWork are overlapping device-time side channels
	// (losing hedge copies, work lost to fail-stops) outside the serial
	// wall decomposition.
	HedgeWaste float64
	LostWork   float64

	Slices      int
	Preemptions int
	Requeues    int
}
