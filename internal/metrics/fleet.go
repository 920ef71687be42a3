package metrics

// Fleet-level aggregates for the heterogeneous edge-fleet simulator: the
// server-level latency aggregates of serve.go computed over the whole
// fleet stream, plus per-device utilization and goodput, the
// load-imbalance coefficient, failure-requeue and prefix-reuse counters.

import "math"

// FleetDeviceStats is one fleet member's telemetry over a run. The fleet
// fills the measured fields when the run ends; its summary
// (cluster.Outcome.Stats) derives Utilization, Goodput and
// CacheOccupancy from them.
type FleetDeviceStats struct {
	// Device is the member's fleet index; Name its label (the device
	// spec's name, or "warm:<template>+J" for the J-th warm-pool
	// instance the controller added).
	Device int
	Name   string
	// Served counts requests the device completed; Tokens sums their
	// useful generated output.
	Served int
	Tokens int64
	// BusyTime is the wall-clock time the device spent executing slices
	// (including partial work lost to fail-stop).
	BusyTime float64
	// Utilization is BusyTime / LiveSeconds: the fraction of the device's
	// fleet membership spent computing.
	Utilization float64
	// Goodput is useful tokens per live second.
	Goodput float64
	// LiveStart is the fleet time the device became routable: 0 for
	// founding members, the warm-up completion time for devices the
	// control plane added from the warm pool.
	LiveStart float64
	// LiveSeconds is the length of the device's live interval: from
	// LiveStart to its fail-stop time (stretched through a final
	// overrunning slice, so BusyTime never exceeds it), its drain
	// completion, or the fleet makespan — whichever ended its membership.
	LiveSeconds float64
	// Failed marks devices that fail-stopped during the run; Drained
	// marks devices the control plane deliberately drained out.
	Failed  bool
	Drained bool

	// KV memory-plane telemetry; all zero when the plane is disabled.
	// CacheCapacityTokens / CacheUsedTokens snapshot the device's KV
	// plane at run end and CacheOccupancy is their ratio; hit/miss count
	// prompt-prefix tokens found / not found resident at admission;
	// CacheEvictedTokens counts tokens LRU-evicted under pressure;
	// ReprefillSeconds is the total re-prefill latency charged for
	// prompt misses.
	CacheCapacityTokens int64
	CacheUsedTokens     int64
	CacheOccupancy      float64
	CacheHitTokens      int64
	CacheMissTokens     int64
	CacheEvictedTokens  int64
	ReprefillSeconds    float64
}

// FleetStats aggregates a fleet-served request stream.
type FleetStats struct {
	// ServeStats holds the fleet-level latency/goodput aggregates over the
	// merged stream (p50/p95/p99 wall latency, queue delay, SLO
	// attainment, fleet goodput over the fleet makespan).
	ServeStats
	// Devices holds per-device utilization and goodput, indexed by device.
	Devices []FleetDeviceStats
	// ImbalanceCV is the load-imbalance coefficient: the coefficient of
	// variation (population stddev / mean) of per-device busy time. 0
	// means perfectly balanced work; it is 0 when no device did any work.
	ImbalanceCV float64
	// Requeues counts failure-induced request migrations.
	Requeues int
	// PrefixHitRate is the fleet prompt-prefix cache hit rate in tokens:
	// hits / (hits + misses), 0 when there was no prefix traffic.
	PrefixHitRate float64
	// CacheHitTokens / CacheMissTokens / CacheEvictedTokens sum the
	// per-device KV memory-plane telemetry; all zero when the plane is
	// disabled fleet-wide.
	CacheHitTokens     int64
	CacheMissTokens    int64
	CacheEvictedTokens int64
	// CacheHitRate is CacheHitTokens / (CacheHitTokens + CacheMissTokens),
	// 0 when the plane saw no prompt traffic. Unlike PrefixHitRate (the
	// routing directory's optimistic estimate), it reflects actual
	// residency after capacity eviction.
	CacheHitRate float64
	// ReprefillSeconds is the fleet's total re-prefill latency charged
	// for prompt-cache misses.
	ReprefillSeconds float64
	// FailedDevices counts devices that fail-stopped during the run.
	FailedDevices int
	// DeviceSeconds is the fleet's capacity cost: the summed live time of
	// every member (founding, joined, drained, failed), the cost side of
	// the SLO-vs-cost tradeoff against SLOAttainment.
	DeviceSeconds float64
	// Control summarizes the elastic control plane's activity; nil when
	// the run had no controller.
	Control *ControlStats
	// Attribution, when non-nil, is the latency-attribution rollup of
	// the run's span recorder (nil when tracing was off).
	Attribution *AttributionStats
}

// CoefficientOfVariation returns the population standard deviation of xs
// divided by its mean — the fleet's load-imbalance coefficient when xs is
// per-device busy time. It is 0 for empty input or a zero mean.
func CoefficientOfVariation(xs []float64) float64 {
	cv := scaledCV(xs, 1)
	if math.IsInf(cv, 0) || math.IsNaN(cv) {
		// A sum or a square overflowed (busy times near 1e160 and up, as a
		// huge straggler factor gives). The ratio does not depend on the
		// scale, so take it again over xs / max|x|.
		big := 0.0
		for _, x := range xs {
			big = max(big, math.Abs(x))
		}
		cv = scaledCV(xs, 1/big)
	}
	return cv
}

// scaledCV is the coefficient of variation of xs, each multiplied by
// scale; at scale 1 it reads xs as they are, bit for bit.
func scaledCV(xs []float64, scale float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var m float64
	for _, x := range xs {
		m += x * scale
	}
	if m /= float64(len(xs)); m == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x*scale - m
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / m
}
