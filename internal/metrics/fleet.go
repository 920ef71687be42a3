package metrics

// Fleet-level aggregates for the heterogeneous edge-fleet simulator: the
// server-level latency aggregates of serve.go computed over the whole
// fleet stream, plus per-device utilization and goodput, the
// load-imbalance coefficient, failure-requeue and prefix-reuse counters.

import "math"

// FleetDevice is the raw telemetry of one fleet member over a run.
type FleetDevice struct {
	// Busy is the wall-clock time the device spent executing slices
	// (including partial work lost to fail-stop).
	Busy float64
	// Lifetime is the length of the device's *live* interval: from its
	// join time (0 for founding members) to its fail-stop time (stretched
	// through a final overrunning slice, so Busy never exceeds it), its
	// drain completion, or the fleet makespan — whichever ended its
	// membership.
	Lifetime float64
	// LiveStart is the fleet time the device became routable: 0 for
	// founding members, the warm-up completion time for devices the
	// control plane added from the warm pool.
	LiveStart float64
	// Served counts requests the device completed; Tokens sums their
	// useful generated output.
	Served int
	Tokens int64
	// Failed marks devices that fail-stopped during the run; Drained
	// marks devices the control plane deliberately drained out.
	Failed  bool
	Drained bool

	// KV memory-plane telemetry; all zero when the plane is disabled.
	// CacheCapacityTokens / CacheUsedTokens snapshot the device's KV
	// plane at run end; hit/miss count prompt-prefix tokens found /
	// not found resident at admission; CacheEvictedTokens counts tokens
	// LRU-evicted under pressure; ReprefillSeconds is the total
	// re-prefill latency charged for prompt misses.
	CacheCapacityTokens int64
	CacheUsedTokens     int64
	CacheHitTokens      int64
	CacheMissTokens     int64
	CacheEvictedTokens  int64
	ReprefillSeconds    float64
}

// FleetDeviceStats augments a device's telemetry with derived rates.
type FleetDeviceStats struct {
	FleetDevice
	// Utilization is Busy / Lifetime: the fraction of the device's fleet
	// membership spent computing.
	Utilization float64
	// Goodput is useful tokens per second of lifetime.
	Goodput float64
	// CacheOccupancy is CacheUsedTokens / CacheCapacityTokens at run
	// end; 0 when the memory plane is disabled.
	CacheOccupancy float64
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
	// every member (founding, joined, drained, failed). The SLO-vs-cost
	// frontier (see Frontier) plots it against SLOAttainment.
	DeviceSeconds float64
	// Control summarizes the elastic control plane's activity; nil when
	// the run had no controller.
	Control *ControlStats
	// Attribution, when non-nil, is the latency-attribution rollup of
	// the run's span recorder (nil when tracing was off).
	Attribution *AttributionStats
}

// FleetInput bundles the inputs of SummarizeFleet.
type FleetInput struct {
	// Serve is the server-level summary of the merged fleet stream
	// (ServeAccum.Stats), carried through to FleetStats.ServeStats.
	Serve ServeStats
	// Devices is the per-device telemetry, indexed by device.
	Devices []FleetDevice
	// Requeues counts failure-induced request migrations.
	Requeues int
	// PrefixHits / PrefixMisses count prompt-prefix tokens found / not
	// found in the serving device's radix cache directory.
	PrefixHits, PrefixMisses int64
	// Control, when non-nil, is the controller activity summary carried
	// through to FleetStats.Control.
	Control *ControlStats
	// Attribution, when non-nil, is the span recorder's latency
	// attribution, carried through to FleetStats.Attribution.
	Attribution *AttributionStats
}

// SummarizeFleet reduces a fleet stream's summary plus per-device
// telemetry to fleet-level aggregates.
func SummarizeFleet(in FleetInput) FleetStats {
	st := FleetStats{
		ServeStats:  in.Serve,
		Requeues:    in.Requeues,
		Control:     in.Control,
		Attribution: in.Attribution,
	}
	// The imbalance coefficient compares per-device busy time, but a
	// device the control plane added late (or drained early) was only
	// live for part of the run — its raw busy time under-reads its load,
	// not the balance of the routing. Planned-membership devices are
	// therefore time-weighted: their busy time is scaled to the longest
	// live interval in the fleet. Founding full-run devices (and
	// fail-stopped ones, whose lost capacity is real imbalance) keep raw
	// busy time, so static-membership fleets reproduce the historical
	// value bit-identically.
	ref := 0.0
	for _, d := range in.Devices {
		if d.Lifetime > ref {
			ref = d.Lifetime
		}
	}
	busy := make([]float64, 0, len(in.Devices))
	for _, d := range in.Devices {
		ds := FleetDeviceStats{FleetDevice: d}
		if d.Lifetime > 0 {
			ds.Utilization = d.Busy / d.Lifetime
			ds.Goodput = float64(d.Tokens) / d.Lifetime
		}
		if d.CacheCapacityTokens > 0 {
			ds.CacheOccupancy = float64(d.CacheUsedTokens) / float64(d.CacheCapacityTokens)
		}
		st.CacheHitTokens += d.CacheHitTokens
		st.CacheMissTokens += d.CacheMissTokens
		st.CacheEvictedTokens += d.CacheEvictedTokens
		st.ReprefillSeconds += d.ReprefillSeconds
		if d.Failed {
			st.FailedDevices++
		}
		st.Devices = append(st.Devices, ds)
		st.DeviceSeconds += d.Lifetime
		b := d.Busy
		if (d.Drained || d.LiveStart > 0) && !d.Failed && d.Lifetime > 0 && ref > 0 {
			b = d.Busy / d.Lifetime * ref
		}
		busy = append(busy, b)
	}
	st.ImbalanceCV = CoefficientOfVariation(busy)
	if total := in.PrefixHits + in.PrefixMisses; total > 0 {
		st.PrefixHitRate = float64(in.PrefixHits) / float64(total)
	}
	if total := st.CacheHitTokens + st.CacheMissTokens; total > 0 {
		st.CacheHitRate = float64(st.CacheHitTokens) / float64(total)
	}
	return st
}

// CoefficientOfVariation returns the population standard deviation of xs
// divided by its mean — the fleet's load-imbalance coefficient when xs is
// per-device busy time. It is 0 for empty input or a zero mean.
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 || len(xs) == 0 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs))) / m
}
