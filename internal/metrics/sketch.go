package metrics

// A deterministic quantile sketch: where ServeAccum's streaming mode puts
// latencies.
//
// The sketch is a fixed-boundary log-bucketed histogram (DDSketch-style,
// but with boundaries pinned at construction rather than collapsed
// dynamically): bucket i covers (min·γ^i, min·γ^(i+1)] with γ = 1.02,
// spanning 1µs to 10⁵ s in ~1.3k buckets (~10 KiB of state). The
// boundaries never move and every piece of state is an integer count or
// an order-independent min/max, so the sketch's quantiles do not depend
// on the order its samples arrived in.
//
// Error contract (see SketchRelErr):
//
//   - samples in [1µs, 10⁵ s] are reported with relative error at most
//     √γ − 1 < 1% (each bucket's representative is its geometric
//     midpoint, and a quantile's true value shares its bucket);
//   - samples below 1µs collapse into a dedicated low bucket reported as
//     the exact observed minimum: absolute error ≤ 1µs;
//   - samples above 10⁵ s clamp into the top bucket and are reported as
//     the exact observed maximum (the tail beyond ~28 hours of wall
//     latency carries no operational distinction).
//
// Quantiles use the same nearest-rank rule as sortedPercentile, so a
// sketch quantile is the representative of the bucket holding the exact
// nearest-rank sample — never an interpolation.

import (
	"fmt"
	"math"
)

const (
	// sketchMin / sketchMax bound the sketch's relative-accuracy range:
	// 1µs to 10⁵ seconds. Wall and queue latencies of a serving fleet
	// live comfortably inside it.
	sketchMin = 1e-6
	sketchMax = 1e5
	// sketchGamma is the bucket growth factor. √γ − 1 ≈ 0.995% is the
	// worst-case relative error of a bucket's geometric midpoint.
	sketchGamma = 1.02

	// SketchRelErr is the documented worst-case relative error of
	// Sketch.Quantile and Sketch.Mean for samples within
	// [1µs, 10⁵ s]: √1.02 − 1 ≈ 0.00995, published as 1%. The
	// distribution and property tests, and the root catalog test
	// TestRecorderAttribution, assert against it.
	SketchRelErr = 0.01
)

// Derived bucket geometry, computed once. sketchBuckets is
// ceil(ln(max/min)/ln γ) + 1 ≈ 1281.
var (
	sketchLogGamma    = math.Log(sketchGamma)
	sketchInvLogGamma = 1 / sketchLogGamma
	sketchBuckets     = int(math.Ceil(math.Log(sketchMax/sketchMin)*sketchInvLogGamma)) + 1
)

// Sketch is a quantile sketch over non-negative finite samples. The
// zero value is an empty sketch ready to use; bucket storage is
// allocated lazily on the first in-range Add. Sketch is not safe for
// concurrent use.
type Sketch struct {
	n    uint64   // total samples
	low  uint64   // samples ≤ sketchMin (including exact zeros)
	bkts []uint64 // log buckets, nil until first in-range sample
	// min / max are tracked exactly (order-independent) and clamp every
	// reported representative, making Quantile(0)/Quantile(100) exact
	// and bounding the low/top collapse error.
	min, max float64
}

// Add records one sample. Samples must be finite and non-negative;
// non-finite or negative values panic — callers that may see dirty
// telemetry (ServeAccum) filter and count them instead.
func (s *Sketch) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		panic(fmt.Sprintf("metrics: Sketch.Add(%v): samples must be finite and non-negative", v))
	}
	if s.n == 0 || v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
	s.n++
	if v <= sketchMin {
		s.low++
		return
	}
	if s.bkts == nil {
		s.bkts = make([]uint64, sketchBuckets)
	}
	i := int(math.Floor(math.Log(v/sketchMin) * sketchInvLogGamma))
	if i < 0 {
		i = 0
	}
	if i >= sketchBuckets {
		i = sketchBuckets - 1
	}
	s.bkts[i]++
}

// Count reports the number of samples recorded.
func (s *Sketch) Count() uint64 { return s.n }

// rep is bucket i's representative: the geometric midpoint of its
// boundaries, clamped into the exact observed [min, max]. The last
// bucket is the overflow bucket — its lower boundary already exceeds
// sketchMax, so it holds only above-range samples, which the error
// contract reports as the exact observed maximum.
func (s *Sketch) rep(i int) float64 {
	if i == sketchBuckets-1 {
		return s.max
	}
	v := sketchMin * math.Exp((float64(i)+0.5)*sketchLogGamma)
	if v < s.min {
		v = s.min
	}
	if v > s.max {
		v = s.max
	}
	return v
}

// Quantile returns the p-th percentile (0 ≤ p ≤ 100) by the
// nearest-rank rule, 0 for an empty sketch. Out-of-domain p panics,
// matching Percentile's contract. The result is within SketchRelErr of
// the exact nearest-rank sample (see the package comment for the
// low/top collapse bounds).
func (s *Sketch) Quantile(p float64) float64 {
	checkPercentile(p)
	if s.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p / 100 * float64(s.n)))
	if rank <= s.low || rank == 0 {
		// The rank-th sample sits in the low bucket (or p = 0): the exact
		// minimum is the best deterministic representative.
		return s.min
	}
	cum := s.low
	for i, c := range s.bkts {
		cum += c
		if cum >= rank {
			return s.rep(i)
		}
	}
	return s.max
}

// Sum estimates the sum of all samples from bucket representatives,
// iterating buckets in fixed index order — deterministic and
// independent of sample order, within SketchRelErr relatively (low-bucket
// samples contribute the exact minimum each: ≤ 1µs absolute apiece).
func (s *Sketch) Sum() float64 {
	if s.n == 0 {
		return 0
	}
	total := float64(s.low) * s.min
	for i, c := range s.bkts {
		if c != 0 {
			total += float64(c) * s.rep(i)
		}
	}
	return total
}

// Mean estimates the arithmetic mean (0 for an empty sketch), within
// SketchRelErr of the exact mean for in-range samples.
func (s *Sketch) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Sum() / float64(s.n)
}
