package workload

// Arrival-process generators for the multi-tenant serving engine. An
// open-loop client population submits requests on its own schedule
// regardless of server progress (the EdgeReasoning-style characterization
// of concurrent edge traffic); a closed-loop population keeps a fixed
// number of requests outstanding, issuing the next one only after the
// previous completes.

import (
	"fmt"
	"math"

	"fasttts/internal/rng"
)

// PoissonArrivals returns n non-decreasing arrival times of an open-loop
// Poisson process with the given mean rate in requests per second.
// Sampling is driven entirely by r, so equal streams give equal traces.
// It panics if rate is not positive and finite (a zero-rate open loop
// never submits).
func PoissonArrivals(n int, rate float64, r *rng.Stream) []float64 {
	if !positiveFinite(rate) {
		panic(fmt.Sprintf("workload: Poisson arrival rate must be positive and finite, got %v", rate))
	}
	out := make([]float64, n)
	t := 0.0
	for i := range out {
		t += r.Exp(rate)
		out[i] = t
	}
	return out
}

// UniformArrivals returns n arrivals evenly spaced `spacing` seconds
// apart, starting at zero — the deterministic open-loop baseline.
func UniformArrivals(n int, spacing float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * spacing
	}
	return out
}

// BurstArrivals returns n arrivals in bursts of `burst` simultaneous
// requests, with `gap` seconds between bursts — the adversarial pattern
// for admission control.
func BurstArrivals(n, burst int, gap float64) []float64 {
	if burst < 1 {
		burst = 1
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i/burst) * gap
	}
	return out
}

// SinusoidalArrivals returns n arrivals of a nonhomogeneous Poisson
// process whose rate follows a diurnal cycle:
//
//	λ(t) = base · (1 + amplitude·sin(2πt/period))
//
// sampled by Lewis–Shedler thinning, so the stream is a deterministic
// function of r. amplitude is clamped into [0, 1] (amplitude 1 means the
// rate dips to zero at the trough); it panics if base or period is not
// positive and finite.
func SinusoidalArrivals(n int, base, amplitude, period float64, r *rng.Stream) []float64 {
	if !positiveFinite(base) {
		panic(fmt.Sprintf("workload: sinusoidal base rate must be positive and finite, got %v", base))
	}
	if !positiveFinite(period) {
		panic(fmt.Sprintf("workload: sinusoidal period must be positive and finite, got %v", period))
	}
	if math.IsNaN(amplitude) {
		// A NaN amplitude would poison every thinning acceptance test and
		// hang the sampler; fail fast like the other invalid parameters.
		panic("workload: sinusoidal amplitude must not be NaN")
	}
	amplitude = math.Min(math.Max(amplitude, 0), 1)
	rate := func(t float64) float64 {
		return base * (1 + amplitude*math.Sin(2*math.Pi*t/period))
	}
	return thinned(n, base*(1+amplitude), rate, r)
}

// FlashCrowdArrivals returns n arrivals of a piecewise-rate Poisson
// process: base requests/second everywhere except the flash-crowd window
// [spikeStart, spikeStart+spikeDur), where the rate is base·mult. Sampled
// by thinning, so the stream is a deterministic function of r. It panics
// if base is not positive and finite or mult is negative or not finite
// (mult below 1 models a dip rather than a crowd, and mult 0 an outage
// window).
func FlashCrowdArrivals(n int, base, spikeStart, spikeDur, mult float64, r *rng.Stream) []float64 {
	if !positiveFinite(base) {
		panic(fmt.Sprintf("workload: flash-crowd base rate must be positive and finite, got %v", base))
	}
	if mult != 0 && !positiveFinite(mult) {
		panic(fmt.Sprintf("workload: flash-crowd multiplier must be non-negative and finite, got %v", mult))
	}
	rate := func(t float64) float64 {
		if t >= spikeStart && t < spikeStart+spikeDur {
			return base * mult
		}
		return base
	}
	return thinned(n, base*math.Max(1, mult), rate, r)
}

// positiveFinite reports whether a rate or period is usable: above zero
// and below +Inf. NaN is neither.
func positiveFinite(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// thinned samples n arrivals of a nonhomogeneous Poisson process with the
// given instantaneous rate via Lewis–Shedler thinning: candidate arrivals
// are drawn at the envelope rate maxRate (≥ rate(t) everywhere) and
// accepted with probability rate(t)/maxRate.
func thinned(n int, maxRate float64, rate func(float64) float64, r *rng.Stream) []float64 {
	out := make([]float64, 0, n)
	t := 0.0
	for len(out) < n {
		t += r.Exp(maxRate)
		if r.Bool(rate(t) / maxRate) {
			out = append(out, t)
		}
	}
	return out
}

// ClosedLoop describes a fixed-concurrency closed-loop workload:
// Concurrency clients each keep exactly one request outstanding, issuing
// their next request Think seconds after the previous one completes.
// Arrival times therefore depend on server progress and are materialized
// by the serving engine, not precomputed.
type ClosedLoop struct {
	Concurrency int
	Think       float64
}
