package metrics

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"fasttts/internal/rng"
)

// sketchOf builds a sketch over the samples.
func sketchOf(xs []float64) *Sketch {
	var s Sketch
	for _, x := range xs {
		s.Add(x)
	}
	return &s
}

// exactNearestRank is the reference the sketch's Quantile approximates:
// the sorted-sample nearest-rank percentile.
func exactNearestRank(xs []float64, p float64) float64 {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return sortedPercentile(ys, p)
}

// assertWithinSketchErr fails unless got is within the documented sketch
// error of the exact value: SketchRelErr relative for in-range values,
// 1µs absolute below the range floor.
func assertWithinSketchErr(t *testing.T, label string, got, exact float64) {
	t.Helper()
	if exact <= 1e-6 {
		if math.Abs(got-exact) > 1e-6 {
			t.Errorf("%s: got %v, exact %v, absolute error above 1µs", label, got, exact)
		}
		return
	}
	if rel := math.Abs(got-exact) / exact; rel > SketchRelErr {
		t.Errorf("%s: got %v, exact %v, relative error %v > %v", label, got, exact, rel, SketchRelErr)
	}
}

func TestSketchBasics(t *testing.T) {
	var s Sketch
	if s.Count() != 0 || s.Quantile(50) != 0 || s.Min() != 0 || s.Max() != 0 || s.Mean() != 0 {
		t.Fatal("empty sketch must report zeros")
	}
	xs := []float64{3, 0.5, 12, 0.5, 7}
	s2 := sketchOf(xs)
	if s2.Count() != 5 {
		t.Errorf("count %d, want 5", s2.Count())
	}
	if s2.Min() != 0.5 || s2.Max() != 12 {
		t.Errorf("min/max = %v/%v, want 0.5/12", s2.Min(), s2.Max())
	}
	if got := s2.Quantile(0); got != 0.5 {
		t.Errorf("Quantile(0) = %v, want exact min 0.5", got)
	}
	if got := s2.Quantile(100); got != 12 {
		t.Errorf("Quantile(100) = %v, want exact max 12", got)
	}
	for _, p := range []float64{10, 25, 50, 75, 90, 95, 99} {
		assertWithinSketchErr(t, "Quantile", s2.Quantile(p), exactNearestRank(xs, p))
	}
	exactMean := (3 + 0.5 + 12 + 0.5 + 7) / 5.0
	assertWithinSketchErr(t, "Mean", s2.Mean(), exactMean)
}

func TestSketchOutOfRangeCollapse(t *testing.T) {
	// Below-range samples (including exact zeros) collapse into the low
	// bucket and are reported as the exact observed minimum.
	s := sketchOf([]float64{0, 1e-9, 1e-7})
	if got := s.Quantile(50); got != 0 {
		t.Errorf("all-low Quantile(50) = %v, want exact min 0", got)
	}
	if s.Mean() > 1e-6 {
		t.Errorf("all-low Mean = %v, want ≤ 1µs", s.Mean())
	}
	// Above-range samples clamp into the top bucket and are reported as
	// the exact observed maximum.
	s = sketchOf([]float64{1, 2e5, 9e9})
	if got := s.Quantile(99); got != 9e9 {
		t.Errorf("top-clamped Quantile(99) = %v, want exact max 9e9", got)
	}
	if got := s.Quantile(100); got != 9e9 {
		t.Errorf("Quantile(100) = %v, want exact max", got)
	}
}

func TestSketchAddPanics(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1e-9} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Add(%v) did not panic", v)
				}
			}()
			new(Sketch).Add(v)
		}()
	}
	for _, p := range []float64{math.NaN(), -0.001, 100.001} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", p)
				}
			}()
			sketchOf([]float64{1}).Quantile(p)
		}()
	}
}

// TestSketchOrderIndependent is the determinism keystone: the same
// samples added in any order give bit-identical observable state.
// testing/quick drives random sample sets and random permutations.
func TestSketchOrderIndependent(t *testing.T) {
	prop := func(seed uint64, nSamples uint16) bool {
		n := int(nSamples)%2000 + 1
		r := rng.New(seed).Child("quick/sketch-order")
		xs := make([]float64, n)
		for i := range xs {
			// Mix scales so low bucket, log range, and top clamp all see
			// traffic: 1e-9 … 1e7 seconds.
			xs[i] = math.Pow(10, -9+16*r.Float64())
		}
		inOrder := sketchOf(xs)
		shuffled := &Sketch{}
		for _, i := range r.Perm(n) {
			shuffled.Add(xs[i])
		}
		return reflect.DeepEqual(inOrder, shuffled)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSketchAccuracyDistributions asserts the documented error bound
// across the distribution shapes serving fleets produce: uniform,
// Pareto heavy tail, a bimodal fast/slow-path mix, and a tight
// steady-state lognormal (service around 20 s plus a short queue).
func TestSketchAccuracyDistributions(t *testing.T) {
	const n = 50_000
	gen := map[string]func(r *rng.Stream) float64{
		"uniform":    func(r *rng.Stream) float64 { return 0.5 + 59.5*r.Float64() },
		"heavy-tail": func(r *rng.Stream) float64 { return math.Min(1/math.Pow(1-r.Float64(), 1/1.3), 9e4) },
		"bimodal": func(r *rng.Stream) float64 {
			if r.Float64() < 0.7 {
				return math.Max(math.Abs(r.Norm(8, 2)), 1e-3)
			}
			return math.Max(math.Abs(r.Norm(120, 15)), 1e-3)
		},
		"lognormal": func(r *rng.Stream) float64 {
			return r.LogNormal(math.Log(20), 0.4) + r.LogNormal(math.Log(0.5), 0.3)
		},
	}
	for name, g := range gen {
		t.Run(name, func(t *testing.T) {
			r := rng.New(42).Child("accuracy/" + name)
			xs := make([]float64, n)
			s := &Sketch{}
			for i := range xs {
				xs[i] = g(r)
				s.Add(xs[i])
			}
			for _, p := range []float64{50, 95, 99} {
				assertWithinSketchErr(t, name, s.Quantile(p), exactNearestRank(xs, p))
			}
			var sum float64
			for _, x := range xs {
				sum += x
			}
			assertWithinSketchErr(t, name+" mean", s.Mean(), sum/n)
		})
	}
}

// TestSketchQuantileMatchesNearestRankRule checks the rank arithmetic
// itself: with samples spread far apart (each in its own bucket), the
// sketch must pick the same sample as sortedPercentile for every p.
func TestSketchQuantileMatchesNearestRankRule(t *testing.T) {
	xs := []float64{1, 10, 100, 1000, 10000} // ≥ γ apart: one bucket each
	s := sketchOf(xs)
	for p := 0.0; p <= 100; p += 0.5 {
		exact := exactNearestRank(xs, p)
		assertWithinSketchErr(t, "rank rule", s.Quantile(p), exact)
	}
}
