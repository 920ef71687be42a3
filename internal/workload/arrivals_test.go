package workload

import (
	"math"
	"strings"
	"testing"
	"time"

	"fasttts/internal/rng"
)

func TestPoissonArrivalsShape(t *testing.T) {
	const n, rate = 4000, 2.0
	times := PoissonArrivals(n, rate, rng.New(7).Child("arr"))
	if len(times) != n {
		t.Fatalf("got %d arrivals, want %d", len(times), n)
	}
	prev := 0.0
	for i, ts := range times {
		if ts <= prev {
			t.Fatalf("arrival %d at %v not after %v", i, ts, prev)
		}
		prev = ts
	}
	// Mean inter-arrival time converges to 1/rate.
	mean := times[n-1] / float64(n)
	if math.Abs(mean-1/rate) > 0.05/rate {
		t.Errorf("mean inter-arrival %v, want ≈ %v", mean, 1/rate)
	}
}

func TestPoissonArrivalsDeterministic(t *testing.T) {
	a := PoissonArrivals(64, 1.5, rng.New(7).Child("arr"))
	b := PoissonArrivals(64, 1.5, rng.New(7).Child("arr"))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs across equal streams: %v vs %v", i, a[i], b[i])
		}
	}
	// Distinct seeds must give distinct traces (the trace really is
	// seed-driven, not hard-coded).
	c := PoissonArrivals(64, 1.5, rng.New(8).Child("arr"))
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("seeds 7 and 8 produced identical Poisson traces")
	}
}

func TestPoissonArrivalsSingleRequest(t *testing.T) {
	times := PoissonArrivals(1, 0.25, rng.New(7).Child("arr"))
	if len(times) != 1 {
		t.Fatalf("got %d arrivals, want 1", len(times))
	}
	if times[0] <= 0 || math.IsInf(times[0], 0) || math.IsNaN(times[0]) {
		t.Errorf("single arrival at %v, want a positive finite time", times[0])
	}
}

func TestPoissonArrivalsEmpty(t *testing.T) {
	if times := PoissonArrivals(0, 1, rng.New(7).Child("arr")); len(times) != 0 {
		t.Errorf("got %d arrivals for n=0, want none", len(times))
	}
}

func TestPoissonArrivalsZeroRatePanics(t *testing.T) {
	for _, rate := range []float64{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("rate %v did not panic", rate)
				}
			}()
			PoissonArrivals(4, rate, rng.New(7).Child("arr"))
		}()
	}
}

func TestUniformArrivals(t *testing.T) {
	times := UniformArrivals(5, 2.5)
	for i, ts := range times {
		if want := 2.5 * float64(i); ts != want {
			t.Errorf("arrival %d at %v, want %v", i, ts, want)
		}
	}
}

func TestBurstArrivals(t *testing.T) {
	times := BurstArrivals(7, 3, 10)
	want := []float64{0, 0, 0, 10, 10, 10, 20}
	for i := range times {
		if times[i] != want[i] {
			t.Errorf("arrival %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestBurstArrivalsEdgeCases(t *testing.T) {
	// A non-positive burst size is clamped to 1: evenly spaced arrivals.
	for _, burst := range []int{0, -3} {
		times := BurstArrivals(3, burst, 5)
		for i, ts := range times {
			if want := 5 * float64(i); ts != want {
				t.Errorf("burst %d: arrival %d at %v, want %v", burst, i, ts, want)
			}
		}
	}
	// A burst wider than the stream releases everything at t=0.
	for i, ts := range BurstArrivals(4, 10, 7) {
		if ts != 0 {
			t.Errorf("arrival %d at %v, want 0 for burst > n", i, ts)
		}
	}
	// A single request arrives at t=0 regardless of burst geometry.
	if times := BurstArrivals(1, 3, 10); len(times) != 1 || times[0] != 0 {
		t.Errorf("single-request burst arrivals %v, want [0]", times)
	}
	// Zero gap collapses all bursts onto t=0.
	for i, ts := range BurstArrivals(6, 2, 0) {
		if ts != 0 {
			t.Errorf("arrival %d at %v, want 0 with zero gap", i, ts)
		}
	}
	if times := BurstArrivals(0, 2, 1); len(times) != 0 {
		t.Errorf("got %d arrivals for n=0, want none", len(times))
	}
}

func TestSinusoidalArrivalsShape(t *testing.T) {
	const n, base, period = 6000, 2.0, 50.0
	times := SinusoidalArrivals(n, base, 0.8, period, rng.New(7).Child("arr"))
	if len(times) != n {
		t.Fatalf("got %d arrivals, want %d", len(times), n)
	}
	prev := 0.0
	for i, ts := range times {
		if ts < prev {
			t.Fatalf("arrival %d at %v before %v", i, ts, prev)
		}
		prev = ts
	}
	// The time-averaged rate of λ(t) = base·(1 + a·sin) is base.
	mean := times[n-1] / float64(n)
	if math.Abs(mean-1/base) > 0.1/base {
		t.Errorf("mean inter-arrival %v, want ≈ %v", mean, 1/base)
	}
	// Peak half-cycles ([0, T/2) mod T) must carry more arrivals than
	// trough half-cycles — the diurnal asymmetry the scenario exists for.
	peak, trough := 0, 0
	for _, ts := range times {
		if math.Mod(ts, period) < period/2 {
			peak++
		} else {
			trough++
		}
	}
	if peak <= trough {
		t.Errorf("peak half-cycles got %d arrivals vs %d in troughs, want more", peak, trough)
	}
}

func TestSinusoidalArrivalsDeterministic(t *testing.T) {
	a := SinusoidalArrivals(64, 1.0, 0.5, 30, rng.New(7).Child("arr"))
	b := SinusoidalArrivals(64, 1.0, 0.5, 30, rng.New(7).Child("arr"))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs across equal streams: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestSinusoidalArrivalsAmplitudeClamp(t *testing.T) {
	// Amplitudes outside [0, 1] are clamped, not rejected: 2 behaves as 1.
	a := SinusoidalArrivals(32, 1.0, 2.0, 30, rng.New(7).Child("arr"))
	b := SinusoidalArrivals(32, 1.0, 1.0, 30, rng.New(7).Child("arr"))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d: amplitude 2 gave %v, clamped amplitude 1 gave %v", i, a[i], b[i])
		}
	}
}

func TestSinusoidalArrivalsPanics(t *testing.T) {
	for _, tc := range []struct{ base, amplitude, period float64 }{
		{0, 0.5, 10}, {-1, 0.5, 10}, {1, 0.5, 0}, {1, 0.5, -5}, {1, math.NaN(), 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("base %v amplitude %v period %v did not panic", tc.base, tc.amplitude, tc.period)
				}
			}()
			SinusoidalArrivals(4, tc.base, tc.amplitude, tc.period, rng.New(7).Child("arr"))
		}()
	}
}

func TestFlashCrowdArrivalsShape(t *testing.T) {
	const n, base, spikeStart, spikeDur, mult = 4000, 0.5, 100.0, 50.0, 10.0
	times := FlashCrowdArrivals(n, base, spikeStart, spikeDur, mult, rng.New(7).Child("arr"))
	if len(times) != n {
		t.Fatalf("got %d arrivals, want %d", len(times), n)
	}
	inSpike := 0
	prev := 0.0
	for i, ts := range times {
		if ts < prev {
			t.Fatalf("arrival %d at %v before %v", i, ts, prev)
		}
		prev = ts
		if ts >= spikeStart && ts < spikeStart+spikeDur {
			inSpike++
		}
	}
	// The spike window must be ≫ denser than the baseline: its arrival
	// rate is mult× base, so density per second should exceed 2× baseline
	// even with sampling noise.
	spikeDensity := float64(inSpike) / spikeDur
	baseDensity := float64(n-inSpike) / (times[n-1] - spikeDur)
	if spikeDensity < 2*baseDensity {
		t.Errorf("spike density %v vs baseline %v, want the flash crowd to dominate", spikeDensity, baseDensity)
	}
}

func TestFlashCrowdArrivalsDeterministic(t *testing.T) {
	a := FlashCrowdArrivals(64, 0.5, 20, 10, 8, rng.New(7).Child("arr"))
	b := FlashCrowdArrivals(64, 0.5, 20, 10, 8, rng.New(7).Child("arr"))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs across equal streams: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFlashCrowdArrivalsZeroMultSkipsWindow(t *testing.T) {
	// mult 0 models an outage window: no arrival may land inside it.
	times := FlashCrowdArrivals(200, 2.0, 10, 5, 0, rng.New(7).Child("arr"))
	for i, ts := range times {
		if ts >= 10 && ts < 15 {
			t.Fatalf("arrival %d at %v inside the zero-rate window", i, ts)
		}
	}
}

func TestFlashCrowdArrivalsPanics(t *testing.T) {
	for _, tc := range []struct{ base, mult float64 }{{0, 2}, {-1, 2}, {1, -0.5}, {1, math.NaN()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("base %v mult %v did not panic", tc.base, tc.mult)
				}
			}()
			FlashCrowdArrivals(4, tc.base, 10, 5, tc.mult, rng.New(7).Child("arr"))
		}()
	}
}

func TestUniformArrivalsEdgeCases(t *testing.T) {
	if times := UniformArrivals(0, 1); len(times) != 0 {
		t.Errorf("got %d arrivals for n=0, want none", len(times))
	}
	if times := UniformArrivals(1, 3); len(times) != 1 || times[0] != 0 {
		t.Errorf("single uniform arrival %v, want [0]", times)
	}
	// Zero spacing degenerates to one big burst at t=0.
	for i, ts := range UniformArrivals(4, 0) {
		if ts != 0 {
			t.Errorf("arrival %d at %v, want 0 with zero spacing", i, ts)
		}
	}
}

// TestArrivalsRejectNonFinite: a NaN or infinite rate, period or
// multiplier panics with the documented message. Each call runs under a
// deadline, because the failure this guards against is a hang: thinning
// at a NaN or +Inf envelope rate never accepts a candidate.
func TestArrivalsRejectNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	stream := func() *rng.Stream { return rng.New(7).Child("arr") }
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Poisson rate NaN", func() { PoissonArrivals(4, nan, stream()) }},
		{"Poisson rate +Inf", func() { PoissonArrivals(4, inf, stream()) }},
		{"sinusoidal base NaN", func() { SinusoidalArrivals(4, nan, 1, 10, stream()) }},
		{"sinusoidal base +Inf", func() { SinusoidalArrivals(4, inf, 1, 10, stream()) }},
		{"sinusoidal period NaN", func() { SinusoidalArrivals(4, 1, 1, nan, stream()) }},
		{"sinusoidal period +Inf", func() { SinusoidalArrivals(4, 1, 1, inf, stream()) }},
		{"flash-crowd base NaN", func() { FlashCrowdArrivals(4, nan, 0, 1, 2, stream()) }},
		{"flash-crowd base +Inf", func() { FlashCrowdArrivals(4, inf, 0, 1, 2, stream()) }},
		{"flash-crowd mult +Inf", func() { FlashCrowdArrivals(4, 1, 0, 1, inf, stream()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan any, 1)
			go func() {
				defer func() { done <- recover() }()
				tc.call()
			}()
			select {
			case p := <-done:
				if msg, _ := p.(string); !strings.Contains(msg, "finite") {
					t.Errorf("got panic %v, want the documented positive-and-finite message", p)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("did not return within 5s")
			}
		})
	}
}
