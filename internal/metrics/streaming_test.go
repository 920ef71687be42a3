package metrics

import (
	"math"
	"testing"

	"fasttts/internal/rng"
)

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		err  bool
	}{
		{"", ModeExact, false},
		{"exact", ModeExact, false},
		{"streaming", ModeStreaming, false},
		{"sketch", ModeStreaming, false},
		{"Exact", "", true},
		{"approx", "", true},
	} {
		got, err := ParseMode(tc.in)
		if (err != nil) != tc.err || got != tc.want {
			t.Errorf("ParseMode(%q) = %q, %v; want %q, err=%v", tc.in, got, err, tc.want, tc.err)
		}
	}
}

// randomServeSamples draws a serve stream with rejections and a realistic
// latency mix.
func randomServeSamples(seed uint64, n int) []ServeSample {
	r := rng.New(seed).Child("streaming-test")
	out := make([]ServeSample, n)
	for i := range out {
		arr := float64(i) * 0.01
		if r.Float64() < 0.05 {
			out[i] = ServeSample{Arrival: arr, Rejected: true}
			continue
		}
		q := 2 * r.Float64()
		w := q + 0.5 + 40*r.Float64()
		out[i] = ServeSample{
			Arrival: arr, Start: arr + q, Finish: arr + w,
			Tokens: int64(50 + r.IntN(500)),
		}
	}
	return out
}

// TestSummarizeServeStreamingMatchesExact pins streaming mode to exact
// mode: every counter, max, and rate agrees exactly; the latency
// distribution (means, percentiles) agrees within SketchRelErr.
func TestSummarizeServeStreamingMatchesExact(t *testing.T) {
	samples := randomServeSamples(17, 20_000)
	const slo = 25.0
	exact := summarize(ModeExact, samples, slo)
	stream := summarize(ModeStreaming, samples, slo)

	if stream.Served != exact.Served || stream.Rejected != exact.Rejected || stream.NonFinite != exact.NonFinite {
		t.Errorf("counters diverge: streaming %+v exact %+v", stream, exact)
	}
	if stream.Makespan != exact.Makespan || stream.MaxQueueDelay != exact.MaxQueueDelay {
		t.Errorf("exact maxima diverge: makespan %v/%v maxQ %v/%v",
			stream.Makespan, exact.Makespan, stream.MaxQueueDelay, exact.MaxQueueDelay)
	}
	if stream.Goodput != exact.Goodput {
		t.Errorf("goodput %v, exact %v (integer token sum over same makespan must match)", stream.Goodput, exact.Goodput)
	}
	if stream.SLOAttainment != exact.SLOAttainment {
		t.Errorf("SLO attainment %v, exact %v (integer counts must match)", stream.SLOAttainment, exact.SLOAttainment)
	}
	for _, c := range []struct {
		label         string
		stream, exact float64
	}{
		{"p50", stream.P50Latency, exact.P50Latency},
		{"p95", stream.P95Latency, exact.P95Latency},
		{"p99", stream.P99Latency, exact.P99Latency},
		{"mean latency", stream.MeanLatency, exact.MeanLatency},
		{"mean queue delay", stream.MeanQueueDelay, exact.MeanQueueDelay},
	} {
		assertWithinSketchErr(t, c.label, c.stream, c.exact)
	}
}

// TestSummarizeServeNonFinite is the regression for the NaN-poisoning
// bug: non-finite telemetry used to flow into sort.Float64s and float
// sums, poisoning every percentile and mean. Both modes must filter and
// count such samples, leaving all aggregates finite.
func TestSummarizeServeNonFinite(t *testing.T) {
	nan := math.NaN()
	samples := []ServeSample{
		{Arrival: 0, Start: 1, Finish: 11, Tokens: 100},
		{Arrival: 1, Start: nan, Finish: 12, Tokens: 100},         // NaN queue delay
		{Arrival: 2, Start: 3, Finish: nan, Tokens: 100},          // NaN wall latency
		{Arrival: 3, Start: math.Inf(1), Finish: 20, Tokens: 100}, // +Inf queue delay
		{Arrival: 4, Start: 5, Finish: math.Inf(-1), Tokens: 100}, // -Inf wall latency
		{Arrival: nan, Start: 6, Finish: 16, Tokens: 100},         // NaN arrival poisons both
		{Arrival: 5, Start: 6, Finish: 15, Tokens: 100},
		{Arrival: 6, Rejected: true},
	}
	for _, mode := range []Mode{ModeExact, ModeStreaming} {
		t.Run(string(mode), func(t *testing.T) {
			s := summarize(mode, samples, 12)
			if s.Served != 2 || s.Rejected != 1 || s.NonFinite != 5 {
				t.Errorf("served/rejected/nonfinite = %d/%d/%d, want 2/1/5", s.Served, s.Rejected, s.NonFinite)
			}
			assertFinite(t, s)
			// The two clean samples: walls 11 and 10, queues 1 each.
			if s.MaxQueueDelay != 1 {
				t.Errorf("max queue delay %v, want 1 (from clean samples only)", s.MaxQueueDelay)
			}
			if s.Makespan != 15 {
				t.Errorf("makespan %v, want 15", s.Makespan)
			}
			// Non-finite samples are excluded from the SLO denominator too:
			// walls 11 (meets 12) and 10 (meets), rejection misses → 2/3.
			if want := 2.0 / 3; math.Abs(s.SLOAttainment-want) > 1e-12 {
				t.Errorf("SLO attainment %v, want %v", s.SLOAttainment, want)
			}
		})
	}
}

// TestPercentileDomain pins the documented 0 ≤ p ≤ 100 contract: out-of
// -domain p panics instead of silently returning the min or max, and
// non-finite samples are filtered before sorting.
func TestPercentileDomain(t *testing.T) {
	xs := []float64{1, 2, 3}
	for _, p := range []float64{-0.001, -5, 100.001, 200, math.NaN()} {
		p := p
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Percentile(xs, %v) did not panic", p)
				}
			}()
			Percentile(xs, p)
		}()
	}
	// Boundary values stay in-domain.
	if got := Percentile(xs, 0); got != 1 {
		t.Errorf("Percentile(xs, 0) = %v, want 1", got)
	}
	if got := Percentile(xs, 100); got != 3 {
		t.Errorf("Percentile(xs, 100) = %v, want 3", got)
	}
	// NaN samples must not poison the sort.
	if got := Percentile([]float64{3, math.NaN(), 1, math.Inf(1), 2}, 50); got != 2 {
		t.Errorf("Percentile with non-finite samples = %v, want 2", got)
	}
}

// TestServeAccumObserveAllocs: once its sketch buckets exist, a
// streaming-mode accumulator folds any number of samples without
// allocating.
func TestServeAccumObserveAllocs(t *testing.T) {
	samples := randomServeSamples(5, 50_000)
	a := NewServeAccum(ModeStreaming, 20)
	if got := testing.AllocsPerRun(1, func() {
		for _, sm := range samples {
			a.Observe(sm)
		}
	}); got != 0 {
		t.Errorf("folding %d samples allocated %v times, want 0", len(samples), got)
	}
}

// TestServeAccumDegenerate reuses exact mode's degenerate-stream
// contract: the streaming stats must agree field-for-field on empty and
// all-rejected streams.
func TestServeAccumDegenerate(t *testing.T) {
	rej := func(at float64) ServeSample { return ServeSample{Arrival: at, Rejected: true} }
	for _, tc := range []struct {
		name    string
		samples []ServeSample
		slo     float64
	}{
		{"nil no SLO", nil, 0},
		{"nil with SLO", nil, 10},
		{"all rejected no SLO", []ServeSample{rej(1), rej(2)}, 0},
		{"all rejected with SLO", []ServeSample{rej(1), rej(2), rej(3)}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := summarize(ModeStreaming, tc.samples, tc.slo)
			want := summarize(ModeExact, tc.samples, tc.slo)
			if got != want {
				t.Errorf("streaming %+v, exact %+v", got, want)
			}
			assertFinite(t, got)
		})
	}
}
