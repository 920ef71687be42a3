package metrics

import (
	"fasttts/internal/rng"
	"math"
	"reflect"
	"testing"
)

func TestPercentile(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {1, 1}, {50, 50}, {95, 95}, {99, 99}, {100, 100},
	} {
		if got := Percentile(xs, tc.p); got != tc.want {
			t.Errorf("Percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Errorf("Percentile(nil) = %v, want 0", got)
	}
	if got := Percentile([]float64{7}, 99); got != 7 {
		t.Errorf("Percentile([7], 99) = %v, want 7", got)
	}
	// Input order must not matter.
	if got := Percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("Percentile([3 1 2], 50) = %v, want 2", got)
	}
}

// summarize folds samples through a fresh accumulator.
func summarize(mode Mode, samples []ServeSample, slo float64) ServeStats {
	a := NewServeAccum(mode, slo)
	for _, sm := range samples {
		a.Observe(sm)
	}
	return a.Stats()
}

func TestSummarizeServe(t *testing.T) {
	samples := []ServeSample{
		{Arrival: 0, Start: 0, Finish: 10, Tokens: 100},
		{Arrival: 2, Start: 10, Finish: 20, Tokens: 300},
		{Arrival: 4, Start: 20, Finish: 25, Tokens: 100},
		{Arrival: 5, Rejected: true},
	}
	s := summarize(ModeExact, samples, 18)
	if s.Served != 3 || s.Rejected != 1 {
		t.Fatalf("served/rejected = %d/%d, want 3/1", s.Served, s.Rejected)
	}
	if s.Makespan != 25 {
		t.Errorf("makespan %v, want 25", s.Makespan)
	}
	// Queue delays: 0, 8, 16 → mean 8, max 16.
	if s.MeanQueueDelay != 8 || s.MaxQueueDelay != 16 {
		t.Errorf("queue delay mean/max = %v/%v, want 8/16", s.MeanQueueDelay, s.MaxQueueDelay)
	}
	// Wall latencies: 10, 18, 21 → p50 = 18, p99 = 21.
	if s.P50Latency != 18 || s.P99Latency != 21 {
		t.Errorf("p50/p99 = %v/%v, want 18/21", s.P50Latency, s.P99Latency)
	}
	if want := (10.0 + 18 + 21) / 3; math.Abs(s.MeanLatency-want) > 1e-12 {
		t.Errorf("mean latency %v, want %v", s.MeanLatency, want)
	}
	if want := 500.0 / 25; s.Goodput != want {
		t.Errorf("goodput %v, want %v", s.Goodput, want)
	}
	// 2 of 4 requests met the 18 s SLO (21 s missed; rejection is a miss).
	if want := 0.5; s.SLOAttainment != want {
		t.Errorf("SLO attainment %v, want %v", s.SLOAttainment, want)
	}

	if s := summarize(ModeExact, samples, 0); s.SLOAttainment != 1 {
		t.Errorf("no-SLO attainment %v, want 1 (metric disabled)", s.SLOAttainment)
	}
	if s := summarize(ModeExact, nil, 1); s.Served != 0 || s.SLOAttainment != 1 {
		t.Errorf("empty stream: %+v", s)
	}
}

// TestSummarizeServeDegenerateStreams locks the zero-value contract:
// empty and all-rejected streams produce zero-valued aggregates with
// every field finite — never NaN/Inf percentiles or rates.
func TestSummarizeServeDegenerateStreams(t *testing.T) {
	rej := func(at float64) ServeSample { return ServeSample{Arrival: at, Rejected: true} }
	cases := []struct {
		name    string
		samples []ServeSample
		slo     float64
		want    ServeStats
	}{
		{
			name: "nil stream no SLO",
			want: ServeStats{SLOAttainment: 1},
		},
		{
			name: "nil stream with SLO",
			slo:  10,
			want: ServeStats{SLOAttainment: 1}, // vacuously attained
		},
		{
			name:    "empty stream with SLO",
			samples: []ServeSample{},
			slo:     10,
			want:    ServeStats{SLOAttainment: 1},
		},
		{
			name:    "all rejected no SLO",
			samples: []ServeSample{rej(1), rej(2)},
			want:    ServeStats{Rejected: 2, SLOAttainment: 1},
		},
		{
			name:    "all rejected with SLO",
			samples: []ServeSample{rej(1), rej(2), rej(3)},
			slo:     10,
			want:    ServeStats{Rejected: 3, SLOAttainment: 0}, // shed load is missed load
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := summarize(ModeExact, tc.samples, tc.slo)
			if got != tc.want {
				t.Errorf("got %+v\nwant %+v", got, tc.want)
			}
			assertFinite(t, got)
		})
	}
}

// assertFinite walks every float64 field and fails on NaN or Inf.
func assertFinite(t *testing.T, v any) {
	t.Helper()
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if f.Kind() == reflect.Float64 {
			x := f.Float()
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Errorf("field %s = %v, want finite", rv.Type().Field(i).Name, x)
			}
		}
	}
}

// TestSummarizeServePercentilesBitIdentical pins exact mode to the
// reference spelling: Mean over the sample-order latencies and three
// independent Percentile calls, each copying and re-sorting the wall
// latencies. The aggregates must agree bit-for-bit — golden traces
// record these values.
func TestSummarizeServePercentilesBitIdentical(t *testing.T) {
	r := rng.New(99)
	samples := make([]ServeSample, 257) // odd, non-power-of-two length
	var wall, queue []float64
	for i := range samples {
		arr := float64(i) * 0.25
		dur := 0.5 + 40*r.Float64()
		rejected := i%11 == 3
		samples[i] = ServeSample{
			Arrival: arr, Start: arr + r.Float64(), Finish: arr + dur,
			Tokens: int64(i), Rejected: rejected,
		}
		if !rejected {
			wall = append(wall, samples[i].Finish-samples[i].Arrival)
			queue = append(queue, samples[i].Start-samples[i].Arrival)
		}
	}
	st := summarize(ModeExact, samples, 30)
	if got, want := st.MeanLatency, Mean(wall); got != want {
		t.Errorf("MeanLatency = %v, reference Mean = %v", got, want)
	}
	if got, want := st.MeanQueueDelay, Mean(queue); got != want {
		t.Errorf("MeanQueueDelay = %v, reference Mean = %v", got, want)
	}
	if got, want := st.P50Latency, Percentile(wall, 50); got != want {
		t.Errorf("P50 = %v, reference Percentile = %v", got, want)
	}
	if got, want := st.P95Latency, Percentile(wall, 95); got != want {
		t.Errorf("P95 = %v, reference Percentile = %v", got, want)
	}
	if got, want := st.P99Latency, Percentile(wall, 99); got != want {
		t.Errorf("P99 = %v, reference Percentile = %v", got, want)
	}
}
