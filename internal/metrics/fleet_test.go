package metrics

import (
	"math"
	"testing"
)

func TestCoefficientOfVariation(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"zero mean", []float64{0, 0}, 0},
		{"uniform", []float64{3, 3, 3, 3}, 0},
		// mean 2, population variance ((1)^2+(1)^2)/2 = 1 → CV 0.5.
		{"two-point", []float64{1, 3}, 0.5},
	}
	for _, c := range cases {
		if got := CoefficientOfVariation(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: CV = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSummarizeFleet(t *testing.T) {
	in := FleetInput{
		Serve: summarize(ModeExact, []ServeSample{
			{Arrival: 0, Start: 0, Finish: 10, Tokens: 100},
			{Arrival: 1, Start: 2, Finish: 20, Tokens: 300},
			{Arrival: 2, Rejected: true},
		}, 15),
		Devices: []FleetDevice{
			{Busy: 9, Lifetime: 20, Served: 1, Tokens: 100},
			{Busy: 3, Lifetime: 5, Served: 1, Tokens: 300, Failed: true},
		},
		Requeues:     2,
		PrefixHits:   60,
		PrefixMisses: 40,
	}
	st := SummarizeFleet(in)

	if st.Served != 2 || st.Rejected != 1 {
		t.Errorf("served/rejected = %d/%d, want 2/1", st.Served, st.Rejected)
	}
	if st.Makespan != 20 {
		t.Errorf("makespan %v, want 20", st.Makespan)
	}
	// One of three submitted requests met the 15 s target.
	if want := 1.0 / 3; math.Abs(st.SLOAttainment-want) > 1e-12 {
		t.Errorf("SLO attainment %v, want %v", st.SLOAttainment, want)
	}
	if len(st.Devices) != 2 {
		t.Fatalf("%d device stats, want 2", len(st.Devices))
	}
	if got, want := st.Devices[0].Utilization, 0.45; math.Abs(got-want) > 1e-12 {
		t.Errorf("device 0 utilization %v, want %v", got, want)
	}
	if got, want := st.Devices[1].Goodput, 60.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("device 1 goodput %v, want %v", got, want)
	}
	if st.FailedDevices != 1 {
		t.Errorf("failed devices %d, want 1", st.FailedDevices)
	}
	if st.Requeues != 2 {
		t.Errorf("requeues %d, want 2", st.Requeues)
	}
	if want := 0.6; math.Abs(st.PrefixHitRate-want) > 1e-12 {
		t.Errorf("prefix hit rate %v, want %v", st.PrefixHitRate, want)
	}
	// Busy times 9 and 3: mean 6, population stddev 3 → CV 0.5.
	if want := 0.5; math.Abs(st.ImbalanceCV-want) > 1e-12 {
		t.Errorf("imbalance CV %v, want %v", st.ImbalanceCV, want)
	}
}

func TestSummarizeFleetNoPrefixTraffic(t *testing.T) {
	st := SummarizeFleet(FleetInput{Devices: []FleetDevice{{Busy: 1, Lifetime: 2}}})
	if st.PrefixHitRate != 0 {
		t.Errorf("hit rate %v with no prefix traffic, want 0", st.PrefixHitRate)
	}
	if st.ImbalanceCV != 0 {
		t.Errorf("imbalance CV %v for one device, want 0", st.ImbalanceCV)
	}
}

// TestSummarizeFleetDegenerate locks the fleet-level zero-value contract
// on empty and all-rejected streams, including a failed device with zero
// lifetime: all aggregates zero-valued and finite.
func TestSummarizeFleetDegenerate(t *testing.T) {
	cases := []struct {
		name string
		in   FleetInput
	}{
		{name: "zero input"},
		{name: "empty with SLO", in: FleetInput{Serve: summarize(ModeExact, nil, 5)}},
		{
			name: "all rejected, dead zero-lifetime device",
			in: FleetInput{
				Serve:   summarize(ModeExact, []ServeSample{{Arrival: 1, Rejected: true}, {Arrival: 2, Rejected: true}}, 5),
				Devices: []FleetDevice{{Failed: true}, {Lifetime: 0, Busy: 0}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := SummarizeFleet(tc.in)
			assertFinite(t, st.ServeStats)
			for i, d := range st.Devices {
				if d.Utilization != 0 || d.Goodput != 0 {
					t.Errorf("device %d: utilization %v goodput %v, want 0 for zero lifetime", i, d.Utilization, d.Goodput)
				}
			}
			if st.ImbalanceCV != 0 {
				t.Errorf("ImbalanceCV = %v, want 0 with no work", st.ImbalanceCV)
			}
			if st.PrefixHitRate != 0 {
				t.Errorf("PrefixHitRate = %v, want 0 with no prefix traffic", st.PrefixHitRate)
			}
			if st.Served != 0 {
				t.Errorf("Served = %d, want 0", st.Served)
			}
		})
	}
}

// TestSummarizeFleetCacheTelemetry pins the KV memory-plane aggregation:
// fleet cache counters sum across devices, the hit rate reflects actual
// residency (not the routing directory's PrefixHitRate), per-device
// occupancy derives from the end-of-run snapshot, and a zero-capacity
// device (plane disabled) contributes nothing.
func TestSummarizeFleetCacheTelemetry(t *testing.T) {
	cases := []struct {
		name          string
		devices       []FleetDevice
		wantHit       int64
		wantMiss      int64
		wantEvicted   int64
		wantReprefill float64
		wantRate      float64
		wantOcc       []float64
	}{
		{
			name: "mixed fleet",
			devices: []FleetDevice{
				{
					Busy: 4, Lifetime: 8,
					CacheCapacityTokens: 1000, CacheUsedTokens: 250,
					CacheHitTokens: 300, CacheMissTokens: 100,
					CacheEvictedTokens: 50, ReprefillSeconds: 0.5,
				},
				{
					Busy: 4, Lifetime: 8,
					CacheCapacityTokens: 2000, CacheUsedTokens: 2000,
					CacheHitTokens: 100, CacheMissTokens: 300,
					CacheEvictedTokens: 150, ReprefillSeconds: 1.5,
				},
			},
			wantHit: 400, wantMiss: 400, wantEvicted: 200,
			wantReprefill: 2, wantRate: 0.5,
			wantOcc: []float64{0.25, 1},
		},
		{
			name: "zero capacity stays silent",
			devices: []FleetDevice{
				{Busy: 3, Lifetime: 6},
				{Busy: 3, Lifetime: 6},
			},
			wantOcc: []float64{0, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := SummarizeFleet(FleetInput{Devices: tc.devices})
			if st.CacheHitTokens != tc.wantHit || st.CacheMissTokens != tc.wantMiss {
				t.Errorf("hit/miss tokens = %d/%d, want %d/%d",
					st.CacheHitTokens, st.CacheMissTokens, tc.wantHit, tc.wantMiss)
			}
			if st.CacheEvictedTokens != tc.wantEvicted {
				t.Errorf("evicted tokens = %d, want %d", st.CacheEvictedTokens, tc.wantEvicted)
			}
			if math.Abs(st.ReprefillSeconds-tc.wantReprefill) > 1e-12 {
				t.Errorf("re-prefill seconds = %v, want %v", st.ReprefillSeconds, tc.wantReprefill)
			}
			if math.Abs(st.CacheHitRate-tc.wantRate) > 1e-12 {
				t.Errorf("cache hit rate = %v, want %v", st.CacheHitRate, tc.wantRate)
			}
			for i, d := range st.Devices {
				if math.Abs(d.CacheOccupancy-tc.wantOcc[i]) > 1e-12 {
					t.Errorf("device %d occupancy = %v, want %v", i, d.CacheOccupancy, tc.wantOcc[i])
				}
			}
		})
	}
}
