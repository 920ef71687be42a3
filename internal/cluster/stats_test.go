package cluster

// Outcome.Stats, the fleet summary: per-device rates, fleet sums, the
// time-weighted imbalance coefficient and the pass-through of the
// controller and attribution rollups, checked on hand-built outcomes.

import (
	"math"
	"reflect"
	"testing"

	"fasttts/internal/core"
	"fasttts/internal/metrics"
)

// served builds the Results of an outcome from (arrival, start, finish,
// tokens) rows; a row with finish < 0 is a rejection.
func served(rows ...[4]float64) []Result {
	out := make([]Result, len(rows))
	for i, r := range rows {
		sv := core.ServedResult{Arrival: r[0], Start: r[1], Finish: r[2], UsefulTokens: int64(r[3])}
		if r[2] < 0 {
			sv = core.ServedResult{Arrival: r[0], Rejected: true}
		}
		out[i] = Result{ServedResult: sv}
	}
	return out
}

// assertFinite fails on any NaN or ±Inf float64 field of the struct v.
func assertFinite(t *testing.T, v any) {
	t.Helper()
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.Float64 {
			if x := f.Float(); math.IsNaN(x) || math.IsInf(x, 0) {
				t.Errorf("field %s = %v, want finite", rv.Type().Field(i).Name, x)
			}
		}
	}
}

func TestSummarizeFleet(t *testing.T) {
	out := Outcome{
		Results: served(
			[4]float64{0, 0, 10, 100},
			[4]float64{1, 2, 20, 300},
			[4]float64{2, 0, -1, 0},
		),
		Devices: []metrics.FleetDeviceStats{
			{BusyTime: 9, LiveSeconds: 20, Served: 1, Tokens: 100},
			{BusyTime: 3, LiveSeconds: 5, Served: 1, Tokens: 300, Failed: true},
		},
		Requeues:     2,
		PrefixHits:   60,
		PrefixMisses: 40,
	}
	st := out.Stats(15)

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
	if out.Devices[0].Utilization != 0 {
		t.Error("Stats wrote its derived rates into the outcome")
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
	out := Outcome{Devices: []metrics.FleetDeviceStats{{BusyTime: 1, LiveSeconds: 2}}}
	st := out.Stats(0)
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
		out  Outcome
		slo  float64
	}{
		{name: "zero input"},
		{name: "empty with SLO", slo: 5},
		{
			name: "all rejected, dead zero-lifetime device",
			out: Outcome{
				Results: served([4]float64{1, 0, -1, 0}, [4]float64{2, 0, -1, 0}),
				Devices: []metrics.FleetDeviceStats{{Failed: true}, {LiveSeconds: 0, BusyTime: 0}},
			},
			slo: 5,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.out.Stats(tc.slo)
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
		devices       []metrics.FleetDeviceStats
		wantHit       int64
		wantMiss      int64
		wantEvicted   int64
		wantReprefill float64
		wantRate      float64
		wantOcc       []float64
	}{
		{
			name: "mixed fleet",
			devices: []metrics.FleetDeviceStats{
				{
					BusyTime: 4, LiveSeconds: 8,
					CacheCapacityTokens: 1000, CacheUsedTokens: 250,
					CacheHitTokens: 300, CacheMissTokens: 100,
					CacheEvictedTokens: 50, ReprefillSeconds: 0.5,
				},
				{
					BusyTime: 4, LiveSeconds: 8,
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
			devices: []metrics.FleetDeviceStats{
				{BusyTime: 3, LiveSeconds: 6},
				{BusyTime: 3, LiveSeconds: 6},
			},
			wantOcc: []float64{0, 0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := (&Outcome{Devices: tc.devices}).Stats(0)
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

// TestSummarizeFleetDeviceSeconds pins the capacity-cost aggregate: the
// sum of live intervals, whatever ended them.
func TestSummarizeFleetDeviceSeconds(t *testing.T) {
	out := Outcome{Devices: []metrics.FleetDeviceStats{
		{BusyTime: 50, LiveSeconds: 100},
		{BusyTime: 20, LiveSeconds: 40, LiveStart: 60},         // joined late
		{BusyTime: 10, LiveSeconds: 30, Drained: true},         // drained early
		{BusyTime: 5, LiveSeconds: 20, Failed: true},           // fail-stopped
		{BusyTime: 0, LiveSeconds: 0, LiveStart: 0, Served: 0}, // never joined
	}}
	if want, st := 100.0+40+30+20, out.Stats(0); st.DeviceSeconds != want {
		t.Errorf("DeviceSeconds = %v, want %v", st.DeviceSeconds, want)
	}
}

// TestImbalanceStaticBitIdentity: with static membership (every device
// live for the whole run, fail-stop included), the imbalance coefficient
// is bit-identical to the raw busy-time CV the pre-control-plane code
// computed — the committed golden traces depend on this.
func TestImbalanceStaticBitIdentity(t *testing.T) {
	out := Outcome{Devices: []metrics.FleetDeviceStats{
		{BusyTime: 37.25, LiveSeconds: 100},
		{BusyTime: 81.125, LiveSeconds: 100},
		{BusyTime: 12.0625, LiveSeconds: 100},
		{BusyTime: 7.5, LiveSeconds: 31.5, Failed: true}, // fail-stop keeps raw busy
	}}
	raw := []float64{37.25, 81.125, 12.0625, 7.5}
	if want, st := metrics.CoefficientOfVariation(raw), out.Stats(0); st.ImbalanceCV != want {
		t.Errorf("static-membership ImbalanceCV = %v, want raw busy CV %v (bitwise)", st.ImbalanceCV, want)
	}
}

// TestImbalanceTimeWeighted: a late joiner carrying a proportional share
// of load should not read as imbalance — its busy time is scaled to the
// fleet's longest live interval.
func TestImbalanceTimeWeighted(t *testing.T) {
	// Founding device busy 50% of 100s; joiner busy 50% of its 20s.
	weighted := (&Outcome{Devices: []metrics.FleetDeviceStats{
		{BusyTime: 50, LiveSeconds: 100},
		{BusyTime: 10, LiveSeconds: 20, LiveStart: 80},
	}}).Stats(0)
	if weighted.ImbalanceCV != 0 {
		t.Errorf("proportionally loaded joiner read as imbalance: CV = %v", weighted.ImbalanceCV)
	}
	// The same run accounted naively (pre-fix) reads as heavy imbalance.
	if naive := metrics.CoefficientOfVariation([]float64{50, 10}); naive == 0 {
		t.Fatal("test premise broken: raw busy CV should be nonzero")
	}
	// Drained devices are weighted the same way.
	drained := (&Outcome{Devices: []metrics.FleetDeviceStats{
		{BusyTime: 50, LiveSeconds: 100},
		{BusyTime: 25, LiveSeconds: 50, Drained: true},
	}}).Stats(0)
	if drained.ImbalanceCV != 0 {
		t.Errorf("proportionally loaded drained device read as imbalance: CV = %v", drained.ImbalanceCV)
	}
}

func TestControlStatsPassthrough(t *testing.T) {
	cs := &metrics.ControlStats{Ticks: 5, ScaleUps: 2, FinalTier: 1}
	if st := (&Outcome{Control: cs}).Stats(0); st.Control != cs {
		t.Errorf("Control not carried through: %v", st.Control)
	}
	if st := (&Outcome{}).Stats(0); st.Control != nil {
		t.Errorf("controller-less run carries ControlStats: %+v", st.Control)
	}
}
