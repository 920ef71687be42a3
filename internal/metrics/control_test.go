package metrics

import "testing"

// TestSummarizeFleetDeviceSeconds pins the capacity-cost aggregate: the
// sum of live intervals, whatever ended them.
func TestSummarizeFleetDeviceSeconds(t *testing.T) {
	st := SummarizeFleet(FleetInput{
		Devices: []FleetDevice{
			{Busy: 50, Lifetime: 100},
			{Busy: 20, Lifetime: 40, LiveStart: 60},         // joined late
			{Busy: 10, Lifetime: 30, Drained: true},         // drained early
			{Busy: 5, Lifetime: 20, Failed: true},           // fail-stopped
			{Busy: 0, Lifetime: 0, LiveStart: 0, Served: 0}, // never joined
		},
	})
	if want := 100.0 + 40 + 30 + 20; st.DeviceSeconds != want {
		t.Errorf("DeviceSeconds = %v, want %v", st.DeviceSeconds, want)
	}
}

// TestImbalanceStaticBitIdentity is the satellite contract: with static
// membership (every device live for the whole run, fail-stop included),
// the imbalance coefficient is bit-identical to the raw busy-time CV the
// pre-control-plane code computed — the committed golden traces depend
// on this.
func TestImbalanceStaticBitIdentity(t *testing.T) {
	devs := []FleetDevice{
		{Busy: 37.25, Lifetime: 100},
		{Busy: 81.125, Lifetime: 100},
		{Busy: 12.0625, Lifetime: 100},
		{Busy: 7.5, Lifetime: 31.5, Failed: true}, // fail-stop keeps raw busy
	}
	st := SummarizeFleet(FleetInput{Devices: devs})
	raw := []float64{37.25, 81.125, 12.0625, 7.5}
	if want := CoefficientOfVariation(raw); st.ImbalanceCV != want {
		t.Errorf("static-membership ImbalanceCV = %v, want raw busy CV %v (bitwise)", st.ImbalanceCV, want)
	}
}

// TestImbalanceTimeWeighted: a late joiner carrying a proportional share
// of load should not read as imbalance — its busy time is scaled to the
// fleet's longest live interval.
func TestImbalanceTimeWeighted(t *testing.T) {
	// Founding device busy 50% of 100s; joiner busy 50% of its 20s.
	weighted := SummarizeFleet(FleetInput{Devices: []FleetDevice{
		{Busy: 50, Lifetime: 100},
		{Busy: 10, Lifetime: 20, LiveStart: 80},
	}})
	if weighted.ImbalanceCV != 0 {
		t.Errorf("proportionally loaded joiner read as imbalance: CV = %v", weighted.ImbalanceCV)
	}
	// The same run accounted naively (pre-fix) reads as heavy imbalance.
	if naive := CoefficientOfVariation([]float64{50, 10}); naive == 0 {
		t.Fatal("test premise broken: raw busy CV should be nonzero")
	}
	// Drained devices are weighted the same way.
	drained := SummarizeFleet(FleetInput{Devices: []FleetDevice{
		{Busy: 50, Lifetime: 100},
		{Busy: 25, Lifetime: 50, Drained: true},
	}})
	if drained.ImbalanceCV != 0 {
		t.Errorf("proportionally loaded drained device read as imbalance: CV = %v", drained.ImbalanceCV)
	}
}

func TestControlStatsPassthrough(t *testing.T) {
	cs := &ControlStats{Ticks: 5, ScaleUps: 2, FinalTier: 1}
	st := SummarizeFleet(FleetInput{Control: cs})
	if st.Control != cs {
		t.Errorf("Control not carried through: %v", st.Control)
	}
	if st2 := SummarizeFleet(FleetInput{}); st2.Control != nil {
		t.Errorf("controller-less run carries ControlStats: %+v", st2.Control)
	}
}
