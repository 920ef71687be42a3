package cluster

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"fasttts/internal/control"
	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/metrics"
	"fasttts/internal/rng"
	"fasttts/internal/workload"
)

// ctlStream builds a MATH500 request stream with the given arrivals.
func ctlStream(t testing.TB, arrivals []float64) []core.Request {
	t.Helper()
	ds := workload.NewDataset(workload.MATH500, rng.New(7))
	reqs := make([]core.Request, len(arrivals))
	for i, at := range arrivals {
		reqs[i] = core.Request{Problem: ds.Problems[i%len(ds.Problems)], Arrival: at, Tag: i}
	}
	return reqs
}

// burstyArrivals is a two-phase load: a dense burst that overloads a
// small fleet, then a long sparse tail that underloads it — exactly the
// shape a scale-up-then-scale-down controller should track.
func burstyArrivals(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if i < n*2/3 {
			out[i] = float64(i) * 1.5 // dense burst
		} else {
			out[i] = float64(n*2/3)*1.5 + float64(i-n*2/3)*120 // sparse tail
		}
	}
	return out
}

// elasticConfig is a 2-founder fleet with a 2-template warm pool.
func elasticConfig(t testing.TB, ctl control.Controller, interval float64) Config {
	t.Helper()
	return Config{
		Devices: []Device{
			{Config: devConfig(t, hw.RTX4090, 8, 42)},
			{Config: devConfig(t, hw.RTX4070Ti, 8, 43)},
		},
		Router: LeastWork{},
		Seed:   5,
		Control: &ControlConfig{
			Controller:  ctl,
			Interval:    interval,
			Warm:        []Device{{Config: devConfig(t, hw.RTX4090, 8, 60)}, {Config: devConfig(t, hw.RTX3070Ti, 8, 61)}},
			WarmupDelay: 5,
			SLOLatency:  200,
			MaxTier:     2,
		},
	}
}

func mustRun(t testing.TB, cfg Config, reqs []core.Request) *Outcome {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestElasticJoinAndDrainLifecycle drives the threshold controller
// through a burst-then-tail load and checks the full lifecycle: warm
// devices join only after the warm-up delay, drained devices keep their
// accepted work, telemetry records live intervals, and no request is
// lost.
func TestElasticJoinAndDrainLifecycle(t *testing.T) {
	reqs := ctlStream(t, burstyArrivals(30))
	cfg := elasticConfig(t, control.NewThreshold(), 15)
	out := mustRun(t, cfg, reqs)

	if out.Control == nil {
		t.Fatal("controller run missing ControlStats")
	}
	if out.Control.Ticks == 0 {
		t.Fatal("no control ticks observed")
	}
	if out.Control.ScaleUps == 0 {
		t.Fatal("threshold controller never scaled up under a 1.5s-spacing burst on 2 devices")
	}
	if out.Control.ScaleDowns == 0 {
		t.Fatal("threshold controller never scaled down through the sparse tail")
	}
	if len(out.Devices) <= 2 {
		t.Fatalf("no warm-pool instances materialized: %d devices", len(out.Devices))
	}

	// Conservation: every request exactly once.
	seen := make(map[int]int)
	for _, r := range out.Results {
		seen[r.Tag]++
	}
	for i := range reqs {
		if seen[i] != 1 {
			t.Errorf("request %d reported %d times", i, seen[i])
		}
	}

	// Joined devices: live interval starts at join, and nothing they
	// served started before they were routable.
	joinAt := make(map[int]float64)
	for _, rec := range out.Actions {
		if rec.Action == string(control.ScaleUp) {
			for _, di := range rec.Devices {
				joinAt[di] = rec.Time + cfg.Control.WarmupDelay
			}
		}
	}
	if len(joinAt) == 0 {
		t.Fatal("no scale-up action in the log")
	}
	for di, at := range joinAt {
		d := out.Devices[di]
		if d.LiveStart != at {
			t.Errorf("device %d LiveStart = %v, want join time %v", di, d.LiveStart, at)
		}
		for _, r := range out.Results {
			if r.Device == di && !r.Rejected && r.Start < at {
				t.Errorf("device %d started request %d at %v, before its join at %v", di, r.Tag, r.Start, at)
			}
		}
	}

	// Drained devices: marked, live interval ends at drain completion,
	// and nothing routed to them after the drain decision.
	drainAt := make(map[int]float64)
	for _, rec := range out.Actions {
		if rec.Action == string(control.ScaleDown) {
			for _, di := range rec.Devices {
				drainAt[di] = rec.Time
			}
		}
	}
	if len(drainAt) == 0 {
		t.Fatal("no scale-down action in the log")
	}
	for di, at := range drainAt {
		d := out.Devices[di]
		if !d.Drained {
			t.Errorf("device %d drained at t=%v but not marked Drained", di, at)
		}
		if d.LiveStart+d.LiveSeconds < at {
			t.Errorf("device %d live interval ends %v, before its drain decision %v", di, d.LiveStart+d.LiveSeconds, at)
		}
		for _, r := range out.Results {
			if r.Device == di && !r.Rejected && r.Arrival > at && r.Requeues == 0 {
				t.Errorf("device %d served request %d arriving at %v, after drain at %v", di, r.Tag, r.Arrival, at)
			}
		}
	}
}

// TestElasticActionLogDeterministic is the regression-harness property:
// equal seeds give bit-identical action logs, results, and stats.
func TestElasticActionLogDeterministic(t *testing.T) {
	reqs := ctlStream(t, burstyArrivals(24))
	for _, name := range control.Names() {
		runOnce := func() *Outcome {
			ctl, err := control.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			return mustRun(t, elasticConfig(t, ctl, 12), reqs)
		}
		a, b := runOnce(), runOnce()
		if !reflect.DeepEqual(a.Actions, b.Actions) {
			t.Errorf("%s: action logs diverge:\n%v\nvs\n%v", name, a.Actions, b.Actions)
		}
		if !reflect.DeepEqual(a.Results, b.Results) {
			t.Errorf("%s: served results diverge", name)
		}
		if !reflect.DeepEqual(a.Control, b.Control) {
			t.Errorf("%s: control stats diverge: %+v vs %+v", name, a.Control, b.Control)
		}
	}
}

// TestBudgetGovernorDegradesWidth: under a storm the budget controller
// raises the tier and requests are served at a narrowed width; once load
// clears the tier restores.
func TestBudgetGovernorDegradesWidth(t *testing.T) {
	// Three phases: a synchronized burst at t=0 saturates both devices,
	// mid-storm arrivals land while completions are reporting long queue
	// delays (these get degraded), and a sparse far tail arrives after
	// the quiet period has restored the full budget.
	arrivals := make([]float64, 24)
	for i := 12; i < 20; i++ {
		arrivals[i] = 22 + float64(i-12)*5 // mid-storm: routed under a raised tier
	}
	for i := 20; i < 24; i++ {
		arrivals[i] = 800 + float64(i-20)*200 // far tail: budget restored
	}
	reqs := ctlStream(t, arrivals)
	out := mustRun(t, elasticConfig(t, control.NewBudget(), 10), reqs)

	if out.Control.TierChanges == 0 {
		t.Fatal("budget governor never moved the tier under a 12-request burst")
	}
	if out.Control.DegradedRequests == 0 {
		t.Fatal("no request was served degraded")
	}
	sawNarrow := false
	for _, r := range out.Results {
		if r.Rejected {
			continue
		}
		if r.Width < 8 {
			sawNarrow = true
			if r.Width < 2 {
				t.Errorf("request %d served at width %d, below tier-%d floor", r.Tag, r.Width, out.Control.FinalTier)
			}
		}
	}
	if !sawNarrow {
		t.Fatal("no served result carries a narrowed width")
	}
	if out.Control.FinalTier != 0 {
		t.Errorf("tier not restored after load cleared: final tier %d", out.Control.FinalTier)
	}
	// The governor never touches membership.
	if out.Control.ScaleUps != 0 || out.Control.ScaleDowns != 0 {
		t.Errorf("budget governor changed membership: %+v", out.Control)
	}
	if len(out.Devices) != 2 {
		t.Errorf("budget run grew the fleet to %d devices", len(out.Devices))
	}
}

// TestStaticControllerMatchesNoController pins the control plane's
// zero-cost property: a fleet under the static controller serves the
// stream bit-identically to the same fleet with no controller at all.
// (Control ticks bound device step horizons, which §4.1.2 speculation
// preemption can observe, so this holds because ticks without actions
// are pure observations — the assertion proves the observation path has
// no side effects on the served stream.)
func TestStaticControllerMatchesNoController(t *testing.T) {
	reqs := ctlStream(t, burstyArrivals(16))
	base := Config{
		Devices: []Device{
			{Config: devConfig(t, hw.RTX4090, 8, 42)},
			{Config: devConfig(t, hw.RTX4070Ti, 8, 43)},
		},
		Router: LeastWork{},
		Seed:   5,
	}
	plain := mustRun(t, base, reqs)

	withCtl := base
	withCtl.Control = &ControlConfig{Controller: control.Static{}, Interval: 1e6}
	ctl := mustRun(t, withCtl, reqs)

	if len(plain.Results) != len(ctl.Results) {
		t.Fatalf("%d vs %d results", len(plain.Results), len(ctl.Results))
	}
	for i := range plain.Results {
		a, b := plain.Results[i], ctl.Results[i]
		if a.Tag != b.Tag || a.Start != b.Start || a.Finish != b.Finish || a.UsefulTokens != b.UsefulTokens {
			t.Fatalf("result %d diverges under static controller: %+v vs %+v", i, a.ServedResult, b.ServedResult)
		}
	}
	if len(ctl.Actions) != 0 {
		t.Errorf("static controller logged actions: %v", ctl.Actions)
	}
}

// TestStaticMembershipLifetimeBitIdentity is the satellite contract at
// the fleet level: without joins or drains, every non-failed device's
// LiveSeconds is exactly the makespan (LiveStart 0) and the imbalance
// coefficient equals the raw busy-time CV bit-for-bit.
func TestStaticMembershipLifetimeBitIdentity(t *testing.T) {
	reqs := ctlStream(t, burstyArrivals(12))
	out := mustRun(t, Config{Devices: hetero4(t), Router: &RoundRobin{}, Seed: 3}, reqs)
	makespan := 0.0
	for _, r := range out.Results {
		if !r.Rejected && r.Finish > makespan {
			makespan = r.Finish
		}
	}
	var busy []float64
	for i, d := range out.Devices {
		if d.LiveStart != 0 || d.Drained {
			t.Errorf("static device %d carries dynamic-membership telemetry: %+v", i, d)
		}
		if !d.Failed && d.LiveSeconds != makespan {
			t.Errorf("device %d LiveSeconds = %v, want makespan %v", i, d.LiveSeconds, makespan)
		}
		busy = append(busy, d.BusyTime)
	}
	st := out.Stats(0)
	if want := metrics.CoefficientOfVariation(busy); st.ImbalanceCV != want {
		t.Errorf("static ImbalanceCV = %v, want raw busy CV %v (bitwise)", st.ImbalanceCV, want)
	}
	if st.DeviceSeconds == 0 {
		t.Error("DeviceSeconds not accounted")
	}
}

// TestScaleDownStopsAtMinDevices: a scale-down that asks for more drains
// than the floor allows drains down to exactly MinDevices routable
// devices — not one fewer — and reports only the drains it applied.
func TestScaleDownStopsAtMinDevices(t *testing.T) {
	devs := make([]Device, 4)
	for i := range devs {
		devs[i] = Device{Config: devConfig(t, hw.RTX4090, 4, uint64(42+i))}
	}
	f, err := New(Config{Devices: devs, Control: &ControlConfig{Interval: 10, MinDevices: 2}})
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.newRun(nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := r.el.scaleDown(r, 0, 10)
	if len(r.vs) != 2 {
		t.Errorf("%d routable devices after asking for 10 drains, want MinDevices = 2", len(r.vs))
	}
	if rec.Requested != 10 || rec.Applied != 2 || !slices.Equal(rec.Devices, []int{3, 2}) {
		t.Errorf("scale-down record: requested %d, applied %d on %v; want 10, 2 on [3 2]",
			rec.Requested, rec.Applied, rec.Devices)
	}
}

// TestControlConfigValidation covers the fail-fast paths.
func TestControlConfigValidation(t *testing.T) {
	dev := Device{Config: devConfig(t, hw.RTX4090, 8, 42)}
	cases := []struct {
		name string
		cc   ControlConfig
	}{
		{"zero interval", ControlConfig{Interval: 0}},
		{"negative interval", ControlConfig{Interval: -1}},
		{"infinite interval", ControlConfig{Interval: math.Inf(1)}},
		{"negative warmup", ControlConfig{Interval: 10, WarmupDelay: -2}},
		{"infinite warmup", ControlConfig{Interval: 10, WarmupDelay: math.Inf(1)}},
		{"failat in warm pool", ControlConfig{Interval: 10, Warm: []Device{{Config: dev.Config, FailAt: 50}}}},
		{"negative min devices", ControlConfig{Interval: 10, MinDevices: -1}},
		{"min devices above max", ControlConfig{Interval: 1, MinDevices: 5, MaxDevices: 2}},
	}
	for _, tc := range cases {
		cc := tc.cc
		_, err := New(Config{Devices: []Device{dev}, Control: &cc})
		if err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.cc)
		}
	}
	// Defaults fill in, on the fleet's copy.
	cc := ControlConfig{Interval: 10, Warm: []Device{dev}}
	f, err := New(Config{Devices: []Device{dev}, Control: &cc})
	if err != nil {
		t.Fatalf("valid control config rejected: %v", err)
	}
	if got := f.cfg.Control; got.MinDevices != 1 || got.MaxDevices != 2 {
		t.Errorf("defaults not applied: MinDevices=%d MaxDevices=%d", got.MinDevices, got.MaxDevices)
	}
}

// TestControlConfigReuse: New used to write its defaults into the
// caller's ControlConfig, so one config shared by two fleets capped the
// second at the first's founding + warm count — an 8-founder fleet reusing
// a 2-founder config got MaxDevices 4 and could never scale up.
func TestControlConfigReuse(t *testing.T) {
	small := elasticConfig(t, control.NewThreshold(), 30)
	if _, err := New(small); err != nil {
		t.Fatal(err)
	}
	if small.Control.MinDevices != 0 || small.Control.MaxDevices != 0 {
		t.Errorf("New wrote defaults into the caller's config: MinDevices=%d MaxDevices=%d",
			small.Control.MinDevices, small.Control.MaxDevices)
	}
	big := small
	big.Devices = benchDevices(t, 8, 1)
	f, err := New(big)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.cfg.Control.MaxDevices; got != 10 {
		t.Errorf("8 founders + 2 warm reusing a 2-founder config: MaxDevices = %d, want 10", got)
	}
}

// TestElasticScaleToFit is the headline acceptance criterion: on a
// diurnal (sinusoidal-rate) workload, the threshold controller attains
// at least the statically peak-provisioned fleet's SLO attainment while
// consuming measurably fewer device-seconds.
func TestElasticScaleToFit(t *testing.T) {
	r := rng.New(11).Child("test/diurnal")
	arrivals := workload.SinusoidalArrivals(36, 0.09, 1, 240, r)
	reqs := ctlStream(t, arrivals)

	founders := []Device{
		{Config: devConfig(t, hw.RTX4090, 8, 42)},
		{Config: devConfig(t, hw.RTX4070Ti, 8, 43)},
	}
	warm := []Device{
		{Config: devConfig(t, hw.RTX4090, 8, 60)},
		{Config: devConfig(t, hw.RTX4090, 8, 61)},
	}
	const slo = 300.0

	// Static baseline: provisioned for the peak — founders plus the whole
	// warm pool live from t=0.
	static := mustRun(t, Config{
		Devices: append(append([]Device{}, founders...), warm...),
		Router:  LeastWork{},
		Seed:    5,
	}, reqs)

	thr := control.NewThreshold()
	thr.HighDelay = 20
	elastic := mustRun(t, Config{
		Devices: founders,
		Router:  LeastWork{},
		Seed:    5,
		Control: &ControlConfig{
			Controller:  thr,
			Interval:    30,
			Warm:        warm,
			WarmupDelay: 10,
			SLOLatency:  slo,
		},
	}, reqs)

	ss, es := static.Stats(slo), elastic.Stats(slo)
	t.Logf("static:  SLO %.3f, device-seconds %.0f", ss.SLOAttainment, ss.DeviceSeconds)
	t.Logf("elastic: SLO %.3f, device-seconds %.0f (ups %d, downs %d)",
		es.SLOAttainment, es.DeviceSeconds, elastic.Control.ScaleUps, elastic.Control.ScaleDowns)
	if es.SLOAttainment < ss.SLOAttainment {
		t.Errorf("elastic SLO attainment %.3f below static %.3f", es.SLOAttainment, ss.SLOAttainment)
	}
	if es.DeviceSeconds > 0.9*ss.DeviceSeconds {
		t.Errorf("elastic device-seconds %.0f not measurably below static %.0f",
			es.DeviceSeconds, ss.DeviceSeconds)
	}
}
