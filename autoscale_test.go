package fasttts

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func testDeviceSpec(name string) DeviceSpec {
	return DeviceSpec{
		Config: Config{GPU: "RTX 4090", NumBeams: 4, Seed: 42},
		Name:   name,
	}
}

// TestClusterConfigValidation is the satellite table: misconfigurations
// that used to silently corrupt routing or telemetry now fail fast with
// descriptive errors.
func TestClusterConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     ClusterConfig
		wantErr string
	}{
		{
			name:    "no devices",
			cfg:     ClusterConfig{},
			wantErr: "at least one device",
		},
		{
			name: "duplicate device names",
			cfg: ClusterConfig{Devices: []DeviceSpec{
				testDeviceSpec("edge-a"), testDeviceSpec("edge-a"),
			}},
			wantErr: "duplicate device name",
		},
		{
			name: "duplicate name across warm pool",
			cfg: ClusterConfig{
				Devices: []DeviceSpec{testDeviceSpec("edge-a")},
				Autoscale: &AutoscaleConfig{
					Policy: "threshold", Interval: 10,
					WarmPool: []DeviceSpec{testDeviceSpec("edge-a")},
				},
			},
			wantErr: "duplicate device name",
		},
		{
			name: "explicit name collides with derived positional name",
			cfg: ClusterConfig{Devices: []DeviceSpec{
				testDeviceSpec("device-1"), {Config: Config{NumBeams: 4}},
			}},
			wantErr: "collides with the derived name",
		},
		{
			name: "explicit name collides with replica-derived name",
			cfg: ClusterConfig{Devices: []DeviceSpec{
				testDeviceSpec("a#1"),
				func() DeviceSpec { d := testDeviceSpec("a"); d.Count = 2; return d }(),
			}},
			wantErr: "collides with the derived name",
		},
		{
			name: "negative slowdown",
			cfg: ClusterConfig{Devices: []DeviceSpec{
				{Config: Config{NumBeams: 4}, Slowdown: -2},
			}},
			wantErr: "Slowdown must be non-negative",
		},
		{
			name: "NaN slowdown",
			cfg: ClusterConfig{Devices: []DeviceSpec{
				{Config: Config{NumBeams: 4}, Slowdown: math.NaN()},
			}},
			wantErr: "Slowdown must be non-negative",
		},
		{
			name: "infinite slowdown",
			cfg: ClusterConfig{Devices: []DeviceSpec{
				{Config: Config{NumBeams: 4}, Slowdown: math.Inf(1)},
			}},
			wantErr: "Slowdown must be non-negative and finite",
		},
		{
			name: "infinite slowdown in warm pool",
			cfg: ClusterConfig{
				Devices: []DeviceSpec{testDeviceSpec("a")},
				Autoscale: &AutoscaleConfig{
					Policy: "threshold", Interval: 10,
					WarmPool: []DeviceSpec{{Config: Config{NumBeams: 4}, Slowdown: math.Inf(1)}},
				},
			},
			wantErr: "Slowdown must be non-negative and finite",
		},
		{
			name: "negative count",
			cfg: ClusterConfig{Devices: []DeviceSpec{
				{Config: Config{NumBeams: 4}, Count: -1},
			}},
			wantErr: "Count must be positive",
		},
		{
			name: "NaN FailAt",
			cfg: ClusterConfig{Devices: []DeviceSpec{
				{Config: Config{NumBeams: 4}, FailAt: math.NaN()},
			}},
			wantErr: "FailAt is NaN",
		},
		{
			name: "+Inf FailAt",
			cfg: ClusterConfig{Devices: []DeviceSpec{
				{Config: Config{NumBeams: 4}}, {Config: Config{NumBeams: 4}, FailAt: math.Inf(1)},
			}},
			wantErr: "FailAt is +Inf",
		},
		{
			name: "unknown controller",
			cfg: ClusterConfig{
				Devices:   []DeviceSpec{testDeviceSpec("a")},
				Autoscale: &AutoscaleConfig{Policy: "chaos", Interval: 10},
			},
			wantErr: "unknown controller",
		},
		{
			name: "zero control interval",
			cfg: ClusterConfig{
				Devices:   []DeviceSpec{testDeviceSpec("a")},
				Autoscale: &AutoscaleConfig{Policy: "threshold"},
			},
			wantErr: "interval must be positive",
		},
		{
			name: "infinite control interval",
			cfg: ClusterConfig{
				Devices:   []DeviceSpec{testDeviceSpec("a")},
				Autoscale: &AutoscaleConfig{Policy: "threshold", Interval: math.Inf(1)},
			},
			wantErr: "interval must be positive and finite",
		},
		{
			name: "infinite warm-up delay",
			cfg: ClusterConfig{
				Devices: []DeviceSpec{testDeviceSpec("a")},
				Autoscale: &AutoscaleConfig{
					Policy: "threshold", Interval: 10, WarmupDelay: math.Inf(1),
					WarmPool: []DeviceSpec{testDeviceSpec("b")},
				},
			},
			wantErr: "warm-up delay must be non-negative and finite",
		},
		{
			name: "FailAt in warm pool",
			cfg: ClusterConfig{
				Devices: []DeviceSpec{testDeviceSpec("a")},
				Autoscale: &AutoscaleConfig{
					Policy: "threshold", Interval: 10,
					WarmPool: []DeviceSpec{{Config: Config{NumBeams: 4}, FailAt: 50}},
				},
			},
			wantErr: "FailAt",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCluster(tc.cfg)
			if err == nil {
				t.Fatalf("NewCluster accepted %+v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestDeviceSpecCountExpansion: a Count group expands into that many
// fleet members with derived names and seeds.
func TestDeviceSpecCountExpansion(t *testing.T) {
	spec := testDeviceSpec("pool")
	spec.Count = 3
	cl, err := NewCluster(ClusterConfig{Devices: []DeviceSpec{spec}})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := LoadDataset("MATH500", 7)
	if err != nil {
		t.Fatal(err)
	}
	run, err := cl.Run(UniformRequests(ds.Problems[:6], 5))
	if err != nil {
		t.Fatal(err)
	}
	st := run.Stats()
	if len(st.PerDevice) != 3 {
		t.Fatalf("Count 3 expanded to %d devices", len(st.PerDevice))
	}
	for i, d := range st.PerDevice {
		if want := "pool#" + string(rune('0'+i)); d.Name != want {
			t.Errorf("device %d named %q, want %q", i, d.Name, want)
		}
	}
	// Unnamed single devices get positional names.
	cl2, err := NewCluster(ClusterConfig{Devices: []DeviceSpec{
		{Config: Config{NumBeams: 4}}, {Config: Config{NumBeams: 4, Seed: 9}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	run2, err := cl2.Run(UniformRequests(ds.Problems[:2], 5))
	if err != nil {
		t.Fatal(err)
	}
	if got := run2.Stats().PerDevice[1].Name; got != "device-1" {
		t.Errorf("unnamed device labeled %q", got)
	}
}

// TestAutoscaleRoundTrip exercises the full public path: an elastic
// cluster under burst load scales up from the warm pool, the action log
// and control stats surface, runs are reproducible, and device-seconds
// account the live intervals.
func TestAutoscaleRoundTrip(t *testing.T) {
	ds, err := LoadDataset("MATH500", 7)
	if err != nil {
		t.Fatal(err)
	}
	probs := make([]*Problem, 16)
	for i := range probs {
		probs[i] = ds.Problems[i%len(ds.Problems)]
	}
	cfg := ClusterConfig{
		Devices: []DeviceSpec{{Config: Config{GPU: "RTX 4090", NumBeams: 8, Seed: 42}, Name: "base"}},
		Router:  "least-work",
		Seed:    5,
		// A 1.5s-spacing stream overloads a single device.
		SLOLatency: 120,
		Autoscale: &AutoscaleConfig{
			Policy:      "threshold",
			Interval:    10,
			WarmPool:    []DeviceSpec{{Config: Config{GPU: "RTX 4090", NumBeams: 8, Seed: 60}, Name: "burst", Count: 2}},
			WarmupDelay: 5,
		},
	}
	cl, err := NewCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() *FleetRun {
		fr, err := cl.Run(UniformRequests(probs, 1.5))
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	a := runOnce()
	st := a.Stats()
	if st.Control == nil {
		t.Fatal("autoscaled run missing ControlStats")
	}
	if st.Control.ScaleUps == 0 || len(a.Actions) == 0 {
		t.Fatalf("no scale-up under overload: %+v, actions %v", st.Control, a.Actions)
	}
	if st.DeviceSeconds <= 0 {
		t.Errorf("DeviceSeconds = %v", st.DeviceSeconds)
	}
	if st.Control.PeakDevices < 2 {
		t.Errorf("PeakDevices = %d, want >= 2", st.Control.PeakDevices)
	}
	sawWarm := false
	for _, d := range st.PerDevice {
		if strings.HasPrefix(d.Name, "warm:burst#") {
			sawWarm = true
			if d.LiveStart <= 0 {
				t.Errorf("warm instance %s has LiveStart %v", d.Name, d.LiveStart)
			}
		}
	}
	if !sawWarm {
		t.Errorf("no warm-pool instance in per-device stats: %+v", st.PerDevice)
	}
	// Reproducibility: every Run builds a fresh fleet and controller, so
	// reusing the Cluster gives bit-identical runs and logs.
	b := runOnce()
	if !reflect.DeepEqual(a.Actions, b.Actions) {
		t.Errorf("action logs diverge:\n%v\nvs\n%v", a.Actions, b.Actions)
	}
	if !reflect.DeepEqual(a.Stats(), b.Stats()) {
		t.Errorf("stats diverge")
	}
}

// TestElasticScenariosExerciseControllers pins that the controller-driven
// scenarios actually drive their controllers at default parameters: the
// scaling scenarios join warm capacity, the budget scenario degrades
// search width. Without this the golden traces could silently pin a
// do-nothing control plane.
func TestElasticScenariosExerciseControllers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scaled bool // expects warm-pool joins (vs budget-tier moves)
	}{
		{"autoscale-diurnal", true},
		{"flash-absorb", true},
		{"budget-storm", false},
	} {
		run, err := RunScenario(tc.name, ScenarioOptions{Target: ScenarioCluster})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		st := run.FleetStats
		if st == nil || st.Control == nil {
			t.Fatalf("%s: no control stats on the cluster target", tc.name)
		}
		if len(run.Fleet.Actions) == 0 {
			t.Errorf("%s: empty action log", tc.name)
		}
		if tc.scaled && st.Control.ScaleUps == 0 {
			t.Errorf("%s: controller never scaled up: %+v", tc.name, st.Control)
		}
		if !tc.scaled && (st.Control.TierChanges == 0 || st.Control.DegradedRequests == 0) {
			t.Errorf("%s: governor never degraded the budget: %+v", tc.name, st.Control)
		}
	}
}
