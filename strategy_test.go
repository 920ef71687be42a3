package fasttts

// Public-surface contract for the test-time-compute strategy knob:
// malformed strategy strings fail fast at construction time — never
// mid-run — on every entry point that accepts one (ServeConfig via
// Config, and ClusterConfig), and well-formed ones serve the full stream.

import (
	"strings"
	"testing"
)

func TestStrategyConfigValidates(t *testing.T) {
	twoDevices := []DeviceSpec{fleetSpec("RTX 4090", 1), fleetSpec("RTX 4070 Ti", 2)}
	cases := []struct {
		name     string
		strategy string
		devices  []DeviceSpec
		wantErr  string // empty means the config must be accepted
	}{
		{name: "empty is full beam", strategy: "", devices: twoDevices},
		{name: "full-beam", strategy: "full-beam", devices: twoDevices},
		{name: "first-finish", strategy: "first-finish", devices: twoDevices},
		{name: "first-finish with cap", strategy: "first-finish:3", devices: twoDevices},
		{name: "deadline", strategy: "deadline", devices: twoDevices},
		{name: "hedged on two devices", strategy: "hedged", devices: twoDevices},
		{name: "unknown name", strategy: "bogus", devices: twoDevices,
			wantErr: "unknown strategy"},
		{name: "zero chain cap", strategy: "first-finish:0", devices: twoDevices,
			wantErr: "k >= 1"},
		{name: "negative chain cap", strategy: "first-finish:-2", devices: twoDevices,
			wantErr: "k >= 1"},
		{name: "non-integer cap", strategy: "first-finish:two", devices: twoDevices,
			wantErr: "not an integer"},
		{name: "parameter on full-beam", strategy: "full-beam:2", devices: twoDevices,
			wantErr: "takes no parameter"},
		{name: "hedged on one device", strategy: "hedged",
			devices: []DeviceSpec{fleetSpec("RTX 4090", 1)},
			wantErr: "at least 2 devices"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCluster(ClusterConfig{Devices: tc.devices, Strategy: tc.strategy})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("NewCluster rejected %q: %v", tc.strategy, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("NewCluster accepted %q", tc.strategy)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("NewCluster(%q) error %q, want substring %q", tc.strategy, err, tc.wantErr)
			}
		})
	}
}

// TestStrategyServerValidates: the single-server entry point rejects the
// same malformed strings at construction (hedged is legal — a
// per-device no-op — since there is no second device to replicate to).
func TestStrategyServerValidates(t *testing.T) {
	for _, strategy := range []string{"bogus", "first-finish:0", "first-finish:two"} {
		if _, err := NewServer(Config{GPU: "RTX 4090", Strategy: strategy}); err == nil {
			t.Errorf("NewServer accepted strategy %q", strategy)
		}
	}
	for _, strategy := range []string{"", "full-beam", "first-finish:4", "deadline", "hedged"} {
		if _, err := NewServer(Config{GPU: "RTX 4090", Strategy: strategy}); err != nil {
			t.Errorf("NewServer rejected strategy %q: %v", strategy, err)
		}
	}
}

// TestStrategyFirstFinishServesFullStream: a first-finish cluster still
// answers every request — early termination trims search compute, not
// the served stream — and spends strictly fewer useful tokens than the
// full beam on the same trace.
func TestStrategyFirstFinishServesFullStream(t *testing.T) {
	reqs := PoissonRequests(clusterProblems(t, 8, 4), 0.4, 11)
	tokens := func(strategy string) int64 {
		t.Helper()
		cl, err := NewCluster(ClusterConfig{
			Devices:  []DeviceSpec{fleetSpec("RTX 4090", 1), fleetSpec("RTX 4070 Ti", 2)},
			Router:   "rr",
			Strategy: strategy,
		})
		if err != nil {
			t.Fatal(err)
		}
		run, err := cl.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(run.Results); got != len(reqs) {
			t.Fatalf("strategy %q served %d of %d requests", strategy, got, len(reqs))
		}
		var sum int64
		for _, r := range run.Results {
			if r.Rejected {
				t.Fatalf("strategy %q rejected request %d", strategy, r.Tag)
			}
			sum += r.UsefulTokens
		}
		return sum
	}
	full := tokens("full-beam")
	ff := tokens("first-finish")
	if ff >= full {
		t.Errorf("first-finish spent %d tokens, full beam %d — early termination saved nothing", ff, full)
	}
}

// TestStrategyTailGains pins each strategy's latency claim on its
// home-turf scenario at seed 42 and the scenario's default size, against
// full-beam on the identical stream: first-finish wins the p99 on
// first-finish-mix (the First Finish Search claim), and hedged wins it on
// hedged-tail, where the twin copy dodges the straggler.
func TestStrategyTailGains(t *testing.T) {
	p99 := func(scenario, strategy string) float64 {
		t.Helper()
		spec, err := buildScenario(scenario, ScenarioOptions{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		spec.cluster.Strategy = strategy
		run, err := spec.run(ScenarioCluster)
		if err != nil {
			t.Fatal(err)
		}
		return run.FleetStats.P99Latency
	}
	for _, tc := range []struct{ scenario, strategy string }{
		{"first-finish-mix", "first-finish"},
		{"hedged-tail", "hedged"},
	} {
		full, got := p99(tc.scenario, "full-beam"), p99(tc.scenario, tc.strategy)
		t.Logf("%s: %s p99 %.2fs, full-beam %.2fs", tc.scenario, tc.strategy, got, full)
		if got >= full {
			t.Errorf("%s: %s p99 %.2fs does not beat full-beam's %.2fs", tc.scenario, tc.strategy, got, full)
		}
	}
}

// TestStrategyHedgedServesEachRequestOnce: hedging replicates requests
// across devices internally, but the served stream still carries exactly
// one result per submitted tag.
func TestStrategyHedgedServesEachRequestOnce(t *testing.T) {
	reqs := PoissonRequests(clusterProblems(t, 8, 4), 0.2, 13)
	cl, err := NewCluster(ClusterConfig{
		Devices: []DeviceSpec{
			fleetSpec("RTX 4090", 1),
			{Config: Config{GPU: "RTX 4090", NumBeams: 8, Seed: 2}, Slowdown: 4},
			fleetSpec("RTX 4070 Ti", 3),
		},
		Router:   "rr",
		Strategy: "hedged",
	})
	if err != nil {
		t.Fatal(err)
	}
	run, err := cl.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for _, r := range run.Results {
		seen[r.Tag]++
	}
	if len(run.Results) != len(reqs) {
		t.Fatalf("hedged run served %d results for %d requests", len(run.Results), len(reqs))
	}
	for tag := range reqs {
		if seen[tag] != 1 {
			t.Errorf("tag %d served %d times, want exactly once", tag, seen[tag])
		}
	}
}
