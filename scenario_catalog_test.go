package fasttts

import (
	"reflect"
	"strings"
	"testing"

	"fasttts/internal/workload"
)

func TestCatalogShape(t *testing.T) {
	all := scenarioCatalog()
	if len(all) < 6 {
		t.Fatalf("catalog has %d scenarios, want >= 6", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if s.Name == "" || s.Description == "" || s.build == nil {
			t.Errorf("scenario %+v incomplete", s)
		}
		if seen[s.Name] {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Name != strings.ToLower(s.Name) {
			t.Errorf("scenario name %q not lower-case", s.Name)
		}
	}
	if got, want := len(scenarioNames()), len(all); got != want {
		t.Errorf("scenarioNames() has %d entries, want %d", got, want)
	}
}

func TestBuildSpecs(t *testing.T) {
	for _, s := range scenarioCatalog() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			spec := s.build(scenarioParams{})
			if len(spec.requests) == 0 {
				t.Fatal("empty request stream")
			}
			reachable := len(spec.cluster.Devices)
			if spec.cluster.Autoscale != nil {
				reachable += len(spec.cluster.Autoscale.WarmPool)
			}
			if reachable < 3 {
				t.Errorf("%d reachable devices (founding + warm pool), want >= 3 for the cluster target", reachable)
			}
			if a := spec.cluster.Autoscale; a != nil {
				if a.Policy == "" || a.Interval <= 0 {
					t.Errorf("autoscale spec incomplete: %+v", a)
				}
			}
			if spec.cluster.Seed == 0 {
				t.Error("spec did not record its run seed")
			}
			prev := 0.0
			for i, rq := range spec.requests {
				if rq.arrival < prev {
					t.Fatalf("request %d arrives at %v before %v", i, rq.arrival, prev)
				}
				prev = rq.arrival
				ds, err := workload.SpecByName(rq.dataset)
				if err != nil {
					t.Fatalf("request %d references dataset %q: %v", i, rq.dataset, err)
				}
				if rq.problem < 0 || rq.problem >= ds.Problems {
					t.Fatalf("request %d problem index %d outside %s's %d problems",
						i, rq.problem, rq.dataset, ds.Problems)
				}
				if rq.deadline != 0 && rq.deadline < rq.arrival {
					t.Fatalf("request %d deadline %v before arrival %v", i, rq.deadline, rq.arrival)
				}
			}
		})
	}
}

func TestBuildDeterministic(t *testing.T) {
	for _, s := range scenarioCatalog() {
		a := s.build(scenarioParams{requests: 12, seed: 7})
		b := s.build(scenarioParams{requests: 12, seed: 7})
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: equal params built unequal specs", s.Name)
		}
		c := s.build(scenarioParams{requests: 12, seed: 8})
		if reflect.DeepEqual(a.requests, c.requests) && s.Name != "steady" && s.Name != "burst-storm" {
			// steady and burst-storm have deterministic arrival grids, but
			// their problem mixes must still vary with the seed.
			t.Errorf("%s: seeds 7 and 8 built identical request streams", s.Name)
		}
	}
}

func TestParamsScaleStreamLength(t *testing.T) {
	for _, s := range scenarioCatalog() {
		spec := s.build(scenarioParams{requests: 9, seed: 3})
		if len(spec.requests) != 9 {
			t.Errorf("%s: got %d requests, want 9", s.Name, len(spec.requests))
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range scenarioNames() {
		s, err := scenarioByName(name)
		if err != nil {
			t.Errorf("scenarioByName(%q): %v", name, err)
		}
		if s.Name != name {
			t.Errorf("scenarioByName(%q) resolved %q", name, s.Name)
		}
	}
	// Case- and whitespace-insensitive.
	if s, err := scenarioByName("  Diurnal "); err != nil || s.Name != "diurnal" {
		t.Errorf("ByName with case/space got (%v, %v)", s.Name, err)
	}
	for _, bad := range []string{"", "nope", "steady2", "Diurnal Cycle"} {
		if _, err := scenarioByName(bad); err == nil {
			t.Errorf("scenarioByName(%q) did not error", bad)
		}
	}
}

func TestFleetChurnInjectsFaults(t *testing.T) {
	spec := mustBuild(t, "fleet-churn")
	fails, stragglers := 0, 0
	for _, d := range spec.cluster.Devices {
		if d.FailAt > 0 {
			fails++
		}
		if d.Slowdown > 1 {
			stragglers++
		}
	}
	if fails < 2 {
		t.Errorf("%d fail-stops, want >= 2 (staggered churn)", fails)
	}
	if stragglers < 1 {
		t.Errorf("%d stragglers, want >= 1", stragglers)
	}
}

func TestTenantMixCarriesTenancy(t *testing.T) {
	spec := mustBuild(t, "tenant-mix")
	datasets := map[string]bool{}
	priorities, deadlines := 0, 0
	for _, rq := range spec.requests {
		datasets[rq.dataset] = true
		if rq.priority > 0 {
			priorities++
		}
		if rq.deadline > 0 {
			deadlines++
		}
	}
	if len(datasets) < 2 {
		t.Errorf("tenant-mix drew %d datasets, want a real mix", len(datasets))
	}
	if priorities == 0 || deadlines == 0 {
		t.Errorf("tenant-mix has %d prioritized and %d deadlined requests, want both > 0", priorities, deadlines)
	}
	algos := map[string]bool{}
	for _, d := range spec.cluster.Devices {
		algos[d.Algorithm] = true
	}
	if len(algos) < 2 {
		t.Errorf("tenant-mix fleet runs %d algorithms, want a multi-algorithm fleet", len(algos))
	}
}

func TestFlashCrowdSheds(t *testing.T) {
	spec := mustBuild(t, "flash-crowd")
	if spec.serve.MaxInFlight <= 0 {
		t.Error("flash-crowd server has no admission limit")
	}
	for i, d := range spec.cluster.Devices {
		if d.MaxInFlight <= 0 {
			t.Errorf("flash-crowd device %d has no admission limit", i)
		}
	}
}

func mustBuild(t *testing.T, name string) scenarioSpec {
	t.Helper()
	s, err := scenarioByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return s.build(scenarioParams{})
}

// FuzzByName asserts the lookup is total: any input yields a scenario or
// an error, never a panic.
func FuzzByName(f *testing.F) {
	for _, name := range scenarioNames() {
		f.Add(name)
	}
	f.Add("")
	f.Add("  ")
	f.Add("no-such-scenario")
	f.Add("STEADY\x00")
	f.Fuzz(func(t *testing.T, name string) {
		s, err := scenarioByName(name)
		if err == nil && s.build == nil {
			t.Errorf("scenarioByName(%q) returned a scenario without a builder", name)
		}
		if err != nil && s.Name != "" {
			t.Errorf("scenarioByName(%q) returned both a scenario and an error", name)
		}
	})
}
