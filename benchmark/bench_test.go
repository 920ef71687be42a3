package main

import (
	"encoding/json"
	"io"
	"regexp"
	"testing"

	"fasttts/internal/cluster"
)

// smoke shrinks every workload far enough for tier-1: one timed pass over
// 2 % of the requests.
func smoke(t *testing.T) options {
	return options{seed: 42, seconds: 1, scale: 0.02, passes: 1, outDir: t.TempDir(), out: io.Discard}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestCatalogueMatchesBenchmarkJSON: the names, units and directions the
// program reports are the ones BENCHMARK.json declares.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadBenchmarkSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := spec.Workloads[i]
		if got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q breaks the naming rule", w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d end-to-end metrics, the program has %d", len(spec.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range endToEnd {
		got := spec.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
		if got.Bound <= 0 || got.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.name, got.Bound)
		}
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q breaks the naming rule", m.name)
		}
		hasSetup = hasSetup || (m.name == "setup_s" && m.unit == "s" && m.better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the program has %d", len(spec.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range perLayer {
		got := spec.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the program %+v", i, got, m)
		}
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q breaks the naming rule", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric name %q is used twice", m.name)
		}
		seen[m.name] = true
	}
}

// TestDecoratedPassKeepsTheDigest: a traced pass, built from internal
// packages with every timing decorator attached, produces bit for bit the
// results of the plain pass. A decorator that hid NeedsOutstandingWork
// from the fleet, or a traced deployment that drifted from the public
// API's defaults, fails here.
func TestDecoratedPassKeepsTheDigest(t *testing.T) {
	opt := smoke(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			sent := opt.requests(w)
			prep, err := w.prepare(w, w.generate(sent, opt.seed))
			if err != nil {
				t.Fatal(err)
			}
			plain, err := prep.plain()
			if err != nil {
				t.Fatal(err)
			}
			if err := plain.check(sent); err != nil {
				t.Fatalf("plain pass: %v", err)
			}
			tr := newTracer()
			traced, err := prep.traced(tr)
			if err != nil {
				t.Fatal(err)
			}
			if err := traced.check(sent); err != nil {
				t.Fatalf("traced pass: %v", err)
			}
			if p, d := plain.digest(), traced.digest(); p != d {
				t.Errorf("plain digest %016x, decorated digest %016x", p, d)
			}
			if len(tr.spans) == 0 {
				t.Error("the traced pass recorded no span")
			}
			other, err := w.prepare(w, w.generate(sent, opt.seed+1))
			if err != nil {
				t.Fatal(err)
			}
			if out, err := other.plain(); err != nil {
				t.Fatal(err)
			} else if out.digest() == plain.digest() {
				t.Error("another seed produced the same results: the seed does not reach the generator")
			}
		})
	}
}

// TestTimedRouterForwardsOptionalInterfaces pins the two methods the fleet
// probes for on a router.
func TestTimedRouterForwardsOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	for _, name := range []string{"rr", "least-work", "cache-aware", "jsq"} {
		inner, err := cluster.RouterByName(name)
		if err != nil {
			t.Fatal(err)
		}
		wrapped := tr.router(inner).(*timedRouter)
		wa, isWA := inner.(cluster.WorkAware)
		vo, isVO := inner.(cluster.ViewOblivious)
		wantWork, wantOblivious := isWA && wa.NeedsOutstandingWork(), isVO && vo.RouteViewOblivious()
		if wrapped.NeedsOutstandingWork() != wantWork || wrapped.RouteViewOblivious() != wantOblivious {
			t.Errorf("%s: wrapper reports work=%v oblivious=%v, router work=%v oblivious=%v",
				name, wrapped.NeedsOutstandingWork(), wrapped.RouteViewOblivious(), wantWork, wantOblivious)
		}
	}
}

// TestOutputIsTheDocumentedJSON: both runs end in one object with exactly
// the documented keys, carrying exactly the declared metrics.
func TestOutputIsTheDocumentedJSON(t *testing.T) {
	opt := smoke(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, err := runPlain(w, opt)
			if err != nil {
				t.Fatal(err)
			}
			checkResultLine(t, plain, names(endToEnd), units(endToEnd))
			for _, m := range plain.metrics {
				if m.value == 0 {
					t.Errorf("end-to-end metric %s is 0", m.name)
				}
			}
			traced, err := runTraced(w, opt, 0.1)
			if err != nil {
				t.Fatal(err)
			}
			checkResultLine(t, traced, perLayerNames, perLayerUnits)
		})
	}
}

func checkResultLine(t *testing.T, rep *report, names []string, units map[string]string) {
	t.Helper()
	line, err := rep.resultLine()
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &raw); err != nil {
		t.Fatalf("result line does not parse: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := raw[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(raw) != 4 {
		t.Errorf("result line has %d keys, want 4", len(raw))
	}
	var obj resultObject
	if err := json.Unmarshal([]byte(line), &obj); err != nil {
		t.Fatal(err)
	}
	if !obj.Correct || obj.Attempted < 1 || obj.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", obj.Correct, obj.Attempted, obj.Failed)
	}
	if len(obj.Metrics) != len(names) {
		t.Errorf("%d metrics reported, %d declared", len(obj.Metrics), len(names))
	}
	for _, n := range names {
		m, ok := obj.Metrics[n]
		if !ok {
			t.Errorf("metric %s is declared but not reported", n)
		} else if m.Unit != units[n] {
			t.Errorf("metric %s reported in %q, declared in %q", n, m.Unit, units[n])
		}
	}
}
