package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"fasttts"
)

// TestReportJSONShape table-tests the -json document builders: fleet
// reports must carry the effective strategy name and a run-level cache
// hit rate so offline tooling can join them against Perfetto traces
// without digging into the stats blob.
func TestReportJSONShape(t *testing.T) {
	fleetStats := fasttts.FleetStats{CacheHitRate: 0.25}
	fleetStats.Served = 10
	cases := []struct {
		name    string
		report  reportJSON
		want    map[string]any // top-level key -> expected value (nil = just present)
		absent  []string       // top-level keys that must not serialize
		runWant map[string]any // first run's key -> expected value
		runskip []string       // first run keys that must not serialize
	}{
		{
			name:   "server open loop default strategy",
			report: withRun(serveReport("AMC23", 16, false, 0.5, 42, ""), runJSON{Policy: "fcfs", Stats: fasttts.ServeStats{Served: 16}}),
			want: map[string]any{
				"mode": "open", "dataset": "AMC23", "requests": 16.0,
				"rate": 0.5, "seed": 42.0, "strategy": "full-beam",
			},
			absent:  []string{"devices", "attribution"},
			runWant: map[string]any{"policy": "fcfs"},
			runskip: []string{"router", "cache_hit_rate"},
		},
		{
			name:   "server closed loop drops rate",
			report: withRun(serveReport("MATH500", 8, true, 0.5, 7, "first-finish:4"), runJSON{Policy: "sjf", Stats: fasttts.ServeStats{}}),
			want: map[string]any{
				"mode": "closed", "strategy": "first-finish:4",
			},
			absent: []string{"rate", "devices"},
		},
		{
			name: "fleet run lifts strategy and cache hit rate",
			report: withRun(
				fleetReport("AIME24", 24, 1.5, 9, []string{"RTX 4090", "RTX 3070 Ti"}, "hedged"),
				fleetRunJSON("least-work", fleetStats)),
			want: map[string]any{
				"mode": "fleet", "strategy": "hedged",
				"devices": []any{"RTX 4090", "RTX 3070 Ti"},
			},
			runWant: map[string]any{"router": "least-work", "cache_hit_rate": 0.25},
			runskip: []string{"policy"},
		},
		{
			name: "fleet zero cache hit rate still serializes",
			report: withRun(
				fleetReport("AMC23", 4, 0.5, 42, []string{"RTX 4090"}, ""),
				fleetRunJSON("rr", fasttts.FleetStats{})),
			want:    map[string]any{"strategy": "full-beam"},
			runWant: map[string]any{"cache_hit_rate": 0.0},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			raw, err := json.Marshal(tc.report)
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]any
			if err := json.Unmarshal(raw, &doc); err != nil {
				t.Fatal(err)
			}
			for k, want := range tc.want {
				got, ok := doc[k]
				if !ok {
					t.Errorf("report missing key %q", k)
					continue
				}
				if want != nil && !equalJSON(got, want) {
					t.Errorf("report[%q] = %v, want %v", k, got, want)
				}
			}
			for _, k := range tc.absent {
				if _, ok := doc[k]; ok {
					t.Errorf("report key %q should be omitted", k)
				}
			}
			runs, ok := doc["runs"].([]any)
			if !ok || len(runs) == 0 {
				t.Fatalf("report runs missing: %v", doc["runs"])
			}
			run, ok := runs[0].(map[string]any)
			if !ok {
				t.Fatalf("run is not an object: %v", runs[0])
			}
			if _, ok := run["stats"]; !ok {
				t.Error("run missing stats blob")
			}
			for k, want := range tc.runWant {
				got, ok := run[k]
				if !ok {
					t.Errorf("run missing key %q", k)
					continue
				}
				if want != nil && got != want {
					t.Errorf("run[%q] = %v, want %v", k, got, want)
				}
			}
			for _, k := range tc.runskip {
				if _, ok := run[k]; ok {
					t.Errorf("run key %q should be omitted", k)
				}
			}
		})
	}
}

// TestEffectiveStrategy pins the empty-flag default.
func TestEffectiveStrategy(t *testing.T) {
	if got := effectiveStrategy(""); got != "full-beam" {
		t.Errorf(`effectiveStrategy("") = %q, want "full-beam"`, got)
	}
	if got := effectiveStrategy("hedged"); got != "hedged" {
		t.Errorf(`effectiveStrategy("hedged") = %q`, got)
	}
}

// TestFleetStatsBlobCarriesJoinKeys guards the join contract end to end:
// the marshalled stats blob itself exposes the cache-hit fields the
// run-level lift mirrors.
func TestFleetStatsBlobCarriesJoinKeys(t *testing.T) {
	st := fasttts.FleetStats{CacheHitRate: 0.5, CacheHitTokens: 100}
	raw, err := json.Marshal(fleetRunJSON("prefix", st))
	if err != nil {
		t.Fatal(err)
	}
	var run map[string]any
	if err := json.Unmarshal(raw, &run); err != nil {
		t.Fatal(err)
	}
	blob, ok := run["stats"].(map[string]any)
	if !ok {
		t.Fatalf("stats blob missing: %s", raw)
	}
	if blob["CacheHitRate"] != 0.5 {
		t.Errorf("stats blob CacheHitRate = %v, want 0.5", blob["CacheHitRate"])
	}
	if run["cache_hit_rate"] != 0.5 {
		t.Errorf("run cache_hit_rate = %v, want 0.5", run["cache_hit_rate"])
	}
}

// TestRunFleet drives fleet mode end to end through run: a hedged fleet
// with a threshold controller and a warm pool, compared under a second
// router, decoded from the -json report.
func TestRunFleet(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-n", "4", "-devices", "RTX 4090,RTX 4090", "-strategy", "hedged",
		"-controller", "threshold", "-warm", "RTX 4090", "-compare", "rr", "-json"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var report struct {
		Mode     string
		Strategy string
		Devices  []string
		Runs     []struct {
			Router string
			Stats  fasttts.FleetStats
		}
	}
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Fatalf("decoding the report: %v\n%s", err, out.Bytes())
	}
	if report.Mode != "fleet" || report.Strategy != "hedged" || len(report.Devices) != 2 {
		t.Errorf("report header = %q/%q/%v, want fleet/hedged/2 devices", report.Mode, report.Strategy, report.Devices)
	}
	if len(report.Runs) != 2 {
		t.Fatalf("%d runs, want 2 (primary + one -compare)", len(report.Runs))
	}
	for i, r := range report.Runs {
		if r.Router != "rr" {
			t.Errorf("run %d router = %q, want rr", i, r.Router)
		}
		if r.Stats.Control == nil {
			t.Errorf("run %d has no control stats under -controller threshold", i)
		}
		if got := r.Stats.Served + r.Stats.Rejected; got != 4 {
			t.Errorf("run %d accounts for %d requests, want 4", i, got)
		}
	}
}

// TestRunAttributionTable drives -attr without -json: the primary run's
// latency attribution prints as a table whose five component rows sum to
// its wall row.
func TestRunAttributionTable(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-n", "3", "-beams", "4", "-attr"}, &out); err != nil {
		t.Fatal(err)
	}
	seconds := map[string]float64{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) == 3 && strings.HasSuffix(f[2], "%") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				seconds[f[0]] = v
			}
		}
	}
	sum := 0.0
	for _, c := range []string{"queue", "service", "re-prefill", "straggler", "preemption"} {
		v, ok := seconds[c]
		if !ok {
			t.Errorf("no %q row in\n%s", c, out.String())
		}
		sum += v
	}
	if wall := seconds["wall"]; wall <= 0 || math.Abs(sum-wall) > 0.05 {
		t.Errorf("components sum to %.2fs, wall row reads %.2fs\n%s", sum, wall, out.String())
	}
}

// TestServeCLIRejectsHostileInput pins that bad flag values come back as
// errors from run: none panics and none is silently served.
func TestServeCLIRejectsHostileInput(t *testing.T) {
	fleet := []string{"-n", "4", "-devices", "RTX 4090,RTX 4090"}
	for _, args := range [][]string{
		{"-n", "-1"},
		{"-n", "4", "-devices", ","},
		append(fleet, "-fail", "9:10"),
		append(fleet, "-fail", "1:inf"),
		append(fleet, "-strategy", "hedged:"),
		append(fleet, "-slow", "0:NaN"),
		{"-n", "4", "-rate", "0"},
		append(fleet, "-closed"),
		append(fleet, "-controller", "bogus"),
	} {
		t.Run(fmt.Sprint(args), func(t *testing.T) {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("run panicked: %v", p)
				}
			}()
			if err := run(args, io.Discard); err == nil {
				t.Error("run accepted hostile input")
			}
		})
	}
}

func withRun(r reportJSON, run runJSON) reportJSON {
	r.Runs = append(r.Runs, run)
	return r
}

func equalJSON(got, want any) bool {
	g, _ := json.Marshal(got)
	w, _ := json.Marshal(want)
	return string(g) == string(w)
}
