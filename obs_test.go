package fasttts

// Public-API contract of the span flight recorder: tracing never
// perturbs a run (every committed golden replays byte-identically with
// a recorder attached), traces themselves are deterministic across the
// fleet engines, and the Perfetto/attribution surfaces work end to end.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	"fasttts/internal/metrics"
)

// TestGoldenScenarioTracesWithRecorder replays every golden with the
// flight recorder attached. The committed bytes must reproduce exactly:
// tracing observes scheduling, it never perturbs it.
func TestGoldenScenarioTracesWithRecorder(t *testing.T) {
	if *updateGolden {
		t.Skip("regenerating goldens")
	}
	for _, info := range Scenarios() {
		for _, target := range []ScenarioTarget{ScenarioServer, ScenarioCluster} {
			info, target := info, target
			t.Run(fmt.Sprintf("%s/%s", info.Name, target), func(t *testing.T) {
				rec := NewRecorder()
				run, err := RunScenario(info.Name, ScenarioOptions{Target: target, Trace: rec})
				if err != nil {
					t.Fatal(err)
				}
				got, err := run.TraceJSONL()
				if err != nil {
					t.Fatal(err)
				}
				want, err := os.ReadFile(goldenPath(info.Name, target))
				if err != nil {
					t.Fatalf("missing golden trace: %v", err)
				}
				if !bytes.Equal(got, want) {
					t.Fatal("attaching a recorder changed the golden trace bytes")
				}
				if rec.SpanCount() == 0 {
					t.Fatal("recorder captured nothing")
				}
				if err := rec.Verify(); err != nil {
					t.Fatalf("span lifecycle invariants violated: %v", err)
				}
				if target == ScenarioCluster {
					if run.FleetStats.Attribution == nil {
						t.Fatal("traced fleet run missing FleetStats.Attribution")
					}
					if run.FleetStats.Attribution.Requests != run.Stats.Served {
						t.Fatalf("attributed %d requests, served %d",
							run.FleetStats.Attribution.Requests, run.Stats.Served)
					}
				}
			})
		}
	}
}

// TestRecorderTraceDeterministicAcrossEngines pins the public half of
// the trace-determinism contract: the Perfetto export bytes are
// identical across runs and across Parallelism settings.
func TestRecorderTraceDeterministicAcrossEngines(t *testing.T) {
	export := func(parallelism int) []byte {
		rec := NewRecorder()
		if _, err := RunScenario("fleet-churn", ScenarioOptions{
			Target: ScenarioCluster, Requests: 20, Seed: 7,
			Parallelism: parallelism, Trace: rec,
		}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WritePerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := export(0)
	for _, p := range []int{4, -1} {
		if !bytes.Equal(seq, export(p)) {
			t.Fatalf("Perfetto export differs between sequential and Parallelism=%d", p)
		}
	}
	var doc map[string]any
	if err := json.Unmarshal(seq, &doc); err != nil {
		t.Fatalf("Perfetto export is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("Perfetto export missing traceEvents")
	}
}

// TestRecorderAttribution exercises the public attribution surface on
// every catalog scenario's fleet run (seed 42, default size): spans
// verify, components sum to each request's wall latency within 1 ulp,
// every served request is attributed exactly once, and the rollup agrees
// with the fleet stats' copy. The same loop holds the streaming sketch
// to its error bound: each run's served stream, summarized through the
// sketch, lands within metrics.SketchRelErr of the exact percentiles and
// mean.
func TestRecorderAttribution(t *testing.T) {
	rec := NewRecorder()
	for _, info := range Scenarios() {
		rec.Reset()
		run, err := RunScenario(info.Name, ScenarioOptions{Target: ScenarioCluster, Seed: 42, Trace: rec})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Verify(); err != nil {
			t.Errorf("%s: span lifecycle invariants violated: %v", info.Name, err)
		}
		attrs := rec.Attribution()
		if len(attrs) != run.Stats.Served {
			t.Errorf("%s: attributed %d requests, served %d", info.Name, len(attrs), run.Stats.Served)
		}
		byTag := map[int]FleetResult{}
		samples := make([]metrics.ServeSample, len(run.Fleet.Results))
		for i, r := range run.Fleet.Results {
			byTag[r.Tag] = r
			samples[i] = metrics.ServeSample{
				Arrival: r.ArrivalTime, Start: r.StartTime, Finish: r.FinishTime,
				Tokens: r.UsefulTokens, Rejected: r.Rejected,
			}
		}
		lost := 0.0
		for _, a := range attrs {
			lost += a.LostWork
			sum := (((a.Queue + a.Service) + a.Reprefill) + a.Straggler) + a.Preemption
			tol := math.Nextafter(math.Abs(a.Wall), math.Inf(1)) - math.Abs(a.Wall)
			if math.Abs(sum-a.Wall) > tol {
				t.Errorf("%s tag %d: components sum to %v, wall is %v", info.Name, a.Tag, sum, a.Wall)
			}
			r, ok := byTag[a.Tag]
			if !ok || r.Rejected {
				t.Errorf("%s tag %d attributed but not served", info.Name, a.Tag)
				continue
			}
			if a.Wall != r.WallLatency || a.Device != r.Device || a.Requeues != r.Requeues {
				t.Errorf("%s tag %d: attribution wall/device/requeues %v/%d/%d vs result %v/%d/%d",
					info.Name, a.Tag, a.Wall, a.Device, a.Requeues, r.WallLatency, r.Device, r.Requeues)
			}
		}
		if got := rec.AttributionSummary(); got != *run.FleetStats.Attribution {
			t.Errorf("%s: AttributionSummary %+v != FleetStats.Attribution %+v",
				info.Name, got, *run.FleetStats.Attribution)
		}
		if run.FleetStats.Requeues > 0 && lost == 0 {
			t.Errorf("%s: fleet saw requeues but attribution found no lost work", info.Name)
		}
		exact, sketch := run.Stats, metrics.SummarizeServeStreaming(samples, 0)
		for _, q := range []struct {
			name          string
			sketch, exact float64
		}{
			{"p50", sketch.P50Latency, exact.P50Latency},
			{"p95", sketch.P95Latency, exact.P95Latency},
			{"p99", sketch.P99Latency, exact.P99Latency},
			{"mean", sketch.MeanLatency, exact.MeanLatency},
		} {
			if math.Abs(q.sketch-q.exact) > metrics.SketchRelErr*math.Max(q.exact, 1e-6) {
				t.Errorf("%s: sketch %s %v vs exact %v, outside the %v relative bound",
					info.Name, q.name, q.sketch, q.exact, metrics.SketchRelErr)
			}
		}
	}
	// Reset empties the recorder for the next run.
	rec.Reset()
	if rec.SpanCount() != 0 {
		t.Fatalf("SpanCount after Reset = %d", rec.SpanCount())
	}
	// A nil recorder is valid everywhere and reports emptiness.
	var nilRec *Recorder
	if nilRec.SpanCount() != 0 || nilRec.Verify() != nil || len(nilRec.Attribution()) != 0 {
		t.Fatal("nil Recorder must behave as an empty trace")
	}
}
