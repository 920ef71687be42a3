package fasttts

// Public-API contract of the span flight recorder: tracing never
// perturbs a run (every committed golden replays byte-identically with
// a recorder attached), traces themselves are deterministic, and the
// Perfetto/attribution surfaces work end to end.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
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

// TestRecorderTraceDeterministic pins the public half of the
// trace-determinism contract: two runs with equal options export
// identical Perfetto bytes.
func TestRecorderTraceDeterministic(t *testing.T) {
	export := func() []byte {
		rec := NewRecorder()
		if _, err := RunScenario("fleet-churn", ScenarioOptions{
			Target: ScenarioCluster, Requests: 20, Seed: 7, Trace: rec,
		}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WritePerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := export()
	if !bytes.Equal(first, export()) {
		t.Fatal("Perfetto export differs between two runs with equal options")
	}
	var doc map[string]any
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatalf("Perfetto export is not valid JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Fatal("Perfetto export missing traceEvents")
	}
}

// TestRecorderConcurrentReads: a finished run's recorder serves its read
// methods to several goroutines at once, and every reader sees the same
// trace and attribution. A server run leaves the shared merge and
// attribution unfilled, so the readers race to fill them (run under
// -race).
func TestRecorderConcurrentReads(t *testing.T) {
	rec := NewRecorder()
	if _, err := RunScenario("fleet-churn", ScenarioOptions{
		Target: ScenarioServer, Requests: 20, Seed: 7, Trace: rec,
	}); err != nil {
		t.Fatal(err)
	}
	const readers = 4
	traces := make([][]byte, readers)
	attrs := make([][]RequestAttribution, readers)
	errs := make([]error, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			if i%2 == 0 {
				errs[i] = rec.WritePerfetto(&buf)
				attrs[i] = rec.Attribution()
			} else {
				attrs[i] = rec.Attribution()
				errs[i] = rec.WritePerfetto(&buf)
			}
			traces[i] = buf.Bytes()
			if errs[i] == nil {
				errs[i] = rec.Verify()
			}
		}()
	}
	wg.Wait()
	for i := 0; i < readers; i++ {
		if errs[i] != nil {
			t.Fatalf("reader %d: %v", i, errs[i])
		}
		if !bytes.Equal(traces[i], traces[0]) || !slices.Equal(attrs[i], attrs[0]) {
			t.Fatalf("reader %d saw a different trace or attribution than reader 0", i)
		}
	}
	if len(attrs[0]) == 0 {
		t.Fatal("no request attributed")
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
		acc := metrics.NewServeAccum(metrics.ModeStreaming, 0)
		for _, r := range run.Fleet.Results {
			byTag[r.Tag] = r
			acc.Observe(metrics.ServeSample{
				Arrival: r.ArrivalTime, Start: r.StartTime, Finish: r.FinishTime,
				Tokens: r.UsefulTokens, Rejected: r.Rejected,
			})
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
		exact, sketch := run.Stats, acc.Stats()
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
