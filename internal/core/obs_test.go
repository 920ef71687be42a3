package core

// The flight recorder's core-level contract: attaching a recorder
// changes nothing about the served stream (tracing observes scheduling,
// never perturbs it), and the spans it captures satisfy the lifecycle
// conservation laws checked by obs.Verify.

import (
	"reflect"
	"testing"

	"fasttts/internal/memplane"
	"fasttts/internal/obs"
	"fasttts/internal/rng"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

func TestLoopTraceParity(t *testing.T) {
	pol, err := search.New(search.BeamSearch, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	ds := workload.NewDataset(workload.MATH500, rng.New(7))
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Problem: ds.Problems[i], Arrival: float64(i) * 1.5, Tag: i}
	}

	run := func(rec *obs.Recorder) []ServedResult {
		cfg := testConfig(t, pol, FastTTSOptions())
		cfg.KVPlane = memplane.Config{CapacityBytes: 2 << 30}
		cfg.Obs = rec
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.NewLoop(reqs).StepTo(NoHorizon, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	plain := run(nil)
	rec := obs.NewRecorder()
	traced := run(rec)
	if !reflect.DeepEqual(plain, traced) {
		t.Fatal("attaching a recorder perturbed the served stream")
	}

	spans := rec.Spans()
	if len(spans) == 0 {
		t.Fatal("recorder captured nothing")
	}
	if err := obs.Verify(spans); err != nil {
		t.Fatalf("span lifecycle invariants violated: %v", err)
	}
	// One admission, one queue span, one finish, >= 1 slice per request;
	// admissions carry the memory plane's re-prefill penalty.
	counts := map[obs.Kind]int{}
	for _, s := range spans {
		counts[s.Kind]++
	}
	n := len(reqs)
	if counts[obs.KindAdmit] != n || counts[obs.KindQueue] != n || counts[obs.KindFinish] != n {
		t.Fatalf("admit/queue/finish = %d/%d/%d, want %d each",
			counts[obs.KindAdmit], counts[obs.KindQueue], counts[obs.KindFinish], n)
	}
	if counts[obs.KindSlice] < n {
		t.Fatalf("only %d slices for %d requests", counts[obs.KindSlice], n)
	}

	// The attribution pass must reconstruct the served wall latencies
	// exactly from the spans alone.
	attrs := obs.Attribute(spans)
	if len(attrs) != n {
		t.Fatalf("attributed %d requests, want %d", len(attrs), n)
	}
	if err := obs.CheckSums(attrs); err != nil {
		t.Fatal(err)
	}
	for i, a := range attrs {
		r := traced[i]
		if a.Tag != r.Tag || a.Wall != r.WallLatency || a.Finish != r.Finish {
			t.Fatalf("attribution %d: tag/wall/finish %d/%v/%v vs served %d/%v/%v",
				i, a.Tag, a.Wall, a.Finish, r.Tag, r.WallLatency, r.Finish)
		}
	}
}
