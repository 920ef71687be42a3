package fasttts_test

import (
	"fmt"
	"io"
	"log"

	"fasttts"
)

// The quickstart: build a FastTTS deployment and solve one problem.
func Example() {
	sys, err := fasttts.New(fasttts.Config{
		GPU:       "RTX 4090",
		Pair:      fasttts.Pair1_5B1_5B,
		Algorithm: "Beam Search",
		NumBeams:  16,
		Seed:      42,
	})
	if err != nil {
		log.Fatal(err)
	}
	ds, err := fasttts.LoadDataset("AIME24", 7)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sys.Solve(ds.Problems[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Goodput > 0, len(res.Paths) > 0, res.Iterations > 0)
	// Output: true true true
}

// Comparing the vLLM-style baseline against FastTTS on the same problem:
// the answers are identical (algorithmic equivalence), only speed changes.
func Example_baselineComparison() {
	ds, _ := fasttts.LoadDataset("AMC23", 7)
	run := func(mode fasttts.Mode) *fasttts.Result {
		sys, err := fasttts.New(fasttts.Config{NumBeams: 16, Mode: mode, Seed: 42})
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.Solve(ds.Problems[0])
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	base := run(fasttts.ModeBaseline)
	fast := run(fasttts.ModeFastTTS)
	fmt.Println(fast.Latency < base.Latency)
	fmt.Println(base.Top1Correct() == fast.Top1Correct())
	// Output:
	// true
	// true
}

// Serving a request stream with the two-phase preemptible scheduler.
func ExampleServer() {
	ds, _ := fasttts.LoadDataset("AMC23", 7)
	srv, err := fasttts.NewServer(fasttts.Config{NumBeams: 16, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}
	out, err := srv.Run([]fasttts.Request{
		{Problem: ds.Problems[0], ArrivalTime: 0},
		{Problem: ds.Problems[1], ArrivalTime: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(len(out), out[1].QueueDelay > 0)
	// Output: 2 true
}

// The span flight recorder: attach a Recorder to a fleet run and get a
// deterministic request-lifecycle trace — Perfetto-exportable, with
// per-request latency attribution. Tracing never perturbs the run, and
// equal seeds give bit-identical traces, so the span count below is
// pinned.
func ExampleRecorder() {
	ds, _ := fasttts.LoadDataset("MATH500", 7)
	reqs := make([]fasttts.Request, 24)
	for i := range reqs {
		reqs[i] = fasttts.Request{Problem: ds.Problems[i%8], ArrivalTime: float64(i) * 2}
	}
	rec := fasttts.NewRecorder()
	cl, err := fasttts.NewCluster(fasttts.ClusterConfig{
		Devices: []fasttts.DeviceSpec{
			{Config: fasttts.Config{GPU: "RTX 4090", NumBeams: 4, Seed: 1}},
			{Config: fasttts.Config{GPU: "RTX 4070 Ti", NumBeams: 4, Seed: 2}},
			{Config: fasttts.Config{GPU: "RTX 4070 Ti", NumBeams: 4, Seed: 3}},
			{Config: fasttts.Config{GPU: "RTX 3070 Ti", NumBeams: 4, Seed: 4}},
		},
		Router: "least-work",
		Seed:   9,
		Trace:  rec,
	})
	if err != nil {
		log.Fatal(err)
	}
	run, err := cl.Run(reqs)
	if err != nil {
		log.Fatal(err)
	}
	attr := rec.AttributionSummary()
	fmt.Println("spans:", rec.SpanCount())
	fmt.Println("verified:", rec.Verify() == nil)
	fmt.Println("attributed:", attr.Requests, "of", len(run.Results))
	fmt.Println("perfetto:", rec.WritePerfetto(io.Discard) == nil)
	// Output:
	// spans: 288
	// verified: true
	// attributed: 24 of 24
	// perfetto: true
}

// Multi-tenant serving: one Poisson stream of long AIME24 and short
// MATH500 queries served under each admission/ordering policy. SJF
// (First-Finish style) runs the short queries ahead of queued AIME ones
// and cuts mean queue delay versus FCFS on the same trace. Then the same
// problems under a closed loop of 4 clients, and a burst and a flash
// crowd against a MaxInFlight admission limit, which sheds the excess.
func Example_multitenant() {
	aime, _ := fasttts.LoadDataset("AIME24", 7)
	short, _ := fasttts.LoadDataset("MATH500", 7)
	var probs []*fasttts.Problem
	for i := range 8 {
		probs = append(probs, aime.Problems[i], short.Problems[i])
	}
	reqs := fasttts.PoissonRequests(probs, 0.5, 11)
	cfg := fasttts.Config{Pair: fasttts.Pair1_5B1_5B, NumBeams: 16, Seed: 42}
	serve := func(sc fasttts.ServeConfig, reqs []fasttts.Request) fasttts.ServeStats {
		sc.Config = cfg
		srv, err := fasttts.NewServerWith(sc)
		if err != nil {
			log.Fatal(err)
		}
		served, err := srv.Run(reqs)
		if err != nil {
			log.Fatal(err)
		}
		return srv.Stats(served)
	}

	fmt.Printf("%-9s %10s %9s %9s %9s %9s\n", "policy", "mean_q(s)", "p50(s)", "p95(s)", "goodput", "slo_att")
	for _, policy := range []string{"fcfs", "sjf", "priority", "deadline"} {
		st := serve(fasttts.ServeConfig{Policy: policy, SLOLatency: 60}, reqs)
		fmt.Printf("%-9s %10.2f %9.2f %9.2f %9.2f %8.0f%%\n",
			policy, st.MeanQueueDelay, st.P50Latency, st.P95Latency, st.Goodput, 100*st.SLOAttainment)
	}
	srv, err := fasttts.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	served, err := srv.RunClosedLoop(probs, 4, 0)
	if err != nil {
		log.Fatal(err)
	}
	st := srv.Stats(served)
	fmt.Printf("closed loop: served %d, makespan %.1fs, goodput %.2f tok/s, mean wall latency %.1fs\n",
		st.Served, st.Makespan, st.Goodput, st.MeanLatency)
	for _, tc := range []struct {
		name string
		reqs []fasttts.Request
	}{
		{"burst of 8", fasttts.BurstRequests(probs[:8], 8, 0)},
		{"8x flash crowd", fasttts.FlashCrowdRequests(probs, 0.05, 20, 30, 8, 11)},
	} {
		st := serve(fasttts.ServeConfig{MaxInFlight: 3}, tc.reqs)
		fmt.Printf("%s, MaxInFlight 3: admitted %d, shed %d\n", tc.name, st.Served, st.Rejected)
	}
	// Output:
	// policy     mean_q(s)    p50(s)    p95(s)   goodput   slo_att
	// fcfs           74.92     79.12    156.77    907.51       38%
	// sjf            51.50     31.34    179.27    934.86       50%
	// priority       74.92     79.12    156.77    907.51       38%
	// deadline       74.92     79.12    156.77    907.51       38%
	// closed loop: served 16, makespan 189.3s, goodput 893.01 tok/s, mean wall latency 43.5s
	// burst of 8, MaxInFlight 3: admitted 3, shed 5
	// 8x flash crowd, MaxInFlight 3: admitted 8, shed 8
}

// Fleet serving: a prefix-heavy stream (32 requests over 5 hot prompts)
// across four unequal devices — two RTX 4090s, one throttled to quarter
// speed, a 4070 Ti and a 3070 Ti — under each router. Load-aware routers
// flatten the straggler's imbalance that round-robin suffers, and prefix
// affinity also serves repeated prompts from cache. A second run
// fail-stops device 0 at t=60; its unfinished requests are requeued to
// the survivors.
func Example_fleet() {
	ds, _ := fasttts.LoadDataset("AMC23", 7)
	probs := make([]*fasttts.Problem, 32)
	for i := range probs {
		probs[i] = ds.Problems[i%5]
	}
	reqs := fasttts.PoissonRequests(probs, 0.6, 11)
	devices := []fasttts.DeviceSpec{
		{Config: fasttts.Config{GPU: "RTX 4090", NumBeams: 16, Seed: 42}},
		{Config: fasttts.Config{GPU: "RTX 4090", NumBeams: 16, Seed: 43}, Slowdown: 4},
		{Config: fasttts.Config{GPU: "RTX 4070 Ti", NumBeams: 16, Seed: 44}},
		{Config: fasttts.Config{GPU: "RTX 3070 Ti", NumBeams: 16, Seed: 45}},
	}
	run := func(devices []fasttts.DeviceSpec, router string) fasttts.FleetStats {
		cl, err := fasttts.NewCluster(fasttts.ClusterConfig{Devices: devices, Router: router, Seed: 9})
		if err != nil {
			log.Fatal(err)
		}
		fr, err := cl.Run(reqs)
		if err != nil {
			log.Fatal(err)
		}
		return fr.Stats()
	}

	fmt.Printf("%-11s %7s %9s %9s %9s %6s %6s\n", "router", "served", "p50(s)", "p95(s)", "goodput", "imb", "hit%")
	for _, router := range []string{"rr", "jsq", "p2c", "least-work", "prefix"} {
		st := run(devices, router)
		fmt.Printf("%-11s %7d %9.2f %9.2f %9.2f %6.2f %5.0f%%\n",
			router, st.Served, st.P50Latency, st.P95Latency, st.Goodput, st.ImbalanceCV, 100*st.PrefixHitRate)
	}
	failing := append([]fasttts.DeviceSpec(nil), devices...)
	failing[0].FailAt = 60
	st := run(failing, "p2c")
	fmt.Printf("p2c, device 0 fails at t=60: served %d of %d, %d requeued, %d failed, p95 %.2fs\n",
		st.Served, len(reqs), st.Requeues, st.FailedDevices, st.P95Latency)
	for _, d := range st.PerDevice {
		fmt.Printf("  device %d: served %2d, util %3.0f%%, failed %v\n", d.Device, d.Served, 100*d.Utilization, d.Failed)
	}
	// Output:
	// router       served    p50(s)    p95(s)   goodput    imb   hit%
	// rr               32     47.15    159.60   1207.07   0.35    37%
	// jsq              32     41.98    140.57   1382.55   0.26    43%
	// p2c              32     50.22     96.24   1839.83   0.05    48%
	// least-work       32     47.97     94.06   1851.27   0.08    48%
	// prefix           32     48.68     92.87   1869.00   0.13    84%
	// p2c, device 0 fails at t=60: served 32 of 32, 7 requeued, 1 failed, p95 171.44s
	//   device 0: served  6, util  97%, failed true
	//   device 1: served  5, util  66%, failed false
	//   device 2: served  9, util  70%, failed false
	//   device 3: served 12, util  94%, failed false
}

// The elastic control plane: one diurnal (sinusoidal-rate) stream served
// three ways. A static fleet provisioned for the peak pays for idle
// troughs. A threshold controller starts from two founders and scales a
// two-device warm pool in and out, attaining the same SLO on fewer
// device-seconds. A budget governor keeps membership fixed and narrows
// the per-request search width while the backlog is long. Equal seeds
// reproduce the action log bit for bit.
func Example_autoscale() {
	ds, _ := fasttts.LoadDataset("MATH500", 7)
	probs := make([]*fasttts.Problem, 48)
	for i := range probs {
		probs[i] = ds.Problems[i]
	}
	reqs := fasttts.SinusoidalRequests(probs, 0.22, 1, 240, 11)
	founders := []fasttts.DeviceSpec{
		{Config: fasttts.Config{GPU: "RTX 4090", NumBeams: 8, Seed: 42}, Name: "edge-a"},
		{Config: fasttts.Config{GPU: "RTX 4070 Ti", NumBeams: 8, Seed: 43}, Name: "edge-b"},
	}
	warm := []fasttts.DeviceSpec{
		{Config: fasttts.Config{GPU: "RTX 4090", NumBeams: 8, Seed: 60}, Name: "warm", Count: 2},
	}
	run := func(label string, devices []fasttts.DeviceSpec, as *fasttts.AutoscaleConfig) *fasttts.FleetRun {
		cl, err := fasttts.NewCluster(fasttts.ClusterConfig{
			Devices: devices, Router: "least-work", Seed: 5, SLOLatency: 120, Autoscale: as,
		})
		if err != nil {
			log.Fatal(err)
		}
		fr, err := cl.Run(reqs)
		if err != nil {
			log.Fatal(err)
		}
		st := fr.Stats()
		actions := "-"
		if c := st.Control; c != nil {
			actions = fmt.Sprintf("%du/%dd/%dt", c.ScaleUps, c.ScaleDowns, c.TierChanges)
		}
		fmt.Printf("%-12s %7d %7d %9.1f %8.0f%% %9.0f %8s\n",
			label, st.Served, st.Rejected, st.P95Latency, 100*st.SLOAttainment, st.DeviceSeconds, actions)
		return fr
	}

	fmt.Printf("%-12s %7s %7s %9s %9s %9s %8s\n", "fleet", "served", "reject", "p95(s)", "slo_att", "devsec", "actions")
	run("static-peak", append(append([]fasttts.DeviceSpec(nil), founders...), warm...), nil)
	elastic := run("threshold", founders, &fasttts.AutoscaleConfig{
		Policy: "threshold", Interval: 30, WarmPool: warm, WarmupDelay: 10,
	})
	run("budget", founders, &fasttts.AutoscaleConfig{Policy: "budget", Interval: 15})
	for _, a := range elastic.Actions {
		fmt.Printf("t=%-6.1f %-10s requested %d, applied %d, devices %v\n",
			a.Time, a.Action, a.Requested, a.Applied, a.Devices)
	}
	for _, d := range elastic.Stats().PerDevice {
		fmt.Printf("%-14s live [%5.1f, %5.1f]s busy %5.1fs served %2d drained %v\n",
			d.Name, d.LiveStart, d.LiveStart+d.LiveSeconds, d.BusyTime, d.Served, d.Drained)
	}
	// Output:
	// fleet         served  reject    p95(s)   slo_att    devsec  actions
	// static-peak       48       0      12.5      100%       903        -
	// threshold         48       0      52.0      100%       687 2u/1d/0t
	// budget            48       0      56.4      100%       446 0u/0d/3t
	// t=60.0   scale-up   requested 1, applied 1, devices [2]
	// t=150.0  scale-up   requested 1, applied 1, devices [3]
	// t=240.0  scale-down requested 1, applied 1, devices [3]
	// edge-a         live [  0.0, 225.7]s busy 144.6s served 27 drained false
	// edge-b         live [  0.0, 225.7]s busy 131.1s served 12 drained false
	// warm:warm#0+0  live [ 70.0, 225.7]s busy  52.3s served  9 drained false
	// warm:warm#1+1  live [160.0, 240.0]s busy   0.0s served  0 drained true
}
