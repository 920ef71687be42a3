// Command fastttsserve load-tests the serving stack: it generates an
// open-loop (Poisson) or closed-loop (fixed-concurrency) request stream
// over a benchmark dataset and serves it either on a single multi-tenant
// device under a chosen admission/ordering policy, or — with -devices —
// across a heterogeneous edge fleet under a chosen router, with optional
// straggler and fail-stop injection. It prints per-request telemetry plus
// the server- or fleet-level aggregates, or the full stats struct as JSON
// with -json. Latency percentiles and means default to quantile sketches
// (within 1% of exact); -exact sorts every latency instead.
//
// Usage:
//
//	fastttsserve -n 32 -rate 0.5 -policy sjf
//	fastttsserve -n 32 -rate 0.5 -exact
//	fastttsserve -n 16 -closed -concurrency 4 -think 1
//	fastttsserve -n 24 -policy fcfs -compare sjf -slo 120 -json
//	fastttsserve -n 32 -devices "RTX 4090,RTX 4090,RTX 4070 Ti,RTX 3070 Ti" \
//	    -router prefix -compare rr,p2c -slow 1:4 -fail 3:200
//	fastttsserve -n 48 -devices "RTX 4090,RTX 4070 Ti" -router least-work \
//	    -controller threshold -warm "RTX 4090,RTX 4090" -control-interval 20 -slo 120
//	fastttsserve -n 24 -strategy first-finish
//	fastttsserve -n 24 -devices "RTX 4090,RTX 4090,RTX 3070 Ti" \
//	    -strategy hedged -slow 2:4
//	fastttsserve -n 32 -devices "RTX 4090,RTX 4070 Ti" -kv-plane \
//	    -trace-out trace.json -attr
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fasttts"
)

func main() {
	var (
		gpu         = flag.String("gpu", "RTX 4090", "GPU: RTX 4090, RTX 4070 Ti, RTX 3070 Ti")
		pair        = flag.String("pair", "1.5B+1.5B", "model pair: 1.5B+1.5B, 1.5B+7B, 7B+1.5B")
		alg         = flag.String("alg", "Beam Search", "search algorithm")
		beams       = flag.Int("beams", 16, "number of beams per request")
		mode        = flag.String("mode", "fasttts", "fasttts or baseline")
		dataset     = flag.String("dataset", "AMC23", "dataset: AIME24, AMC23, MATH500, HumanEval")
		n           = flag.Int("n", 16, "number of requests")
		seed        = flag.Uint64("seed", 42, "random seed (deployment and arrivals)")
		policy      = flag.String("policy", "fcfs", "serve policy: fcfs, sjf, priority, deadline")
		strategy    = flag.String("strategy", "", "test-time-compute strategy: full-beam, first-finish[:k], deadline, hedged (empty = full beam; hedged needs -devices with >= 2 GPUs)")
		compare     = flag.String("compare", "", "comma-separated extra policies (or, with -devices, routers) to run on the same trace")
		rate        = flag.Float64("rate", 0.5, "open-loop Poisson arrival rate, requests/s")
		closed      = flag.Bool("closed", false, "closed-loop (fixed-concurrency) instead of open-loop")
		concurrency = flag.Int("concurrency", 4, "closed-loop client count")
		think       = flag.Float64("think", 0, "closed-loop think time, seconds")
		maxInFlight = flag.Int("max-inflight", 0, "admission limit per device (0 = unlimited)")
		slo         = flag.Float64("slo", 0, "wall-latency SLO target in seconds (0 = none)")
		verbose     = flag.Bool("v", false, "print per-request (and per-device) telemetry")
		jsonOut     = flag.Bool("json", false, "emit the full stats struct as JSON instead of tables")
		traceOut    = flag.String("trace-out", "", "write a Perfetto/Chrome trace of the primary run (first -policy/-router) to this file")
		attr        = flag.Bool("attr", false, "report the primary run's latency attribution (wall = queue + service + re-prefill + straggler + preemption)")
		devices     = flag.String("devices", "", "comma-separated fleet GPU names; non-empty selects fleet mode")
		router      = flag.String("router", "rr", "fleet router: single, rr, least-work, jsq, p2c, prefix, cache-aware")
		kvPlane     = flag.Bool("kv-plane", false, "enable the per-device KV-cache memory plane (capacity auto-sized from the device's KV budget)")
		kvPlaneB    = flag.Int64("kv-plane-bytes", 0, "pin the KV memory-plane capacity in bytes (implies -kv-plane)")
		fail        = flag.String("fail", "", "fail-stop injections, dev:time pairs (e.g. 1:200,3:350)")
		slow        = flag.String("slow", "", "straggler factors, dev:factor pairs (e.g. 1:4)")
		controller  = flag.String("controller", "", "elastic control policy: static, threshold, pid, budget (empty = no controller)")
		warm        = flag.String("warm", "", "comma-separated warm-pool GPU names the controller may scale into")
		ctlInterval = flag.Float64("control-interval", 20, "control period in fleet seconds")
		warmup      = flag.Float64("warmup", 5, "warm-up delay before a scaled-up device becomes routable")
		minDevices  = flag.Int("min-devices", 0, "drain floor for scale-down (0 = default 1)")
		maxDevices  = flag.Int("max-devices", 0, "cap on routable+warming devices (0 = fleet + warm pool)")
		maxTier     = flag.Int("max-tier", 0, "deepest compute-budget degradation tier (0 = default 2)")
		exact       = flag.Bool("exact", false, "exact sort-based percentiles instead of the default streaming sketch (<1% relative error)")
	)
	flag.Parse()

	// The load-test tool defaults to the streaming sketch and -exact
	// restores the sort path. Library and scenario/golden defaults remain
	// exact.
	metricsMode := fasttts.MetricsStreaming
	if *exact {
		metricsMode = fasttts.MetricsExact
	}

	if !*closed && *rate <= 0 {
		fatal(fmt.Errorf("open-loop -rate must be positive (got %v)", *rate))
	}
	if *closed && *concurrency < 1 {
		fatal(fmt.Errorf("closed-loop -concurrency must be at least 1 (got %d)", *concurrency))
	}
	ds, err := fasttts.LoadDataset(*dataset, 7)
	if err != nil {
		fatal(err)
	}
	// Tracing is opt-in: a recorder only exists when a trace or the
	// attribution report was asked for, and it is attached to the primary
	// run only so -compare runs don't interleave their spans.
	var rec *fasttts.Recorder
	if *traceOut != "" || *attr {
		rec = fasttts.NewRecorder()
	}
	probs := make([]*fasttts.Problem, *n)
	for i := range probs {
		probs[i] = ds.Problems[i%len(ds.Problems)]
	}

	baseCfg := func(seed uint64) fasttts.Config {
		return fasttts.Config{
			GPU:          *gpu,
			Pair:         fasttts.Pair(*pair),
			Algorithm:    *alg,
			NumBeams:     *beams,
			Mode:         fasttts.Mode(*mode),
			Seed:         seed,
			Strategy:     *strategy,
			KVPlane:      *kvPlane,
			KVPlaneBytes: *kvPlaneB,
		}
	}

	if *devices != "" {
		if *closed {
			fatal(fmt.Errorf("fleet mode is open-loop only; drop -closed"))
		}
		runFleet(fleetArgs{
			gpus: splitList(*devices), router: *router, compare: splitList(*compare),
			policy: *policy, strategy: *strategy, maxInFlight: *maxInFlight,
			fail: *fail, slow: *slow,
			controller: *controller, warm: splitList(*warm),
			ctlInterval: *ctlInterval, warmup: *warmup,
			minDevices: *minDevices, maxDevices: *maxDevices, maxTier: *maxTier,
			probs: probs, rate: *rate, seed: *seed, slo: *slo,
			dataset: *dataset, base: baseCfg, verbose: *verbose, jsonOut: *jsonOut,
			metrics: metricsMode, trace: rec, traceOut: *traceOut, attr: *attr,
		})
		return
	}

	policies := append([]string{*policy}, splitList(*compare)...)

	if !*jsonOut {
		if *closed {
			fmt.Printf("closed loop: %d requests, %d clients, think %.1fs, %s on %s\n",
				*n, *concurrency, *think, *dataset, *gpu)
		} else {
			fmt.Printf("open loop: %d requests, Poisson rate %.2f req/s, %s on %s\n",
				*n, *rate, *dataset, *gpu)
		}
		fmt.Printf("metrics: %s\n\n", describeMetrics(metricsMode))
		fmt.Printf("%-10s %9s %7s %7s %6s %9s %9s %9s %9s %9s %8s %6s\n",
			"policy", "metrics", "served", "reject", "nonfin", "mean_q(s)", "p50(s)", "p95(s)", "p99(s)", "goodput", "slo_att", "mksp")
	}
	report := serveReport(*dataset, *n, *closed, *rate, *seed, *strategy)
	for i, pol := range policies {
		var tr *fasttts.Recorder
		if i == 0 {
			tr = rec
		}
		srv, err := fasttts.NewServerWith(fasttts.ServeConfig{
			Config:      baseCfg(*seed),
			Policy:      pol,
			MaxInFlight: *maxInFlight,
			SLOLatency:  *slo,
			Metrics:     metricsMode,
			Trace:       tr,
		})
		if err != nil {
			fatal(err)
		}
		var served []fasttts.ServedResult
		if *closed {
			served, err = srv.RunClosedLoop(probs, *concurrency, *think)
		} else {
			served, err = srv.Run(fasttts.PoissonRequests(probs, *rate, *seed))
		}
		if err != nil {
			fatal(err)
		}
		st := srv.Stats(served)
		if *jsonOut {
			report.Runs = append(report.Runs, runJSON{Policy: pol, Stats: st})
			continue
		}
		fmt.Printf("%-10s %9s %7d %7d %6d %9.2f %9.2f %9.2f %9.2f %9.2f %7.0f%% %6.0f\n",
			pol, string(metricsMode), st.Served, st.Rejected, st.NonFinite, st.MeanQueueDelay,
			st.P50Latency, st.P95Latency, st.P99Latency,
			st.Goodput, 100*st.SLOAttainment, st.Makespan)
		if *verbose {
			fmt.Printf("\n%5s %9s %9s %9s %9s %9s %7s\n",
				"req", "arrival", "start", "finish", "queued", "service", "slices")
			for i, sv := range served {
				if sv.Rejected {
					fmt.Printf("%5d %9.2f %30s\n", i, sv.ArrivalTime, "rejected (admission)")
					continue
				}
				fmt.Printf("%5d %9.2f %9.2f %9.2f %9.2f %9.2f %7d\n",
					i, sv.ArrivalTime, sv.StartTime, sv.FinishTime,
					sv.QueueDelay, sv.Latency, sv.Slices)
			}
			fmt.Println()
		}
	}
	finishTrace(rec, *traceOut, *attr, *jsonOut, &report)
	if *jsonOut {
		emitJSON(report)
	}
}

type fleetArgs struct {
	gpus        []string
	router      string
	compare     []string
	policy      string
	strategy    string
	maxInFlight int
	fail, slow  string
	controller  string
	warm        []string
	ctlInterval float64
	warmup      float64
	minDevices  int
	maxDevices  int
	maxTier     int
	probs       []*fasttts.Problem
	rate        float64
	seed        uint64
	slo         float64
	dataset     string
	base        func(uint64) fasttts.Config
	verbose     bool
	jsonOut     bool
	metrics     fasttts.MetricsMode
	trace       *fasttts.Recorder
	traceOut    string
	attr        bool
}

// describeMetrics renders the aggregation mode for the preamble.
func describeMetrics(m fasttts.MetricsMode) string {
	if m == fasttts.MetricsStreaming {
		return "streaming (sketch percentiles, <1% relative error; -exact for sort-based percentiles)"
	}
	return "exact (sort-based percentiles)"
}

func runFleet(a fleetArgs) {
	fails, err := parseDeviceVals(a.fail, len(a.gpus))
	if err != nil {
		fatal(fmt.Errorf("-fail: %w", err))
	}
	slows, err := parseDeviceVals(a.slow, len(a.gpus))
	if err != nil {
		fatal(fmt.Errorf("-slow: %w", err))
	}
	specs := make([]fasttts.DeviceSpec, len(a.gpus))
	for i, g := range a.gpus {
		cfg := a.base(a.seed + uint64(i))
		cfg.GPU = g
		// Fleet mode drives the strategy through the cluster-level knob so
		// hedging can replicate across devices; the per-device field stays
		// clear.
		cfg.Strategy = ""
		specs[i] = fasttts.DeviceSpec{
			Config:      cfg,
			Policy:      a.policy,
			MaxInFlight: a.maxInFlight,
			Slowdown:    slows[i],
			FailAt:      fails[i],
		}
	}
	var auto *fasttts.AutoscaleConfig
	if a.controller != "" {
		pool := make([]fasttts.DeviceSpec, len(a.warm))
		for i, g := range a.warm {
			cfg := a.base(a.seed + uint64(100+i))
			cfg.GPU = g
			cfg.Strategy = ""
			pool[i] = fasttts.DeviceSpec{Config: cfg, Policy: a.policy, MaxInFlight: a.maxInFlight}
		}
		auto = &fasttts.AutoscaleConfig{
			Policy:      a.controller,
			Interval:    a.ctlInterval,
			WarmPool:    pool,
			WarmupDelay: a.warmup,
			MinDevices:  a.minDevices,
			MaxDevices:  a.maxDevices,
			MaxTier:     a.maxTier,
		}
	}
	reqs := fasttts.PoissonRequests(a.probs, a.rate, a.seed)
	routers := append([]string{a.router}, a.compare...)
	clusters := make([]*fasttts.Cluster, len(routers))
	for i, rt := range routers {
		var tr *fasttts.Recorder
		if i == 0 {
			tr = a.trace
		}
		cl, err := fasttts.NewCluster(fasttts.ClusterConfig{
			Devices:    specs,
			Router:     rt,
			Seed:       a.seed,
			SLOLatency: a.slo,
			Strategy:   a.strategy,
			Autoscale:  auto,
			Metrics:    a.metrics,
			Trace:      tr,
		})
		if err != nil {
			fatal(err)
		}
		clusters[i] = cl
	}

	if !a.jsonOut {
		fmt.Printf("fleet: %d devices, %d requests, Poisson rate %.2f req/s, %s\n",
			len(a.gpus), len(a.probs), a.rate, a.dataset)
		for i, g := range a.gpus {
			note := ""
			if slows[i] > 1 {
				note += fmt.Sprintf("  slowdown %.1fx", slows[i])
			}
			if fails[i] > 0 {
				note += fmt.Sprintf("  fails at t=%.0f", fails[i])
			}
			fmt.Printf("  device %d: %s%s\n", i, g, note)
		}
		if a.controller != "" {
			fmt.Printf("  controller: %s, interval %.0fs, warm pool [%s], warm-up %.0fs\n",
				a.controller, a.ctlInterval, strings.Join(a.warm, ", "), a.warmup)
		}
		if a.strategy != "" {
			fmt.Printf("  strategy: %s\n", a.strategy)
		}
		fmt.Printf("  metrics: %s\n", describeMetrics(a.metrics))
		fmt.Printf("\n%-10s %9s %7s %7s %7s %9s %9s %9s %9s %6s %6s %6s %8s %8s %6s\n",
			"router", "metrics", "served", "reject", "requeue", "p50(s)", "p95(s)", "p99(s)", "goodput", "imb", "hit%", "cache%", "slo_att", "devsec", "mksp")
	}
	report := fleetReport(a.dataset, len(a.probs), a.rate, a.seed, a.gpus, a.strategy)
	for i, rt := range routers {
		run, err := clusters[i].Run(reqs)
		if err != nil {
			fatal(err)
		}
		st := run.Stats()
		if a.jsonOut {
			report.Runs = append(report.Runs, fleetRunJSON(rt, st))
			continue
		}
		fmt.Printf("%-10s %9s %7d %7d %7d %9.2f %9.2f %9.2f %9.2f %6.2f %5.0f%% %5.0f%% %7.0f%% %8.0f %6.0f\n",
			rt, string(a.metrics), st.Served, st.Rejected, st.Requeues,
			st.P50Latency, st.P95Latency, st.P99Latency,
			st.Goodput, st.ImbalanceCV, 100*st.PrefixHitRate, 100*st.CacheHitRate,
			100*st.SLOAttainment, st.DeviceSeconds, st.Makespan)
		if cs := st.Control; cs != nil && !a.jsonOut {
			fmt.Printf("  control: %d ticks, %d ups, %d downs, %d tier moves (final tier %d), peak %d devices, %d degraded\n",
				cs.Ticks, cs.ScaleUps, cs.ScaleDowns, cs.TierChanges, cs.FinalTier, cs.PeakDevices, cs.DegradedRequests)
			if a.verbose {
				for _, act := range run.Actions {
					fmt.Printf("    t=%-7.1f %-10s requested %d applied %d devices %v\n",
						act.Time, act.Action, act.Requested, act.Applied, act.Devices)
				}
			}
		}
		if a.verbose {
			fmt.Printf("\n%8s %18s %7s %9s %7s %9s %9s %7s %7s\n",
				"device", "name", "served", "busy(s)", "util", "goodput", "live(s)", "cache", "state")
			for _, d := range st.PerDevice {
				state := "ok"
				switch {
				case d.Failed:
					state = "failed"
				case d.Drained:
					state = "drained"
				}
				fmt.Printf("%8d %18s %7d %9.1f %6.0f%% %9.2f %9.1f %6.0f%% %7s\n",
					d.Device, d.Name, d.Served, d.BusyTime,
					100*d.Utilization, d.Goodput, d.LiveSeconds,
					100*d.CacheOccupancy, state)
			}
			fmt.Println()
		}
	}
	finishTrace(a.trace, a.traceOut, a.attr, a.jsonOut, &report)
	if a.jsonOut {
		emitJSON(report)
	}
}

type runJSON struct {
	Policy string `json:"policy,omitempty"`
	Router string `json:"router,omitempty"`
	// CacheHitRate surfaces the fleet KV memory-plane hit rate at the run
	// level (fleet mode only) so offline joins against traces don't have
	// to dig into the stats blob.
	CacheHitRate *float64 `json:"cache_hit_rate,omitempty"`
	Stats        any      `json:"stats"`
}

type reportJSON struct {
	Mode     string  `json:"mode"`
	Dataset  string  `json:"dataset"`
	Requests int     `json:"requests"`
	Rate     float64 `json:"rate,omitempty"`
	Seed     uint64  `json:"seed"`
	// Strategy is the effective test-time-compute strategy of every run
	// in the report ("full-beam" when the -strategy flag was empty).
	Strategy    string                    `json:"strategy"`
	Devices     []string                  `json:"devices,omitempty"`
	Runs        []runJSON                 `json:"runs"`
	Attribution *fasttts.AttributionStats `json:"attribution,omitempty"`
}

// serveReport builds the -json skeleton for single-device mode.
func serveReport(dataset string, n int, closed bool, rate float64, seed uint64, strategy string) reportJSON {
	r := reportJSON{Mode: "open", Dataset: dataset, Requests: n,
		Rate: rate, Seed: seed, Strategy: effectiveStrategy(strategy)}
	if closed {
		r.Mode, r.Rate = "closed", 0
	}
	return r
}

// fleetReport builds the -json skeleton for fleet mode.
func fleetReport(dataset string, n int, rate float64, seed uint64, devices []string, strategy string) reportJSON {
	return reportJSON{Mode: "fleet", Dataset: dataset, Requests: n,
		Rate: rate, Seed: seed, Strategy: effectiveStrategy(strategy),
		Devices: devices}
}

// fleetRunJSON wraps one fleet run for the report, lifting the cache
// hit rate beside the router name.
func fleetRunJSON(router string, st fasttts.FleetStats) runJSON {
	hit := st.CacheHitRate
	return runJSON{Router: router, CacheHitRate: &hit, Stats: st}
}

// effectiveStrategy resolves the -strategy flag's empty default to the
// name of the strategy it selects.
func effectiveStrategy(s string) string {
	if s == "" {
		return "full-beam"
	}
	return s
}

// finishTrace drains the primary run's recorder: it writes the Perfetto
// export when -trace-out was given and reports the latency-attribution
// rollup when -attr was — into the JSON report in -json mode, as a table
// otherwise. No-op when tracing is off (nil recorder).
func finishTrace(rec *fasttts.Recorder, traceOut string, attr, jsonOut bool, report *reportJSON) {
	if rec == nil {
		return
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			fatal(err)
		}
		if err := rec.WritePerfetto(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	if !attr {
		return
	}
	st := rec.AttributionSummary()
	if jsonOut {
		report.Attribution = &st
		return
	}
	fmt.Printf("\nattribution (primary run): %d requests, %d hedged, %d slices, %d preemptions, %d requeues\n",
		st.Requests, st.Hedged, st.Slices, st.Preemptions, st.Requeues)
	fmt.Printf("%-12s %12s %8s\n", "component", "seconds", "share")
	total := st.Wall
	for _, c := range []struct {
		name string
		val  float64
	}{
		{"queue", st.Queue}, {"service", st.Service}, {"re-prefill", st.Reprefill},
		{"straggler", st.Straggler}, {"preemption", st.Preemption},
	} {
		share := 0.0
		if total > 0 {
			share = 100 * c.val / total
		}
		fmt.Printf("%-12s %12.2f %7.1f%%\n", c.name, c.val, share)
	}
	fmt.Printf("%-12s %12.2f %7.1f%%\n", "wall", total, 100.0)
	if st.HedgeWaste > 0 || st.LostWork > 0 {
		fmt.Printf("side channels: hedge-waste %.2fs, lost-work %.2fs (overlap wall, not added)\n",
			st.HedgeWaste, st.LostWork)
	}
}

func emitJSON(r reportJSON) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		fatal(err)
	}
}

// parseDeviceVals parses "dev:value" pairs ("1:200,3:4") into a dense
// per-device slice (unlisted devices get 0).
func parseDeviceVals(s string, n int) ([]float64, error) {
	out := make([]float64, n)
	for _, part := range splitList(s) {
		idxs, vals, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("%q is not a dev:value pair", part)
		}
		idx, err := strconv.Atoi(strings.TrimSpace(idxs))
		if err != nil || idx < 0 || idx >= n {
			return nil, fmt.Errorf("device index %q outside fleet of %d", idxs, n)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(vals), 64)
		if err != nil {
			return nil, fmt.Errorf("value %q: %w", vals, err)
		}
		out[idx] = v
	}
	return out, nil
}

// splitList splits a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fastttsserve:", err)
	os.Exit(1)
}
