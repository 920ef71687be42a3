package main

// The traced run: three passes with the timing decorators attached, three
// without, and a micro-drive of each lower layer over the workload's own
// inputs. It yields the per-layer metrics and writes the span file.
//
// Every per-layer metric names, in README.md, the end-to-end metric it
// should move and on which workload; nothing here is gated.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"fasttts/internal/alloc"
	"fasttts/internal/core"
	"fasttts/internal/engine"
	"fasttts/internal/hw"
	"fasttts/internal/kvcache"
	"fasttts/internal/memplane"
	"fasttts/internal/metrics"
	"fasttts/internal/model"
	"fasttts/internal/obs"
	"fasttts/internal/sched"
	"fasttts/internal/sim"
	"fasttts/internal/trace"
	"fasttts/internal/workload"
)

// tracedPasses is how many traced and untraced passes a traced run makes.
const tracedPasses = 3

// runTraced measures one workload layer by layer.
func runTraced(w *workloadDef, opt options, calib float64) (*report, error) {
	sent := opt.requests(w)
	tr := newTracer()
	tr.pass = -1 // set-up and micro-drives sit on their own lane

	prep, warm, _, err := setUp(w, opt, tr)
	if err != nil {
		return nil, err
	}
	if err := warm.check(sent); err != nil {
		return nil, fmt.Errorf("check failed in set-up: %w", err)
	}
	want := warm.digest()
	warm = nil

	// Untraced and traced passes alternate, so that drift of the machine
	// falls on both sides of bench.trace_overhead_ratio alike.
	var plain, traced []passSample
	var out *passOut
	for i := 0; i < tracedPasses; i++ {
		s, po, err := timedPass(prep.plain)
		if err != nil {
			return nil, fmt.Errorf("untraced pass %d: %w", i, err)
		}
		if d := po.digest(); d != want {
			return nil, fmt.Errorf("check failed: untraced pass %d produced digest %016x, warm-up %016x", i, d, want)
		}
		plain = append(plain, s)

		tr.pass = i
		out = nil
		s, out, err = timedPass(func() (*passOut, error) {
			sp := tr.span("pass")
			defer sp.end()
			return prep.traced(tr)
		})
		tr.pass = -1
		if err != nil {
			return nil, fmt.Errorf("traced pass %d: %w", i, err)
		}
		if err := out.check(sent); err != nil {
			return nil, fmt.Errorf("check failed in traced pass %d: %w", i, err)
		}
		if d := out.digest(); d != want {
			return nil, fmt.Errorf("check failed: traced pass %d produced digest %016x, the undecorated pass %016x (a decorator changed behaviour)", i, d, want)
		}
		traced = append(traced, s)
	}

	m := newLayerMetrics()
	m.set("host.calib_s", calib)
	m.fromSpans(tr)
	m.fromResults(out)
	m.hostMetrics(plain, traced)

	if prep.baseline != nil {
		sp := tr.span("core.baseline")
		base, err := prep.baseline()
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("baseline-mode run: %w", err)
		}
		if fast := meanServiceLatency(out.res); fast > 0 {
			m.set("core.speedup_vs_baseline", base/fast)
		}
	}
	if prep.observedOff != nil {
		var off []float64
		for i := 0; i < tracedPasses; i++ {
			s, _, err := timedPass(prep.observedOff)
			if err != nil {
				return nil, fmt.Errorf("recorder-off pass %d: %w", i, err)
			}
			off = append(off, s.seconds)
		}
		on := column(plain, func(s passSample) float64 { return s.seconds })
		m.set("obs.overhead_ratio", median(on)/median(off))
	}
	if err := m.microDrives(prep, out, tr); err != nil {
		return nil, err
	}

	path := filepath.Join(opt.outDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, opt.seed))
	if err := tr.writeChromeTrace(path); err != nil {
		return nil, fmt.Errorf("write span file: %w", err)
	}
	fmt.Fprintf(opt.out, "  %d spans written to %s   result digest %016x\n", len(tr.spans), path, want)

	return &report{attempted: sent * tracedPasses, metrics: m.list()}, nil
}

// layerMetrics holds the per-layer metrics of one traced run. Every name
// in perLayerNames is present, zero where the workload does not exercise
// the layer.
type layerMetrics struct {
	values map[string]float64
}

func newLayerMetrics() *layerMetrics {
	m := &layerMetrics{values: map[string]float64{}}
	for _, n := range perLayerNames {
		m.values[n] = 0
	}
	return m
}

func (m *layerMetrics) set(name string, v float64) {
	if _, ok := m.values[name]; !ok {
		panic("benchmark: unregistered per-layer metric " + name)
	}
	m.values[name] = v
}

func (m *layerMetrics) list() []metric {
	out := make([]metric, len(perLayerNames))
	for i, n := range perLayerNames {
		out[i] = metric{name: n, value: m.values[n], unit: perLayerUnits[n]}
	}
	return out
}

// overPasses is the median over the traced passes of f(pass).
func overPasses(f func(pass int) float64) float64 {
	v := make([]float64, tracedPasses)
	for i := range v {
		v[i] = f(i)
	}
	return median(v)
}

// fromSpans fills the metrics that are span durations or call counts.
func (m *layerMetrics) fromSpans(tr *tracer) {
	seconds := func(name string) float64 {
		return overPasses(func(p int) float64 { s, _ := tr.total(name, p); return s })
	}
	calls := func(name string) float64 {
		return overPasses(func(p int) float64 { _, c := tr.total(name, p); return float64(c) })
	}
	perCallNs := func(name string) float64 {
		if c := calls(name); c > 0 {
			return seconds(name) / c * 1e9
		}
		return 0
	}
	gen, _ := tr.total("workload.generate", -1)
	m.set("workload.generate_s", gen)
	m.set("cluster.new_s", seconds("cluster.new"))
	m.set("cluster.run_self_s", overPasses(func(p int) float64 { return tr.self("cluster.run", p) }))
	m.set("cluster.route_calls", calls("cluster.route"))
	m.set("cluster.route_s", seconds("cluster.route"))
	m.set("cluster.route_ns_per_call", perCallNs("cluster.route"))
	m.set("search.select_calls", calls("search.select"))
	m.set("search.select_s", seconds("search.select"))
	m.set("sched.pick_calls", calls("sched.pick"))
	m.set("sched.pick_s", seconds("sched.pick"))
	m.set("control.tick_s", seconds("control.tick"))
	m.set("metrics.summarize_s", seconds("metrics.summarize"))
	m.set("obs.collect_s", seconds("obs.collect"))
	m.set("obs.attribute_s", seconds("obs.attribute"))
	m.set("obs.perfetto_s", seconds("obs.perfetto"))
	// On the single-server workload the solver's host time is Server.Run
	// minus the decorated calls. Inside Fleet.Run the device loops have no
	// outside boundary: there this reads zero and the solver's time is
	// part of cluster.run_self_s.
	m.set("core.run_self_s", overPasses(func(p int) float64 { return tr.self("core.run", p) }))
}

// fromResults fills the metrics that are counts and ratios of simulated
// work, read from the last traced pass.
func (m *layerMetrics) fromResults(out *passOut) {
	var o outcome
	var iterations, slices, served int
	var decoded, spec, retained, recomputed, hit, miss, evicted int64
	var gen, ver, transfer float64
	for i := 0; i < out.res.len(); i++ {
		out.res.at(i, &o)
		if o.rejected {
			continue
		}
		served++
		iterations += o.iterations
		slices += o.slices
		decoded, spec, retained, recomputed = decoded+o.decoded, spec+o.spec, retained+o.retained, recomputed+o.recomputed
		hit, miss, evicted = hit+o.cacheHit, miss+o.cacheMiss, evicted+o.cacheEvicted
		gen, ver, transfer = gen+o.gen, ver+o.ver, transfer+o.transfer
	}
	m.set("core.iterations", float64(iterations))
	m.set("core.slices_per_req", float64(slices)/float64(served))
	m.set("core.tokens_decoded", float64(decoded))
	m.set("core.spec_tokens", float64(spec))
	if spec > 0 {
		m.set("core.spec_retained_ratio", float64(retained)/float64(spec))
	}
	m.set("core.recomputed_tokens", float64(recomputed))
	m.set("core.gen_sim_s", gen)
	m.set("core.ver_sim_s", ver)
	m.set("core.transfer_sim_s", transfer)
	if hit+miss > 0 {
		m.set("kvcache.hit_ratio", float64(hit)/float64(hit+miss))
	}
	m.set("kvcache.evicted_tokens", float64(evicted))

	// What a streaming-mode user would read for this pass's p99 against
	// the exact one.
	walls := servedWalls(out.res)
	var sk metrics.Sketch
	for _, w := range walls {
		sk.Add(w)
	}
	m.set("metrics.sketch_rel_err", relErr(sk.Quantile(99), metrics.Percentile(walls, 99)))

	if fs := out.fleet; fs != nil {
		m.set("cluster.requeues", float64(fs.requeues))
		m.set("cluster.imbalance_cv", fs.imbalanceCV)
		m.set("cluster.utilization_mean", fs.utilizationMean)
		m.set("cluster.prefix_hit_ratio", fs.prefixHitRate)
		m.set("memplane.hit_ratio", fs.cacheHitRate)
		m.set("memplane.evicted_tokens", float64(fs.cacheEvicted))
		m.set("memplane.reprefill_sim_s", fs.reprefill)
		m.set("memplane.occupancy_mean", fs.occupancyAvg)
		m.set("control.ticks", float64(fs.ticks))
		m.set("control.scale_ups", float64(fs.scaleUps))
		m.set("control.scale_downs", float64(fs.scaleDowns))
		if a := fs.attribution; a != nil && a.Wall > 0 {
			m.set("obs.attr_queue_frac", a.Queue/a.Wall)
			m.set("obs.attr_service_frac", a.Service/a.Wall)
			m.set("obs.attr_reprefill_frac", a.Reprefill/a.Wall)
			m.set("obs.attr_straggler_frac", a.Straggler/a.Wall)
			m.set("obs.attr_preemption_frac", a.Preemption/a.Wall)
		}
	}
	m.set("obs.spans", float64(len(out.spans)))
	m.set("obs.spans_per_req", float64(len(out.spans))/float64(out.res.len()))
}

// hostMetrics fills the metrics that say whether a pass_host_s move is
// the program or the machine.
func (m *layerMetrics) hostMetrics(plain, traced []passSample) {
	secs := column(plain, func(s passSample) float64 { return s.seconds })
	m.set("host.cpu_s_per_pass", median(column(plain, func(s passSample) float64 { return s.cpuSeconds })))
	m.set("host.gc_cycles_per_pass", median(column(plain, func(s passSample) float64 { return float64(s.gcCycles) })))
	m.set("host.gc_pause_ms_per_pass", median(column(plain, func(s passSample) float64 { return float64(s.gcPauseNs) / 1e6 })))
	m.set("bench.pass_spread", spread(secs))
	m.set("bench.trace_overhead_ratio", median(column(traced, func(s passSample) float64 { return s.seconds }))/median(secs))
}

// perCall times n calls of f (after one untimed call) and returns
// nanoseconds per call.
func perCall(n int, f func(i int)) float64 {
	f(0)
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// sinks keep the micro-drives' results alive.
var (
	sinkFloat float64
	sinkInt   int
)

// microDrives times the layers that have no injectable boundary by
// calling their public functions directly with the workload's inputs.
func (m *layerMetrics) microDrives(prep *prepared, out *passOut, tr *tracer) error {
	sp := tr.span("microdrive")
	defer sp.end()
	reqs, width := prep.coreReqs, prep.width

	// sched.EstimateDemand: once per admitted request, and once per routed
	// request on work-aware routers.
	s := tr.span("sched.estimate")
	m.set("sched.estimate_ns_per_call", perCall(max(len(reqs), 200000), func(i int) {
		sinkFloat += sched.EstimateDemand(reqs[i%len(reqs)].Problem, width)
	}))
	s.end()

	if err := m.driveEngine(reqs, width, tr); err != nil {
		return err
	}
	if err := m.driveAlloc(reqs, width, tr); err != nil {
		return err
	}
	if err := m.driveKVCache(reqs, tr); err != nil {
		return err
	}
	// Only where the workload has a plane; the other three read zero.
	if out.fleet != nil && out.fleet.devices[0].cacheCapacity > 0 {
		m.driveMemplane(reqs, width, tr)
	}

	// metrics.Sketch.Add over the pass's own latencies.
	s = tr.span("metrics.sketch_add")
	walls := servedWalls(out.res)
	var sk metrics.Sketch
	m.set("metrics.sketch_add_ns", perCall(2000000, func(i int) { sk.Add(walls[i%len(walls)]) }))
	sinkInt += int(sk.Count())
	s.end()

	// obs.Track.Emit, the cost of one recorded span, over the pass's own
	// spans; only where the workload records any.
	if len(out.spans) > 0 {
		s = tr.span("obs.emit")
		track := obs.NewRecorder().Device(0)
		m.set("obs.emit_ns", perCall(len(out.spans), func(i int) { track.Emit(out.spans[i]) }))
		sinkInt += track.Len()
		s.end()
	}

	if it := m.values["core.iterations"]; it > 0 {
		m.set("core.host_us_per_iteration", m.values["core.run_self_s"]/it*1e6)
	}
	return nil
}

// driveEngine times engine.DecodeRound: one call per decode step of a
// batch as wide as the search, over contexts as long as the workload's
// prompts plus a few steps.
func (m *layerMetrics) driveEngine(reqs []core.Request, width int, tr *tracer) error {
	s := tr.span("engine.decode_round")
	defer s.end()
	eng, err := engine.New("generator", model.Qwen25Math1_5B, hw.RTX4090, 1<<30, &sim.Clock{}, nil)
	if err != nil {
		return err
	}
	m.set("engine.decode_round_ns", perCall(500000, func(i int) {
		ctx := int64(width) * int64(reqs[i%len(reqs)].Problem.PromptTokens+256)
		sinkFloat += eng.DecodeRound(width, ctx, trace.PhaseGenerate)
	}))
	return nil
}

// driveAlloc times alloc.Optimize, which FastTTS mode calls once per
// search iteration, on the 4090's memory-constrained budget.
func (m *layerMetrics) driveAlloc(reqs []core.Request, width int, tr *tracer) error {
	s := tr.span("alloc.optimize")
	defer s.end()
	budget, err := (core.Config{GPU: hw.RTX4090, Generator: model.Qwen25Math1_5B, Verifier: model.SkyworkPRM1_5B, MemoryFraction: 0.4}).KVBudget()
	if err != nil {
		return err
	}
	var failed error
	ns := perCall(2000, func(i int) {
		_, err := alloc.Optimize(alloc.Input{
			GPU: hw.RTX4090, Generator: model.Qwen25Math1_5B, Verifier: model.SkyworkPRM1_5B,
			N: width, SeqVerifier: reqs[i%len(reqs)].Problem.PromptTokens + 256, SeqDecode: 128, BudgetBytes: budget,
		})
		if err != nil {
			failed = err
		}
	})
	if failed != nil {
		return fmt.Errorf("alloc micro-drive: %w", failed)
	}
	m.set("alloc.optimize_us_per_call", ns/1e3)
	return nil
}

// driveKVCache acquires and releases the workload's prompts, in arrival
// order, in a radix cache the size of a 512 MiB plane.
func (m *layerMetrics) driveKVCache(reqs []core.Request, tr *tracer) error {
	s := tr.span("kvcache.acquire")
	defer s.end()
	cache := kvcache.New(kvPlaneBytes, model.Qwen25Math1_5B.KVBytesPerToken())
	prompts := make(map[*workload.Problem][]kvcache.Token)
	for _, rq := range reqs {
		if _, ok := prompts[rq.Problem]; !ok {
			toks := make([]kvcache.Token, rq.Problem.PromptTokens)
			base := kvcache.Token(len(prompts)) << 16
			for j := range toks {
				toks[j] = base | kvcache.Token(j)
			}
			prompts[rq.Problem] = toks
		}
	}
	n := min(len(reqs), 20000)
	var tokens int64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for _, rq := range reqs[:n] {
		toks := prompts[rq.Problem]
		seq, _, _, err := cache.Acquire(toks)
		if err != nil {
			return fmt.Errorf("kvcache micro-drive: %w", err)
		}
		cache.Release(seq)
		tokens += int64(len(toks))
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	m.set("kvcache.acquire_ns_per_token", float64(elapsed.Nanoseconds())/float64(tokens))
	m.set("kvcache.allocs_per_acquire", float64(after.Mallocs-before.Mallocs)/float64(n))
	return nil
}

// driveMemplane admits, grows and finishes one session per request on a
// 512 MiB plane, keyed as the fleet keys prompts.
func (m *layerMetrics) driveMemplane(reqs []core.Request, width int, tr *tracer) {
	s := tr.span("memplane.drive")
	defer s.end()
	plane := memplane.New(memplane.Config{CapacityBytes: kvPlaneBytes}, hw.RTX4090, model.Qwen25Math1_5B)
	var admit, sync time.Duration
	for _, rq := range reqs {
		p := rq.Problem
		key := fmt.Sprintf("%s/%d", p.Dataset, p.Index)
		t0 := time.Now()
		sess, penalty := plane.Admit(key, p.PromptTokens)
		t1 := time.Now()
		plane.SyncDecode(sess, width*128)
		t2 := time.Now()
		plane.Finish(sess)
		admit += t1.Sub(t0)
		sync += t2.Sub(t1)
		sinkFloat += penalty
	}
	m.set("memplane.admit_ns_per_call", float64(admit.Nanoseconds())/float64(len(reqs)))
	m.set("memplane.sync_ns_per_call", float64(sync.Nanoseconds())/float64(len(reqs)))
}
