package main

// The plain run: set-up several times, then identical timed passes for
// the asked number of seconds, tracing off. It yields the end-to-end
// metrics.

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

const (
	// setupRounds is how often set-up is repeated; setup_s is the median.
	setupRounds = 3
	// minPasses is the fewest timed passes a run reports a median of.
	minPasses = 5
)

// options are the run parameters shared by the plain and traced runs.
type options struct {
	seed    uint64
	seconds float64
	// scale shrinks every workload's request count (tests use 0.02).
	scale float64
	// passes, when positive, fixes the timed pass count instead of
	// measuring for `seconds`.
	passes int
	// outDir receives the traced run's span file; out the report text.
	outDir string
	out    io.Writer
}

func (o options) requests(w *workloadDef) int {
	n := int(float64(w.requests)*o.scale + 0.5)
	if n < 8 {
		n = 8
	}
	return n
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the outcome of one run of one workload.
type report struct {
	attempted int // requests simulated by the measured passes
	metrics   []metric
}

// setUp generates the inputs, binds them to the deployment and runs the
// untimed warm-up pass, returning how long that took.
func setUp(w *workloadDef, opt options, tr *tracer) (*prepared, *passOut, float64, error) {
	start := time.Now()
	sp := tr.span("workload.generate")
	refs := w.generate(opt.requests(w), opt.seed)
	prep, err := w.prepare(w, refs)
	sp.end()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("prepare: %w", err)
	}
	out, err := prep.plain()
	if err != nil {
		return nil, nil, 0, fmt.Errorf("warm-up pass: %w", err)
	}
	return prep, out, time.Since(start).Seconds(), nil
}

// passSample is what one timed pass cost the host.
type passSample struct {
	seconds    float64
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPauseNs  uint64
	cpuSeconds float64
}

// timedPass collects garbage, then times one pass and reads what it
// allocated. The pass's output is returned for the digest comparison.
func timedPass(run func() (*passOut, error)) (passSample, *passOut, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cpu0 := processCPUSeconds()
	start := time.Now()
	out, err := run()
	elapsed := time.Since(start).Seconds()
	cpu1 := processCPUSeconds()
	runtime.ReadMemStats(&after)
	return passSample{
		seconds:    elapsed,
		mallocs:    after.Mallocs - before.Mallocs,
		allocBytes: after.TotalAlloc - before.TotalAlloc,
		gcCycles:   after.NumGC - before.NumGC,
		gcPauseNs:  after.PauseTotalNs - before.PauseTotalNs,
		cpuSeconds: cpu1 - cpu0,
	}, out, err
}

// runPlain measures one workload with tracing off.
func runPlain(w *workloadDef, opt options) (*report, error) {
	sent := opt.requests(w)

	var prep *prepared
	var warm *passOut
	setups := make([]float64, setupRounds)
	var want uint64
	for i := range setups {
		runtime.GC()
		var err error
		if prep, warm, setups[i], err = setUp(w, opt, nil); err != nil {
			return nil, err
		}
		if err := warm.check(sent); err != nil {
			return nil, fmt.Errorf("check failed in set-up %d: %w", i, err)
		}
		if d := warm.digest(); i == 0 {
			want = d
		} else if d != want {
			return nil, fmt.Errorf("check failed: set-up %d produced digest %016x, set-up 0 %016x (generation or run is not deterministic)", i, d, want)
		}
	}
	sim := warm.simMetrics(sent)
	warm = nil

	var samples []passSample
	var last *passOut
	loopStart := time.Now()
	for n := 0; ; n++ {
		if opt.passes > 0 {
			if n >= opt.passes {
				break
			}
		} else if n >= minPasses && time.Since(loopStart).Seconds() >= opt.seconds {
			break
		}
		last = nil
		s, out, err := timedPass(prep.plain)
		if err != nil {
			return nil, fmt.Errorf("timed pass %d: %w", n, err)
		}
		if d := out.digest(); d != want {
			return nil, fmt.Errorf("check failed: timed pass %d produced digest %016x, warm-up %016x", n, d, want)
		}
		samples = append(samples, s)
		last = out
	}

	// Live heap: what stays reachable once a pass has returned — its
	// results, stats and spans, beside the inputs.
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	liveMB := float64(ms.HeapAlloc) / (1 << 20)
	runtime.KeepAlive(last)
	runtime.KeepAlive(prep)

	secs := column(samples, func(s passSample) float64 { return s.seconds })
	mallocs := column(samples, func(s passSample) float64 { return float64(s.mallocs) })
	bytes := column(samples, func(s passSample) float64 { return float64(s.allocBytes) })
	q1, med, q3 := quartiles(secs)

	fmt.Fprintf(opt.out, "  requests per pass: %d sent, %d served, %d shed by the simulated admission control\n", sim.sent, sim.served, sim.shed)
	fmt.Fprintf(opt.out, "  timed passes: %d   pass_host_s quartiles: %.4f / %.4f / %.4f   spread %.2f%%\n",
		len(samples), q1, med, q3, 100*(q3-q1)/med)
	fmt.Fprintf(opt.out, "  set-up rounds: %v   result digest %016x\n", setups, want)

	return &report{
		attempted: sent * len(samples),
		metrics: []metric{
			{"setup_s", median(setups), "s"},
			{"pass_host_s", med, "s"},
			{"allocs_per_req", median(mallocs) / float64(sent), "allocs"},
			{"alloc_kb_per_req", median(bytes) / 1024 / float64(sent), "KiB"},
			{"live_heap_mb", liveMB, "MiB"},
			{"sim_goodput_tok_s", sim.goodput, "tok/sim_s"},
			{"sim_p50_latency_s", sim.p50, "sim_s"},
			{"sim_p95_latency_s", sim.p95, "sim_s"},
			{"sim_slo_attainment", sim.slo, "ratio"},
			{"sim_top1_acc", sim.top1, "ratio"},
			{"sim_served_frac", sim.servedF, "ratio"},
		},
	}, nil
}

func column(samples []passSample, f func(passSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them, which is how the
// spread of a metric between runs is judged. A single value is its own
// quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		const n = 4
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}
