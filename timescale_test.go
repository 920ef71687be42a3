package fasttts

import (
	"flag"
	"fmt"
	"math"
	"testing"
	"time"

	"fasttts/internal/hw"
	"fasttts/internal/model"
	"fasttts/internal/rng"
	"fasttts/internal/workload"
)

// quickSeed seeds TestTimeScaleCovarianceQuick's random configs; make
// quick-sweep runs seeds 1-200:
//
//	go test -run TestTimeScaleCovarianceQuick . -quick.seed=<n>
var quickSeed = flag.Int("quick.seed", int(time.Now().UnixNano())%100000, "seed for the random time-scale configs")

// timeScaleExceptions are the catalog runs that do not halve when every
// time input does, each for a time constant no config reaches. The
// controllers' tunings are fixed by control.NewThreshold, NewPID and
// NewBudget, and each compares the window's queue delay with constants in
// seconds, which halved delays may cross at other ticks. On
// autoscale-diurnal the threshold controller's halved delays cross its
// HighDelay (10 s) at the same ticks, so that run halves exactly.
var timeScaleExceptions = map[string]string{
	"flash-absorb/cluster": "control.NewPID's Target (5 s) and Deadband: a constant queue-delay set point",
	"budget-storm/cluster": "control.NewBudget's Degrade (8 s) and Restore (2 s): constant queue-delay thresholds",
}

// fasterHardware makes every GPU of the catalog k times as fast until the
// returned function restores it: every rate multiplied by k and the fixed
// kernel overhead divided by k, so for k a power of two every modeled time
// divides by k exactly (scaling a float by a power of two is exact short
// of overflow). A device is named by its GPU, not specified, so the
// catalog itself is what scales.
func fasterHardware(k float64) (restore func()) {
	gpus := []*hw.GPU{&hw.RTX4090, &hw.RTX4070Ti, &hw.RTX3070Ti}
	saved := make([]hw.GPU, len(gpus))
	for i, g := range gpus {
		saved[i] = *g
		g.PeakFLOPS *= k
		g.MemBW *= k
		g.PCIeBW *= k
		g.KernelOverhead /= k
	}
	return func() {
		for i, g := range gpus {
			*g = saved[i]
		}
	}
}

// divideTimes divides every time input of a built scenario by k:
// arrivals, deadlines, the SLO target, fail-stop times, and the control
// period and warm-up delay.
func divideTimes(spec *scenarioSpec, k float64) {
	reqs := make([]scenarioRequest, len(spec.requests))
	for i, rq := range spec.requests {
		rq.arrival /= k
		rq.deadline /= k
		reqs[i] = rq
	}
	spec.requests = reqs
	cc := &spec.cluster
	cc.SLOLatency /= k
	cc.Devices = append([]DeviceSpec(nil), cc.Devices...)
	for i := range cc.Devices {
		cc.Devices[i].FailAt /= k
	}
	if cc.Autoscale != nil {
		as := *cc.Autoscale
		as.Interval /= k
		as.WarmupDelay /= k
		cc.Autoscale = &as
	}
}

// TestTimeScaleCovariance is an oracle that needs no second
// implementation: on hardware twice as fast, with every time input
// halved, every catalog scenario must come back on both targets with every
// time halved bit for bit, every decision equal and goodput doubled —
// except the runs timeScaleExceptions names, which must still differ, so
// the list cannot outlive its causes.
func TestTimeScaleCovariance(t *testing.T) {
	for _, sc := range Scenarios() {
		for _, target := range []ScenarioTarget{ScenarioServer, ScenarioCluster} {
			key := fmt.Sprintf("%s/%s", sc.Name, target)
			spec, err := buildScenario(sc.Name, ScenarioOptions{})
			if err != nil {
				t.Fatal(err)
			}
			slow, err := spec.run(target)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			divideTimes(&spec, 2)
			restore := fasterHardware(2)
			fast, err := spec.run(target)
			restore()
			if err != nil {
				t.Fatalf("%s on 2x hardware: %v", key, err)
			}
			diff := timeScaleDiff(slow, fast, 2)
			if cause, ok := timeScaleExceptions[key]; ok {
				if diff == "" {
					t.Errorf("%s halves exactly: drop its exception (%s)", key, cause)
				}
				t.Logf("%s, an exception (%s): %s", key, cause, diff)
				continue
			}
			if diff != "" {
				t.Errorf("%s on 2x hardware with halved time inputs: %s", key, diff)
			}
		}
	}
}

// TestTimeScaleCovarianceQuick is TestTimeScaleCovariance on a random
// cluster config of -quick.seed, at k = 2, 4 and 1/2: on hardware k times
// as fast, with every time input divided by k, every time must divide by k
// bit for bit. A config draws 1-4 devices (GPU, search algorithm and
// width, serve policy, admission cap, straggler factor, fail-stop time),
// a router, a strategy and an SLO target, sometimes a static controller,
// and 3-8 requests with priorities and deadlines. The controllers with
// queue-delay constants (threshold, pid, budget) are left out, for the
// reason timeScaleExceptions gives; the public configs cannot select
// streaming percentiles, whose fixed log buckets do not scale.
func TestTimeScaleCovarianceQuick(t *testing.T) {
	t.Logf("quick.seed=%d", *quickSeed)
	r := rng.New(uint64(*quickSeed)).Child("timescale")
	spec := randomClusterSpec(r)
	slow, err := spec.run(ScenarioCluster)
	if err != nil {
		t.Fatalf("config %+v: %v", spec.cluster, err)
	}
	for _, k := range []float64{2, 4, 0.5} {
		scaled := spec
		divideTimes(&scaled, k)
		restore := fasterHardware(k)
		fast, err := scaled.run(ScenarioCluster)
		restore()
		if err != nil {
			t.Fatalf("k=%g: %v", k, err)
		}
		if diff := timeScaleDiff(slow, fast, k); diff != "" {
			t.Errorf("k=%g, config %+v: %s", k, spec.cluster, diff)
		}
	}
}

// randomClusterSpec draws TestTimeScaleCovarianceQuick's config.
func randomClusterSpec(r *rng.Stream) scenarioSpec {
	pick := func(xs ...string) string { return xs[r.IntN(len(xs))] }
	seed := uint64(r.IntN(1 << 20))
	devices := make([]DeviceSpec, 1+r.IntN(4))
	for i := range devices {
		d := &devices[i]
		d.Config = Config{
			GPU:       pick("RTX 4090", "RTX 4070 Ti", "RTX 3070 Ti"),
			Algorithm: pick("Beam Search", "Best-of-N", "DVTS"),
			NumBeams:  []int{4, 8}[r.IntN(2)],
			Seed:      seed + uint64(i) + 1,
		}
		d.Policy = pick("fcfs", "sjf", "priority", "deadline")
		if r.Bool(0.3) {
			d.MaxInFlight = 1 + r.IntN(3)
		}
		if r.Bool(0.3) {
			d.Slowdown = 1 + 3*r.Float64()
		}
		if i > 0 && r.Bool(0.3) {
			d.FailAt = 60 * r.Float64()
		}
	}
	cc := ClusterConfig{
		Devices:    devices,
		Router:     pick("single", "rr", "least-work", "jsq", "p2c", "prefix", "cache-aware"),
		Seed:       seed,
		SLOLatency: 30 + 150*r.Float64(),
		Strategy:   pick("", "full-beam", "first-finish", "first-finish:2", "deadline"),
	}
	if len(devices) > 1 && r.Bool(0.2) {
		cc.Strategy = "hedged"
	}
	if r.Bool(0.3) {
		cc.Autoscale = &AutoscaleConfig{Policy: "static", Interval: 5 + 20*r.Float64()}
	}
	datasets := []string{"MATH500", "AMC23", "AIME24", "HumanEval"}
	reqs := make([]scenarioRequest, 3+r.IntN(6))
	at := 0.0
	for i := range reqs {
		name := datasets[r.IntN(len(datasets))]
		ds, err := workload.SpecByName(name)
		if err != nil {
			panic(err)
		}
		at += r.Exp(0.3)
		reqs[i] = scenarioRequest{dataset: name, problem: r.IntN(ds.Problems), arrival: at, priority: r.IntN(3)}
		if r.Bool(0.5) {
			reqs[i].deadline = at + 20 + 100*r.Float64()
		}
	}
	return scenarioSpec{info: ScenarioInfo{Name: "random"}, requests: reqs, cluster: cc}
}

// timeScaleDiff describes the first way fast is not slow at 1/scale of
// the time, or returns "".
func timeScaleDiff(slow, fast *ScenarioRun, scale float64) string {
	div := func(f, s float64) bool { return math.Float64bits(f) == math.Float64bits(s/scale) }
	if len(fast.Served) != len(slow.Served) {
		return fmt.Sprintf("%d served results, want %d", len(fast.Served), len(slow.Served))
	}
	for k := range slow.Served {
		if d := servedDiff(&slow.Served[k], &fast.Served[k], scale); d != "" {
			return fmt.Sprintf("result %d (request %d): %s", k, slow.Served[k].Tag, d)
		}
	}
	if slow.Fleet != nil {
		sr, fr := slow.Fleet.Results, fast.Fleet.Results
		if len(fr) != len(sr) {
			return fmt.Sprintf("%d fleet results, want %d", len(fr), len(sr))
		}
		for k := range sr {
			if sr[k].Device != fr[k].Device || sr[k].Requeues != fr[k].Requeues {
				return fmt.Sprintf("fleet result %d on device %d after %d requeues, want %d after %d",
					k, fr[k].Device, fr[k].Requeues, sr[k].Device, sr[k].Requeues)
			}
			if d := servedDiff(&sr[k].ServedResult, &fr[k].ServedResult, scale); d != "" {
				return fmt.Sprintf("fleet result %d (request %d): %s", k, sr[k].Tag, d)
			}
		}
		sa, fa := slow.Fleet.Actions, fast.Fleet.Actions
		if len(fa) != len(sa) {
			return fmt.Sprintf("%d controller actions, want %d", len(fa), len(sa))
		}
		for k := range sa {
			if !div(fa[k].Time, sa[k].Time) || fa[k].Action != sa[k].Action || fa[k].Applied != sa[k].Applied {
				return fmt.Sprintf("action %d is %v, want %v at 1/%g of the time", k, fa[k], sa[k], scale)
			}
		}
		ss, fs := slow.FleetStats, fast.FleetStats
		if !div(fs.DeviceSeconds, ss.DeviceSeconds) || !div(fs.ReprefillSeconds, ss.ReprefillSeconds) ||
			fs.ImbalanceCV != ss.ImbalanceCV || fs.Requeues != ss.Requeues || fs.FailedDevices != ss.FailedDevices ||
			fs.CacheHitTokens != ss.CacheHitTokens || fs.CacheMissTokens != ss.CacheMissTokens ||
			fs.CacheEvictedTokens != ss.CacheEvictedTokens {
			return fmt.Sprintf("fleet stats %+v, want %+v at 1/%g of the time", *fs, *ss, scale)
		}
	}
	s, f := slow.Stats, fast.Stats
	if f.Served != s.Served || f.Rejected != s.Rejected || !div(f.Makespan, s.Makespan) ||
		!div(f.MeanQueueDelay, s.MeanQueueDelay) || !div(f.MaxQueueDelay, s.MaxQueueDelay) ||
		!div(f.MeanLatency, s.MeanLatency) || !div(f.P50Latency, s.P50Latency) ||
		!div(f.P95Latency, s.P95Latency) || !div(f.P99Latency, s.P99Latency) ||
		math.Float64bits(f.Goodput) != math.Float64bits(s.Goodput*scale) || f.SLOAttainment != s.SLOAttainment {
		return fmt.Sprintf("stats %+v, want %+v at 1/%g of the time", f, s, scale)
	}
	return ""
}

// servedDiff describes the first way f is not s at 1/scale of the time,
// or returns "".
func servedDiff(s, f *ServedResult, scale float64) string {
	div := func(f, s float64) bool { return math.Float64bits(f) == math.Float64bits(s/scale) }
	if f.Tag != s.Tag || f.Slices != s.Slices || f.UsefulTokens != s.UsefulTokens || f.Width != s.Width || f.Rejected != s.Rejected {
		return fmt.Sprintf("request %d in %d slices, %d useful tokens, width %d, rejected %v; want request %d in %d, %d, %d, %v",
			f.Tag, f.Slices, f.UsefulTokens, f.Width, f.Rejected, s.Tag, s.Slices, s.UsefulTokens, s.Width, s.Rejected)
	}
	if !div(f.ArrivalTime, s.ArrivalTime) || !div(f.StartTime, s.StartTime) || !div(f.FinishTime, s.FinishTime) ||
		!div(f.QueueDelay, s.QueueDelay) || !div(f.WallLatency, s.WallLatency) {
		return fmt.Sprintf("arrival, start, finish, queue, wall %v %v %v %v %v; want 1/scale of %v %v %v %v %v",
			f.ArrivalTime, f.StartTime, f.FinishTime, f.QueueDelay, f.WallLatency,
			s.ArrivalTime, s.StartTime, s.FinishTime, s.QueueDelay, s.WallLatency)
	}
	if (f.Result == nil) != (s.Result == nil) {
		return "one run has a result where the other has none"
	}
	if s.Result == nil {
		return ""
	}
	fr, sr := f.Result, s.Result
	if !div(fr.Latency, sr.Latency) || !div(fr.GenLatency, sr.GenLatency) ||
		!div(fr.VerLatency, sr.VerLatency) || !div(fr.TransferLatency, sr.TransferLatency) ||
		math.Float64bits(fr.Goodput) != math.Float64bits(sr.Goodput*scale) {
		return fmt.Sprintf("latency, gen, ver, transfer, goodput %v %v %v %v %v; want 1/scale (goodput scale times) of %v %v %v %v %v",
			fr.Latency, fr.GenLatency, fr.VerLatency, fr.TransferLatency, fr.Goodput,
			sr.Latency, sr.GenLatency, sr.VerLatency, sr.TransferLatency, sr.Goodput)
	}
	if fr.Iterations != sr.Iterations || fr.SpecTokens != sr.SpecTokens || fr.SpecRetained != sr.SpecRetained ||
		fr.RecomputedTokens != sr.RecomputedTokens || len(fr.Paths) != len(sr.Paths) {
		return fmt.Sprintf("counts %+v, want %+v", *fr, *sr)
	}
	return ""
}

// TestTimeScaleKeepsDecodeBranch pins the decode loop's one-division
// path to the relation above: on hardware twice as fast, every stretch
// that was memory-bound from first round to last still is, and no other,
// so the halved run takes the same branch at every stretch (both branches
// charge the same times, so the run alone could not tell).
func TestTimeScaleKeepsDecodeBranch(t *testing.T) {
	type deployment struct {
		m model.Config
		g hw.GPU
	}
	var slow []deployment
	for _, g := range []hw.GPU{hw.RTX4090, hw.RTX4070Ti, hw.RTX3070Ti} {
		for _, m := range []model.Config{model.Qwen25Math1_5B, model.Qwen25Math7B, model.ShepherdPRM7B, model.SkyworkPRM1_5B} {
			slow = append(slow, deployment{m, g})
		}
	}
	restore := fasterHardware(2)
	fast := []hw.GPU{hw.RTX4090, hw.RTX4070Ti, hw.RTX3070Ti}
	restore()
	seen := map[bool]int{}
	for i, d := range slow {
		sd, fd := model.NewDecodeRoofline(d.m, d.g), model.NewDecodeRoofline(d.m, fast[i/4])
		for batch := 1; batch <= 1024; batch = batch*2 + 1 {
			for mean := int64(0); mean <= 1<<16; mean = mean*3 + 7 {
				for _, rounds := range []int{1, 2, 40, 1000} {
					ctx := int64(batch)*mean + int64(batch/2)
					got, want := fd.MemoryBound(batch, ctx, mean, rounds), sd.MemoryBound(batch, ctx, mean, rounds)
					if got != want {
						t.Fatalf("%s on %s, batch %d, mean %d, %d rounds: memory-bound %v on 2x hardware, %v on 1x",
							d.m.Name, d.g.Name, batch, mean, rounds, got, want)
					}
					seen[want]++
				}
			}
		}
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Errorf("the grid reached only one branch: %v", seen)
	}
}
