package fasttts

import (
	"fmt"
	"math"
	"testing"

	"fasttts/internal/hw"
	"fasttts/internal/model"
)

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

// twiceAsFastHardware makes every GPU of the catalog twice as fast until
// the returned function restores it: every rate doubled and the fixed
// kernel overhead halved, so every modeled time halves exactly (scaling a
// float by a power of two is exact short of overflow). A device is named
// by its GPU, not specified, so the catalog itself is what scales.
func twiceAsFastHardware() (restore func()) {
	gpus := []*hw.GPU{&hw.RTX4090, &hw.RTX4070Ti, &hw.RTX3070Ti}
	saved := make([]hw.GPU, len(gpus))
	for i, g := range gpus {
		saved[i] = *g
		g.PeakFLOPS *= 2
		g.MemBW *= 2
		g.PCIeBW *= 2
		g.KernelOverhead /= 2
	}
	return func() {
		for i, g := range gpus {
			*g = saved[i]
		}
	}
}

// halveTimes halves every time input of a built scenario: arrivals,
// deadlines, the SLO target, fail-stop times, and the control period and
// warm-up delay.
func halveTimes(spec *scenarioSpec) {
	reqs := make([]scenarioRequest, len(spec.requests))
	for i, rq := range spec.requests {
		rq.arrival /= 2
		rq.deadline /= 2
		reqs[i] = rq
	}
	spec.requests = reqs
	cc := &spec.cluster
	cc.SLOLatency /= 2
	cc.Devices = append([]DeviceSpec(nil), cc.Devices...)
	for i := range cc.Devices {
		cc.Devices[i].FailAt /= 2
	}
	if cc.Autoscale != nil {
		as := *cc.Autoscale
		as.Interval /= 2
		as.WarmupDelay /= 2
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
			halveTimes(&spec)
			restore := twiceAsFastHardware()
			fast, err := spec.run(target)
			restore()
			if err != nil {
				t.Fatalf("%s on 2x hardware: %v", key, err)
			}
			diff := timeScaleDiff(slow, fast)
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

// timeScaleDiff describes the first way fast is not slow at half the
// time, or returns "".
func timeScaleDiff(slow, fast *ScenarioRun) string {
	half := func(f, s float64) bool { return math.Float64bits(f) == math.Float64bits(s/2) }
	if len(fast.Served) != len(slow.Served) {
		return fmt.Sprintf("%d served results, want %d", len(fast.Served), len(slow.Served))
	}
	for k := range slow.Served {
		if d := servedDiff(&slow.Served[k], &fast.Served[k], half); d != "" {
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
			if d := servedDiff(&sr[k].ServedResult, &fr[k].ServedResult, half); d != "" {
				return fmt.Sprintf("fleet result %d (request %d): %s", k, sr[k].Tag, d)
			}
		}
		sa, fa := slow.Fleet.Actions, fast.Fleet.Actions
		if len(fa) != len(sa) {
			return fmt.Sprintf("%d controller actions, want %d", len(fa), len(sa))
		}
		for k := range sa {
			if !half(fa[k].Time, sa[k].Time) || fa[k].Action != sa[k].Action || fa[k].Applied != sa[k].Applied {
				return fmt.Sprintf("action %d is %v, want %v at half the time", k, fa[k], sa[k])
			}
		}
		ss, fs := slow.FleetStats, fast.FleetStats
		if !half(fs.DeviceSeconds, ss.DeviceSeconds) || !half(fs.ReprefillSeconds, ss.ReprefillSeconds) ||
			fs.ImbalanceCV != ss.ImbalanceCV || fs.Requeues != ss.Requeues || fs.FailedDevices != ss.FailedDevices ||
			fs.CacheHitTokens != ss.CacheHitTokens || fs.CacheMissTokens != ss.CacheMissTokens ||
			fs.CacheEvictedTokens != ss.CacheEvictedTokens {
			return fmt.Sprintf("fleet stats %+v, want %+v at half the time", *fs, *ss)
		}
	}
	s, f := slow.Stats, fast.Stats
	if f.Served != s.Served || f.Rejected != s.Rejected || !half(f.Makespan, s.Makespan) ||
		!half(f.MeanQueueDelay, s.MeanQueueDelay) || !half(f.MaxQueueDelay, s.MaxQueueDelay) ||
		!half(f.MeanLatency, s.MeanLatency) || !half(f.P50Latency, s.P50Latency) ||
		!half(f.P95Latency, s.P95Latency) || !half(f.P99Latency, s.P99Latency) ||
		math.Float64bits(f.Goodput) != math.Float64bits(s.Goodput*2) || f.SLOAttainment != s.SLOAttainment {
		return fmt.Sprintf("stats %+v, want %+v at half the time", f, s)
	}
	return ""
}

// servedDiff describes the first way f is not s at half the time, or
// returns "".
func servedDiff(s, f *ServedResult, half func(f, s float64) bool) string {
	if f.Tag != s.Tag || f.Slices != s.Slices || f.UsefulTokens != s.UsefulTokens || f.Width != s.Width || f.Rejected != s.Rejected {
		return fmt.Sprintf("request %d in %d slices, %d useful tokens, width %d, rejected %v; want request %d in %d, %d, %d, %v",
			f.Tag, f.Slices, f.UsefulTokens, f.Width, f.Rejected, s.Tag, s.Slices, s.UsefulTokens, s.Width, s.Rejected)
	}
	if !half(f.ArrivalTime, s.ArrivalTime) || !half(f.StartTime, s.StartTime) || !half(f.FinishTime, s.FinishTime) ||
		!half(f.QueueDelay, s.QueueDelay) || !half(f.WallLatency, s.WallLatency) {
		return fmt.Sprintf("arrival, start, finish, queue, wall %v %v %v %v %v; want half of %v %v %v %v %v",
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
	if !half(fr.Latency, sr.Latency) || !half(fr.GenLatency, sr.GenLatency) ||
		!half(fr.VerLatency, sr.VerLatency) || !half(fr.TransferLatency, sr.TransferLatency) ||
		math.Float64bits(fr.Goodput) != math.Float64bits(sr.Goodput*2) {
		return fmt.Sprintf("latency, gen, ver, transfer, goodput %v %v %v %v %v; want half (goodput twice) of %v %v %v %v %v",
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
	restore := twiceAsFastHardware()
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
