package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fasttts/internal/core"
	"fasttts/internal/memplane"
	"fasttts/internal/obs"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// replayStrategies are the fleet strategies a replay case picks from; the
// zero value is strategies off.
var replayStrategies = []search.Strategy{{}, mustStrategy("full-beam"), mustStrategy("first-finish:2"), mustStrategy("deadline"), mustStrategy("hedged")}

// replayCase is one random fleet for the replay differential: devices of
// random GPU, options (FastTTS or baseline), serving policy (FCFS or
// time-sliced SJF), straggler factor, fail-stop and KV plane; a stream of
// up to 24 requests over a pool of at most 8 problems, so that devices
// see repeats, some narrowed to width 2, with gaps down to 0 (a quarter
// of them) and up to 2, 8 or 40 s (dense streams time-slice and preempt,
// sparse ones replay whole); a random
// router, fleet strategy and SLO; and, in some cases, a controller with
// a warm pool, whose instances of one template share a server.
type replayCase struct {
	Fleet      fleetCase
	Baseline   []bool
	SJF        []bool
	Plane      []bool
	Narrow     []bool
	Strategy   int
	SLO        float64
	Controller int // index into control.Names(); -1 for none
	Elastic    elasticCase
}

func (replayCase) Generate(r *rand.Rand, size int) reflect.Value {
	fc := fleetCase{}.Generate(r, size).Interface().(fleetCase)
	c := replayCase{Fleet: fc, Strategy: r.Intn(len(replayStrategies)), SLO: 5 + 40*r.Float64(), Controller: -1}
	for range fc.GPUs {
		c.Baseline = append(c.Baseline, r.Intn(4) == 0)
		c.SJF = append(c.SJF, r.Intn(3) == 0)
		c.Plane = append(c.Plane, r.Intn(3) == 0)
	}
	pool, nr, gap := 1+r.Intn(8), 1+r.Intn(24), []float64{2, 8, 40}[r.Intn(3)]
	c.Fleet.Probs, c.Fleet.Arrivals = nil, nil
	at := 0.0
	for range nr {
		c.Fleet.Probs = append(c.Fleet.Probs, r.Intn(pool))
		if r.Intn(4) > 0 {
			at += gap * r.Float64()
		}
		c.Fleet.Arrivals = append(c.Fleet.Arrivals, at)
		c.Narrow = append(c.Narrow, r.Intn(4) == 0)
	}
	if r.Intn(3) == 0 {
		c.Elastic = elasticCase{}.Generate(r, size).Interface().(elasticCase)
		c.Controller = c.Elastic.Controller
	}
	return reflect.ValueOf(c)
}

// config builds the case's fleet configuration around rec.
func (c replayCase) config(t testing.TB, rec *obs.Recorder) (Config, error) {
	devices := c.Fleet.devices(t)
	strategy := replayStrategies[c.Strategy]
	if strategy == mustStrategy("hedged") && len(devices) < 2 {
		devices = append(devices, Device{Config: devConfig(t, quickGPUs[0], 4, 60)})
	}
	for i := range devices {
		d := &devices[i]
		if i < len(c.Baseline) && c.Baseline[i] {
			d.Config.Opts = core.BaselineOptions()
		}
		if i < len(c.Plane) && c.Plane[i] {
			d.Config.KVPlane = memplane.Config{CapacityBytes: 512 << 20}
		}
		if i < len(c.SJF) && c.SJF[i] {
			d.Policy = sched.SJF{}
		}
	}
	router, err := RouterByName(RouterNames()[c.Fleet.Router])
	if err != nil {
		return Config{}, err
	}
	cfg := Config{Devices: devices, Router: router, Seed: 3, Strategy: strategy, SLOLatency: c.SLO, Obs: rec}
	if c.Controller >= 0 {
		if cfg.Control, err = c.Elastic.control(t); err != nil {
			return Config{}, err
		}
	}
	return cfg, nil
}

// requests builds the case's stream over ds, each problem passed through
// prob.
func (c replayCase) requests(ds *workload.Dataset, prob func(*workload.Problem) *workload.Problem) []core.Request {
	reqs := c.Fleet.requests(ds)
	for i := range reqs {
		reqs[i].Problem = prob(reqs[i].Problem)
		if c.Narrow[i] {
			reqs[i].Width = 2
		}
	}
	return reqs
}

// replayOutcome is what a fleet run of a replay case produced.
type replayOutcome struct {
	out   *Outcome
	spans []obs.Span
}

// run serves the case once, every request's problem passed through prob.
func (c replayCase) run(t testing.TB, ds *workload.Dataset, prob func(*workload.Problem) *workload.Problem) (replayOutcome, error) {
	rec := obs.NewRecorder()
	cfg, err := c.config(t, rec)
	if err != nil {
		return replayOutcome{}, err
	}
	f, err := New(cfg)
	if err != nil {
		return replayOutcome{}, err
	}
	out, err := f.Run(c.requests(ds, prob))
	if err != nil {
		return replayOutcome{}, err
	}
	return replayOutcome{out: out, spans: rec.Spans()}, nil
}

// TestReplayMatchesPrivateCopiesQuick is the fleet form of internal/core's
// replay differential: a random fleet serves a stream of repeats over a
// small problem pool twice, once as given, where a device replays the
// clean solves it recorded (its loops share the run's trace table), and
// once with every request's problem a private copy, which solves the
// same but never replays. The outcomes — results, per-device telemetry,
// requeues, the action log — and the span streams must be deep-equal.
// Reproduce a failing seed (make quick-sweep prints it as replay:<n>) with
//
//	go test ./internal/cluster -run TestReplayMatchesPrivateCopiesQuick -quick.seed=<n>
func TestReplayMatchesPrivateCopiesQuick(t *testing.T) {
	ds := workload.NewDataset(workload.MATH500, rng.New(7))
	replays, served := 0, 0
	prop := func(c replayCase) bool {
		shared, err := c.run(t, ds, func(p *workload.Problem) *workload.Problem { return p })
		if err != nil {
			t.Log(err)
			return false
		}
		private, err := c.run(t, ds, func(p *workload.Problem) *workload.Problem { q := *p; return &q })
		if err != nil {
			t.Log(err)
			return false
		}
		seen := map[*core.Result]bool{}
		for _, r := range shared.out.Results {
			if r.Result != nil {
				served++
				if seen[r.Result] {
					replays++
				}
				seen[r.Result] = true
			}
		}
		a, b := shared.out, private.out
		if len(a.Results) != len(b.Results) {
			t.Logf("shared problems served %d results, private copies %d", len(a.Results), len(b.Results))
			return false
		}
		for i := range a.Results {
			if !reflect.DeepEqual(a.Results[i], b.Results[i]) {
				t.Logf("result %d (tag %d) differs:\n shared  %+v %+v\n private %+v %+v", i, a.Results[i].Tag,
					a.Results[i], a.Results[i].Result, b.Results[i], b.Results[i].Result)
				return false
			}
		}
		if !reflect.DeepEqual(a.Devices, b.Devices) || a.Requeues != b.Requeues ||
			!reflect.DeepEqual(a.Actions, b.Actions) || !reflect.DeepEqual(a.Control, b.Control) {
			t.Logf("fleet telemetry differs:\n shared  %+v\n private %+v", a, b)
			return false
		}
		if !reflect.DeepEqual(shared.spans, private.spans) {
			t.Logf("span streams differ (%d vs %d spans)", len(shared.spans), len(private.spans))
			return false
		}
		return true
	}
	if err := quick.Check(prop, qc(t, 12)); err != nil {
		t.Error(err)
	}
	t.Logf("%d of %d served requests replayed a recorded solve", replays, served)
}
