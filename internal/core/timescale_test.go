package core

import (
	"testing"

	"fasttts/internal/sched"
	"fasttts/internal/search"
)

// twiceAsFast returns cfg on a GPU with every rate doubled and its fixed
// kernel overhead halved: every modeled time halves exactly, since
// scaling a float by a power of two is exact short of overflow.
func twiceAsFast(cfg Config) Config {
	cfg.GPU.PeakFLOPS *= 2
	cfg.GPU.MemBW *= 2
	cfg.GPU.PCIeBW *= 2
	cfg.GPU.KernelOverhead /= 2
	return cfg
}

// TestTimeScaleCovariance is an oracle that needs no second
// implementation: on hardware twice as fast, with every time input
// halved, a run must come back with every time halved bit for bit and
// every decision equal.
func TestTimeScaleCovariance(t *testing.T) {
	pol, err := search.New(search.BeamSearch, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts Options
	}{{"fasttts", FastTTSOptions()}, {"baseline", BaselineOptions()}} {
		cfg := testConfig(t, pol, mode.opts)
		for i := 0; i < 10; i++ {
			p := aimeProblem(t, i)
			slow, fast := solveOne(t, cfg, p), solveOne(t, twiceAsFast(cfg), p)
			if fast.Latency != slow.Latency/2 || fast.GenTime != slow.GenTime/2 ||
				fast.VerTime != slow.VerTime/2 || fast.TransferTime != slow.TransferTime/2 {
				t.Errorf("%s AIME24/%d: latency, gen, ver, transfer %v %v %v %v on 2x hardware, want half of %v %v %v %v",
					mode.name, i, fast.Latency, fast.GenTime, fast.VerTime, fast.TransferTime,
					slow.Latency, slow.GenTime, slow.VerTime, slow.TransferTime)
			}
			if fast.Iterations != slow.Iterations || fast.Abandoned != slow.Abandoned ||
				fast.TokensDecoded != slow.TokensDecoded || fast.SpecTokens != slow.SpecTokens ||
				fast.SpecRetained != slow.SpecRetained || fast.RecomputedTokens != slow.RecomputedTokens ||
				len(fast.Finished) != len(slow.Finished) {
				t.Errorf("%s AIME24/%d: counts differ on 2x hardware:\n%+v\nwant\n%+v", mode.name, i, *fast, *slow)
			}
		}
	}

	cfg := serveConfig(t)
	reqs := poissonRequests(t, mixedProblems(t, 40), 0.2, 11) // queues: SJF reorders
	halved := make([]Request, len(reqs))
	for i, rq := range reqs {
		rq.Tag = i
		reqs[i] = rq
		rq.Arrival /= 2
		halved[i] = rq
	}
	for _, pol := range []sched.ServePolicy{sched.FCFS{}, sched.SJF{}} {
		slow, fast := runServer(t, cfg, pol, reqs), runServer(t, twiceAsFast(cfg), pol, halved)
		if len(fast) != len(slow) {
			t.Fatalf("%s: %d results on 2x hardware, want %d", pol.Name(), len(fast), len(slow))
		}
		for k := range slow {
			if f, s := &fast[k], &slow[k]; f.Tag != s.Tag || f.Finish != s.Finish/2 || f.Slices != s.Slices {
				t.Errorf("%s completion %d: request %d finished at %v in %d slices on 2x hardware, want request %d at %v in %d",
					pol.Name(), k, f.Tag, f.Finish, f.Slices, s.Tag, s.Finish/2, s.Slices)
			}
		}
	}
}
