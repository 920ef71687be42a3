package core

// The safety net under solve replay: a Loop serves a request that repeats
// an earlier clean solve of its key by replaying the recorded slices, and
// nothing observable may depend on it. Each test serves one scripted
// stream twice: once as given, where later requests repeat earlier
// problems and replay them, and once with every request's problem
// replaced by a private copy — the same dataset and index, so the same
// solve, under a key that never repeats, so nothing replays — and demands
// deep-equal results, device telemetry and span streams.

import (
	"reflect"
	"testing"

	"fasttts/internal/memplane"
	"fasttts/internal/obs"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// privateCopy returns a copy of p: it solves exactly as p does, but as a
// trace key it is new, so a request carrying it never replays.
func privateCopy(p *workload.Problem) *workload.Problem {
	q := *p
	return &q
}

// replayCases are the deployments the replay differential runs on:
// FastTTS beam search (speculating, so a preempted slice falls back to a
// live solver) under FCFS and time-sliced SJF and with a 512 MiB KV plane,
// the baseline options (no speculation: every slice is clean and a replay
// recomputes its probe-hit flag) under FCFS and SJF (whose picks read a
// replaying session's remaining work), and chain-of-thought (one slice a
// request).
func replayCases(t *testing.T) []struct {
	name string
	cfg  Config
	pol  sched.ServePolicy
} {
	t.Helper()
	beam := func(opts Options, plane int64) Config {
		pol, err := search.New(search.BeamSearch, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(t, pol, opts)
		cfg.KVPlane = memplane.Config{CapacityBytes: plane}
		return cfg
	}
	return []struct {
		name string
		cfg  Config
		pol  sched.ServePolicy
	}{
		{"beam8-fasttts-fcfs", beam(FastTTSOptions(), 0), sched.FCFS{}},
		{"beam8-fasttts-sjf", beam(FastTTSOptions(), 0), sched.SJF{}},
		{"beam8-fasttts-plane", beam(FastTTSOptions(), 512<<20), sched.FCFS{}},
		{"beam8-baseline-fcfs", beam(BaselineOptions(), 0), sched.FCFS{}},
		{"beam8-baseline-sjf", beam(BaselineOptions(), 0), sched.SJF{}},
		{"cot-fcfs", cotConfig(t, 42), sched.FCFS{}},
	}
}

// replayRun is everything one scripted stream produced: its results in
// the order its two loops served them, the stepped loop's outstanding
// work (the least-work router's signal) after every step, each loop's
// busy time, clock and memory-plane telemetry at the end, and the
// recorder's span stream.
type replayRun struct {
	out   []ServedResult
	work  []float64
	busy  [2]float64
	now   [2]float64
	plane [2]memplane.Stats
	spans []obs.Span
}

// playReplayScript serves the scripted stream on two loops of one server
// that share a result store, the second taking over when the first
// fail-stops. With private set, every request carries a private copy of
// its problem. With private unset, it checks at each step that the replay
// path it means to exercise is the one taken:
//
//   - tags 0–5 record a clean solve each (full width, width 4,
//     first-finish:2, the deadline strategy with no deadline, two more);
//   - tags 6–8 replay tags 0–2 whole and serve their very Results;
//   - tag 9 replays tag 3's key until its deadline cuts it mid-solve;
//   - tag 10 replays tag 4's key until tag 11's arrival lands in one of
//     its later slices, where a speculating deployment falls back to a
//     live solver;
//   - tag 12 is cancelled mid-solve, and tags 13 (live) and 14 (queued)
//     are withdrawn by a fail-stop, while replaying (where nothing
//     speculates) or after falling back at the horizon;
//   - the withdrawn requests, three repeats (tags 15–17) and the first
//     request of a new key (tag 18, width 4) land together on the second
//     loop; under FCFS the last in line, tag 17, replays, while a
//     speculating deployment preempts the others, tag 18 included, which
//     is therefore not recorded;
//   - tag 19 repeats tag 18 alone, and replays it only where nothing
//     speculates; tag 20 asks tag 0's problem at width 4, a key of its
//     own, and must not replay tag 0.
func playReplayScript(t *testing.T, cfg Config, pol sched.ServePolicy, private bool) replayRun {
	t.Helper()
	rec := obs.NewRecorder()
	cfg.Obs = rec
	srv, err := NewServerWithPolicy(cfg, pol)
	if err != nil {
		t.Fatal(err)
	}
	probs := mixedProblems(t, 6)
	prob := func(i int) *workload.Problem {
		if private {
			return privateCopy(probs[i])
		}
		return probs[i]
	}
	dev := srv.NewLoop(nil)
	sib := srv.NewLoop(nil)
	sib.SetObs(rec.Device(1))
	sib.ShareResults(dev)

	var run replayRun
	byTag := map[int]*Result{}
	step := func(l *Loop, horizon float64) {
		t.Helper()
		got, err := l.StepTo(horizon, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, sv := range got {
			byTag[sv.Tag] = sv.Result
		}
		run.out = append(run.out, got...)
		run.work = append(run.work, l.OutstandingWork())
	}
	live := func(l *Loop, tag int) *session {
		for _, c := range l.sessions {
			if c.req.Tag == tag {
				return c
			}
		}
		return nil
	}
	deadline, firstFinish := mustStrategy("deadline"), search.FirstFinish(2)
	speculates := cfg.Opts.Speculative && cfg.Policy.UsesVerifier()
	multiSlice := cfg.Policy.UsesVerifier()

	// Record: one clean solve of each key, 1000 s apart.
	first := []Request{
		{Problem: prob(0), Tag: 0},
		{Problem: prob(1), Tag: 1, Width: 4},
		{Problem: prob(2), Tag: 2, Strategy: firstFinish},
		{Problem: prob(3), Tag: 3, Strategy: deadline},
		{Problem: prob(4), Tag: 4},
		{Problem: prob(5), Tag: 5},
	}
	for i, rq := range first {
		rq.Arrival = 1000 * float64(i)
		dev.Push(rq)
		step(dev, NoHorizon)
	}

	// Replay whole.
	dev.Push(Request{Problem: prob(0), Arrival: 6000, Tag: 6})
	dev.Push(Request{Problem: prob(1), Arrival: 7000, Tag: 7, Width: 4})
	dev.Push(Request{Problem: prob(2), Arrival: 8000, Tag: 8, Strategy: firstFinish})
	step(dev, NoHorizon)
	if !private {
		for tag := 6; tag <= 8; tag++ {
			if byTag[tag] != byTag[tag-6] {
				t.Errorf("tag %d did not replay tag %d's solve", tag, tag-6)
			}
		}
	}

	// A deadline cut on a replay.
	dev.Push(Request{Problem: prob(3), Arrival: 9000, Tag: 9, Strategy: deadline,
		Deadline: 9000 + byTag[3].Latency/2})
	step(dev, NoHorizon)
	if multiSlice && byTag[9].Abandoned == 0 {
		t.Error("the replaying deadline request was not cut mid-solve")
	}

	// An arrival inside a later slice of a replay.
	mid := 10000 + byTag[4].Latency/2
	dev.Push(Request{Problem: prob(4), Arrival: 10000, Tag: 10})
	dev.Push(Request{Problem: prob(5), Arrival: mid, Tag: 11})
	step(dev, mid)
	if c := live(dev, 10); !private && multiSlice {
		switch {
		case c == nil:
			t.Error("tag 10 finished before tag 11 arrived")
		case speculates && (c.trace != nil || c.solver == nil || c.slices < 2):
			t.Errorf("tag 10 after %d slices: replaying %v, solver %v; want a fallback after slice 0",
				c.slices, c.trace != nil, c.solver != nil)
		case !speculates && c.trace == nil:
			t.Error("tag 10 stopped replaying, but nothing speculates")
		}
	}
	step(dev, NoHorizon)

	// A cancel and a fail-stop mid-solve.
	dev.Push(Request{Problem: prob(0), Arrival: 12000, Tag: 12})
	step(dev, 12000+byTag[0].Latency/2)
	if c := live(dev, 12); multiSlice {
		if c == nil {
			t.Fatal("tag 12 finished before the cancel")
		}
		if !private && !speculates && c.trace == nil {
			t.Error("tag 12 is not replaying when cancelled")
		}
		if started, ok := dev.Cancel(12); !started || !ok {
			t.Fatalf("Cancel(12) = (%v, %v), want (true, true)", started, ok)
		}
	}
	step(dev, NoHorizon)
	dev.Push(Request{Problem: prob(1), Arrival: 13000, Tag: 13, Width: 4})
	dev.Push(Request{Problem: prob(2), Arrival: 13000, Tag: 14, Strategy: firstFinish})
	step(dev, 13000+byTag[1].Latency/2)
	if c := live(dev, 13); multiSlice && !private && !speculates && (c == nil || c.trace == nil) {
		t.Error("tag 13 is not replaying at the fail-stop")
	}
	withdrawn := dev.Fail()
	if multiSlice && len(withdrawn) != 2 {
		t.Fatalf("fail-stop withdrew %d requests, want tags 13 and 14", len(withdrawn))
	}

	// The survivor takes the withdrawn requests and a burst of repeats.
	for _, rq := range withdrawn {
		rq.Arrival = 14000
		sib.Push(rq)
	}
	sib.Push(Request{Problem: prob(0), Arrival: 14000, Tag: 15})
	sib.Push(Request{Problem: prob(3), Arrival: 14000, Tag: 16, Strategy: deadline})
	sib.Push(Request{Problem: prob(5), Arrival: 14000, Tag: 18, Width: 4})
	sib.Push(Request{Problem: prob(4), Arrival: 14000, Tag: 17})
	step(sib, NoHorizon)
	sib.Push(Request{Problem: prob(5), Arrival: 20000, Tag: 19, Width: 4})
	sib.Push(Request{Problem: prob(0), Arrival: 21000, Tag: 20, Width: 4})
	step(sib, NoHorizon)
	if !private {
		if (byTag[17] != byTag[4]) != (pol.Name() == "sjf" && speculates) {
			t.Errorf("tag 17 replayed %v, want it to replay unless time-slicing preempts a speculating solve",
				byTag[17] == byTag[4])
		}
		if multiSlice && (byTag[19] == byTag[18]) == speculates {
			t.Errorf("tag 19 replayed tag 18 %v, want %v", byTag[19] == byTag[18], !speculates)
		}
		if multiSlice && byTag[20] == byTag[0] {
			t.Error("tag 20, at width 4, replayed tag 0's full-width solve")
		}
	}

	for i, l := range []*Loop{dev, sib} {
		run.busy[i], run.now[i], run.plane[i] = l.Busy(), l.Now(), l.PlaneStats()
	}
	run.spans = rec.Spans()
	if private {
		seen := map[*Result]bool{}
		for _, sv := range run.out {
			if seen[sv.Result] {
				t.Errorf("tag %d shares a Result, but no private copy repeats", sv.Tag)
			}
			seen[sv.Result] = true
		}
	}
	return run
}

func TestReplayMatchesPrivateCopies(t *testing.T) {
	for _, tc := range replayCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			shared := playReplayScript(t, tc.cfg, tc.pol, false)
			private := playReplayScript(t, tc.cfg, tc.pol, true)
			if len(shared.out) != len(private.out) {
				t.Fatalf("shared problems served %d results, private copies %d", len(shared.out), len(private.out))
			}
			for i := range shared.out {
				if a, b := shared.out[i], private.out[i]; !reflect.DeepEqual(a, b) {
					t.Errorf("result %d (tag %d) differs:\n shared  %+v %+v\n private %+v %+v",
						i, a.Tag, servedSummary(a), a.Result, servedSummary(b), b.Result)
				}
			}
			if shared.busy != private.busy || shared.now != private.now || shared.plane != private.plane ||
				!reflect.DeepEqual(shared.work, private.work) {
				t.Errorf("device telemetry differs:\n shared  busy %v now %v plane %+v work %v\n private busy %v now %v plane %+v work %v",
					shared.busy, shared.now, shared.plane, shared.work, private.busy, private.now, private.plane, private.work)
			}
			if !reflect.DeepEqual(shared.spans, private.spans) {
				t.Errorf("span streams differ (%d vs %d spans)", len(shared.spans), len(private.spans))
				for i := range min(len(shared.spans), len(private.spans)) {
					if shared.spans[i] != private.spans[i] {
						t.Errorf("first difference at span %d:\n shared  %+v\n private %+v", i, shared.spans[i], private.spans[i])
						break
					}
				}
			}
		})
	}
}

// A warm loop serving one problem over and over replays the first clean
// solve every time, sharing its Result, and a replayed request allocates
// nothing, with the KV plane off and on.
func TestReplayAllocatesNothing(t *testing.T) {
	for _, kv := range []memplane.Config{{}, {CapacityBytes: 512 << 20}} {
		pol, err := search.New(search.BeamSearch, 64, 4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(t, pol, FastTTSOptions())
		cfg.KVPlane = kv
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		p := workload.NewDataset(workload.MATH500, rng.New(7)).Problems[17]
		l := srv.NewLoop(nil)
		var out []ServedResult
		var firstRes *Result
		serve := func() {
			l.Push(Request{Problem: p, Arrival: l.Now()})
			var err error
			if out, err = l.StepTo(NoHorizon, out[:0]); err != nil || len(out) != 1 {
				t.Fatalf("served %d results, err %v", len(out), err)
			}
			if firstRes == nil {
				firstRes = out[0].Result
			} else if out[0].Result != firstRes {
				t.Fatal("a repeat of a clean solve did not replay it")
			}
		}
		for i := 0; i < 30; i++ {
			serve()
		}
		got := testing.AllocsPerRun(5, serve)
		t.Logf("plane %d MiB: %v allocations per replayed request", kv.CapacityBytes>>20, got)
		if got != 0 {
			t.Errorf("plane %d MiB: a replayed request allocates %v times, want 0", kv.CapacityBytes>>20, got)
		}
	}
}
