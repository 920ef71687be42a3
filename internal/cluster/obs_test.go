package cluster

// Trace validity: for every router, strategy, control plane and fault
// schedule, the span flight recorder's merged stream must satisfy its
// lifecycle invariants and attribute every finished request exactly —
// and attaching a recorder must not perturb the outcome it observes.

import (
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"testing"
	"testing/quick"

	"fasttts/internal/control"
	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/obs"
	"fasttts/internal/rng"
	"fasttts/internal/workload"
)

// runTraced serves the stream with a fresh recorder attached and
// returns the outcome plus the canonically merged span stream.
func runTraced(t testing.TB, mk func() Config, reqs []core.Request) (*Outcome, []obs.Span) {
	t.Helper()
	cfg := mk()
	cfg.Obs = obs.NewRecorder()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	out, err := f.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return out, cfg.Obs.Spans()
}

// traceUnperturbed serves the stream twice, untraced and traced, checks
// the trace with checkTrace, and fails unless the two outcomes differ
// only by the attribution report. It returns the trace.
func traceUnperturbed(t *testing.T, label string, mk func() Config, reqs []core.Request) []obs.Span {
	t.Helper()
	plain, err := New(mk())
	if err != nil {
		t.Fatal(err)
	}
	untraced, err := plain.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	out, spans := runTraced(t, mk, reqs)
	checkTrace(t, label, out, spans)
	redacted := *out
	redacted.Attribution = nil
	if !reflect.DeepEqual(&redacted, untraced) {
		t.Errorf("%s: attaching a recorder perturbed the outcome", label)
	}
	return spans
}

// checkTrace runs the full span-stream validity suite on one trace.
func checkTrace(t *testing.T, label string, out *Outcome, spans []obs.Span) {
	t.Helper()
	if len(spans) == 0 {
		t.Errorf("%s: recorder captured nothing", label)
		return
	}
	if err := obs.Verify(spans); err != nil {
		t.Errorf("%s: lifecycle invariants violated: %v", label, err)
	}
	attrs := obs.Attribute(spans)
	if err := obs.CheckSums(attrs); err != nil {
		t.Errorf("%s: attribution components do not sum to wall: %v", label, err)
	}
	if want := attributeByMap(spans); !reflect.DeepEqual(attrs, want) {
		t.Errorf("%s: index-grouped attribution diverges from the map-grouped reference", label)
	}
	if out.Attribution == nil {
		t.Errorf("%s: traced outcome missing Attribution", label)
	} else if got := obs.Summarize(attrs); *out.Attribution != got {
		t.Errorf("%s: outcome attribution %+v != recomputed %+v", label, *out.Attribution, got)
	}
}

// attributeByMap is the grouping Attribute replaced, kept as its
// reference: copy every span into a per-request map bucket (hedge twins
// folded onto their original tag), then attribute the buckets one
// request at a time in tag order. Attribute itself groups all requests
// at once by index; the two must agree record for record.
func attributeByMap(spans []obs.Span) []obs.RequestAttribution {
	groups := make(map[int][]obs.Span)
	var order []int
	for _, s := range spans {
		o, _ := obs.OrigTag(s.Tag)
		if _, ok := groups[o]; !ok {
			order = append(order, o)
		}
		groups[o] = append(groups[o], s)
	}
	sort.Ints(order)
	var out []obs.RequestAttribution
	for _, tag := range order {
		out = append(out, obs.Attribute(groups[tag])...)
	}
	return out
}

// TestTraceValidAndUnperturbed is the headline trace test: for every
// router, over a fleet with a straggler and a mid-run fail-stop, the
// trace passes checkTrace and the traced outcome equals an untraced
// run's.
func TestTraceValidAndUnperturbed(t *testing.T) {
	reqs := taggedStream(t, repeatedProblems(t, 40, 5), 2.0, 11)
	for _, router := range RouterNames() {
		mk := func() Config {
			rt, err := RouterByName(router)
			if err != nil {
				t.Fatal(err)
			}
			return Config{Devices: equivFleet(t), Router: rt, Seed: 3}
		}
		traceUnperturbed(t, router, mk, reqs)
	}
}

// TestTraceHedgedValidAndUnperturbed adds cross-device hedging: twin
// placements, loser cancellations, and hedge-waste attribution.
func TestTraceHedgedValidAndUnperturbed(t *testing.T) {
	reqs := taggedStream(t, repeatedProblems(t, 40, 5), 3.0, 17)
	for _, router := range RouterNames() {
		mk := func() Config {
			rt, err := RouterByName(router)
			if err != nil {
				t.Fatal(err)
			}
			return Config{Devices: equivFleet(t), Router: rt, Seed: 3, Strategy: mustStrategy("hedged")}
		}
		spans := traceUnperturbed(t, router+"/hedged", mk, reqs)
		hedges := 0
		for _, s := range spans {
			if s.Kind == obs.KindHedge {
				hedges++
			}
		}
		if hedges == 0 {
			t.Errorf("%s: hedged run traced no hedge placements", router)
		}
	}
}

// TestTraceElasticValidAndUnperturbed adds the control plane: ticks,
// warm-pool joins, and drain decisions become control-track spans.
func TestTraceElasticValidAndUnperturbed(t *testing.T) {
	reqs := taggedStream(t, repeatedProblems(t, 60, 5), 4.0, 13)
	warm := []Device{
		{Config: devConfig(t, hw.RTX4090, 4, 70)},
		{Config: devConfig(t, hw.RTX4070Ti, 4, 71)},
	}
	for _, router := range []string{"rr", "least-work", "prefix"} {
		for _, ctlName := range control.Names() {
			mk := func() Config {
				rt, err := RouterByName(router)
				if err != nil {
					t.Fatal(err)
				}
				ctl, err := control.ByName(ctlName)
				if err != nil {
					t.Fatal(err)
				}
				return Config{Devices: equivFleet(t), Router: rt, Seed: 3, Control: &ControlConfig{
					Controller:  ctl,
					Interval:    2.5,
					Warm:        warm,
					WarmupDelay: 1.0,
					MaxTier:     2,
					SLOLatency:  30,
				}}
			}
			label := router + "/" + ctlName
			spans := traceUnperturbed(t, label, mk, reqs)
			ticks := 0
			for _, s := range spans {
				if s.Kind == obs.KindTick {
					ticks++
				}
			}
			if ticks == 0 {
				t.Errorf("%s: elastic run traced no control ticks", label)
			}
		}
	}
}

// traceCase is one randomized trace scenario: a fleetCase (random fleet,
// stragglers, fail-stops, stream, router) plus a random strategy pick.
type traceCase struct {
	Hedged hedgedCase
	Hedge  bool // attach the hedged strategy
}

func (traceCase) Generate(r *rand.Rand, size int) reflect.Value {
	hc := hedgedCase{}.Generate(r, size).Interface().(hedgedCase)
	return reflect.ValueOf(traceCase{Hedged: hc, Hedge: r.Intn(2) == 0})
}

// TestTraceLifecycleProperty is the randomized conservation law for the
// flight recorder: across random router × strategy × fail-stop
// schedules, every span opened is closed exactly once, device slice
// intervals never overlap, and attribution components sum to wall
// latency.
func TestTraceLifecycleProperty(t *testing.T) {
	gpus := []hw.GPU{hw.RTX4090, hw.RTX4070Ti, hw.RTX3070Ti}
	ds := workload.NewDataset(workload.MATH500, rng.New(7))
	prop := func(tc traceCase) bool {
		c := tc.Hedged.Fleet
		var devices []Device
		for i := range c.GPUs {
			devices = append(devices, Device{
				Config:   devConfig(t, gpus[c.GPUs[i]], 4, uint64(40+i)),
				Slowdown: c.Slowdowns[i],
				FailAt:   c.FailAts[i],
			})
		}
		if tc.Hedge && len(devices) < 2 {
			devices = append(devices, Device{Config: devConfig(t, gpus[tc.Hedged.Extra], 4, uint64(60))})
		}
		reqs := make([]core.Request, len(c.Probs))
		for i, pi := range c.Probs {
			reqs[i] = core.Request{Problem: ds.Problems[pi], Arrival: c.Arrivals[i], Tag: i}
		}
		mk := func() Config {
			router, err := RouterByName(RouterNames()[c.Router])
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Devices: devices, Router: router, Seed: 3}
			if tc.Hedge {
				cfg.Strategy = mustStrategy("hedged")
			}
			return cfg
		}
		_, spans := runTraced(t, mk, reqs)
		if err := obs.Verify(spans); err != nil {
			t.Logf("case %+v: %v", tc, err)
			return false
		}
		if err := obs.CheckSums(obs.Attribute(spans)); err != nil {
			t.Logf("case %+v: %v", tc, err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, qc(t, 40)); err != nil {
		t.Error(err)
	}
}

// TestSpansPerRequest pins the recorder's span budget on the benchmark's
// fleet-observed shape, scaled down: a routing decision costs O(1)
// control-track spans however many devices were scored — the route and
// its runner-up — so the trace stays within 8 spans per request, a
// 64-device fleet records exactly what an 8-device fleet records per
// arrival, and the decision margin is still readable off the pair.
func TestSpansPerRequest(t *testing.T) {
	const requests = 2000
	perArrival := func(devices int) map[int]int {
		mk, reqs := observedFleet(t, devices, requests)
		out, spans := runTraced(t, mk, reqs)
		checkTrace(t, strconv.Itoa(devices)+" devices", out, spans)
		if per := float64(len(spans)) / requests; per > 8 {
			t.Errorf("%d devices: %.1f spans per request, want <= 8", devices, per)
		}
		ctl := make(map[int]int)
		for i, s := range spans {
			if s.Track != obs.ControlTrack {
				continue
			}
			switch s.Kind {
			case obs.KindRoute:
				ctl[s.Tag]++
				if i+1 == len(spans) || spans[i+1].Kind != obs.KindRouteCand {
					t.Errorf("%d devices: route of request %d has no runner-up span", devices, s.Tag)
					continue
				}
				// Least-work over equal-speed devices picks the least
				// outstanding work, so the runner-up is never below it.
				ru := spans[i+1]
				if ru.Tag != s.Tag || ru.N == int(s.V1) || ru.V1 < s.V2 {
					t.Errorf("%d devices: route %+v followed by runner-up %+v", devices, s, ru)
				}
			case obs.KindRouteCand:
				ctl[s.Tag]++
			}
		}
		return ctl
	}
	small, large := perArrival(8), perArrival(64)
	if len(small) != requests || len(large) != requests {
		t.Fatalf("routed %d and %d of %d arrivals", len(small), len(large), requests)
	}
	for tag, n := range small {
		if n != 2 || large[tag] != n {
			t.Fatalf("request %d: %d routing spans at 8 devices, %d at 64, want 2 and 2", tag, n, large[tag])
		}
	}
}
