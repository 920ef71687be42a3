package cluster

import (
	"flag"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"fasttts/internal/control"
	"fasttts/internal/core"
	"fasttts/internal/hw"
	"fasttts/internal/rng"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// The fleet property tests are randomized. Override the seed from the
// command line to reproduce a failure:
//
//	go test ./internal/cluster -quick.seed=12345
var quickSeed = flag.Int("quick.seed", int(time.Now().UnixNano())%100000, "seed for fleet property tests")

// qc builds the testing/quick configuration from -quick.seed.
func qc(t *testing.T, maxCount int) *quick.Config {
	t.Helper()
	t.Logf("quick.seed=%d", *quickSeed)
	return &quick.Config{
		MaxCount: maxCount,
		Rand:     rand.New(rand.NewSource(int64(*quickSeed))),
	}
}

// quickGPUs is the device table the randomized cases pick GPUs from.
var quickGPUs = []hw.GPU{hw.RTX4090, hw.RTX4070Ti, hw.RTX3070Ti}

// fleetCase is one randomized fleet scenario: a heterogeneous device set
// with optional stragglers and fail-stops, a random request stream, and a
// random router.
type fleetCase struct {
	GPUs      []int     // device GPU picks (index into the device table)
	Slowdowns []float64 // per-device straggler factors
	FailAts   []float64 // per-device fail times (0 = never)
	Probs     []int     // request problem picks
	Arrivals  []float64 // request arrival times (non-decreasing)
	Router    int       // index into RouterNames()
}

func (fleetCase) Generate(r *rand.Rand, _ int) reflect.Value {
	nd := 1 + r.Intn(3)
	c := fleetCase{Router: r.Intn(len(RouterNames()))}
	for i := 0; i < nd; i++ {
		c.GPUs = append(c.GPUs, r.Intn(len(quickGPUs)))
		slow := 1.0
		if r.Intn(3) == 0 {
			slow = 1 + 2*r.Float64()
		}
		c.Slowdowns = append(c.Slowdowns, slow)
		fail := 0.0
		if r.Intn(3) == 0 {
			fail = 1 + 30*r.Float64() // early enough to interrupt work
		}
		c.FailAts = append(c.FailAts, fail)
	}
	nr := 1 + r.Intn(8)
	at := 0.0
	for i := 0; i < nr; i++ {
		c.Probs = append(c.Probs, r.Intn(6))
		at += 6 * r.Float64()
		c.Arrivals = append(c.Arrivals, at)
	}
	return reflect.ValueOf(c)
}

// devices builds the case's fleet.
func (c fleetCase) devices(t testing.TB) []Device {
	var devices []Device
	for i := range c.GPUs {
		devices = append(devices, Device{
			Config:   devConfig(t, quickGPUs[c.GPUs[i]], 4, uint64(40+i)),
			Slowdown: c.Slowdowns[i],
			FailAt:   c.FailAts[i],
		})
	}
	return devices
}

// requests builds the case's stream over ds, tagged by stream index.
func (c fleetCase) requests(ds *workload.Dataset) []core.Request {
	reqs := make([]core.Request, len(c.Probs))
	for i, pi := range c.Probs {
		reqs[i] = core.Request{Problem: ds.Problems[pi], Arrival: c.Arrivals[i], Tag: i}
	}
	return reqs
}

// TestEveryRouterPreservesRequestMultiset is the fleet's conservation
// law: under random arrivals, stragglers, fail-stops, and requeues, no
// router loses or duplicates a request — every submitted request comes
// back exactly once, served or rejected, and its telemetry is sane.
func TestEveryRouterPreservesRequestMultiset(t *testing.T) {
	ds := workload.NewDataset(workload.MATH500, rng.New(7))
	prop := func(c fleetCase) bool {
		devices := c.devices(t)
		reqs := c.requests(ds)
		router, err := RouterByName(RouterNames()[c.Router])
		if err != nil {
			t.Log(err)
			return false
		}
		f, err := New(Config{Devices: devices, Router: router, Seed: 3})
		if err != nil {
			t.Log(err)
			return false
		}
		out, err := f.Run(reqs)
		if err != nil {
			t.Log(err)
			return false
		}
		if len(out.Results) != len(reqs) {
			t.Logf("router %s: %d results for %d requests", router.Name(), len(out.Results), len(reqs))
			return false
		}
		seen := make(map[int]int)
		for _, r := range out.Results {
			seen[r.Tag]++
			switch {
			case r.Rejected && r.Result != nil:
				t.Logf("router %s: rejected request %d carries a Result", router.Name(), r.Tag)
				return false
			case !r.Rejected && r.Result == nil:
				t.Logf("router %s: served request %d missing its Result", router.Name(), r.Tag)
				return false
			case !r.Rejected && (r.Start < r.Arrival || r.Finish < r.Start):
				t.Logf("router %s: request %d times out of order: %v %v %v",
					router.Name(), r.Tag, r.Arrival, r.Start, r.Finish)
				return false
			case !r.Rejected && (r.Device < 0 || r.Device >= len(devices)):
				t.Logf("router %s: request %d served by device %d of %d",
					router.Name(), r.Tag, r.Device, len(devices))
				return false
			case r.Requeues < 0 || (r.Requeues > 0 && out.Requeues == 0):
				t.Logf("router %s: request %d requeue count %d inconsistent with total %d",
					router.Name(), r.Tag, r.Requeues, out.Requeues)
				return false
			}
		}
		for i := range reqs {
			if seen[i] != 1 {
				t.Logf("router %s: request %d reported %d times", router.Name(), i, seen[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, qc(t, 60)); err != nil {
		t.Error(err)
	}
}

// hedgedCase extends fleetCase with the picks the hedged strategy
// needs: a GPU for the extra device that guarantees the >= 2-device
// replication floor, and whether the quiet-by-construction stream gets
// compressed arrivals (more in-flight overlap, more live cancels).
type hedgedCase struct {
	Fleet    fleetCase
	Extra    int  // GPU pick for the replication-floor device
	Compress bool // halve arrival gaps to force overlapping twins
}

func (hedgedCase) Generate(r *rand.Rand, size int) reflect.Value {
	fc := fleetCase{}.Generate(r, size).Interface().(fleetCase)
	return reflect.ValueOf(hedgedCase{Fleet: fc, Extra: r.Intn(3), Compress: r.Intn(2) == 0})
}

// devices builds the case's fleet. Hedging validates a >= 2-device
// fleet; the extra device is fault-free so at least one replica target
// always exists.
func (hc hedgedCase) devices(t testing.TB) []Device {
	devices := hc.Fleet.devices(t)
	if len(devices) < 2 {
		devices = append(devices, Device{Config: devConfig(t, quickGPUs[hc.Extra], 4, uint64(60))})
	}
	return devices
}

// requests builds the case's stream, arrival gaps halved under Compress.
func (hc hedgedCase) requests(ds *workload.Dataset) []core.Request {
	reqs := hc.Fleet.requests(ds)
	if hc.Compress {
		for i := range reqs {
			reqs[i].Arrival /= 2
		}
	}
	return reqs
}

// TestHedgedCancellationPreservesRequestMultiset extends the
// conservation law to the hedged strategy: every arrival is replicated
// to a twin device and the loser is cancelled mid-flight, composed with
// random stragglers, fail-stops (which requeue or withdraw hedge
// copies), and every router. The served stream must still carry each
// submitted tag exactly once, under the original (non-negative) tag,
// with sane telemetry — no lost winners, duplicated twins, or leaked
// internal twin tags.
func TestHedgedCancellationPreservesRequestMultiset(t *testing.T) {
	ds := workload.NewDataset(workload.MATH500, rng.New(7))
	prop := func(hc hedgedCase) bool {
		devices := hc.devices(t)
		reqs := hc.requests(ds)
		router, err := RouterByName(RouterNames()[hc.Fleet.Router])
		if err != nil {
			t.Log(err)
			return false
		}
		f, err := New(Config{Devices: devices, Router: router, Seed: 3, Strategy: search.Hedged{}})
		if err != nil {
			t.Log(err)
			return false
		}
		out, err := f.Run(reqs)
		if err != nil {
			t.Log(err)
			return false
		}
		if len(out.Results) != len(reqs) {
			t.Logf("router %s: %d results for %d hedged requests", router.Name(), len(out.Results), len(reqs))
			return false
		}
		seen := make(map[int]int)
		for _, r := range out.Results {
			seen[r.Tag]++
			switch {
			case r.Tag < 0:
				t.Logf("router %s: internal twin tag %d leaked into the served stream", router.Name(), r.Tag)
				return false
			case r.Rejected && r.Result != nil:
				t.Logf("router %s: rejected request %d carries a Result", router.Name(), r.Tag)
				return false
			case !r.Rejected && r.Result == nil:
				t.Logf("router %s: served request %d missing its Result", router.Name(), r.Tag)
				return false
			case !r.Rejected && (r.Start < r.Arrival || r.Finish < r.Start):
				t.Logf("router %s: request %d times out of order: %v %v %v",
					router.Name(), r.Tag, r.Arrival, r.Start, r.Finish)
				return false
			case !r.Rejected && (r.Device < 0 || r.Device >= len(devices)):
				t.Logf("router %s: request %d served by device %d of %d",
					router.Name(), r.Tag, r.Device, len(devices))
				return false
			}
		}
		for i := range reqs {
			if seen[i] != 1 {
				t.Logf("router %s: hedged request %d reported %d times", router.Name(), i, seen[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, qc(t, 60)); err != nil {
		t.Error(err)
	}
}

// elasticCase extends fleetCase with a randomized controller schedule:
// a random policy, control interval, warm-pool size, and warm-up delay.
type elasticCase struct {
	Fleet      fleetCase
	Controller int     // index into control.Names()
	Interval   float64 // control period
	WarmCount  int     // warm-pool templates
	Warmup     float64 // join warm-up delay
	MaxTier    int
}

func (elasticCase) Generate(r *rand.Rand, size int) reflect.Value {
	fc := fleetCase{}.Generate(r, size).Interface().(fleetCase)
	return reflect.ValueOf(elasticCase{
		Fleet:      fc,
		Controller: r.Intn(len(control.Names())),
		Interval:   0.5 + 10*r.Float64(),
		WarmCount:  r.Intn(3),
		Warmup:     3 * r.Float64(),
		MaxTier:    r.Intn(3),
	})
}

// control builds the case's control plane around a fresh controller
// (controllers carry state, so every run needs its own).
func (ec elasticCase) control(t testing.TB) (*ControlConfig, error) {
	ctl, err := control.ByName(control.Names()[ec.Controller])
	if err != nil {
		return nil, err
	}
	var warm []Device
	for i := 0; i < ec.WarmCount; i++ {
		warm = append(warm, Device{Config: devConfig(t, quickGPUs[i%len(quickGPUs)], 4, uint64(70+i))})
	}
	return &ControlConfig{
		Controller:  ctl,
		Interval:    ec.Interval,
		Warm:        warm,
		WarmupDelay: ec.Warmup,
		MaxTier:     ec.MaxTier,
		SLOLatency:  60,
	}, nil
}

// TestDynamicMembershipPreservesRequestMultiset extends the conservation
// law to the elastic control plane: under randomized controller
// schedules — joins mid-stream, drains, budget-tier moves — composed
// with random stragglers and fail-stops, no admitted request is ever
// lost or duplicated, and drained devices never serve requests routed
// after their drain.
func TestDynamicMembershipPreservesRequestMultiset(t *testing.T) {
	ds := workload.NewDataset(workload.MATH500, rng.New(7))
	prop := func(ec elasticCase) bool {
		devices := ec.Fleet.devices(t)
		reqs := ec.Fleet.requests(ds)
		router, err := RouterByName(RouterNames()[ec.Fleet.Router])
		if err != nil {
			t.Log(err)
			return false
		}
		cc, err := ec.control(t)
		if err != nil {
			t.Log(err)
			return false
		}
		ctl := cc.Controller
		f, err := New(Config{Devices: devices, Router: router, Seed: 3, Control: cc})
		if err != nil {
			t.Log(err)
			return false
		}
		out, err := f.Run(reqs)
		if err != nil {
			t.Log(err)
			return false
		}
		if len(out.Results) != len(reqs) {
			t.Logf("%s/%s: %d results for %d requests", router.Name(), ctl.Name(), len(out.Results), len(reqs))
			return false
		}
		seen := make(map[int]int)
		for _, r := range out.Results {
			seen[r.Tag]++
			switch {
			case r.Rejected && r.Result != nil:
				t.Logf("rejected request %d carries a Result", r.Tag)
				return false
			case !r.Rejected && r.Result == nil:
				t.Logf("served request %d missing its Result", r.Tag)
				return false
			case !r.Rejected && (r.Device < 0 || r.Device >= len(out.Devices)):
				t.Logf("request %d served by device %d of %d", r.Tag, r.Device, len(out.Devices))
				return false
			case !r.Rejected && r.Device >= len(devices) && r.Start < out.Devices[r.Device].LiveStart:
				t.Logf("warm device %d started request %d at %v before joining at %v",
					r.Device, r.Tag, r.Start, out.Devices[r.Device].LiveStart)
				return false
			}
		}
		for i := range reqs {
			if seen[i] != 1 {
				t.Logf("%s/%s: request %d reported %d times", router.Name(), ctl.Name(), i, seen[i])
				return false
			}
		}
		// Device telemetry stays sane under dynamic membership.
		for i, d := range out.Devices {
			if d.Lifetime < 0 || d.Busy > d.Lifetime+1e-9 {
				t.Logf("device %d busy %v exceeds live interval %v", i, d.Busy, d.Lifetime)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, qc(t, 40)); err != nil {
		t.Error(err)
	}
}

// scanLeastWork is LeastWork with its type hidden from the fleet, which
// then routes by calling the LeastWork.Route scan instead of reading the
// root of its least-work index.
type scanLeastWork struct{ LeastWork }

// TestLeastWorkIndexMatchesScan is the differential check of the
// least-work index: each fleet, hedged and elastic case of the
// conservation properties above — stragglers, fail-stops, twin
// placements and cancels, joins and drains — runs once under LeastWork
// (routed by the index) and once under scanLeastWork (routed by the
// scan), and the two outcomes must be deeply equal.
func TestLeastWorkIndexMatchesScan(t *testing.T) {
	ds := workload.NewDataset(workload.MATH500, rng.New(7))
	same := func(t *testing.T, mk func(Router) (Config, error), reqs []core.Request) bool {
		var outs [2]*Outcome
		for i, router := range []Router{LeastWork{}, scanLeastWork{}} {
			cfg, err := mk(router)
			if err != nil {
				t.Log(err)
				return false
			}
			f, err := New(cfg)
			if err != nil {
				t.Log(err)
				return false
			}
			if outs[i], err = f.Run(reqs); err != nil {
				t.Log(err)
				return false
			}
		}
		if !reflect.DeepEqual(outs[0], outs[1]) {
			t.Logf("index and scan outcomes differ over %d requests", len(reqs))
			return false
		}
		return true
	}
	t.Run("fleet", func(t *testing.T) {
		prop := func(c fleetCase) bool {
			devices := c.devices(t)
			return same(t, func(r Router) (Config, error) {
				return Config{Devices: devices, Router: r, Seed: 3}, nil
			}, c.requests(ds))
		}
		if err := quick.Check(prop, qc(t, 60)); err != nil {
			t.Error(err)
		}
	})
	t.Run("hedged", func(t *testing.T) {
		prop := func(hc hedgedCase) bool {
			devices := hc.devices(t)
			return same(t, func(r Router) (Config, error) {
				return Config{Devices: devices, Router: r, Seed: 3, Strategy: search.Hedged{}}, nil
			}, hc.requests(ds))
		}
		if err := quick.Check(prop, qc(t, 60)); err != nil {
			t.Error(err)
		}
	})
	t.Run("elastic", func(t *testing.T) {
		prop := func(ec elasticCase) bool {
			devices := ec.Fleet.devices(t)
			return same(t, func(r Router) (Config, error) {
				cc, err := ec.control(t)
				return Config{Devices: devices, Router: r, Seed: 3, Control: cc}, err
			}, ec.Fleet.requests(ds))
		}
		if err := quick.Check(prop, qc(t, 40)); err != nil {
			t.Error(err)
		}
	})
}
