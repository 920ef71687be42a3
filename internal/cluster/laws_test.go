package cluster

import (
	"strings"
	"testing"

	"fasttts/internal/core"
	"fasttts/internal/metrics"
	"fasttts/internal/search"
)

// TestFleetLawsFire makes each fleet law fire on a hand-broken outcome
// and checks that the error names it; the unbroken outcome passes.
func TestFleetLawsFire(t *testing.T) {
	reqs := func(tags ...int) []core.Request {
		out := make([]core.Request, len(tags))
		for i, tag := range tags {
			out[i] = core.Request{Tag: tag}
		}
		return out
	}
	results := func(tags ...int) []Result {
		out := make([]Result, len(tags))
		for i, tag := range tags {
			out[i].Tag = tag
		}
		return out
	}
	// outcomes builds a finished run over reqs, as newRun would leave it,
	// that delivered res.
	outcomes := func(strategy search.Strategy, reqs []core.Request, res []Result) error {
		r := &run{f: &Fleet{cfg: Config{Strategy: strategy}}, reqs: reqs, out: &Outcome{Results: res},
			order: make([]int32, len(reqs)), promptOf: make([]int32, len(reqs))}
		for i := range reqs {
			r.order[i] = int32(i)
		}
		return r.checkOutcomes()
	}
	for _, tc := range []struct {
		name string
		err  error
		law  string // "" for no violation
	}{
		{"device sound", checkDevice(&metrics.FleetDeviceStats{BusyTime: 2, LiveSeconds: 2 - busySlack/2, CacheUsedTokens: 5, CacheCapacityTokens: 5}), ""},
		{"busy past live", checkDevice(&metrics.FleetDeviceStats{Device: 1, BusyTime: 241.70, LiveSeconds: 239.89}), lawBusy},
		{"plane overfull", checkDevice(&metrics.FleetDeviceStats{CacheUsedTokens: 6, CacheCapacityTokens: 5}), lawPlane},
		{"consecutive tags sound", outcomes(search.Strategy{}, reqs(3, 4, 5), results(5, 3, 4)), ""},
		{"sparse tags sound", outcomes(mustStrategy("hedged"), reqs(9, 2, 40), results(40, 2, 9)), ""},
		{"result missing", outcomes(search.Strategy{}, reqs(0, 1, 2), results(0, 1)), core.LawOneResult},
		{"consecutive duplicate", outcomes(search.Strategy{}, reqs(0, 1, 2), results(0, 1, 1)), core.LawOneResult},
		{"sparse duplicate", outcomes(search.Strategy{}, reqs(9, 2, 40), results(40, 2, 40)), core.LawOneResult},
		{"consecutive stranger", outcomes(search.Strategy{}, reqs(0, 1, 2), results(0, 1, 3)), core.LawOneResult},
		{"sparse stranger", outcomes(search.Strategy{}, reqs(9, 2, 40), results(40, 2, 8)), core.LawOneResult},
		{"twin surfaced", outcomes(mustStrategy("hedged"), reqs(0, 1, 2), results(0, 1, ^2)), core.LawOneResult},
	} {
		switch {
		case tc.law == "" && tc.err != nil:
			t.Errorf("%s: %v", tc.name, tc.err)
		case tc.law != "" && (tc.err == nil || !strings.Contains(tc.err.Error(), tc.law)):
			t.Errorf("%s: error %v, want one naming %q", tc.name, tc.err, tc.law)
		}
	}
}

// TestHedgedLoserLivesThroughItsSlice pins the live interval of a device
// whose cancelled hedge copy's atomic slice ran past the makespan: its
// life ends at its last clock tick, so BusyTime never exceeds
// LiveSeconds (nor utilization 1). (The fleet of
// TestTraceHedgedValidAndUnperturbed; its device 1 was once busy
// 241.70 s inside a 239.89 s live interval.)
func TestHedgedLoserLivesThroughItsSlice(t *testing.T) {
	reqs := taggedStream(t, repeatedProblems(t, 40, 5), 3.0, 17)
	for _, router := range RouterNames() {
		rt, err := RouterByName(router)
		if err != nil {
			t.Fatal(err)
		}
		f, err := New(Config{Devices: equivFleet(t), Router: rt, Seed: 3, Strategy: mustStrategy("hedged")})
		if err != nil {
			t.Fatal(err)
		}
		out, err := f.Run(reqs)
		if err != nil {
			t.Fatalf("%s: %v", router, err)
		}
		for _, d := range out.Devices {
			if d.BusyTime > d.LiveSeconds+busySlack {
				t.Errorf("%s: device %d busy %v s inside a %v s live interval", router, d.Device, d.BusyTime, d.LiveSeconds)
			}
		}
	}
}
