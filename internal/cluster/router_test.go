package cluster

// Unit tests for the memory-plane-aware routing additions: the
// cache-aware router's residency-vs-load trade, its least-work
// degeneration on plane-less fleets, and the bounded prefix-affinity
// directory (deterministic FIFO eviction of the oldest-homed prefix).
// Also the least-work index against the LeastWork scan it replaces.

import (
	"fmt"
	"math/rand"
	"testing"

	"fasttts/internal/hw"
	"fasttts/internal/memplane"
	"fasttts/internal/model"
	"fasttts/internal/rng"
)

// residentPlane builds a memory plane with the given prompt key fully
// resident (admitted once and finished, so the prompt prefix stays
// cached for reuse).
func residentPlane(t *testing.T, key string, promptTokens int) *memplane.Plane {
	t.Helper()
	p := memplane.New(memplane.Config{CapacityBytes: 1 << 30}, hw.RTX4090, model.Qwen25Math1_5B)
	s, _ := p.Admit(key, promptTokens)
	p.Finish(s)
	if got := p.ResidentPromptTokens(key, promptTokens); got != promptTokens {
		t.Fatalf("plane setup: %d resident tokens, want %d", got, promptTokens)
	}
	return p
}

func TestCacheAwarePrefersResidentDevice(t *testing.T) {
	rq := RequestView{PrefixKey: "amc23/3", PromptTokens: 400}
	devices := []DeviceView{
		// Idle but cold: must re-prefill the whole prompt (cost 400).
		{Index: 0, Speed: 1, OutstandingWork: 0},
		// Busier but warm: the resident prefix outweighs 300 tokens of
		// backlog (cost 300 < 400).
		{Index: 1, Speed: 1, OutstandingWork: 300, Mem: residentPlane(t, "amc23/3", 400)},
	}
	if got := (CacheAware{}).Route(rq, devices, rng.New(1).Child("router")); got != 1 {
		t.Errorf("routed to device %d, want warm device 1", got)
	}
	// Past the break-even point the backlog dominates and the router
	// abandons locality — cache affinity must not create hotspots.
	devices[1].OutstandingWork = 500
	if got := (CacheAware{}).Route(rq, devices, rng.New(1).Child("router")); got != 0 {
		t.Errorf("routed to device %d, want idle cold device 0", got)
	}
}

func TestCacheAwareWeighsMissBySpeed(t *testing.T) {
	rq := RequestView{PrefixKey: "amc23/0", PromptTokens: 600}
	// Both cold, equal work: the faster device absorbs the re-prefill
	// debt sooner.
	devices := []DeviceView{
		{Index: 0, Speed: 1, OutstandingWork: 100},
		{Index: 1, Speed: 4, OutstandingWork: 100},
	}
	if got := (CacheAware{}).Route(rq, devices, rng.New(2).Child("router")); got != 1 {
		t.Errorf("routed to device %d, want fast device 1", got)
	}
}

// TestCacheAwareDegeneratesWithoutPlane: with no memory plane every
// device misses the full prompt equally, so the decision reduces to
// drain time with pending/index tie-breaks — LeastWork's ordering.
func TestCacheAwareDegeneratesWithoutPlane(t *testing.T) {
	rq := RequestView{PrefixKey: "k", PromptTokens: 128}
	cases := []struct {
		name    string
		devices []DeviceView
		want    int
	}{
		{
			name: "least drain wins",
			devices: []DeviceView{
				{Index: 0, Speed: 1, OutstandingWork: 50},
				{Index: 1, Speed: 1, OutstandingWork: 20},
			},
			want: 1,
		},
		{
			name: "drain tie broken by pending",
			devices: []DeviceView{
				{Index: 0, Speed: 1, OutstandingWork: 30, Pending: 3},
				{Index: 1, Speed: 1, OutstandingWork: 30, Pending: 1},
			},
			want: 1,
		},
		{
			name: "full tie broken by index",
			devices: []DeviceView{
				{Index: 0, Speed: 1, OutstandingWork: 30, Pending: 2},
				{Index: 1, Speed: 1, OutstandingWork: 30, Pending: 2},
			},
			want: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := (CacheAware{}).Route(rq, tc.devices, rng.New(3).Child("router")); got != tc.want {
				t.Errorf("routed to device %d, want %d", got, tc.want)
			}
		})
	}
}

// TestPrefixAffinityDirectoryBounded: with MaxPrefixes set, homing a new
// prefix beyond the cap evicts the oldest-homed one (FIFO), so the
// directory cannot grow without bound on long multi-tenant streams.
func TestPrefixAffinityDirectoryBounded(t *testing.T) {
	p := &PrefixAffinity{MaxPrefixes: 2}
	devices := []DeviceView{
		{Index: 0, Speed: 1},
		{Index: 1, Speed: 1},
	}
	r := rng.New(4).Child("router")
	route := func(key string) int {
		return p.Route(RequestView{PrefixKey: key}, devices, r)
	}
	route("a")
	route("b")
	if len(p.home) != 2 {
		t.Fatalf("directory holds %d prefixes, want 2", len(p.home))
	}
	// Homing "c" must evict "a", the oldest entry.
	route("c")
	if len(p.home) != 2 {
		t.Errorf("directory holds %d prefixes after eviction, want 2", len(p.home))
	}
	if _, ok := p.home["a"]; ok {
		t.Error("oldest prefix \"a\" still homed after capacity eviction")
	}
	for _, key := range []string{"b", "c"} {
		if _, ok := p.home[key]; !ok {
			t.Errorf("prefix %q missing from bounded directory", key)
		}
	}
	// Re-homing an existing prefix must not evict anything: only first
	// homings consume capacity.
	route("b")
	if len(p.home) != 2 {
		t.Errorf("re-homing grew the directory to %d entries", len(p.home))
	}
	if _, ok := p.home["c"]; !ok {
		t.Error("re-homing an existing prefix evicted another entry")
	}
}

// TestPrefixAffinityDirectoryDefaults pins the MaxPrefixes contract: 0
// means the 4096 default, negative disables the bound entirely.
func TestPrefixAffinityDirectoryDefaults(t *testing.T) {
	devices := []DeviceView{{Index: 0, Speed: 1}}
	const n = 5000 // beyond the 4096 default cap
	for _, tc := range []struct {
		name string
		max  int
		want int
	}{
		{"zero means 4096", 0, 4096},
		{"negative means unbounded", -1, n},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := &PrefixAffinity{MaxPrefixes: tc.max}
			r := rng.New(5).Child("router")
			for i := 0; i < n; i++ {
				p.Route(RequestView{PrefixKey: fmt.Sprintf("tenant/%d", i)}, devices, r)
			}
			if len(p.home) != tc.want {
				t.Errorf("directory holds %d prefixes, want %d", len(p.home), tc.want)
			}
		})
	}
}

// TestBestTreeMatchesScan drives the least-work index of a run through
// random refreshes, drops (run.dropView, as a fail-stop or drain does)
// and joins over views built to tie — drain times in {0, 1, 2} on mixed
// speeds, pending in {0, 1} — and requires the tree's root to equal the
// LeastWork scan after every operation. Reproduce a failure with
// -quick.seed.
func TestBestTreeMatchesScan(t *testing.T) {
	t.Logf("quick.seed=%d", *quickSeed)
	rnd := rand.New(rand.NewSource(int64(*quickSeed)))
	for trial := 0; trial < 200; trial++ {
		r := &run{best: &bestTree{}}
		r.reindex()
		join := func() {
			r.posInVs = append(r.posInVs, len(r.vs))
			r.vs = append(r.vs, DeviceView{Index: len(r.posInVs) - 1, Speed: float64(1 + rnd.Intn(2))})
			r.reindex()
		}
		for n := rnd.Intn(9); n > 0; n-- {
			join()
		}
		for op := 0; op < 60; op++ {
			switch k := rnd.Intn(8); {
			case k == 0:
				join()
			case k == 1 && len(r.vs) > 0:
				r.dropView(r.vs[rnd.Intn(len(r.vs))].Index)
			case len(r.vs) > 0:
				p := rnd.Intn(len(r.vs))
				v := &r.vs[p]
				v.OutstandingWork = v.Speed * float64(rnd.Intn(3)) // drain time 0, 1 or 2
				v.Pending = rnd.Intn(2)
				r.best.fix(r.vs, p)
			}
			want := -1
			if len(r.vs) > 0 {
				want = LeastWork{}.Route(RequestView{}, r.vs, nil)
			}
			if got := r.best.root(); got != want {
				t.Fatalf("trial %d op %d: tree root %d, scan %d over %+v", trial, op, got, want, r.vs)
			}
		}
	}
}

// planeFleet is hetero4 with the KV memory plane enabled at a tight
// capacity, so admission, LRU eviction, and re-prefill penalties all
// fire during a short run.
func planeFleet(t *testing.T, capacity int64) []Device {
	t.Helper()
	devs := hetero4(t)
	for i := range devs {
		devs[i].Config.KVPlane = memplane.Config{CapacityBytes: capacity}
	}
	return devs
}

// TestFleetCacheTelemetryFlows: with the memory plane enabled, the
// fleet's stats carry per-device capacity/occupancy and fleet-level
// hit/miss/eviction counters; with the plane disabled (the default),
// every cache field stays zero.
func TestFleetCacheTelemetryFlows(t *testing.T) {
	probs := repeatedProblems(t, 24, 3)
	reqs := taggedStream(t, probs, 0.5, 11)

	st := runFleet(t, planeFleet(t, 64<<20), CacheAware{}, 9, reqs).Stats(0)
	if st.CacheHitTokens+st.CacheMissTokens == 0 {
		t.Fatal("memory plane enabled but no cache traffic recorded")
	}
	if st.CacheHitRate <= 0 {
		t.Errorf("cache hit rate %.3f on 8× repeated prompts, want > 0", st.CacheHitRate)
	}
	for i, d := range st.Devices {
		if d.CacheCapacityTokens <= 0 {
			t.Errorf("device %d: capacity %d tokens, want > 0", i, d.CacheCapacityTokens)
		}
	}

	off := runFleet(t, hetero4(t), CacheAware{}, 9, reqs).Stats(0)
	if off.CacheHitTokens != 0 || off.CacheMissTokens != 0 || off.ReprefillSeconds != 0 {
		t.Errorf("plane disabled but telemetry nonzero: %d/%d hit/miss, %.3f s re-prefill",
			off.CacheHitTokens, off.CacheMissTokens, off.ReprefillSeconds)
	}
	for i, d := range off.Devices {
		if d.CacheCapacityTokens != 0 || d.CacheOccupancy != 0 {
			t.Errorf("device %d: cache fields nonzero with plane disabled", i)
		}
	}
}
