package cluster

// Pluggable request routing for the heterogeneous edge fleet. A Router
// assigns each arriving (or failure-requeued) request to one alive
// device. Routers may keep internal state (round-robin counters, the
// prefix-affinity directory) but must be deterministic functions of the
// call sequence and their private random stream — the fleet guarantees
// bit-identical served streams for equal seeds, and a router that
// consults wall clocks or map iteration order breaks that.

import (
	"fmt"
	"slices"
	"strings"

	"fasttts/internal/memplane"
	"fasttts/internal/rng"
)

// RequestView is a router's read-only view of one arriving request.
type RequestView struct {
	// Tag is the request's stream identity (stable across requeues).
	Tag int
	// Arrival is the fleet time of this routing decision.
	Arrival float64
	// PrefixKey identifies the request's shared prompt prefix: requests
	// with equal keys re-use each other's prompt KV on the same device.
	PrefixKey string
	// PromptTokens is the request's prompt length — the tokens a device
	// without the prefix resident would have to re-prefill.
	PromptTokens int
}

// DeviceView is a router's read-only view of one alive device.
type DeviceView struct {
	// Index is the device's fleet index (stable across failures of other
	// devices); the Route result is a position in the alive slice, not an
	// Index.
	Index int
	// Pending is the device's outstanding population: admitted unfinished
	// requests plus queued arrivals.
	Pending int
	// OutstandingWork is the estimated remaining service demand in token
	// units (see sched.EstimateDemand).
	OutstandingWork float64
	// Speed is the device's relative service speed: decode-bandwidth
	// share scaled down by the straggler factor. Units are arbitrary but
	// consistent across devices.
	Speed float64
	// Mem is the device's KV memory plane; nil when the plane is
	// disabled. Routers may probe its prefix residency only inside Route
	// — the fleet steps every device due by the arrival instant before
	// routing it.
	Mem *memplane.Plane
}

// Router assigns requests to fleet devices.
type Router interface {
	// Name identifies the router ("rr", "p2c", ...).
	Name() string
	// Route returns the position in devices (non-empty, alive fleet
	// members sorted by Index) of the device that receives the request.
	// r is the router's private deterministic random stream.
	Route(rq RequestView, devices []DeviceView, r *rng.Stream) int
}

// ViewOblivious marks routers whose decisions never read device *load*
// — DeviceView.Pending or OutstandingWork — only the routable set's size
// and order plus private state. The span recorder omits the
// candidate loads of such routers' decisions (the runner-up span and the
// pick's outstanding work), since the decision never read them. A router
// that reads load but returns true here loses those spans from its
// traces.
type ViewOblivious interface {
	RouteViewOblivious() bool
}

// Single routes every request to the first alive device: the
// pass-through router. A 1-device fleet under Single reproduces the
// single-Server results of the serving engine exactly.
type Single struct{}

func (Single) Name() string                                     { return "single" }
func (Single) Route(RequestView, []DeviceView, *rng.Stream) int { return 0 }
func (Single) RouteViewOblivious() bool                         { return true }

// RoundRobin cycles through the alive devices in index order,
// oblivious to load and heterogeneity — the fleet baseline.
type RoundRobin struct{ n int }

func (*RoundRobin) Name() string { return "rr" }
func (rr *RoundRobin) Route(_ RequestView, devices []DeviceView, _ *rng.Stream) int {
	i := rr.n % len(devices)
	rr.n++
	return i
}
func (*RoundRobin) RouteViewOblivious() bool { return true }

// WorkAware marks routers whose decisions read
// DeviceView.OutstandingWork; the fleet computes that load signal —
// O(in-flight + queued) remaining-work estimations per device — only
// for routers that declare the need.
type WorkAware interface {
	NeedsOutstandingWork() bool
}

// LeastWork routes to the device with the smallest expected drain time:
// estimated outstanding work divided by device speed (ties by pending
// count, then index — the shared better() ordering). It is the
// fleet-level analogue of the SJF serve policy — both consume
// sched.EstimateDemand — and the strongest signal for heterogeneous
// fleets. Route is an O(devices) scan. A fleet whose Config.Router is
// LeastWork itself never calls it: it reads the same pick from the root
// of a tournament tree over its views (bestTree), kept current in
// O(log devices) per refreshed view. LeastWork behind a wrapper, as
// PrefixAffinity's fallback, or on the hedged twin route still scans.
type LeastWork struct{}

func (LeastWork) Name() string               { return "least-work" }
func (LeastWork) NeedsOutstandingWork() bool { return true }
func (LeastWork) Route(_ RequestView, devices []DeviceView, _ *rng.Stream) int {
	best := 0
	for i := 1; i < len(devices); i++ {
		if better(&devices[i], &devices[best]) {
			best = i
		}
	}
	return best
}

func drainTime(d *DeviceView) float64 {
	if d.Speed <= 0 {
		return d.OutstandingWork
	}
	return d.OutstandingWork / d.Speed
}

// JSQ joins the shortest queue: the device with the fewest outstanding
// requests, ties to the lower index.
type JSQ struct{}

func (JSQ) Name() string { return "jsq" }
func (JSQ) Route(_ RequestView, devices []DeviceView, _ *rng.Stream) int {
	best := 0
	for i := 1; i < len(devices); i++ {
		if devices[i].Pending < devices[best].Pending {
			best = i
		}
	}
	return best
}

// PowerOfTwo samples two distinct candidate devices uniformly and joins
// the one with the smaller expected drain time — the classic
// power-of-two-choices load balancer, which gets most of JSQ's balance
// while inspecting only two devices per request.
type PowerOfTwo struct{}

func (PowerOfTwo) Name() string               { return "p2c" }
func (PowerOfTwo) NeedsOutstandingWork() bool { return true }
func (PowerOfTwo) Route(_ RequestView, devices []DeviceView, r *rng.Stream) int {
	if len(devices) == 1 {
		return 0
	}
	i := r.IntN(len(devices))
	j := r.IntN(len(devices) - 1)
	if j >= i {
		j++
	}
	if better(&devices[j], &devices[i]) {
		return j
	}
	return i
}

// better orders devices by expected drain time, then pending count, then
// index — the shared load comparison of the state-aware routers. Indexes
// are unique, so on finite drain times it is a strict total order: any
// way of taking the minimum (LeastWork's scan, bestTree's tournament)
// picks the same device.
func better(a, b *DeviceView) bool {
	da, db := drainTime(a), drainTime(b)
	if da != db {
		return da < db
	}
	if a.Pending != b.Pending {
		return a.Pending < b.Pending
	}
	return a.Index < b.Index
}

// bestTree is a tournament tree over the positions of a view slice, in
// the 1-based heap layout: leaf leaves+p holds position p (-1 for the
// padding past the end), every internal node the better() winner of its
// two children. The root is therefore the position LeastWork.Route would
// return. A changed view re-plays its leaf-to-root path in O(log n); a
// membership change rebuilds the tree in O(n). drain caches each
// position's drainTime, set when the view is (re)played, so a match
// compares two cached keys instead of dividing twice.
type bestTree struct {
	leaves int // a power of two >= len(vs)
	node   []int
	drain  []float64 // drain[p] = drainTime(&vs[p]) as of the last fix or rebuild
}

// rebuild plays every match over vs.
func (t *bestTree) rebuild(vs []DeviceView) {
	t.leaves = 1
	for t.leaves < len(vs) {
		t.leaves *= 2
	}
	t.node = slices.Grow(t.node[:0], 2*t.leaves)[:2*t.leaves]
	t.drain = slices.Grow(t.drain[:0], len(vs))[:len(vs)]
	for p := 0; p < t.leaves; p++ {
		t.node[t.leaves+p] = -1
		if p < len(vs) {
			t.node[t.leaves+p] = p
			t.drain[p] = drainTime(&vs[p])
		}
	}
	for i := t.leaves - 1; i >= 1; i-- {
		t.node[i] = t.match(vs, t.node[2*i], t.node[2*i+1])
	}
}

// fix re-plays the matches above position p after vs[p] changed.
func (t *bestTree) fix(vs []DeviceView, p int) {
	t.drain[p] = drainTime(&vs[p])
	for i := (t.leaves + p) / 2; i >= 1; i /= 2 {
		t.node[i] = t.match(vs, t.node[2*i], t.node[2*i+1])
	}
}

// root is the position of the best view in vs; -1 when vs is empty.
func (t *bestTree) root() int { return t.node[1] }

// match returns the winning position of a and b in better()'s order —
// cached drain time, then pending count, then index. Padding (-1) loses
// to everything, and only ever stands to the right of a real position.
func (t *bestTree) match(vs []DeviceView, a, b int) int {
	if b < 0 {
		return a
	}
	da, db := t.drain[a], t.drain[b]
	pa, pb := vs[a].Pending, vs[b].Pending
	if da < db || da == db && (pa < pb || pa == pb && vs[a].Index < vs[b].Index) {
		return a
	}
	return b
}

// CacheAware routes by effective drain time including the memory cost of
// a cold prompt: (outstanding work + prompt tokens not resident in the
// device's KV plane) / speed. Both terms are in token units — outstanding
// work is estimated demand in tokens, and a non-resident prompt token is
// a token the device must re-prefill before serving. On fleets without a
// memory plane every device misses the full prompt equally and the router
// degenerates to least-work. Unlike PrefixAffinity's home directory, the
// residency signal is the device's *actual* cache content, so eviction
// under pressure automatically redirects traffic.
type CacheAware struct{}

func (CacheAware) Name() string               { return "cache-aware" }
func (CacheAware) NeedsOutstandingWork() bool { return true }
func (CacheAware) Route(rq RequestView, devices []DeviceView, _ *rng.Stream) int {
	best, bestCost := 0, cacheCost(rq, devices[0])
	for i := 1; i < len(devices); i++ {
		c := cacheCost(rq, devices[i])
		d, b := devices[i], devices[best]
		if c < bestCost ||
			(c == bestCost && (d.Pending < b.Pending ||
				(d.Pending == b.Pending && d.Index < b.Index))) {
			best, bestCost = i, c
		}
	}
	return best
}

// cacheCost is a device's expected time to absorb the request: current
// drain time plus the re-prefill debt of the non-resident prompt tokens.
func cacheCost(rq RequestView, d DeviceView) float64 {
	miss := rq.PromptTokens
	if d.Mem != nil {
		miss -= d.Mem.ResidentPromptTokens(rq.PrefixKey, rq.PromptTokens)
	}
	work := d.OutstandingWork + float64(miss)
	if d.Speed <= 0 {
		return work
	}
	return work / d.Speed
}

// PrefixAffinity extends the paper's §4.2 prefix-aware scheduling from
// intra-device to inter-device: requests sharing a prompt prefix are
// routed to the device whose radix KV cache already holds it, so the
// prompt prefill is served from cache instead of being recomputed. When
// the affine device's backlog exceeds the fleet minimum by more than
// affinitySlack requests (or the device failed), the router falls back
// to LeastWork and re-homes the prefix there — cache locality must not
// create hotspots.
type PrefixAffinity struct {
	home  map[string]int // prefix key -> device Index
	order []string       // home keys in first-homing order (FIFO eviction)
}

const (
	// affinitySlack is how many requests beyond the least-loaded device's
	// backlog the affine device may hold before affinity is abandoned.
	affinitySlack = 4
	// maxPrefixes bounds the affinity directory: homing a new prefix
	// beyond it forgets the oldest-homed one (deterministic FIFO on
	// first-homing order), so the directory does not grow with every
	// distinct prefix a long multi-tenant stream routes.
	maxPrefixes = 4096
)

func (p *PrefixAffinity) Name() string { return "prefix" }

// NeedsOutstandingWork: misses and overloaded hits fall back to LeastWork.
func (p *PrefixAffinity) NeedsOutstandingWork() bool { return true }

func (p *PrefixAffinity) Route(rq RequestView, devices []DeviceView, r *rng.Stream) int {
	if p.home == nil {
		p.home = make(map[string]int)
	}
	minPending := devices[0].Pending
	for _, d := range devices[1:] {
		if d.Pending < minPending {
			minPending = d.Pending
		}
	}
	if home, ok := p.home[rq.PrefixKey]; ok {
		for i, d := range devices {
			if d.Index == home {
				if d.Pending <= minPending+affinitySlack {
					return i
				}
				break // alive but overloaded: re-home
			}
		}
	}
	i := LeastWork{}.Route(rq, devices, r)
	if _, homed := p.home[rq.PrefixKey]; !homed {
		if len(p.home) >= maxPrefixes {
			oldest := p.order[0]
			p.order = p.order[1:]
			delete(p.home, oldest)
		}
		p.order = append(p.order, rq.PrefixKey)
	}
	p.home[rq.PrefixKey] = devices[i].Index
	return i
}

// RouterByName resolves a fresh router from its CLI/config name:
// "single", "rr", "least-work", "jsq", "p2c", "prefix", or
// "cache-aware".
func RouterByName(name string) (Router, error) {
	switch strings.ToLower(name) {
	case "single", "passthrough":
		return Single{}, nil
	case "", "rr", "round-robin":
		return &RoundRobin{}, nil
	case "least-work", "lw":
		return LeastWork{}, nil
	case "jsq", "shortest-queue":
		return JSQ{}, nil
	case "p2c", "power-of-two":
		return PowerOfTwo{}, nil
	case "prefix", "prefix-affinity":
		return &PrefixAffinity{}, nil
	case "cache-aware", "cache":
		return CacheAware{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown router %q (want single, rr, least-work, jsq, p2c, prefix, or cache-aware)", name)
}
