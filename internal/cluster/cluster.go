// Package cluster simulates a heterogeneous edge fleet serving TTS
// traffic: N per-device serving engines (each its own GPU, model pair,
// straggler factor, and admission/ordering policy) composed behind a
// pluggable Router, with fail-stop fault injection, fleet-level metrics,
// and an optional elastic control plane (internal/control) that scales
// the fleet and the per-request compute budget from observed load.
//
// The fleet runs on the same discrete virtual time as the per-device
// engines. Devices execute concurrently — each core.Loop owns an
// independent clock — and the fleet advances them between global events
// (request arrivals, device failures, warm-pool joins, and control
// ticks) with an event-heap core: a stable min-heap of pending arrivals,
// a pre-sorted fail-stop schedule, and an indexed min-heap of per-device
// wake times, so each event steps only the devices it concerns instead
// of re-scanning all of them. Router load signals (device clock, pending
// population, outstanding work) are read from the loops' O(1)
// incremental indexes and cached in views refreshed only for touched
// devices. Under the LeastWork router a tournament tree over those views
// keeps the pick current as they refresh, so routing an arrival is
// O(log devices) too. Every other router, and LeastWork behind a wrapper
// or as a fallback, sees the view slice: p2c reads two views, while jsq,
// cache-aware (which probes each device's prompt residency per request)
// and the prefix router's minimum-backlog pass scan all of them.
//
// A request is routed once, at its arrival instant, using the routers'
// view of live device state; when a device fail-stops, its unfinished
// requests are requeued to the surviving devices (partial work lost),
// extending the serving engine's determinism guarantee: equal seeds give
// bit-identical fleet-served streams under every router — and, with a
// controller attached, bit-identical controller action logs.
package cluster

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"fasttts/internal/core"
	"fasttts/internal/metrics"
	"fasttts/internal/obs"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/search"
)

// Device describes one fleet member.
type Device struct {
	// Config is the device's deployment (GPU, model pair, search policy,
	// memory budget, seed).
	Config core.Config
	// Policy is the device's admission/ordering discipline; nil = FCFS.
	Policy sched.ServePolicy
	// Slowdown is the straggler factor: wall-clock stretch of every
	// device slice. Values below 1 (including 0) mean no slowdown.
	Slowdown float64
	// FailAt, when positive, fail-stops the device at that fleet time:
	// it finishes its in-progress slice, then every unfinished request is
	// requeued to the surviving devices and the device serves nothing
	// further.
	FailAt float64
}

// Config configures a fleet.
type Config struct {
	Devices []Device
	// Router assigns requests to devices; nil = round-robin.
	Router Router
	// Seed drives the router's private random stream (power-of-two
	// choices) and the controller's; device engines draw from their own
	// Config seeds.
	Seed uint64
	// Control, when non-nil, attaches the elastic control plane: a
	// feedback controller observing the fleet at a fixed interval and
	// actuating warm-pool joins, drains, and compute-budget tiers.
	Control *ControlConfig
	// Metrics selects how Outcome.Stats aggregates latencies (see
	// metrics.Mode): exact percentiles by default (the golden-conformance
	// path), or sketch percentiles and means within metrics.SketchRelErr.
	// Either way every result is kept in Outcome.Results.
	Metrics metrics.Mode
	// SLOLatency is the wall-latency target (<= 0: none) the deadline
	// strategy derives per-request deadlines from. Outcome.Stats takes
	// its own target.
	SLOLatency float64
	// Strategy is the fleet-wide test-time-compute strategy
	// (search.ParseStrategy): full-beam and first-finish shape each
	// device's solver, deadline early-terminates requests whose SLO is
	// blown mid-solve, and hedged replicates every fresh arrival to a
	// second device and cancels the loser the instant the first copy
	// completes. nil (the default) disables strategies — behavior is
	// bit-identical to pre-strategy builds.
	Strategy search.Strategy
	// Obs, when non-nil, attaches the request-lifecycle span flight
	// recorder fleet-wide: every device's loop emits lifecycle spans
	// onto its own track (device i on Device(i), warm-pool joins
	// included), and the fleet driver emits routing decisions, requeue
	// hops, hedge placements, and control actions onto the control
	// track. nil (the default) is strictly off — no allocations, no
	// behavioral difference.
	Obs *obs.Recorder
}

// Result is one fleet-served request: the device-level telemetry plus
// which device produced it and how often failures migrated it.
type Result struct {
	core.ServedResult
	// Device is the fleet index of the serving (or rejecting) device; -1
	// for requests lost because no device survived to serve them (they
	// come back Rejected).
	Device int
	// Requeues counts how many fail-stops displaced this request before
	// this outcome.
	Requeues int
}

// Outcome is everything a fleet run produced.
type Outcome struct {
	// Results holds per-request outcomes in fleet event order: each
	// device's completions stay in completion order, interleaved at
	// global event granularity.
	Results []Result
	// Devices is the per-device telemetry, indexed by fleet device
	// (founding devices first, then warm-pool joins in join order).
	Devices []metrics.FleetDevice
	// Requeues counts failure-induced request migrations.
	Requeues int
	// PrefixHits / PrefixMisses count prompt-prefix tokens that were /
	// were not resident in the serving device's radix cache directory.
	// Only requests a device actually served are counted — a request shed
	// by admission control prefills nothing.
	PrefixHits, PrefixMisses int64
	// Actions is the controller's applied-action log in decision order;
	// nil without a controller. Equal seeds give bit-identical logs.
	Actions []ActionRecord
	// Control summarizes the controller's activity; nil without one.
	Control *metrics.ControlStats
	// Metrics is the run's latency-aggregation mode (Config.Metrics),
	// which Stats summarizes Results under.
	Metrics metrics.Mode
	// Attribution is the latency-attribution rollup of the run's span
	// recorder (obs.Attribute over the merged trace); nil when the run
	// had no recorder attached.
	Attribution *metrics.AttributionStats
}

// Stats reduces the outcome to fleet-level aggregates, summarizing
// Results under the run's metrics mode. sloLatency is the wall-latency
// target in seconds (<= 0: none); it changes only SLOAttainment.
func (o *Outcome) Stats(sloLatency float64) metrics.FleetStats {
	acc := metrics.NewServeAccum(o.Metrics, sloLatency)
	for _, r := range o.Results {
		acc.Observe(r.Sample())
	}
	return metrics.SummarizeFleet(metrics.FleetInput{
		Serve:        acc.Stats(),
		Devices:      o.Devices,
		Requeues:     o.Requeues,
		PrefixHits:   o.PrefixHits,
		PrefixMisses: o.PrefixMisses,
		Control:      o.Control,
		Attribution:  o.Attribution,
	})
}

// Fleet is a configured fleet simulator. A Fleet is single-run: routers
// and device engines carry state, so build a fresh Fleet per request
// stream (the public API layer does this on every call).
type Fleet struct {
	cfg      Config
	srvs     []*core.Server
	warmSrvs []*core.Server // one per warm-pool template (stateless, shared by instances)
	used     bool
}

// New validates the configuration and builds the fleet.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("cluster: fleet needs at least one device")
	}
	mode, err := metrics.ParseMode(string(cfg.Metrics))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	cfg.Metrics = mode
	if cfg.Router == nil {
		cfg.Router = &RoundRobin{}
	}
	if cfg.Strategy != nil && cfg.Strategy.Hedged() && len(cfg.Devices) < 2 {
		return nil, fmt.Errorf("cluster: hedged strategy needs at least 2 devices to replicate across, got %d",
			len(cfg.Devices))
	}
	srvs := make([]*core.Server, len(cfg.Devices))
	for i, d := range cfg.Devices {
		srv, err := core.NewServerWithPolicy(d.Config, d.Policy)
		if err != nil {
			return nil, fmt.Errorf("cluster: device %d: %w", i, err)
		}
		srvs[i] = srv
	}
	f := &Fleet{cfg: cfg, srvs: srvs}
	if cfg.Control != nil {
		// validate fills in defaults: do it on the fleet's own copy, so a
		// ControlConfig the caller reuses keeps its unset bounds unset.
		cc := *cfg.Control
		warm, err := cc.validate(len(cfg.Devices))
		if err != nil {
			return nil, err
		}
		f.cfg.Control = &cc
		f.warmSrvs = warm
	}
	return f, nil
}

// device is the runtime state of one fleet member.
type device struct {
	spec     Device
	loop     *core.Loop
	speed    float64
	alive    bool            // has not fail-stopped
	failedAt float64         // fail-stop time (alive == false)
	joinAt   float64         // fleet time the device became routable (0 for founding members)
	warming  bool            // created from the warm pool, warm-up delay not yet elapsed
	dynamic  bool            // instantiated from the warm pool by the controller
	draining bool            // control plane is draining it: no new routes
	drained  bool            // drain finished: all accepted work served
	drainAt  float64         // drain decision time
	drainEnd float64         // drain completion time (last accepted work finished)
	lastBusy float64         // busy-time snapshot at the previous control tick
	prefixes map[string]bool // prompt-prefix directory of the radix cache
	marker   map[string]int  // prefix -> tag that marked it, until confirmed
	acct     map[int]prefixAcct
	served   int
	tokens   int64
}

// prefixAcct is the deferred hit/miss accounting of one routed request:
// counters move only once the device actually serves it — a request shed
// by admission control prefills nothing. Entries live in the routed
// device's own acct map; a fail-stop strands its entries harmlessly,
// since a failed device never settles.
type prefixAcct struct {
	key    string
	tokens int64
	hit    bool
}

// pendingReq is one request awaiting routing. seq preserves insertion
// order among equal arrival times (stream order, then requeue order).
type pendingReq struct {
	req      core.Request
	requeues int
	seq      int
}

// run is the mutable state of one fleet event loop: the device set (which
// may grow as the control plane claims warm-pool instances), the arrival
// and failure event sources, the router's incrementally maintained device
// views, the per-device wake heap, and — when a controller is attached —
// the elastic control-plane state.
type run struct {
	f    *Fleet
	devs []*device
	out  *Outcome

	// Arrival sources: the pre-sorted submitted stream consumed by index,
	// plus a min-heap for failure requeues.
	stream      []pendingReq
	sp          int
	requeued    arrivalHeap
	nextSeq     int
	origArrival map[int]float64 // request tag -> submission time
	requeues    map[int]int     // request tag -> displacement count

	fails []failEvent
	fp    int

	routeRand *rng.Stream
	needWork  bool

	// Router device views: vs holds one view per routable device in index
	// order, posInVs maps a device index to its position in vs (-1 while
	// warming, draining, or failed). best indexes vs for the LeastWork
	// router (nil under any other): its root is LeastWork's pick. twinVs
	// is the hedged twin route's candidate buffer.
	vs      []DeviceView
	posInVs []int
	best    *bestTree
	twinVs  []DeviceView

	wake   *wakeHeap
	dueBuf []int

	// prefixHits / prefixMisses are the settled prefix counters, folded
	// into out by finish.
	prefixHits, prefixMisses int64

	// Hedging state (nil / empty unless the fleet strategy hedges):
	// hedges maps an original request tag to its pair state, cancels is
	// the pending-cancellation queue consumed FIFO through cp.
	hedges  map[int]*hedgePair
	cancels []cancelEvent
	cp      int

	el *elastic // nil without a controller

	// Observability state (all nil/false without a recorder): obs is the
	// fleet recorder, ctl its control-plane track, candSpans whether a
	// routing decision records loads (the pick's, and a runner-up span)
	// — only for view-reading routers: a view-oblivious router's decision
	// never reads load, so candidate loads would explain nothing.
	obs       *obs.Recorder
	ctl       *obs.Track
	candSpans bool
}

// hedgePair tracks one hedged request's two copies. dev holds the fleet
// index of the device serving each slot (0 = primary, 1 = twin), -1 once
// that copy is resolved — finished, rejected, cancelled, or withdrawn by
// a fail-stop. done flips when a copy produces the request's outcome.
type hedgePair struct {
	dev  [2]int
	done bool
}

// hedging reports whether this run replicates fresh arrivals.
func (r *run) hedging() bool {
	return r.f.cfg.Strategy != nil && r.f.cfg.Strategy.Hedged()
}

// hedgeOrig resolves a (possibly twin) tag to its original client tag
// and pair slot. Twin copies run under the bit-complement tag ^tag —
// negative, reversible, and disjoint from the non-negative client space.
func hedgeOrig(tag int) (orig, slot int) {
	if tag < 0 {
		return ^tag, 1
	}
	return tag, 0
}

func (f *Fleet) newRun(reqs []core.Request) (*run, error) {
	devs := make([]*device, len(f.cfg.Devices))
	for i, spec := range f.cfg.Devices {
		devs[i] = newDevice(spec, f.srvs[i], 0)
	}

	stream := make([]pendingReq, len(reqs))
	origArrival := make(map[int]float64, len(reqs))
	for i, rq := range reqs {
		if _, dup := origArrival[rq.Tag]; dup {
			return nil, fmt.Errorf(
				"cluster: duplicate request tag %d: tags identify requests across failure requeues and must be unique (tag by stream index)",
				rq.Tag)
		}
		if rq.Tag < 0 && f.cfg.Strategy != nil && f.cfg.Strategy.Hedged() {
			return nil, fmt.Errorf(
				"cluster: hedged strategy reserves negative tags for twin copies; request tag %d must be >= 0",
				rq.Tag)
		}
		if math.IsNaN(rq.Arrival) || math.IsInf(rq.Arrival, 0) {
			return nil, fmt.Errorf("cluster: request tag %d has non-finite arrival time %v", rq.Tag, rq.Arrival)
		}
		stream[i] = pendingReq{req: rq, seq: i}
		origArrival[rq.Tag] = rq.Arrival
	}
	sort.SliceStable(stream, func(i, j int) bool { return stream[i].req.Arrival < stream[j].req.Arrival })

	r := &run{
		f:           f,
		devs:        devs,
		out:         &Outcome{Metrics: f.cfg.Metrics, Results: make([]Result, 0, len(reqs))},
		stream:      stream,
		nextSeq:     len(reqs),
		origArrival: origArrival,
		requeues:    make(map[int]int),
		fails:       failSchedule(devs),
		routeRand:   rng.New(f.cfg.Seed).Child("cluster/router"),
	}
	if wa, ok := f.cfg.Router.(WorkAware); ok {
		r.needWork = wa.NeedsOutstandingWork()
	}
	if f.cfg.Obs != nil {
		r.obs = f.cfg.Obs
		r.ctl = f.cfg.Obs.Control()
		vo, ok := f.cfg.Router.(ViewOblivious)
		r.candSpans = !ok || !vo.RouteViewOblivious()
		for i, d := range devs {
			d.loop.SetObs(f.cfg.Obs.Device(i))
		}
	}
	r.vs = make([]DeviceView, len(devs))
	r.posInVs = make([]int, len(devs))
	for i, d := range devs {
		r.vs[i] = DeviceView{Index: i, Speed: d.speed, Mem: d.loop.Plane()}
		r.posInVs[i] = i
	}
	if _, ok := f.cfg.Router.(LeastWork); ok {
		r.best = &bestTree{}
		r.reindex()
	}
	r.wake = newWakeHeap(len(devs))
	if r.hedging() {
		r.hedges = make(map[int]*hedgePair)
	}
	if f.cfg.Control != nil {
		r.el = newElastic(f, len(devs))
	}
	return r, nil
}

// newDevice builds the runtime state of one fleet member around a fresh
// serving loop.
func newDevice(spec Device, srv *core.Server, joinAt float64) *device {
	slow := spec.Slowdown
	if slow < 1 {
		slow = 1
	}
	loop := srv.NewLoop(nil)
	loop.SetScale(slow)
	return &device{
		spec:     spec,
		loop:     loop,
		speed:    spec.Config.GPU.MemBW * spec.Config.GPU.MemEff / slow,
		alive:    true,
		joinAt:   joinAt,
		prefixes: make(map[string]bool),
		marker:   make(map[string]int),
		acct:     make(map[int]prefixAcct),
	}
}

// streamFirst reports whether the stream head is the next arrival
// (shared by peek and pop so the head-selection rule cannot diverge).
func (r *run) streamFirst() bool {
	return r.sp < len(r.stream) && (r.requeued.Len() == 0 || r.stream[r.sp].req.Arrival <= r.requeued[0].req.Arrival)
}

// nextArrival peeks the earliest pending arrival; popArrival removes and
// returns it.
func (r *run) nextArrival() (pendingReq, bool) {
	switch {
	case r.streamFirst():
		return r.stream[r.sp], true
	case r.requeued.Len() > 0:
		return r.requeued[0], true
	}
	return pendingReq{}, false
}

func (r *run) popArrival() pendingReq {
	if r.streamFirst() {
		pr := r.stream[r.sp]
		r.sp++
		return pr
	}
	return heap.Pop(&r.requeued).(pendingReq)
}

// settlePrefix resolves a result's deferred prefix accounting: counts
// the hit/miss when device d served the request, refunds the optimistic
// directory mark when admission shed it before prefill.
func (r *run) settlePrefix(d *device, sv core.ServedResult) {
	a, ok := d.acct[sv.Tag]
	if !ok {
		return
	}
	delete(d.acct, sv.Tag)
	switch {
	case !sv.Rejected && a.hit:
		r.prefixHits += a.tokens
	case !sv.Rejected:
		r.prefixMisses += a.tokens
		if d.marker[a.key] == sv.Tag {
			delete(d.marker, a.key) // residency confirmed
		}
	case !a.hit && d.marker[a.key] == sv.Tag:
		delete(d.prefixes, a.key) // shed before prefill: refund
		delete(d.marker, a.key)
	}
}

// buildResult turns one device completion into a fleet Result. A
// requeued request keeps its original submission time in the
// client-facing telemetry: the wait on its failed device still
// happened.
func (r *run) buildResult(sv core.ServedResult, dev int) Result {
	if rq := r.requeues[sv.Tag]; rq > 0 {
		sv.Arrival = r.origArrival[sv.Tag]
		if !sv.Rejected {
			sv.QueueDelay = sv.Start - sv.Arrival
			sv.WallLatency = sv.Finish - sv.Arrival
		}
	}
	return Result{ServedResult: sv, Device: dev, Requeues: r.requeues[sv.Tag]}
}

// refreshView is O(1) — O(log devices) with the least-work index — and
// called only for devices an event actually touched.
func (r *run) refreshView(dev int) {
	p := r.posInVs[dev]
	if p < 0 {
		return
	}
	v := &r.vs[p]
	d := r.devs[dev]
	v.Now = d.loop.Now()
	v.Pending = d.loop.Pending()
	if r.needWork {
		v.OutstandingWork = d.loop.OutstandingWork()
	}
	if v.Mem != nil {
		v.CacheOccupancy = v.Mem.OccupiedFraction()
	}
	if r.best != nil {
		r.best.fix(r.vs, p)
	}
}

func (r *run) dropView(dev int) {
	p := r.posInVs[dev]
	if p < 0 {
		return
	}
	copy(r.vs[p:], r.vs[p+1:])
	r.vs = r.vs[:len(r.vs)-1]
	r.posInVs[dev] = -1
	for q := p; q < len(r.vs); q++ {
		r.posInVs[r.vs[q].Index] = q
	}
	r.reindex()
}

// reindex rebuilds the least-work index after vs changed membership
// (fail-stops, drains and joins — rare next to arrivals).
func (r *run) reindex() {
	if r.best != nil {
		r.best.rebuild(r.vs)
	}
}

// updateWake re-keys the device in the wake heap from its loop's next
// wake time, removing it when the loop has nothing to do.
func (r *run) updateWake(dev int) {
	if at, ok := r.devs[dev].loop.Wake(); ok {
		r.wake.update(dev, at)
	} else {
		r.wake.remove(dev)
	}
}

// collect steps the devices whose wake time falls within the horizon, in
// device-index order, gathering completions. Untouched devices are
// provably no-ops: their loops would neither run a slice, admit, nor
// jump the clock, so their state and views are already current. A
// requeued request keeps its original submission time in the
// client-facing telemetry: the wait on its failed device still happened.
func (r *run) collect(horizon float64) error {
	r.dueBuf = r.wake.popDue(horizon, r.dueBuf[:0])
	for _, i := range r.dueBuf {
		d := r.devs[i]
		served, err := d.loop.StepTo(horizon)
		if err != nil {
			return fmt.Errorf("cluster: device %d: %w", i, err)
		}
		for _, sv := range served {
			r.deliver(i, sv)
		}
		if d.draining && !d.drained && d.loop.Idle() {
			// All accepted work served: the drain completes and the device
			// leaves the fleet.
			d.drained = true
			d.drainEnd = math.Max(d.drainAt, d.loop.Now())
		}
		r.updateWake(i)
		r.refreshView(i)
	}
	return nil
}

// deliver settles and publishes one device completion. Under a hedged
// strategy the result first passes the hedge filter: the first copy to
// complete wins the request (scheduling a cancellation for its twin),
// later copies are swallowed. Losers still settle their deferred prefix
// accounting — the device work was real — but never count as served.
func (r *run) deliver(dev int, sv core.ServedResult) {
	d := r.devs[dev]
	r.settlePrefix(d, sv)
	if r.hedging() {
		out, ok := r.filterHedge(sv)
		if !ok {
			return
		}
		sv = out
	}
	res := r.buildResult(sv, dev)
	r.out.Results = append(r.out.Results, res)
	if !sv.Rejected {
		d.served++
		d.tokens += sv.UsefulTokens
	}
	if r.el != nil {
		// Observe the settled result (requeue-adjusted arrival and
		// latencies), not the raw device completion: the control window
		// must see the client-perceived telemetry.
		r.el.observe(res.ServedResult, d)
	}
}

// filterHedge resolves one completion against the hedge state. The
// returned result carries the original client tag; ok=false swallows
// the completion (a losing or redundant copy). The first completion
// wins; a rejection only resolves the request once both copies are
// lost, so one device shedding a copy never rejects a request its twin
// can still serve.
func (r *run) filterHedge(sv core.ServedResult) (core.ServedResult, bool) {
	orig, slot := hedgeOrig(sv.Tag)
	pair, ok := r.hedges[orig]
	if !ok {
		// Never replicated: a requeued request, or one routed while the
		// fleet had a single survivor. Passes through untouched.
		return sv, true
	}
	if sv.Rejected {
		pair.dev[slot] = -1
		if pair.done || pair.dev[1-slot] >= 0 {
			return sv, false // the other copy answered, or still may
		}
		pair.done = true
		sv.Tag = orig
		return sv, true
	}
	if pair.done {
		// The twin already answered; this copy ran to completion before
		// its cancellation landed (cancels apply at event granularity).
		pair.dev[slot] = -1
		return sv, false
	}
	pair.done = true
	winDev := pair.dev[slot]
	pair.dev[slot] = -1
	// Record which copy the fleet actually delivered: within one event
	// window completions merge in device-index order, so the winner is
	// not always the earliest finish instant — the attribution pass
	// needs the resolution, not a guess.
	r.ctl.Emit(obs.Span{Kind: obs.KindHedgeWin, Tag: sv.Tag,
		Start: sv.Finish, End: sv.Finish, V1: float64(winDev)})
	if od := pair.dev[1-slot]; od >= 0 {
		pair.dev[1-slot] = -1
		loserTag := orig
		if slot == 0 {
			loserTag = ^orig
		}
		r.cancels = append(r.cancels, cancelEvent{at: sv.Finish, dev: od, tag: loserTag})
	}
	sv.Tag = orig
	return sv, true
}

// cancelAt is the time of the next pending cancellation (meaningful
// only while cp is in range).
func (r *run) cancelAt() float64 {
	if r.cp < len(r.cancels) {
		return r.cancels[r.cp].at
	}
	return 0
}

// applyCancel releases a hedge loser: the device's loop drops the
// tagged work — queued or mid-flight, along with its session, in-flight
// slot, load-index contribution, and memory-plane decode state — the
// deferred prefix accounting is unwound (a cancelled copy never counts
// as served), and the freed capacity becomes visible to the router and
// controller immediately.
func (r *run) applyCancel(ce cancelEvent) {
	d := r.devs[ce.dev]
	if !d.alive {
		return // the fail-stop already withdrew the work
	}
	started, ok := d.loop.Cancel(ce.tag)
	if !ok {
		return // the copy already completed (and was swallowed)
	}
	if r.ctl != nil {
		r.ctl.Emit(obs.Span{Kind: obs.KindCancelReq, Tag: ce.tag, Start: ce.at, End: ce.at,
			V1: float64(ce.dev), Flag: started})
	}
	if a, found := d.acct[ce.tag]; found {
		delete(d.acct, ce.tag)
		if d.marker[a.key] == ce.tag {
			if started {
				delete(d.marker, a.key) // prefill happened: residency confirmed
			} else {
				delete(d.prefixes, a.key) // never prefilled: refund the mark
				delete(d.marker, a.key)
			}
		}
	}
	if d.draining && !d.drained && d.loop.Idle() {
		d.drained = true
		d.drainEnd = math.Max(d.drainAt, d.loop.Now())
	}
	r.updateWake(ce.dev)
	r.refreshView(ce.dev)
}

// failDevice applies one fail-stop: the device leaves the routable set
// and its unfinished requests requeue to the survivors. Withdrawn
// hedge copies requeue only when they were the last copy standing of an
// unanswered request — and then exactly once, under the original tag.
func (r *run) failDevice(ft float64, fi int) {
	d := r.devs[fi]
	d.alive = false
	d.failedAt = ft
	r.wake.remove(fi)
	r.dropView(fi)
	requeued := 0
	for _, rq := range d.loop.Fail() {
		if r.hedging() {
			orig, slot := hedgeOrig(rq.Tag)
			if r.dropHedgedCopy(orig, slot) {
				continue
			}
			rq.Tag = orig
		}
		rq.Arrival = ft
		r.requeues[rq.Tag]++
		r.out.Requeues++
		heap.Push(&r.requeued, pendingReq{req: rq, requeues: r.requeues[rq.Tag], seq: r.nextSeq})
		r.nextSeq++
		requeued++
		if r.ctl != nil {
			r.ctl.Emit(obs.Span{Kind: obs.KindRequeue, Tag: rq.Tag, Start: ft, End: ft, V1: float64(fi)})
		}
	}
	if r.ctl != nil {
		r.ctl.Emit(obs.Span{Kind: obs.KindFailDev, Start: ft, End: ft, V1: float64(fi), N: requeued})
	}
}

// dropHedgedCopy records that a fail-stop withdrew one copy of a hedged
// request. It reports true when the copy is simply dropped — the
// request was already answered, or its twin is still serving — and
// false when the withdrawn copy was the last one standing of an
// unanswered request, which must then requeue under its original tag.
// In the requeue case the pair is retired so the requeued run passes
// the hedge filter untouched.
func (r *run) dropHedgedCopy(orig, slot int) bool {
	pair, ok := r.hedges[orig]
	if !ok {
		return false // never hedged (e.g. already a requeue): requeue normally
	}
	pair.dev[slot] = -1
	if pair.done || pair.dev[1-slot] >= 0 {
		return true
	}
	delete(r.hedges, orig)
	return false
}

// routeArrival routes one pending request at its arrival instant.
func (r *run) routeArrival(pr pendingReq) error {
	at := pr.req.Arrival
	if len(r.vs) == 0 {
		// Lost capacity: no routable device (all failed or drained). Shed
		// the request at this instant, reported against its original
		// submission time. (Any stale acct entry for a requeued request
		// is stranded on its failed device and never settles.)
		res := Result{
			ServedResult: core.ServedResult{
				Arrival: r.origArrival[pr.req.Tag], Start: at, Finish: at,
				Rejected: true, Tag: pr.req.Tag,
			},
			Device:   -1,
			Requeues: pr.requeues,
		}
		r.out.Results = append(r.out.Results, res)
		if r.el != nil {
			r.el.win.Rejected++
		}
		if r.ctl != nil {
			r.ctl.Emit(obs.Span{Kind: obs.KindShed, Tag: pr.req.Tag, Start: at, End: at, N: pr.requeues})
		}
		return nil
	}
	rv := RequestView{
		Tag:          pr.req.Tag,
		Arrival:      at,
		PrefixKey:    pr.req.Problem.Key(),
		PromptTokens: pr.req.Problem.PromptTokens,
		Requeued:     pr.requeues > 0,
	}
	var pick int
	if r.best != nil {
		pick = r.best.root()
	} else {
		pick = r.f.cfg.Router.Route(rv, r.vs, r.routeRand)
	}
	if pick < 0 || pick >= len(r.vs) {
		return fmt.Errorf("cluster: router %s picked %d of %d alive devices",
			r.f.cfg.Router.Name(), pick, len(r.vs))
	}
	di := r.vs[pick].Index
	r.emitRoute(rv.Tag, at, r.vs, pick)
	r.applyStrategy(&pr.req, di)
	r.pushTo(di, pr.req, rv.PrefixKey)
	if r.hedging() && pr.requeues == 0 && len(r.vs) >= 2 {
		return r.routeTwin(pr.req, rv, pick)
	}
	return nil
}

// emitRoute records one routing decision over the candidate slice vs on
// the control track — O(1) spans however many devices were scored: the
// pick, then (view-reading routers only — see run.candSpans) its
// runner-up, so the decision margin cand.V1 − route.V2 stays in the
// trace. Shared by the primary route and the hedged twin route.
func (r *run) emitRoute(tag int, at float64, vs []DeviceView, pick int) {
	if r.ctl == nil {
		return
	}
	route := obs.Span{Kind: obs.KindRoute, Tag: tag, Start: at, End: at,
		V1: float64(vs[pick].Index), N: len(vs)}
	if !r.candSpans {
		r.ctl.Emit(route)
		return
	}
	route.V2 = vs[pick].OutstandingWork
	r.ctl.Emit(route)
	ru := -1
	for i := range vs {
		if i != pick && (ru < 0 || lessOutstanding(&vs[i], &vs[ru])) {
			ru = i
		}
	}
	if ru >= 0 {
		v := &vs[ru]
		r.ctl.Emit(obs.Span{Kind: obs.KindRouteCand, Tag: tag, Start: at, End: at,
			N: v.Index, V1: v.OutstandingWork, V2: float64(v.Pending)})
	}
}

// lessOutstanding orders routing candidates for the runner-up span:
// least outstanding work, then fewest pending, then lowest fleet index.
func lessOutstanding(a, b *DeviceView) bool {
	if a.OutstandingWork != b.OutstandingWork {
		return a.OutstandingWork < b.OutstandingWork
	}
	if a.Pending != b.Pending {
		return a.Pending < b.Pending
	}
	return a.Index < b.Index
}

// applyStrategy stamps the request's effective strategy at routing: the
// fleet strategy, re-derived on every routing (requeues included) so a
// budget-governor degradation is never sticky across a fail-stop
// migration, then handed to the governor, which may degrade both the
// width and the strategy at its current tier. The deadline strategy
// derives the request's deadline from the fleet SLO, measured from the
// original submission so a requeued request's deadline does not reset.
func (r *run) applyStrategy(rq *core.Request, di int) {
	if st := r.f.cfg.Strategy; st != nil {
		rq.Strategy = st
	}
	if r.el != nil {
		r.el.budget(rq, r.devs[di])
	}
	if st := rq.Strategy; st != nil && st.CutAtDeadline() && rq.Deadline == 0 && r.f.cfg.SLOLatency > 0 {
		rq.Deadline = r.origArrival[rq.Tag] + r.f.cfg.SLOLatency
	}
}

// pushTo marks the device's prefix directory optimistically (concurrent
// repeats of this prompt should route as hits), defers the hit/miss
// counters until the device actually serves the request, and hands the
// request to the device's loop.
func (r *run) pushTo(di int, rq core.Request, key string) {
	d := r.devs[di]
	resident := d.prefixes[key]
	if !resident {
		d.prefixes[key] = true
		d.marker[key] = rq.Tag
	}
	d.acct[rq.Tag] = prefixAcct{
		key:    key,
		tokens: int64(rq.Problem.PromptTokens), hit: resident,
	}
	d.loop.Push(rq)
	r.updateWake(di)
	r.refreshView(di)
}

// routeTwin replicates a hedged request to a second device: the router
// picks again over the alive view with the primary excluded, and the
// copy runs under the bit-complement twin tag. The twin inherits the
// primary's budgeted width, strategy, and deadline, so the two copies
// run the identical solve and only placement differs.
func (r *run) routeTwin(rq core.Request, rv RequestView, primaryPick int) error {
	twinVs := append(r.twinVs[:0], r.vs[:primaryPick]...)
	twinVs = append(twinVs, r.vs[primaryPick+1:]...)
	r.twinVs = twinVs
	orig := rq.Tag
	rq.Tag = ^orig
	rv.Tag = rq.Tag
	pick := r.f.cfg.Router.Route(rv, twinVs, r.routeRand)
	if pick < 0 || pick >= len(twinVs) {
		return fmt.Errorf("cluster: router %s picked %d of %d alive devices",
			r.f.cfg.Router.Name(), pick, len(twinVs))
	}
	ti := twinVs[pick].Index
	r.emitRoute(rq.Tag, rv.Arrival, twinVs, pick)
	if r.ctl != nil {
		r.ctl.Emit(obs.Span{Kind: obs.KindHedge, Tag: orig, Start: rv.Arrival, End: rv.Arrival,
			V1: float64(r.vs[primaryPick].Index), V2: float64(ti)})
	}
	r.hedges[orig] = &hedgePair{dev: [2]int{r.vs[primaryPick].Index, ti}}
	r.pushTo(ti, rq, rv.PrefixKey)
	return nil
}

// Run serves the open-loop request stream and returns the fleet outcome.
// Request Tags identify requests across requeues and must be unique
// (callers typically tag by stream index); Run rejects streams with
// duplicate tags, which would silently corrupt requeue telemetry and
// prefix accounting.
//
// Run is the fleet's event loop. Global events — request arrivals,
// device fail-stops, warm-pool joins, and control ticks — are dispatched
// from heaps: a stable min-heap of pending arrivals, a pre-sorted
// fail-stop schedule, and an indexed min-heap of per-device wake times
// (the earliest horizon at which each device's loop would make
// progress). At each event only the devices whose wake time falls inside
// the event window are stepped, and the router's device views are
// refreshed incrementally for exactly the devices an event touched —
// O(events·log devices) overall instead of the O(events·devices) full
// re-scan per event.
func (f *Fleet) Run(reqs []core.Request) (*Outcome, error) {
	if f.used {
		return nil, fmt.Errorf("cluster: Fleet is single-run; build a new Fleet per stream")
	}
	f.used = true
	r, err := f.newRun(reqs)
	if err != nil {
		return nil, err
	}

	for {
		head, haveArrival := r.nextArrival()
		bestAt, bestKind := 0.0, -1
		consider := func(at float64, kind int, have bool) {
			if have && (bestKind < 0 || at < bestAt || (at == bestAt && kind < bestKind)) {
				bestAt, bestKind = at, kind
			}
		}
		if r.el != nil {
			consider(r.el.nextJoin())
			consider(r.el.nextTickEvent(r, haveArrival))
		}
		consider(r.failAt(), evFail, r.fp < len(r.fails))
		consider(r.cancelAt(), evCancel, r.cp < len(r.cancels))
		consider(head.req.Arrival, evArrival, haveArrival)
		if bestKind < 0 {
			break
		}
		if err := r.collect(bestAt); err != nil {
			return nil, err
		}
		switch bestKind {
		case evJoin:
			r.el.completeJoin(r)
		case evFail:
			ft, fi := r.fails[r.fp].at, r.fails[r.fp].dev
			r.fp++
			r.failDevice(ft, fi)
		case evCancel:
			r.applyCancel(r.cancels[r.cp])
			r.cp++
		case evTick:
			r.el.tick(r, bestAt)
		case evArrival:
			if err := r.routeArrival(r.popArrival()); err != nil {
				return nil, err
			}
		}
	}

	// No more global events: run every surviving device to completion.
	if err := r.drain(); err != nil {
		return nil, err
	}
	r.finish()
	return r.out, nil
}

// drain runs every surviving device to completion after the last global
// event. Without hedging a single unbounded collect suffices; with
// hedging the tail advances one wake at a time, applying the pending
// cancellations between steps, so a winner completing in the drain
// still releases its loser at slice granularity instead of letting it
// run to the end.
func (r *run) drain() error {
	if !r.hedging() {
		return r.collect(core.NoHorizon)
	}
	for {
		for r.cp < len(r.cancels) {
			r.applyCancel(r.cancels[r.cp])
			r.cp++
		}
		at, ok := r.wake.min()
		if !ok {
			return nil
		}
		// A busy loop's wake time is its current clock, and StepTo is a
		// no-op at a horizon equal to the clock — nudge the horizon one
		// ulp past the earliest wake so every round advances at least one
		// atomic slice (the slice in progress finishes past the horizon
		// by the StepTo contract).
		if err := r.collect(math.Nextafter(at, math.Inf(1))); err != nil {
			return err
		}
	}
}

// failAt is the time of the next scheduled fail-stop (meaningful only
// while fp is in range).
func (r *run) failAt() float64 {
	if r.fp < len(r.fails) {
		return r.fails[r.fp].at
	}
	return 0
}

// finish assembles the per-device telemetry: each device's live interval
// runs from its join time to its fail-stop, drain completion, or the
// fleet makespan.
func (r *run) finish() {
	makespan := 0.0
	for _, res := range r.out.Results {
		if !res.Rejected && res.Finish > makespan {
			makespan = res.Finish
		}
	}
	r.out.Devices = make([]metrics.FleetDevice, len(r.devs))
	for i, d := range r.devs {
		end := makespan
		switch {
		case !d.alive:
			if d.failedAt < end {
				end = d.failedAt
			}
			// Fail-stop is slice-granular: a final slice may overrun the
			// fail time, so the device's effective lifetime stretches to
			// its last clock tick (keeping Busy ≤ Lifetime).
			if n := d.loop.Now(); n > end {
				end = n
			}
		case d.drained:
			end = d.drainEnd
		case d.warming:
			// Claimed from the warm pool but the run ended before its
			// warm-up elapsed: it never served and never cost live time.
			end = d.joinAt
		}
		life := end - d.joinAt
		if life < 0 {
			life = 0
		}
		ps := d.loop.PlaneStats()
		r.out.Devices[i] = metrics.FleetDevice{
			Busy:      d.loop.Busy(),
			Lifetime:  life,
			LiveStart: d.joinAt,
			Served:    d.served,
			Tokens:    d.tokens,
			Failed:    !d.alive,
			Drained:   d.drained,

			CacheCapacityTokens: ps.CapacityTokens,
			CacheUsedTokens:     ps.UsedTokens,
			CacheHitTokens:      ps.HitTokens,
			CacheMissTokens:     ps.MissTokens,
			CacheEvictedTokens:  ps.EvictedTokens,
			ReprefillSeconds:    ps.ReprefillSeconds,
		}
	}
	r.out.PrefixHits = r.prefixHits
	r.out.PrefixMisses = r.prefixMisses
	if r.el != nil {
		r.el.finish(r.out)
	}
	if r.obs != nil {
		st := obs.Summarize(r.obs.Attribution())
		r.out.Attribution = &st
	}
}
