package cluster

// The fleet side of the elastic control plane: ControlConfig wires an
// internal/control Controller into the fleet event loop. At every
// control tick the fleet gathers Signals (window queue delay,
// utilization, SLO attainment, outstanding work), asks the controller to
// decide, and actuates:
//
//   - scale-up: claim a warm-pool template, instantiate a fresh device,
//     and make it routable after the warm-up delay (model load + prefill
//     of the serving stack) as a join event;
//   - scale-down: pick a drain victim (warm-pool instances first, then
//     founding devices, highest index first), remove it from the
//     routable set immediately, and let its accepted work finish — the
//     drain completes when its loop idles;
//   - set-tier: move the compute-budget governor; every request routed
//     while the tier is above 0 carries a narrowed effective search
//     width (core.Request.Width), halved once per tier.
//
// All of it is deterministic: the controller draws only from its private
// seeded stream, victims and templates are chosen by fixed rules, and
// the applied-action log is part of the run's reproducible outcome.

import (
	"fmt"
	"math"

	"fasttts/internal/control"
	"fasttts/internal/core"
	"fasttts/internal/metrics"
	"fasttts/internal/obs"
	"fasttts/internal/rng"
	"fasttts/internal/search"
)

// ControlConfig attaches the elastic control plane to a fleet.
type ControlConfig struct {
	// Controller decides scaling and budget actions; nil means static
	// (ticks observe, nothing actuates).
	Controller control.Controller
	// Interval is the control period in fleet seconds; required > 0 and
	// finite.
	Interval float64
	// Warm holds the warm-pool device templates. Scale-ups instantiate
	// them round-robin; at most len(Warm) controller-added instances are
	// live at once (a drain returns its slot). Templates must not carry
	// FailAt — fault injection belongs to founding members.
	Warm []Device
	// WarmupDelay is how long after a scale-up decision the new device
	// becomes routable (model load and cache prefill); 0 joins instantly.
	// It must be finite.
	WarmupDelay float64
	// MinDevices floors the routable device count drains may reach
	// (default 1); MaxDevices caps routable+warming devices (default
	// founding + len(Warm)). A floor above the cap, once defaults are
	// filled in, is an error.
	MinDevices, MaxDevices int
	// MaxTier is the deepest compute-budget degradation tier the
	// governor may set; each tier halves the effective search width.
	MaxTier int
	// SLOLatency is the wall-latency target the SLO-attainment signal is
	// computed against (<= 0: no target, attainment reads 1).
	SLOLatency float64
}

// validate checks the control configuration and builds the (stateless)
// per-template servers the warm pool instantiates from.
func (cc *ControlConfig) validate(founding int) ([]*core.Server, error) {
	if cc.Interval <= 0 || math.IsNaN(cc.Interval) || math.IsInf(cc.Interval, 1) {
		return nil, fmt.Errorf("cluster: control interval must be positive and finite, got %v", cc.Interval)
	}
	if cc.WarmupDelay < 0 || math.IsNaN(cc.WarmupDelay) || math.IsInf(cc.WarmupDelay, 1) {
		return nil, fmt.Errorf("cluster: warm-up delay must be non-negative and finite, got %v", cc.WarmupDelay)
	}
	if cc.MinDevices < 0 || cc.MaxTier < 0 {
		return nil, fmt.Errorf("cluster: MinDevices and MaxTier must be non-negative")
	}
	warm := make([]*core.Server, len(cc.Warm))
	for i, d := range cc.Warm {
		if d.FailAt > 0 {
			return nil, fmt.Errorf("cluster: warm-pool template %d carries FailAt=%v; fault injection belongs to founding devices", i, d.FailAt)
		}
		srv, err := core.NewServerWithPolicy(d.Config, d.Policy)
		if err != nil {
			return nil, fmt.Errorf("cluster: warm-pool template %d: %w", i, err)
		}
		warm[i] = srv
	}
	if cc.MaxDevices <= 0 {
		cc.MaxDevices = founding + len(cc.Warm)
	}
	if cc.MinDevices == 0 {
		cc.MinDevices = 1
	}
	if cc.MinDevices > cc.MaxDevices {
		return nil, fmt.Errorf("cluster: MinDevices %d exceeds MaxDevices %d; no scaling action could reach that floor", cc.MinDevices, cc.MaxDevices)
	}
	return warm, nil
}

// joinEvent is one scheduled warm-pool join: device dev becomes routable
// at time at. Scale-up decisions arrive in tick order and the warm-up
// delay is constant, so joins are consumed FIFO.
type joinEvent struct {
	at  float64
	dev int
}

// elastic is the per-run state of the control plane.
type elastic struct {
	cfg  *ControlConfig
	ctl  control.Controller
	rand *rng.Stream

	tier      int
	warmFree  int // warm-pool slots not claimed by a live instance
	joinCount int // total instantiations (template cycling)
	joins     []joinEvent
	jp        int
	nextTick  float64

	stats   metrics.ControlStats
	actions []control.Record

	// win accumulates the tick window incrementally (completions,
	// arrivals, SLO hits, queue-delay sum) — the shared metrics-layer
	// window primitive, reset every tick.
	win metrics.TickWindow
}

func newElastic(f *Fleet, founding int) *elastic {
	el := &elastic{
		cfg:      f.cfg.Control,
		ctl:      f.cfg.Control.Controller,
		rand:     rng.New(f.cfg.Seed).Child("cluster/control"),
		warmFree: len(f.cfg.Control.Warm),
		nextTick: f.cfg.Control.Interval,
	}
	if el.ctl == nil {
		el.ctl = control.Static{}
	}
	el.stats.PeakDevices = founding
	return el
}

// nextJoin exposes the pending-join head to the event selector.
func (el *elastic) nextJoin() (float64, int, bool) {
	if el.jp < len(el.joins) {
		return el.joins[el.jp].at, evJoin, true
	}
	return 0, evJoin, false
}

// nextTickEvent exposes the next control tick. Ticks continue while any
// future work could still be observed or actuated: pending arrivals,
// devices with work on the wake heap, or joins in flight. Once all three
// are exhausted the controller has nothing left to influence and the
// tick stream ends (the run then drains to completion).
func (el *elastic) nextTickEvent(r *run, haveArrival bool) (float64, int, bool) {
	if !haveArrival && r.wake.Len() == 0 && el.jp >= len(el.joins) {
		return 0, evTick, false
	}
	return el.nextTick, evTick, true
}

// observe accumulates one finished result into the tick window and the
// degraded-service counter. A request counts as degraded only when it
// was actually served at a width below its device's configured budget —
// requeues, admission rejections, and overrides the algorithm's
// ClampWidth floor restored to full width all don't.
func (el *elastic) observe(sv *core.ServedResult, d *device) {
	el.win.Observe(sv.QueueDelay, sv.WallLatency, sv.Rejected, el.cfg.SLOLatency)
	if sv.Rejected {
		return
	}
	if sv.Width > 0 && sv.Width < d.spec.Config.Policy.Width() {
		el.stats.DegradedRequests++
	}
}

// budget applies the current compute-budget tier to a request being
// routed to device d: tier k halves the device's configured search
// width k times, and — when the fleet runs a test-time-compute strategy
// — degrades the request's strategy to first-finish, the governor's
// third vertical knob beside width and fleet size. Tier 0 restores the
// full budget (also for requeued requests that were degraded on their
// first routing; the route path re-stamps the fleet strategy before
// calling budget, so strategy degradation is likewise not sticky).
func (el *elastic) budget(rq *core.Request, d *device) {
	if el.tier <= 0 {
		rq.Width = 0
		return
	}
	rq.Width = search.DegradedWidth(d.spec.Config.Policy.Width(), el.tier)
	rq.Strategy = search.DegradedStrategy(rq.Strategy, el.tier)
}

// routableStats counts the fleet populations the controller observes.
func (el *elastic) counts(r *run) (routable, warming int) {
	return len(r.vs), len(el.joins) - el.jp
}

// signals gathers the controller's observation at a tick.
func (el *elastic) signals(r *run) control.Signals {
	routable, warming := el.counts(r)
	sig := control.Signals{
		Interval:      el.cfg.Interval,
		Routable:      routable,
		Warming:       warming,
		WarmAvailable: el.warmFree,
		MinDevices:    el.cfg.MinDevices,
		MaxDevices:    el.cfg.MaxDevices,
		Tier:          el.tier,
		MaxTier:       el.cfg.MaxTier,
		SLOAttainment: 1,
	}
	// Only routable devices are walked (and re-snapshotted): drained and
	// failed members never become routable again, and a device joining
	// mid-window carries lastBusy 0 from creation — so the tick stays
	// O(routable devices) no matter how many instances a long run's
	// scale cycles have retired.
	var busyDelta float64
	for _, v := range r.vs {
		d := r.devs[v.Index]
		sig.Pending += d.loop.Pending()
		busyDelta += d.loop.Busy() - d.lastBusy
		d.lastBusy = d.loop.Busy()
	}
	if routable > 0 && el.cfg.Interval > 0 {
		sig.Utilization = busyDelta / (el.cfg.Interval * float64(routable))
		if sig.Utilization > 1 {
			sig.Utilization = 1
		}
	}
	sig.QueueDelay = el.win.MeanQueueDelay()
	sig.SLOAttainment = el.win.Attainment(el.cfg.SLOLatency)
	return sig
}

// tick runs one control interval: observe, decide, actuate, and reset
// the window.
func (el *elastic) tick(r *run, now float64) {
	sig := el.signals(r)
	el.stats.Ticks++
	if r.ctl != nil {
		r.ctl.Emit(obs.Span{Kind: obs.KindTick, Start: now, End: now,
			N: sig.Routable, V1: sig.Utilization, V2: sig.QueueDelay})
	}
	for _, a := range el.ctl.Decide(sig, el.rand) {
		var rec control.Record
		switch a.Verb {
		case control.ScaleUp:
			rec = el.scaleUp(r, now, a.N)
		case control.ScaleDown:
			rec = el.scaleDown(r, now, a.N)
		case control.SetTier:
			rec = el.setTier(now, a.N)
		default:
			continue
		}
		el.actions = append(el.actions, rec)
	}
	el.win.Reset()
	el.nextTick = now + el.cfg.Interval
}

// scaleUp claims up to n warm-pool slots: each instantiates the next
// template (round-robin) as a fresh fleet member that becomes routable
// after the warm-up delay. The J-th instance (J counting every join of
// the run) is named "warm:<template name>+J".
func (el *elastic) scaleUp(r *run, now float64, n int) control.Record {
	rec := control.Record{Time: now, Action: string(control.ScaleUp), Requested: n}
	for i := 0; i < n; i++ {
		routable, warming := el.counts(r)
		if el.warmFree <= 0 || routable+warming >= el.cfg.MaxDevices {
			break
		}
		el.warmFree--
		tmpl := el.joinCount % len(el.cfg.Warm)
		spec := el.cfg.Warm[tmpl]
		spec.Name = fmt.Sprintf("warm:%s+%d", spec.Name, el.joinCount)
		el.joinCount++
		idx := len(r.devs)
		dev := r.newDevice(spec, r.f.warmSrvs[tmpl], now+el.cfg.WarmupDelay)
		dev.warming = true
		dev.dynamic = true
		r.posInVs = append(r.posInVs, -1)
		r.wake.grow(1)
		el.joins = append(el.joins, joinEvent{at: dev.joinAt, dev: idx})
		rec.Devices = append(rec.Devices, idx)
		rec.Applied++
		el.stats.ScaleUps++
	}
	return rec
}

// completeJoin makes the head warm-pool join routable. New instances
// always carry the largest fleet index so far, so appending to the view
// slice keeps it sorted by index.
func (el *elastic) completeJoin(r *run) {
	j := el.joins[el.jp]
	el.jp++
	d := r.devs[j.dev]
	d.warming = false
	r.posInVs[j.dev] = len(r.vs)
	r.vs = append(r.vs, DeviceView{Index: j.dev, Speed: d.speed, Mem: d.loop.Plane()})
	r.reindex()
	r.refreshView(j.dev)
	if n := len(r.vs); n > el.stats.PeakDevices {
		el.stats.PeakDevices = n
	}
	if r.ctl != nil {
		r.ctl.Emit(obs.Span{Kind: obs.KindJoin, Start: j.at, End: j.at, V1: float64(j.dev)})
	}
}

// scaleDown drains up to n devices: warm-pool instances before founding
// members, highest fleet index first, never leaving fewer than
// MinDevices routable. A drained device stops receiving requests
// immediately and leaves the fleet once its accepted work finishes; its
// warm-pool slot (if it was one) frees at the decision.
func (el *elastic) scaleDown(r *run, now float64, n int) control.Record {
	rec := control.Record{Time: now, Action: string(control.ScaleDown), Requested: n}
	for i := 0; i < n && len(r.vs) > el.cfg.MinDevices; i++ {
		victim := -1
		for pass := 0; pass < 2 && victim < 0; pass++ {
			for q := len(r.vs) - 1; q >= 0; q-- {
				d := r.devs[r.vs[q].Index]
				if pass == 0 && !d.dynamic {
					continue // prefer draining warm-pool instances
				}
				victim = r.vs[q].Index
				break
			}
		}
		if victim < 0 {
			break
		}
		d := r.devs[victim]
		r.dropView(victim)
		d.draining = true
		d.drainAt = now
		if d.dynamic {
			el.warmFree++
		}
		d.noteDrained()
		rec.Devices = append(rec.Devices, victim)
		rec.Applied++
		el.stats.ScaleDowns++
		if r.ctl != nil {
			r.ctl.Emit(obs.Span{Kind: obs.KindDrain, Start: now, End: now, V1: float64(victim)})
		}
	}
	return rec
}

// setTier moves the compute-budget governor, clamped to [0, MaxTier].
// The record keeps the controller's raw request in Requested so clamping
// is visible in the action log, matching the scaling verbs.
func (el *elastic) setTier(now float64, tier int) control.Record {
	requested := tier
	if tier < 0 {
		tier = 0
	}
	if tier > el.cfg.MaxTier {
		tier = el.cfg.MaxTier
	}
	if tier != el.tier {
		el.tier = tier
		el.stats.TierChanges++
	}
	return control.Record{Time: now, Action: string(control.SetTier), Requested: requested, Applied: el.tier}
}

// finish publishes the controller's log and summary into the outcome.
func (el *elastic) finish(out *Outcome) {
	el.stats.FinalTier = el.tier
	out.Actions = el.actions
	st := el.stats
	out.Control = &st
}
