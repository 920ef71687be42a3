package main

// The benchmark's own tracer. Spans are recorded here, around the calls
// into each layer, and kept in memory until the run ends. Inside
// Fleet.Run and Server.Run the only outside view is the injectable
// interfaces, so the traced passes wrap those in timing decorators.
//
// A nil *tracer is the disabled tracer: every method works on it and
// does nothing, so the plain passes share the traced passes' code.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"fasttts/internal/cluster"
	"fasttts/internal/control"
	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/search"
)

// span is one timed interval. parent indexes tracer.spans (-1: root).
type span struct {
	name       string
	start, end time.Duration // since tracer.epoch
	parent     int
	pass       int
	// calls > 0 marks a folded span: the summed time of that many calls
	// made under the parent, recorded as one interval rather than one
	// span per call (a fleet pass makes several hundred thousand).
	calls int64
}

// callTimer accumulates one decorated method's calls.
type callTimer struct {
	calls int64
	total time.Duration
}

func (c *callTimer) since(start time.Time) {
	c.calls++
	c.total += time.Since(start)
}

// tracer records spans and decorator timings for one traced run.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span indexes
	pass  int

	route, pick, admit, selects, decide callTimer
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanRef closes a span opened with tracer.span.
type spanRef struct {
	tr  *tracer
	idx int
}

func (t *tracer) span(name string) spanRef {
	if t == nil {
		return spanRef{}
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, pass: t.pass})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	return spanRef{tr: t, idx: idx}
}

func (s spanRef) end() {
	if s.tr == nil {
		return
	}
	s.tr.spans[s.idx].end = time.Since(s.tr.epoch)
	s.tr.open = s.tr.open[:len(s.tr.open)-1]
}

// foldCalls records the decorators' accumulated time as folded child
// spans of the given span and resets the accumulators. Call it right
// after the span whose callees the decorators timed has ended.
func (t *tracer) foldCalls(parent spanRef) {
	if t == nil {
		return
	}
	at := t.spans[parent.idx].start
	for _, c := range []struct {
		name  string
		timer *callTimer
	}{
		{"cluster.route", &t.route}, {"sched.pick", &t.pick}, {"sched.admit", &t.admit},
		{"search.select", &t.selects}, {"control.tick", &t.decide},
	} {
		if c.timer.calls == 0 {
			continue
		}
		t.spans = append(t.spans, span{
			name: c.name, start: at, end: at + c.timer.total,
			parent: parent.idx, pass: t.pass, calls: c.timer.calls,
		})
		at += c.timer.total
		*c.timer = callTimer{}
	}
}

// total sums the duration of the pass's spans with the given name, and
// the calls folded into them.
func (t *tracer) total(name string, pass int) (seconds float64, calls int64) {
	for _, s := range t.spans {
		if s.name == name && s.pass == pass {
			seconds += (s.end - s.start).Seconds()
			calls += s.calls
		}
	}
	return seconds, calls
}

// self is the pass's time in spans of the given name minus the time their
// direct children cover.
func (t *tracer) self(name string, pass int) float64 {
	total := 0.0
	for i, s := range t.spans {
		if s.name != name || s.pass != pass {
			continue
		}
		total += (s.end - s.start).Seconds()
		for _, c := range t.spans {
			if c.parent == i {
				total -= (c.end - c.start).Seconds()
			}
		}
	}
	return total
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (loadable
// in Perfetto or chrome://tracing): one lane per pass.
func (t *tracer) writeChromeTrace(path string) error {
	type args struct {
		Parent string `json:"parent,omitempty"`
		Calls  int64  `json:"calls,omitempty"`
		Pass   int    `json:"pass"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		a := args{Calls: s.calls, Pass: s.pass}
		if s.parent >= 0 {
			a.Parent = t.spans[s.parent].name
		}
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.pass,
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: a,
		}
	}
	data, err := json.Marshal(struct {
		TraceEvents []event `json:"traceEvents"`
	}{events})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// --- timing decorators ---

// timedRouter times Route. It forwards the two optional interfaces the
// fleet probes for: hiding NeedsOutstandingWork would starve least-work
// of its load signal, and hiding RouteViewOblivious would change which
// route spans a recorder emits.
type timedRouter struct {
	inner cluster.Router
	t     *callTimer
}

func (t *tracer) router(r cluster.Router) cluster.Router {
	if t == nil {
		return r
	}
	return &timedRouter{inner: r, t: &t.route}
}

func (r *timedRouter) Name() string { return r.inner.Name() }
func (r *timedRouter) Route(rq cluster.RequestView, devices []cluster.DeviceView, s *rng.Stream) int {
	defer r.t.since(time.Now())
	return r.inner.Route(rq, devices, s)
}
func (r *timedRouter) NeedsOutstandingWork() bool {
	wa, ok := r.inner.(cluster.WorkAware)
	return ok && wa.NeedsOutstandingWork()
}
func (r *timedRouter) RouteViewOblivious() bool {
	vo, ok := r.inner.(cluster.ViewOblivious)
	return ok && vo.RouteViewOblivious()
}

type timedServePolicy struct {
	inner       sched.ServePolicy
	pick, admit *callTimer
}

func (t *tracer) servePolicy(p sched.ServePolicy) sched.ServePolicy {
	if t == nil {
		return p
	}
	return &timedServePolicy{inner: p, pick: &t.pick, admit: &t.admit}
}

func (p *timedServePolicy) Name() string { return p.inner.Name() }
func (p *timedServePolicy) Admit(r sched.ServeRequest, now float64, inFlight int) bool {
	defer p.admit.since(time.Now())
	return p.inner.Admit(r, now, inFlight)
}
func (p *timedServePolicy) Pick(rs []sched.ServeRequest, now float64) int {
	defer p.pick.since(time.Now())
	return p.inner.Pick(rs, now)
}

// timedSearchPolicy times Select; the embedded policy serves the rest.
type timedSearchPolicy struct {
	search.Policy
	t *callTimer
}

func (t *tracer) searchPolicy(p search.Policy) search.Policy {
	if t == nil {
		return p
	}
	return &timedSearchPolicy{Policy: p, t: &t.selects}
}

func (p *timedSearchPolicy) Select(cands []search.Candidate, r *rng.Stream) []search.Branch {
	defer p.t.since(time.Now())
	return p.Policy.Select(cands, r)
}

type timedController struct {
	inner control.Controller
	t     *callTimer
}

func (t *tracer) controller(c control.Controller) control.Controller {
	if t == nil {
		return c
	}
	return &timedController{inner: c, t: &t.decide}
}

func (c *timedController) Name() string { return c.inner.Name() }
func (c *timedController) Decide(sig control.Signals, r *rng.Stream) []control.Action {
	defer c.t.since(time.Now())
	return c.inner.Decide(sig, r)
}
