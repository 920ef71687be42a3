package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"fasttts/internal/memplane"
	"fasttts/internal/metrics"
	"fasttts/internal/obs"
	"fasttts/internal/sched"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// Request is one queued TTS query for the serving engine.
type Request struct {
	Problem *workload.Problem
	// Arrival is the request's arrival time on the server clock.
	Arrival float64
	// Priority orders requests under the priority policy; larger first.
	Priority int
	// Deadline is the absolute SLO deadline on the server clock used by
	// the deadline policy; 0 means none.
	Deadline float64
	// Tag is an opaque client correlation tag carried through unchanged to
	// the ServedResult. The cluster layer uses it to track a request's
	// identity across failure-induced requeues.
	Tag int
	// Width, when positive and below the server policy's configured
	// width, narrows this request's effective search budget to Width
	// parallel paths (clamped up to the algorithm's constructible
	// minimum). Zero means the full configured budget. The elastic
	// control plane's compute-budget governor sets it per request under
	// load; both the admission-time demand estimate
	// (sched.EstimateDemand) and the solver the request runs on honor it.
	Width int
	// Strategy, when on (not the zero value), overrides the deployment's
	// configured test-time-compute strategy for this request. The elastic
	// control plane's budget governor sets it per request under load (the
	// third vertical knob beside Width); the zero value inherits
	// Config.Strategy.
	Strategy search.Strategy
}

// ServedResult augments a solve result with queueing telemetry. Result is
// nil (and only then) for requests shed by admission control. A run's
// Results come from its result store (see Result): holding one keeps its
// chunk alive, and identical solves share one.
type ServedResult struct {
	*Result
	// Arrival, Start, and Finish are on the server clock. The embedded
	// Result's Latency is the request's device (service) time; under
	// time-slicing Finish − Start additionally includes slices spent on
	// other tenants.
	Arrival, Start, Finish float64
	// QueueDelay = Start − Arrival.
	QueueDelay float64
	// WallLatency = Finish − Arrival: what the client experiences.
	WallLatency float64
	// Slices counts the device slices the request ran in.
	Slices int
	// UsefulTokens is the request's useful generated output: all decoded
	// tokens minus speculative ones, plus the speculative tokens that
	// surviving beams adopted. Server-level goodput sums this.
	UsefulTokens int64
	// Width is the effective search width the request was served at
	// (the configured policy width unless the request carried a narrower
	// budget override); 0 for rejected requests.
	Width int
	// Rejected marks requests shed by admission control.
	Rejected bool
	// Tag echoes the request's correlation tag.
	Tag int
}

// Server is the multi-tenant serving engine. It generalizes the paper's
// §4.1.2 two-phase preemptible scheduler to many in-flight requests: an
// event-driven virtual clock time-slices the device between admitted
// requests at search-iteration granularity, a pluggable sched.ServePolicy
// decides admission and which request owns each slice, and speculative
// execution (Phase 2) runs only while no other request is waiting — the
// moment one is, speculation is preempted, exactly as in the paper. With
// the FCFS policy the engine degenerates to run-to-completion in arrival
// order and reproduces the sequential scheduler bit-identically.
type Server struct {
	cfg      Config
	kvBudget int64 // cfg's, computed once: every solver reads it
	pol      sched.ServePolicy
}

// session tracks one admitted request through its slices.
type session struct {
	req     Request
	id      int // position in the submitted stream
	solver  *solver
	started bool
	start   float64
	est     float64 // estimated total service demand, token units
	lastRem float64 // remaining-work estimate as of the last slice (load index term)
	slices  int
	width   int // effective search width, resolved at service start

	// mem is the request's footprint on the device's KV memory plane (nil
	// until the first admission on a plane-on loop). It survives the
	// session's reuse: each admission refills it in place (AdmitInto) and
	// release finishes it. penalty is the admission-time re-prefill charge,
	// paid into the session's first slice.
	mem     *memplane.Session
	penalty float64

	// trace is the recorded clean solve of the session's key that it
	// replays, slice by slice, instead of running a solver (nil: it runs
	// one). rec records the session's own slices while it records (rec
	// non-nil): it started live on a key with no trace yet and every slice
	// so far was clean. rec is a buffer of the result store's.
	trace *solveTrace
	rec   []sliceRec
}

// NewServer returns an FCFS server executing requests under the given
// deployment configuration (the seed-equivalent special case).
func NewServer(cfg Config) (*Server, error) {
	return NewServerWithPolicy(cfg, sched.FCFS{})
}

// NewServerWithPolicy returns a server using the given admission/ordering
// policy. A nil policy means FCFS.
func NewServerWithPolicy(cfg Config, pol sched.ServePolicy) (*Server, error) {
	budget, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	if pol == nil {
		pol = sched.FCFS{}
	}
	return &Server{cfg: cfg, kvBudget: budget, pol: pol}, nil
}

// Run serves an open-loop request stream and returns per-request results
// in completion order (rejected requests appear at their rejection time).
// A NaN or infinite arrival time is an error.
func (s *Server) Run(reqs []Request) ([]ServedResult, error) {
	for _, rq := range reqs {
		if math.IsNaN(rq.Arrival) || math.IsInf(rq.Arrival, 0) {
			return nil, fmt.Errorf("core: request tag %d has non-finite arrival time %v", rq.Tag, rq.Arrival)
		}
	}
	out, err := s.NewLoop(reqs).StepTo(NoHorizon, make([]ServedResult, 0, len(reqs)))
	if err == nil {
		err = checkResultCount(len(out), len(reqs))
	}
	return out, err
}

// RunClosedLoop serves the problems under a fixed-concurrency closed
// loop: cl.Concurrency clients each keep one request outstanding and
// issue their next request cl.Think seconds after the previous finishes.
// A NaN or infinite think time is an error.
func (s *Server) RunClosedLoop(probs []*workload.Problem, cl workload.ClosedLoop) ([]ServedResult, error) {
	if math.IsNaN(cl.Think) || math.IsInf(cl.Think, 0) {
		return nil, fmt.Errorf("core: non-finite closed-loop think time %v", cl.Think)
	}
	conc := cl.Concurrency
	if conc < 1 {
		conc = 1
	}
	// The first conc requests all arrive at 0, so NewLoop's stable sort
	// keeps them in tag order.
	reqs := make([]Request, min(conc, len(probs)))
	for i := range reqs {
		reqs[i] = Request{Problem: probs[i], Tag: i}
	}
	l := s.NewLoop(reqs)
	next := len(reqs)
	l.feeder = func(finish float64) (Request, bool) {
		if next >= len(probs) {
			return Request{}, false
		}
		rq := Request{Problem: probs[next], Arrival: finish + cl.Think, Tag: next}
		next++
		return rq, true
	}
	out, err := l.StepTo(NoHorizon, make([]ServedResult, 0, len(probs)))
	if err == nil {
		err = checkResultCount(len(out), len(probs))
	}
	return out, err
}

// NoHorizon makes Loop.StepTo run until the loop is out of work.
const NoHorizon = -1.0

// Loop is one steppable instance of the serving event loop: the device's
// virtual clock, its arrival queue, and its in-flight sessions. Server's
// Run and RunClosedLoop drive a Loop to completion in one call; the
// cluster fleet simulator drives N loops event-by-event with bounded
// horizons, pushing arrivals as its routers assign them and withdrawing
// work on fail-stop.
//
// Concurrency contract: a Loop is goroutine-confined — all calls on one
// Loop must come from a single goroutine (or be externally ordered), but
// distinct Loops share no mutable state even when built from one Server
// (the Server is read-only after construction; each Loop owns its clock,
// queue, sessions, solver, and rng streams), unless ShareResults made them
// share a result store: such loops are confined to one goroutine together.
//
// Determinism contract: StepTo is horizon-sensitive. The horizon is not
// just a stopping time — it feeds the speculation-preemption probe as a
// pending boundary, so StepTo(t1) followed by StepTo(t2) may slice work
// differently than StepTo(t2) alone. A replay must therefore present the
// Loop with the identical sequence of horizons, not just the same final
// time.
type Loop struct {
	s *Server
	// queue holds the arrivals in arrival order, each with its demand
	// estimate; queue[:next] is the admitted prefix, whose slots Push
	// reclaims, so the queue stays as long as the peak unadmitted
	// population, not the stream.
	queue    []queued
	feeder   func(finish float64) (Request, bool)
	sessions []*session // live (admitted, unfinished) sessions in admission order
	now      float64
	next     int // next queue index to admit
	nextID   int
	scale    float64 // wall seconds per nominal device second (straggler factor)
	busy     float64 // wall seconds spent executing slices (lost work included)
	failed   bool

	// plane is the device's KV memory plane; nil when the configured
	// capacity is zero, in which case the loop's behavior is bit-identical
	// to builds without the plane.
	plane *memplane.Plane

	// Incrementally maintained load indexes: liveWork is the summed
	// remaining-work estimate of the live sessions, queuedWork the summed
	// demand estimate of the unadmitted arrivals. Updated on push, admit,
	// slice, finish, and fail, so OutstandingWork is O(1) instead of an
	// O(in-flight + queued) scan per call.
	liveWork   float64
	queuedWork float64

	// views[i] is the policy's view of sessions[i], kept current instead
	// of rebuilt per slice: a session's view changes only in the slice it
	// runs (its remaining-work estimate), so admission appends it, a slice
	// refreshes the picked one, and release deletes it at the same index.
	// Policy.Pick reads it as its runnable slice.
	views []sched.ServeRequest

	// freeSolvers holds the solvers of sessions that ended (finished,
	// cancelled or withdrawn by fail-stop); the next request to start takes
	// one and re-initialises it in place instead of building a search stack.
	// A plain slice, not a sync.Pool: the Loop is goroutine-confined, and the
	// solvers must die with it rather than linger in a process-wide pool.
	freeSolvers []*solver
	// freeSessions holds ended sessions (finished, cancelled or rejected at
	// admission) for the next admission to reuse.
	freeSessions []*session

	// obs is the loop's span flight-recorder track; nil (the default)
	// disables every emission site at the cost of one pointer check.
	obs *obs.Track

	// results is the store the loop's Results and finished paths come
	// from: its own, made at the first completion, or one it shares with
	// the other loops of a fleet run (ShareResults).
	results *resultStore
}

// queued is one arrival in a loop's queue and its demand estimate
// (estimateWork), computed once when it enters the queue and carried into
// its session: the load index, a cancellation and admission all read it.
type queued struct {
	Request
	est float64
}

// withEstimate pairs a request with its demand estimate.
func (s *Server) withEstimate(rq Request) queued {
	return queued{Request: rq, est: s.estimateWork(rq)}
}

// NewLoop returns a steppable loop over the given open-loop requests
// (sorted by arrival internally). More arrivals may be added with Push.
func (s *Server) NewLoop(reqs []Request) *Loop {
	queue := make([]queued, len(reqs))
	for i, rq := range reqs {
		queue[i] = s.withEstimate(rq)
	}
	sort.SliceStable(queue, func(i, j int) bool { return queue[i].Arrival < queue[j].Arrival })
	l := &Loop{s: s, queue: queue, scale: 1, plane: s.newPlane(), obs: s.cfg.Obs.Device(0)}
	for _, q := range queue {
		l.queuedWork += q.est
	}
	return l
}

// newPlane instantiates the deployment's KV memory plane, or nil when the
// configured capacity is zero (the plane is off by default).
func (s *Server) newPlane() *memplane.Plane {
	if !s.cfg.KVPlane.Enabled() {
		return nil
	}
	return memplane.New(s.cfg.KVPlane, s.cfg.GPU, s.cfg.Generator)
}

// Plane returns the loop's KV memory plane; nil when disabled. The fleet
// layer attaches it to the device's routing view so cache-aware routers
// can probe prefix residency when they route.
func (l *Loop) Plane() *memplane.Plane { return l.plane }

// PlaneStats returns the memory plane's cumulative telemetry; the zero
// value when the plane is disabled.
func (l *Loop) PlaneStats() memplane.Stats {
	if l.plane == nil {
		return memplane.Stats{}
	}
	return l.plane.Stats()
}

// SetObs attaches a span flight-recorder track to the loop; the fleet
// layer assigns each device its own track on the shared recorder. A nil
// track (the default) disables every emission site. Call before the
// first StepTo.
func (l *Loop) SetObs(t *obs.Track) { l.obs = t }

// ShareResults makes l take its Results and finished paths from o's
// store, so every loop of a fleet run fills one set of chunks instead of
// each leaving its own last chunk part-empty. Loops that share a store
// must be driven from one goroutine. Call before the first StepTo.
func (l *Loop) ShareResults(o *Loop) { l.results = o.store() }

// store returns the loop's result store, making it on first use.
func (l *Loop) store() *resultStore {
	if l.results == nil {
		l.results = new(resultStore)
	}
	return l.results
}

// SetScale sets the loop's straggler factor: every device slice consumes
// scale× its nominal duration of wall-clock time (thermal throttling,
// background load). Factors below 1 are clamped to 1. Call before the
// first StepTo; the embedded Result.Latency remains nominal service time.
func (l *Loop) SetScale(f float64) {
	if f < 1 {
		f = 1
	}
	l.scale = f
}

// Push inserts one future arrival into the loop's queue. An arrival not
// later than the loop's clock is admitted on the next StepTo.
//
// Push first drops the admitted prefix from the queue. That costs a copy
// of the unadmitted arrivals, which insertByArrival's shift already pays,
// and keeps a long-lived loop's queue (a fleet device's, fed one routed
// arrival at a time) from growing with its stream.
func (l *Loop) Push(rq Request) {
	if l.next > 0 {
		n := copy(l.queue, l.queue[l.next:])
		clear(l.queue[n:])
		l.queue = l.queue[:n]
		l.next = 0
	}
	q := l.s.withEstimate(rq)
	l.queue = insertByArrival(l.queue, q)
	l.queuedWork += q.est
	l.reanchorWork()
}

// Now returns the loop's virtual clock. It advances only while slices
// execute or the clock jumps to a queued arrival.
func (l *Loop) Now() float64 { return l.now }

// Busy returns the wall-clock time the device has spent executing slices,
// including work later lost to fail-stop.
func (l *Loop) Busy() float64 { return l.busy }

// Queued returns the number of queued, not-yet-admitted arrivals.
func (l *Loop) Queued() int { return len(l.queue) - l.next }

// Pending returns the device's total outstanding population: admitted
// unfinished requests plus queued arrivals (join-shortest-queue's load
// signal).
func (l *Loop) Pending() int { return len(l.sessions) + l.Queued() }

// OutstandingWork returns the estimated remaining service demand of the
// device in token units: the remaining-work estimates of in-flight
// sessions plus the full demand estimate of every queued arrival — the
// least-outstanding-work router's load signal. It reads the loop's
// incrementally maintained load indexes, so it is O(1) — no per-call
// scan of sessions or queue.
func (l *Loop) OutstandingWork() float64 {
	w := l.liveWork + l.queuedWork
	if w < 0 {
		return 0 // guard against accumulated float cancellation near empty
	}
	return w
}

// reanchorWork pins the load indexes back to exact values at the cheap
// anchor states (zero or one term), shedding the float drift that
// incremental add/remove accumulates. Called after every index update.
func (l *Loop) reanchorWork() {
	switch len(l.sessions) {
	case 0:
		l.liveWork = 0
	case 1:
		l.liveWork = l.sessions[0].lastRem
	}
	switch qn := len(l.queue) - l.next; {
	case qn == 0:
		l.queuedWork = 0
	case qn == 1:
		l.queuedWork = l.queue[l.next].est
	}
}

// Idle reports whether the loop has no runnable session and no queued
// arrival: StepTo would return immediately.
func (l *Loop) Idle() bool {
	return l.failed || (len(l.sessions) == 0 && l.next >= len(l.queue))
}

// Fail marks the device fail-stopped and withdraws every unfinished
// request: admitted in-flight sessions (their partial work is lost) in
// admission order, then queued arrivals in arrival order. The caller
// requeues them elsewhere; the loop executes nothing afterwards. Failure
// takes effect at slice granularity — a slice in progress when the fleet
// declared the failure has already completed (results produced by earlier
// StepTo calls stand).
func (l *Loop) Fail() []Request {
	l.failed = true
	var out []Request
	for len(l.sessions) > 0 {
		c := l.sessions[0]
		out = append(out, c.req)
		l.release(c)
		if l.obs != nil {
			l.obs.Emit(obs.Span{Kind: obs.KindWithdraw, Tag: c.req.Tag, Start: l.now, End: l.now, Flag: c.started})
		}
	}
	for _, q := range l.queue[l.next:] {
		if l.obs != nil {
			l.obs.Emit(obs.Span{Kind: obs.KindWithdraw, Tag: q.Tag, Start: l.now, End: l.now})
		}
		out = append(out, q.Request)
	}
	// Drop every queued slot, so a failed loop keeps no withdrawn
	// request's problem or strategy reachable.
	clear(l.queue)
	l.queue, l.next = l.queue[:0], 0
	l.liveWork, l.queuedWork = 0, 0
	if l.obs != nil {
		l.obs.Emit(obs.Span{Kind: obs.KindFailStop, Start: l.now, End: l.now, N: len(out)})
	}
	return out
}

// Cancel deterministically withdraws the request with the given tag
// mid-flight, releasing everything it holds: a queued arrival leaves the
// queue and its demand leaves the queued-work load index; a live session
// is dropped like a completion that produces no result — its load-index
// contribution is released, its memory-plane decode state is finished
// (the prompt prefix stays resident), and its partial device work stays
// in Busy as lost work, exactly like fail-stop. The fleet layer uses it
// to cancel the losing copy of a hedged request. It returns whether the
// request had started executing and whether it was found at all; a tag
// that already completed (or was never routed here) is a no-op.
func (l *Loop) Cancel(tag int) (started, ok bool) {
	if l.failed {
		return false, false
	}
	for i := l.next; i < len(l.queue); i++ {
		if l.queue[i].Tag == tag {
			l.queuedWork -= l.queue[i].est
			l.queue = slices.Delete(l.queue, i, i+1) // clears the vacated slot
			l.reanchorWork()
			if l.obs != nil {
				l.obs.Emit(obs.Span{Kind: obs.KindCancel, Tag: tag, Start: l.now, End: l.now})
			}
			return false, true
		}
	}
	for _, c := range l.sessions {
		if c.req.Tag == tag {
			l.release(c)
			if l.obs != nil {
				l.obs.Emit(obs.Span{Kind: obs.KindCancel, Tag: tag, Start: l.now, End: l.now, Flag: c.started})
			}
			l.freeSessions = append(l.freeSessions, c)
			return c.started, true
		}
	}
	return false, false
}

// Wake returns the earliest horizon at which StepTo would make progress
// (execute a slice, admit an arrival, or jump the clock to one), and
// false when the loop is drained or failed — the fleet event heap's
// per-device key.
func (l *Loop) Wake() (float64, bool) {
	if l.failed {
		return 0, false
	}
	hasArrival := l.next < len(l.queue)
	if len(l.sessions) > 0 {
		if hasArrival && l.queue[l.next].Arrival < l.now {
			return l.queue[l.next].Arrival, true
		}
		return l.now, true
	}
	if hasArrival {
		return l.queue[l.next].Arrival, true
	}
	return 0, false
}

// StepTo advances the loop until its clock reaches the horizon or it runs
// out of work, appending the results produced (completions in completion
// order, rejections at admission time) to out and returning the extended
// slice; a caller stepping many times passes the same buffer back, out[:0],
// so a step allocates no result slice. Horizon NoHorizon (or any
// negative value) means run to completion. Slices are atomic: the slice
// in progress when the clock crosses the horizon finishes, so the clock
// may end slightly past it. The horizon also acts as a pending-arrival
// bound for §4.1.2 speculation preemption: the fleet simulator steps
// device loops to the next global event, and a slice about to cross that
// event boundary stops speculating — exactly as a single device stops
// speculating as its next arrival lands mid-slice.
func (l *Loop) StepTo(horizon float64, out []ServedResult) ([]ServedResult, error) {
	feed := func(at float64) {
		if l.feeder == nil {
			return
		}
		if rq, ok := l.feeder(at); ok {
			l.Push(rq)
		}
	}
	for !l.failed {
		// Admit everything that has arrived by now.
		for l.next < len(l.queue) && l.queue[l.next].Arrival <= l.now {
			rq, est := l.queue[l.next].Request, l.queue[l.next].est
			l.next++
			l.queuedWork -= est
			c := l.newSession(rq, est)
			v := l.s.viewOf(c)
			if !l.s.pol.Admit(v, l.now, len(l.sessions)) {
				l.freeSessions = append(l.freeSessions, c)
				l.reanchorWork()
				out = append(out, ServedResult{
					Arrival: rq.Arrival, Start: rq.Arrival, Finish: rq.Arrival,
					Rejected: true, Tag: rq.Tag,
				})
				if l.obs != nil {
					l.obs.Emit(obs.Span{Kind: obs.KindReject, Tag: rq.Tag, Start: rq.Arrival, End: rq.Arrival})
				}
				feed(rq.Arrival)
				continue
			}
			l.sessions = append(l.sessions, c)
			l.views = append(l.views, v)
			c.lastRem = v.RemainingWork
			l.liveWork += c.lastRem
			l.reanchorWork()
			if l.plane != nil {
				// Charge the prompt prefix against the memory plane; the
				// re-prefill penalty for non-resident tokens lands in the
				// session's first slice.
				if c.mem == nil {
					c.mem = new(memplane.Session)
				}
				c.penalty = l.plane.AdmitInto(c.mem, rq.Problem.Key(), rq.Problem.PromptTokens)
			}
			if l.obs != nil {
				l.obs.Emit(obs.Span{Kind: obs.KindAdmit, Tag: rq.Tag, Start: rq.Arrival, End: l.now, V1: c.penalty, V2: est})
			}
		}
		// Every session is live (completed ones are dropped eagerly), so
		// the session list itself is the runnable set — no per-slice copy.
		live := l.sessions
		if len(live) == 0 {
			if l.next < len(l.queue) {
				na := l.queue[l.next].Arrival
				if horizon >= 0 && na > horizon {
					return out, nil // next work lies beyond the horizon
				}
				// Device idle: jump the virtual clock to the next arrival.
				l.now = na
				continue
			}
			return out, nil
		}
		if horizon >= 0 && l.now >= horizon {
			return out, nil
		}

		// Policy picks the slice owner among the runnable requests, over
		// their views as kept current since admission.
		pick := l.s.pol.Pick(l.views, l.now)
		if pick < 0 || pick >= len(live) {
			return out, fmt.Errorf("core: policy %s picked index %d of %d runnable requests",
				l.s.pol.Name(), pick, len(live))
		}
		c := live[pick]
		if !c.started {
			c.width = l.s.effectiveWidth(c.req)
			if c.trace = l.store().trace(l.keyOf(c)); c.trace == nil {
				sv, err := l.startSolver(c)
				if err != nil {
					return out, err
				}
				c.solver, c.rec = sv, l.results.takeRec()
			}
			c.started = true
			c.start = l.now
			if l.obs != nil {
				l.obs.Emit(obs.Span{Kind: obs.KindQueue, Tag: c.req.Tag, Start: c.req.Arrival, End: l.now})
			}
		}

		// Phase 2 precondition (§4.1.2): speculation only while the waiting
		// queue is empty. In multi-tenant terms the queue is non-empty when
		// another request is runnable, or when the next unadmitted arrival
		// (or the fleet's next event boundary) lands mid-slice.
		pending := -1.0
		if l.next < len(l.queue) {
			pending = l.queue[l.next].Arrival
		}
		if horizon >= 0 && (pending < 0 || horizon < pending) {
			pending = horizon
		}
		probe := preemptProbe{
			othersWaiting: len(live) > 1,
			pending:       pending,
			sliceStart:    l.now,
			localStart:    c.localClock(),
			scale:         l.scale,
			top:           -1,
		}
		end, hit, used, err := l.runSlice(c, probe)
		if err != nil {
			return out, err
		}
		sliceStart := l.now
		nom := end - probe.localStart
		paid := 0.0
		delta := nom * l.scale
		if c.penalty > 0 {
			// First slice: pay the admission-time re-prefill charge for the
			// prompt tokens that were not resident on the memory plane.
			paid = c.penalty
			delta += c.penalty * l.scale
			c.penalty = 0
		}
		l.now += delta
		l.busy += delta
		c.slices++
		if l.plane != nil {
			// Reconcile the session's resident footprint with the solver's
			// live KV usage beyond the prompt — per-beam decode state that
			// widens and narrows as the search proceeds.
			l.plane.SyncDecode(c.mem, int(used)-c.req.Problem.PromptTokens)
		}
		if l.obs != nil {
			l.obs.Emit(obs.Span{Kind: obs.KindSlice, Tag: c.req.Tag, Start: sliceStart, End: l.now,
				V1: nom, V2: paid, N: c.width, Flag: hit})
		}

		// Deadline strategy: a request whose deadline passed mid-solve is
		// finalized early with the best path found so far. The cut lands at
		// slice granularity — the slice that crossed the deadline completes
		// first, mirroring how fail-stop and preemption are observed. A
		// replaying session is cut on a solver brought up to this point.
		if !c.done() && c.req.Deadline > 0 && l.now >= c.req.Deadline && l.s.effectiveStrategy(c.req).CutAtDeadline() {
			if c.trace != nil {
				if err := l.resume(c); err != nil {
					return out, err
				}
			}
			c.solver.cutDeadline()
			l.stopRecording(c)
		}

		if c.done() {
			var res *Result
			if c.trace != nil {
				res = c.trace.res
			} else {
				var err error
				if res, err = c.solver.result(l.store()); err != nil {
					return out, fmt.Errorf("core: serving %s/%d: %w", c.req.Problem.Dataset, c.req.Problem.Index, err)
				}
				if c.rec != nil {
					l.store().keepTrace(l.keyOf(c), c.rec, res, c.solver.speculates())
				}
			}
			l.release(c)
			out = append(out, ServedResult{
				Result:  res,
				Arrival: c.req.Arrival, Start: c.start, Finish: l.now,
				QueueDelay:   c.start - c.req.Arrival,
				WallLatency:  l.now - c.req.Arrival,
				Slices:       c.slices,
				UsefulTokens: res.TokensDecoded - res.SpecTokens + res.SpecRetained,
				Width:        c.width,
				Tag:          c.req.Tag,
			})
			if err := checkServed(&out[len(out)-1], l.s.effectiveStrategy(c.req)); err != nil {
				return out, err
			}
			if l.obs != nil {
				l.obs.Emit(obs.Span{Kind: obs.KindFinish, Tag: c.req.Tag, Start: l.now, End: l.now, N: c.slices})
			}
			l.freeSessions = append(l.freeSessions, c)
			feed(l.now)
		} else {
			v := l.s.viewOf(c)
			l.views[pick] = v
			l.liveWork += v.RemainingWork - c.lastRem
			c.lastRem = v.RemainingWork
			l.reanchorWork()
		}
	}
	return out, nil
}

// newSession returns a blank session for an arriving request under the
// next admission ID, reusing an ended one when the loop has any.
func (l *Loop) newSession(rq Request, est float64) *session {
	var c *session
	if k := len(l.freeSessions) - 1; k >= 0 {
		c = l.freeSessions[k]
		l.freeSessions[k] = nil
		l.freeSessions = l.freeSessions[:k]
	} else {
		c = new(session)
	}
	*c = session{req: rq, id: l.nextID, est: est, mem: c.mem}
	l.nextID++
	return c
}

// runSlice serves a started session's next slice under probe, replayed
// from its trace or run on its solver, and returns the solver clock at the
// slice's end, the slice's probe-hit flag and the generator's resident KV
// tokens then. A live slice is recorded while the session records.
func (l *Loop) runSlice(c *session, probe preemptProbe) (end float64, hit bool, used int64, err error) {
	// A replayed slice the probe would have preempted runs live instead,
	// on a solver brought up to the slice's start.
	if c.trace != nil && c.trace.spec && probe.fires(c.trace.slices[c.slices].end) {
		if err := l.resume(c); err != nil {
			return 0, false, 0, err
		}
	}
	if c.trace != nil {
		r := &c.trace.slices[c.slices]
		return r.end, r.top >= 0 && probe.fires(r.top), r.used, nil
	}
	sv := c.solver
	sv.preempt = probe
	if !sv.begun {
		sv.begin() // prompt prefill charges into the first slice
	}
	if err := sv.stepOnce(); err != nil {
		return 0, false, 0, fmt.Errorf("core: serving %s/%d: %w", c.req.Problem.Dataset, c.req.Problem.Index, err)
	}
	end, used = sv.clk.Now(), sv.gen.Cache.UsedTokens()
	if c.rec != nil {
		if sv.speculates() && probe.fires(end) {
			l.stopRecording(c) // preempted: this solve is not a clean one
		} else {
			c.rec = append(c.rec, sliceRec{end: end, top: sv.preempt.top, decoded: sv.gen.DecodedTokens, used: used})
		}
	}
	return end, sv.preempt.hit, used, nil
}

// keyOf is the trace key of a started session's solve.
func (l *Loop) keyOf(c *session) traceKey {
	return traceKey{srv: l.s, p: c.req.Problem, width: c.width, strategy: l.s.effectiveStrategy(c.req)}
}

// startSolver returns a solver initialised for a started session's
// request: the deployment's policy at the session's width (a
// budget-degraded request runs the same algorithm with only n narrowed,
// the §4.1 search semantics unchanged) and the request's strategy.
func (l *Loop) startSolver(c *session) (*solver, error) {
	pol := l.s.cfg.Policy
	if c.width != pol.Width() {
		narrowed, err := search.WithWidth(pol, c.width)
		if err != nil {
			return nil, fmt.Errorf("core: narrowing %s to width %d: %w", pol.Name(), c.width, err)
		}
		pol = narrowed
	}
	sv, err := l.takeSolver(pol, l.s.effectiveStrategy(c.req), c.req.Problem)
	if err != nil {
		return nil, fmt.Errorf("core: serving %s/%d: %w", c.req.Problem.Dataset, c.req.Problem.Index, err)
	}
	return sv, nil
}

// resume takes a replaying session live: a solver runs begin and the
// c.slices slices the session replayed, under noPreemption. They come out
// as recorded, because every recorded slice was clean, and the session
// goes on from there on the solver.
func (l *Loop) resume(c *session) error {
	sv, err := l.startSolver(c)
	if err != nil {
		return err
	}
	sv.begin()
	for range c.slices {
		if err := sv.stepOnce(); err != nil {
			return fmt.Errorf("core: serving %s/%d: %w", c.req.Problem.Dataset, c.req.Problem.Index, err)
		}
	}
	c.solver, c.trace = sv, nil
	return nil
}

// stopRecording ends a session's recording, its buffer given back.
func (l *Loop) stopRecording(c *session) {
	l.results.putRec(c.rec)
	c.rec = nil
}

// localClock is the solver clock of a started session between slices:
// its solver's, or where the last slice it replayed ended.
func (c *session) localClock() float64 {
	switch {
	case c.trace == nil:
		return c.solver.clk.Now()
	case c.slices > 0:
		return c.trace.slices[c.slices-1].end
	}
	return 0
}

// decoded is the generator tokens a session's solve has decoded so far.
func (c *session) decoded() int64 {
	switch {
	case c.trace != nil && c.slices > 0:
		return c.trace.slices[c.slices-1].decoded
	case c.solver != nil:
		return c.solver.gen.DecodedTokens
	}
	return 0
}

// done reports whether a started session's solve has terminated: its
// replay served every recorded slice, or its solver is done.
func (c *session) done() bool {
	if c.trace != nil {
		return c.slices == len(c.trace.slices)
	}
	return c.solver.done()
}

// takeSolver returns a solver initialised for the problem under the
// request's policy and strategy — a retired one when the loop has any,
// else a new one — reading the server's deployment constants in place.
func (l *Loop) takeSolver(pol search.Policy, strategy search.Strategy, p *workload.Problem) (*solver, error) {
	var sv *solver
	if k := len(l.freeSolvers) - 1; k >= 0 {
		sv = l.freeSolvers[k]
		l.freeSolvers[k] = nil
		l.freeSolvers = l.freeSolvers[:k]
	} else {
		sv = new(solver)
	}
	if err := sv.init(&l.s.cfg, l.s.kvBudget, pol, strategy, p, nil); err != nil {
		return nil, err
	}
	return sv, nil
}

// retireSolver puts an ended session's solver, if it ever started, on the
// free list. The Result already assembled from it shares nothing with it.
func (l *Loop) retireSolver(c *session) {
	if c.solver != nil {
		l.freeSolvers = append(l.freeSolvers, c.solver)
		c.solver = nil
	}
}

// release ends a live session — finished, cancelled or withdrawn by
// fail-stop — the one way: it leaves the live list and its view leaves
// the view list at the same index (so the runnable set stays the live
// population), it leaves the load index, its solver goes on the free
// list, its recording buffer goes back to the result store, and its
// memory-plane decode state is finished while the prompt prefix stays
// resident for future admissions to hit. The caller reads
// what it still needs from c (tag, start, slices) after release.
func (l *Loop) release(c *session) {
	i := slices.Index(l.sessions, c)
	l.sessions = slices.Delete(l.sessions, i, i+1)
	l.views = slices.Delete(l.views, i, i+1)
	l.liveWork -= c.lastRem
	l.reanchorWork()
	l.retireSolver(c)
	l.stopRecording(c)
	if l.plane != nil {
		l.plane.Finish(c.mem)
	}
}

// insertByArrival inserts q into the arrival-sorted queue at its place
// (after equal arrivals, preserving feed order). The position is found by
// binary search, so pushing a large routed stream is O(n log n) instead
// of the quadratic backward scan.
func insertByArrival(queue []queued, q queued) []queued {
	pos := sort.Search(len(queue), func(i int) bool {
		return queue[i].Arrival > q.Arrival
	})
	queue = append(queue, queued{})
	copy(queue[pos+1:], queue[pos:])
	queue[pos] = q
	return queue
}

// remainingWork is a session's remaining-demand estimate: the admission
// estimate minus decoded tokens, floored so a started request always has
// some residual demand (SJF never starves it behind an estimate gone
// negative). Single source of truth for the policy views and the loop's
// incremental load index.
func (s *Server) remainingWork(c *session) float64 {
	remaining := c.est - float64(c.decoded())
	if floor := c.est * 0.02; remaining < floor {
		remaining = floor
	}
	return remaining
}

// viewOf projects a session into the policy's read-only view.
func (s *Server) viewOf(c *session) sched.ServeRequest {
	return sched.ServeRequest{
		ID:            c.id,
		Arrival:       c.req.Arrival,
		Priority:      c.req.Priority,
		Deadline:      c.req.Deadline,
		RemainingWork: s.remainingWork(c),
	}
}

// estimateWork predicts a request's total service demand in token units
// for shortest-job ordering (see sched.EstimateDemand), at the request's
// effective search width — a budget-degraded request costs less, and the
// SJF policy and least-work router see that.
func (s *Server) estimateWork(rq Request) float64 {
	return sched.EstimateDemand(rq.Problem, s.effectiveWidth(rq))
}

// effectiveStrategy resolves a request's test-time-compute strategy:
// the per-request override when one is set, else the deployment's
// configured strategy (the zero value means full-beam legacy semantics).
func (s *Server) effectiveStrategy(rq Request) search.Strategy {
	if rq.Strategy.On() {
		return rq.Strategy
	}
	return s.cfg.Strategy
}

// effectiveWidth resolves a request's effective search width: the
// configured policy width, narrowed by the request's budget override
// when one is set. Overrides never widen the search beyond the
// deployment's configured budget.
func (s *Server) effectiveWidth(rq Request) int {
	base := s.cfg.Policy.Width()
	if rq.Width <= 0 || rq.Width >= base {
		return base
	}
	return search.ClampWidth(s.cfg.Policy, rq.Width)
}

// Stats reduces served results to the exact server-level aggregates of
// package metrics. sloLatency is the wall-latency target in seconds
// (<= 0: none).
func Stats(served []ServedResult, sloLatency float64) metrics.ServeStats {
	acc := metrics.NewServeAccum(metrics.ModeExact, sloLatency)
	for _, sv := range served {
		acc.Observe(sv.Sample())
	}
	return acc.Stats()
}

// Sample projects the result onto the metrics layer's serve sample.
func (sv ServedResult) Sample() metrics.ServeSample {
	return metrics.ServeSample{
		Arrival: sv.Arrival, Start: sv.Start, Finish: sv.Finish,
		Tokens: sv.UsefulTokens, Rejected: sv.Rejected,
	}
}
