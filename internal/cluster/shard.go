package cluster

// The shard layer: a deterministic parallel driver for Fleet.Run.
//
// Devices are partitioned into shards by index (dev % shards), each shard
// owning its devices' runtime state and an indexed wake heap. Shard
// workers advance their devices concurrently between *cross-shard*
// events — routing decisions that read fleet state, fail-stops, control
// ticks, warm-pool joins — which act as conservative barriers: no worker
// ever steps past the next event that could couple two shards.
//
// Bit-identity with the sequential engine is by construction, not by
// tolerance. Three properties make it work:
//
//  1. Device independence inside a window. Between global events, device
//     loops share no mutable state (each core.Loop owns its clock, queue,
//     solver, and rng streams), so steps commute across devices and only
//     the *merge order* of their completions matters.
//  2. Replayed horizons. core.Loop.StepTo is horizon-sensitive (the
//     speculation probe uses the horizon as its pending boundary), so
//     workers replay each device against the exact per-event horizon grid
//     the sequential loop would have used — never a coarser fast-forward.
//  3. Canonical merge. Per-shard completions are merged in the sequential
//     append order — (event window, step-before-route, device index) —
//     and all order-sensitive accumulation (controller window floats)
//     happens during that sequential merge.
//
// Routers split the dispatch strategy in two:
//
//   - ViewOblivious routers (single, rr) never read device load, so every
//     routing decision between two structural events (fail / tick / join
//     / end of stream) can be made up front. The engine pre-routes the
//     whole *span* of arrivals centrally, hands each shard its devices'
//     push lists, and workers replay the span with zero intermediate
//     barriers — the scalable path.
//   - View-reading routers (least-work, jsq, p2c, prefix) make every
//     arrival a cross-shard event: spans degrade to single windows and
//     only the devices due inside one window are stepped in parallel.
//     Sparse windows run inline (below spawnThreshold) to avoid paying
//     synchronization for one or two devices; dense windows — control
//     ticks, drain phases, the terminal drain — still fan out wide.
//
// Worker scheduling never influences results: each worker touches only
// its shard's devices and heap, results carry canonical keys, and the
// merge is single-threaded. GOMAXPROCS therefore changes wall time only.
// The one intentional divergence: on *error* runs (router misbehavior,
// solver faults) the outcome is discarded in both engines and only the
// error surfaces, but which of several concurrent faults is reported may
// differ from the sequential engine's event order.

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"fasttts/internal/core"
	"fasttts/internal/metrics"
	"fasttts/internal/obs"
)

// spawnThreshold is the minimum number of per-pass device tasks worth
// fanning out to shard workers; below it the same code path runs inline
// on the driver goroutine (identical results, no goroutine round-trip).
const spawnThreshold = 4

// spanPush is one pre-routed request a shard worker must push to its
// device at a span window.
type spanPush struct {
	win int    // window index in the span's horizon grid
	key string // prefix key (computed centrally at route time)
	pr  pendingReq
}

// resGroup is the completions one device produced at one window, in
// completion order — the unit of the canonical merge.
type resGroup struct {
	win     int
	dev     int
	results []Result
	// raw holds the undelivered completions when the run hedges: hedge
	// resolution (first copy wins, loser cancelled) is order-sensitive,
	// so the driver's merge feeds them through run.deliver in canonical
	// order instead of the worker building Results locally.
	raw []core.ServedResult
}

// shardOut is one shard worker's output for a span or collect pass.
type shardOut struct {
	groups []resGroup
	acc    metrics.FleetAccum // order-independent counters (prefix hits/misses)
	err    error
	errWin int
	errDev int
}

func (o *shardOut) reset() {
	o.groups = o.groups[:0]
	o.acc.Reset() // keeps capacity and the streaming mode across passes
	o.err = nil
}

func (o *shardOut) setErr(win, dev int, err error) {
	if o.err == nil {
		o.err, o.errWin, o.errDev = err, win, dev
	}
}

// shardSet is the parallel engine's runtime state: per-shard wake heaps
// plus reusable scratch for spans, collect passes, and merges.
type shardSet struct {
	n         int
	heaps     []*wakeHeap
	oblivious bool

	// Scratch, reused across passes.
	dueBufs [][]int
	outs    []shardOut
	accs    []*metrics.FleetAccum // &outs[s].acc, for the driver's k-way fold
	tasks   [][]int
	pushes  [][]spanPush // indexed by device; non-empty only mid-span
	touched []int        // devices with pushes in the current span
	times   []float64
	shedWin []int
	shedRes []Result
	heads   []int // merge cursors
}

func newShardSet(r *run, n int) *shardSet {
	nd := len(r.devs)
	ss := &shardSet{
		n:       n,
		heaps:   make([]*wakeHeap, n),
		dueBufs: make([][]int, n),
		outs:    make([]shardOut, n),
		tasks:   make([][]int, n),
		pushes:  make([][]spanPush, nd),
		heads:   make([]int, n),
	}
	ss.accs = make([]*metrics.FleetAccum, n)
	for s := range ss.heaps {
		ss.heaps[s] = newWakeHeap(nd)
		ss.accs[s] = &ss.outs[s].acc
		if r.acc.Streaming() {
			// Shard workers stream into private sketches; the driver's
			// MergeAll folds them as integer sums, so shard count cannot
			// perturb the aggregates.
			ss.outs[s].acc.EnableStreaming(r.f.cfg.SLOLatency)
		}
	}
	if vo, ok := r.f.cfg.Router.(ViewOblivious); ok {
		ss.oblivious = vo.RouteViewOblivious()
	}
	if r.hedging() {
		// Hedge resolution is order-sensitive (the first copy to complete
		// wins and cancels its cross-shard twin), so every completion must
		// pass the driver's canonical merge before the next routing
		// decision: arrival spans collapse to single barrier windows.
		ss.oblivious = false
	}
	return ss
}

// wakeMin returns the earliest wake time across the shard heaps.
func (ss *shardSet) wakeMin() (float64, bool) {
	best, ok := 0.0, false
	for _, h := range ss.heaps {
		if at, has := h.min(); has && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

func (ss *shardSet) shardOf(dev int) int { return dev % ss.n }

// wakeLen, wakeUpdate, wakeRemove, and wakeGrow mirror the sequential
// engine's single wake heap across the per-shard heaps.
func (ss *shardSet) wakeLen() int {
	total := 0
	for _, h := range ss.heaps {
		total += h.Len()
	}
	return total
}

func (ss *shardSet) wakeUpdate(dev int, at float64) { ss.heaps[ss.shardOf(dev)].update(dev, at) }
func (ss *shardSet) wakeRemove(dev int)             { ss.heaps[ss.shardOf(dev)].remove(dev) }

func (ss *shardSet) wakeGrow(k int) {
	for _, h := range ss.heaps {
		h.grow(k)
	}
	for i := 0; i < k; i++ {
		ss.pushes = append(ss.pushes, nil)
	}
}

// stepDevice advances one device to the horizon and appends its
// completions as a result group. It runs on the device's shard worker:
// everything it touches — the loop, the device's prefix directory and
// accounting, the worker-local counters — is shard-owned.
func (ss *shardSet) stepDevice(r *run, dev, win int, horizon float64, out *shardOut) error {
	d := r.devs[dev]
	served, err := d.loop.StepTo(horizon)
	if err != nil {
		return fmt.Errorf("cluster: device %d: %w", dev, err)
	}
	if len(served) > 0 && r.hedging() {
		// Defer everything to the driver's merge: hedge filtering must see
		// completions in the canonical cross-shard order.
		out.groups = append(out.groups, resGroup{
			win: win, dev: dev, raw: append([]core.ServedResult(nil), served...),
		})
	} else if len(served) > 0 {
		g := resGroup{win: win, dev: dev, results: make([]Result, 0, len(served))}
		for _, sv := range served {
			d.settlePrefix(sv, &out.acc)
			res := r.buildResult(sv, dev)
			g.results = append(g.results, res)
			if out.acc.Streaming() {
				out.acc.AddSample(0, serveSample(res))
			}
			if !sv.Rejected {
				d.served++
				d.tokens += sv.UsefulTokens
			}
		}
		out.groups = append(out.groups, g)
	}
	if d.draining && !d.drained && d.loop.Idle() {
		d.drained = true
		d.drainEnd = math.Max(d.drainAt, d.loop.Now())
	}
	return nil
}

// collect is the parallel analogue of run.collect: pop the devices due
// within the horizon from every shard heap, step them (fanning out to
// shard workers when the due population is dense), and merge completions
// in device-index order.
func (ss *shardSet) collect(r *run, horizon float64) error {
	total := 0
	for s, h := range ss.heaps {
		ss.dueBufs[s] = h.popDue(horizon, ss.dueBufs[s][:0])
		total += len(ss.dueBufs[s])
	}
	if total == 0 {
		return nil
	}
	worker := func(s int) {
		out := &ss.outs[s]
		for _, dev := range ss.dueBufs[s] {
			if err := ss.stepDevice(r, dev, 0, horizon, out); err != nil {
				out.setErr(0, dev, err)
				return
			}
			ss.updateWakeLocal(r, s, dev)
			r.refreshView(dev)
		}
	}
	ss.runWorkers(total, worker)
	return ss.merge(r, nil, nil)
}

// runSpan drives the view-oblivious fast path: pop and pre-route every
// arrival strictly before the next structural event (or all remaining
// arrivals when none is pending), then let each shard replay its devices
// across the whole span without barriers.
func (ss *shardSet) runSpan(r *run, structAt float64, bounded bool) error {
	times := ss.times[:0]
	shedWin, shedRes := ss.shedWin[:0], ss.shedRes[:0]
	touched := ss.touched[:0]
	router := r.f.cfg.Router

	for {
		head, ok := r.nextArrival()
		if !ok || (bounded && head.req.Arrival >= structAt) {
			break
		}
		pr := r.popArrival()
		w := len(times)
		times = append(times, pr.req.Arrival)
		if len(r.vs) == 0 {
			// Lost capacity: shed at this instant against the original
			// submission time (routable membership only changes at
			// structural events, so the whole span sheds).
			shedWin = append(shedWin, w)
			shedRes = append(shedRes, Result{
				ServedResult: core.ServedResult{
					Arrival: r.origArrival[pr.req.Tag], Start: pr.req.Arrival, Finish: pr.req.Arrival,
					Rejected: true, Tag: pr.req.Tag,
				},
				Device:   -1,
				Requeues: pr.requeues,
			})
			if r.ctl != nil {
				r.ctl.Emit(obs.Span{Kind: obs.KindShed, Tag: pr.req.Tag,
					Start: pr.req.Arrival, End: pr.req.Arrival, N: pr.requeues})
			}
			continue
		}
		rv := RequestView{
			Tag:          pr.req.Tag,
			Arrival:      pr.req.Arrival,
			PrefixKey:    prefixKey(pr.req.Problem),
			PromptTokens: pr.req.Problem.PromptTokens,
			Requeued:     pr.requeues > 0,
		}
		pick := router.Route(rv, r.vs, r.routeRand)
		if pick < 0 || pick >= len(r.vs) {
			ss.times, ss.shedWin, ss.shedRes, ss.touched = times, shedWin, shedRes, touched
			return fmt.Errorf("cluster: router %s picked %d of %d alive devices",
				router.Name(), pick, len(r.vs))
		}
		di := r.vs[pick].Index
		r.emitRoute(rv.Tag, pr.req.Arrival, r.vs, pick)
		r.applyStrategy(&pr.req, di)
		if len(ss.pushes[di]) == 0 {
			touched = append(touched, di)
		}
		ss.pushes[di] = append(ss.pushes[di], spanPush{win: w, key: rv.PrefixKey, pr: pr})
	}
	ss.times, ss.shedWin, ss.shedRes, ss.touched = times, shedWin, shedRes, touched
	if len(times) == 0 {
		return nil
	}

	// Task set per shard: devices due anywhere inside the span, plus the
	// push targets. Everything else provably idles through the span.
	tLast := times[len(times)-1]
	total := 0
	for s, h := range ss.heaps {
		ss.tasks[s] = h.popDue(tLast, ss.tasks[s][:0])
	}
	for _, dev := range touched {
		ss.tasks[ss.shardOf(dev)] = append(ss.tasks[ss.shardOf(dev)], dev)
	}
	for s := range ss.tasks {
		ss.tasks[s] = sortedUnique(ss.tasks[s])
		total += len(ss.tasks[s])
	}

	worker := func(s int) {
		out := &ss.outs[s]
		for _, dev := range ss.tasks[s] {
			if !ss.replayDevice(r, s, dev, times, out) {
				return
			}
		}
		sort.Slice(out.groups, func(i, j int) bool {
			if out.groups[i].win != out.groups[j].win {
				return out.groups[i].win < out.groups[j].win
			}
			return out.groups[i].dev < out.groups[j].dev
		})
	}
	ss.runWorkers(total, worker)

	for _, dev := range touched {
		ss.pushes[dev] = ss.pushes[dev][:0]
	}
	return ss.merge(r, shedWin, shedRes)
}

// replayDevice replays one device's exact sequential timeline across the
// span's horizon grid: it steps at every window the device would have
// been due at (its wake time is a pure function of its own state between
// structural events) and interleaves its pre-routed pushes, each at its
// own window, step before push. Returns false on error.
func (ss *shardSet) replayDevice(r *run, s, dev int, times []float64, out *shardOut) bool {
	d := r.devs[dev]
	pushes := ss.pushes[dev]
	last, pi := -1, 0
	for {
		stepJ := len(times)
		if at, ok := d.loop.Wake(); ok {
			stepJ = last + 1 + sort.SearchFloat64s(times[last+1:], at)
		}
		pushJ := len(times)
		if pi < len(pushes) {
			pushJ = pushes[pi].win
		}
		j := stepJ
		if pushJ < j {
			j = pushJ
		}
		if j >= len(times) {
			break
		}
		if stepJ == j {
			if err := ss.stepDevice(r, dev, j, times[j], out); err != nil {
				out.setErr(j, dev, err)
				return false
			}
		}
		if pushJ == j {
			p := pushes[pi]
			pi++
			resident := d.prefixes[p.key]
			if !resident {
				d.prefixes[p.key] = true
				d.marker[p.key] = p.pr.req.Tag
			}
			d.acct[p.pr.req.Tag] = prefixAcct{
				key: p.key, tokens: int64(p.pr.req.Problem.PromptTokens), hit: resident,
			}
			d.loop.Push(p.pr.req)
		}
		last = j
	}
	ss.updateWakeLocal(r, s, dev)
	return true
}

// updateWakeLocal refreshes one device's entry in its shard's heap; it
// must run on that shard's worker (or the driver when inline).
func (ss *shardSet) updateWakeLocal(r *run, s, dev int) {
	if at, ok := r.devs[dev].loop.Wake(); ok {
		ss.heaps[s].update(dev, at)
	} else {
		ss.heaps[s].remove(dev)
	}
}

// runWorkers executes worker(s) for every shard — concurrently when the
// pass is dense enough to amortize the fan-out, inline otherwise. Both
// paths run identical code against disjoint state, so the choice affects
// wall time only.
func (ss *shardSet) runWorkers(total int, worker func(s int)) {
	for s := range ss.outs {
		ss.outs[s].reset()
	}
	if total < spawnThreshold || ss.n == 1 {
		for s := 0; s < ss.n; s++ {
			worker(s)
		}
		return
	}
	var wg sync.WaitGroup
	wg.Add(ss.n)
	for s := 0; s < ss.n; s++ {
		go func(s int) {
			defer wg.Done()
			worker(s)
		}(s)
	}
	wg.Wait()
}

// merge folds the shard workers' outputs into the run in canonical
// sequential order: (window, step results before the window's routing
// shed, device index). Controller window accumulation — the one
// order-sensitive float path — happens here, on the driver goroutine.
func (ss *shardSet) merge(r *run, shedWin []int, shedRes []Result) error {
	var err error
	ew, ed := 0, 0
	for s := range ss.outs {
		o := &ss.outs[s]
		if o.err != nil && (err == nil || o.errWin < ew || (o.errWin == ew && o.errDev < ed)) {
			err, ew, ed = o.err, o.errWin, o.errDev
		}
	}
	if err != nil {
		return err
	}
	for s := range ss.heads {
		ss.heads[s] = 0
	}
	sp := 0
	for {
		bs, bw, bd := -1, 0, 0
		for s := range ss.outs {
			if ss.heads[s] < len(ss.outs[s].groups) {
				g := &ss.outs[s].groups[ss.heads[s]]
				if bs < 0 || g.win < bw || (g.win == bw && g.dev < bd) {
					bs, bw, bd = s, g.win, g.dev
				}
			}
		}
		if sp < len(shedWin) && (bs < 0 || shedWin[sp] < bw) {
			r.out.Results = append(r.out.Results, shedRes[sp])
			if r.acc.Streaming() {
				r.acc.AddSample(0, serveSample(shedRes[sp]))
			}
			if r.el != nil {
				r.el.win.Rejected++
			}
			sp++
			continue
		}
		if bs < 0 {
			break
		}
		g := &ss.outs[bs].groups[ss.heads[bs]]
		ss.heads[bs]++
		for _, sv := range g.raw {
			r.deliver(g.dev, sv)
		}
		for _, res := range g.results {
			r.out.Results = append(r.out.Results, res)
			if r.el != nil {
				r.el.observe(res.ServedResult, r.devs[g.dev])
			}
		}
	}
	// One k-way fold per pass: a pairwise Merge loop would copy the
	// driver accumulator's keyed state once per shard.
	r.acc.MergeAll(ss.accs...)
	return nil
}

// runSharded is the sharded engine's event loop: identical event
// selection and handlers to the sequential Fleet.Run, with collect
// passes fanned out across shards and — for view-oblivious routers —
// whole arrival spans between structural events executed barrier-free.
func (f *Fleet) runSharded(r *run) (*Outcome, error) {
	ss := r.sh
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
		// Arrivals strictly before the next structural event couple shards
		// only through the router; when the router is view-oblivious the
		// whole span is safe to pre-route and replay in parallel.
		if ss.oblivious && haveArrival && (bestKind < 0 || head.req.Arrival < bestAt) {
			if err := ss.runSpan(r, bestAt, bestKind >= 0); err != nil {
				return nil, err
			}
			continue
		}
		consider(head.req.Arrival, evArrival, haveArrival)
		if bestKind < 0 {
			break
		}
		if err := ss.collect(r, bestAt); err != nil {
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

	if err := r.drain(); err != nil {
		return nil, err
	}
	r.finish()
	return r.out, nil
}

// sortedUnique sorts xs ascending and drops adjacent duplicates in place.
func sortedUnique(xs []int) []int {
	sort.Ints(xs)
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
