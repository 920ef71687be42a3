package obs

import (
	"fmt"
	"math"
	"slices"

	"fasttts/internal/metrics"
)

// RequestAttribution decomposes one finished request's wall latency
// into additive components:
//
//	Wall = Queue + Service + Reprefill + Straggler + Preemption
//
// (left-to-right; CheckSums enforces the identity to within 1 ulp of
// Wall, and a straggler or preemption component within the virtual
// clock's rounding of zero is exactly zero). HedgeWaste and LostWork are
// device-time side channels — work burned by a hedge loser or lost to a
// fail-stop — that overlap the request's wall interval rather than
// extending it, so they sit outside the serial sum.
type RequestAttribution struct {
	Tag    int // original request tag (hedge twins fold into it)
	Device int // device that produced the winning finish

	Arrival float64 // first appearance anywhere in the fleet
	Finish  float64 // winning completion instant
	Wall    float64 // Finish - Arrival

	Queue      float64 // arrival -> first slice on the serving device
	Service    float64 // nominal solver time across serving slices (plus dropped preemption dust)
	Reprefill  float64 // nominal KV re-prefill penalty paid at admission
	Straggler  float64 // wall inflation of serving slices over nominal (stragglers)
	Preemption float64 // serving-device gaps between slices (preemption residual)

	HedgeWaste float64 // slice wall burned by the losing hedge copy
	LostWork   float64 // slice wall lost to fail-stops before requeue

	Slices      int
	Preemptions int // serving slices whose preemption probe fired
	Requeues    int
	Hedged      bool
}

// origTag folds a hedged twin's bit-complement tag back to its original.
func origTag(t int) int {
	if t < 0 {
		return ^t
	}
	return t
}

// Attribute runs the latency-attribution pass over a merged span
// stream, returning one record per finished request, sorted by tag.
// Requests that never finished (shed, rejected, cancelled before
// completion) are not attributed. With hedging, the copy producing the
// earliest finish (ties broken by lower track) is the winner; the
// loser's executed slices become HedgeWaste. The pass is deterministic:
// identical span streams yield identical attributions.
func Attribute(spans []Span) []RequestAttribution {
	idx, bounds := groupByRequest(spans)
	out := make([]RequestAttribution, 0, len(bounds)-1)
	for k := 0; k+1 < len(bounds); k++ {
		g := idx[bounds[k]:bounds[k+1]]
		tag := origTag(spans[g[0]].Tag)
		// Winning finish. A hedge resolution span names the copy the
		// fleet delivered (delivery order is device-index order within an
		// event window, so it can differ from the earliest finish);
		// without one — the server target, unhedged requests — the single
		// finish wins, earliest End and lower track breaking ties.
		var win *Span
		for _, i := range g {
			s := &spans[i]
			if s.Kind != KindHedgeWin {
				continue
			}
			for _, j := range g {
				f := &spans[j]
				if f.Kind == KindFinish && f.Tag == s.Tag && f.Track == int(s.V1) {
					win = f
					break
				}
			}
			break
		}
		if win == nil {
			for _, i := range g {
				s := &spans[i]
				if s.Kind != KindFinish {
					continue
				}
				if win == nil || s.End < win.End || (s.End == win.End && s.Track < win.Track) {
					win = s
				}
			}
		}
		if win == nil {
			continue
		}
		a := RequestAttribution{Tag: tag, Device: win.Track, Finish: win.End}

		arrival := math.Inf(1)
		start := math.NaN()
		for _, i := range g {
			s := &spans[i]
			if s.Start < arrival {
				arrival = s.Start
			}
			switch s.Kind {
			case KindQueue:
				if s.Track == win.Track && s.Tag == win.Tag {
					start = s.End
				}
			case KindSlice:
				if s.Track == win.Track && s.Tag == win.Tag {
					a.Slices++
					a.Service += s.V1
					a.Reprefill += s.V2
					a.Straggler += s.End - s.Start
					if s.Flag {
						a.Preemptions++
					}
				} else if s.Tag == ^win.Tag {
					a.HedgeWaste += s.End - s.Start
				} else {
					a.LostWork += s.End - s.Start
				}
			case KindHedge:
				a.Hedged = true
			case KindRequeue:
				a.Requeues++
			}
		}
		a.Arrival = arrival
		a.Wall = a.Finish - arrival
		if math.IsNaN(start) {
			start = arrival // degenerate: no queue span recorded
		}
		a.Queue = start - arrival
		// Straggler currently holds the serving slices' total wall;
		// subtract the nominal parts to leave only straggler inflation.
		// Within the clock's rounding of zero it is zero: no straggler.
		dust := clockDust(&a)
		if a.Straggler = a.Straggler - a.Service - a.Reprefill; math.Abs(a.Straggler) <= dust {
			a.Straggler = 0
		}
		// Preemption is the closing residual of the left-to-right sum,
		// which pins the CheckSums identity to within 1 ulp of Wall.
		if a.Preemption = a.Wall - (((a.Queue + a.Service) + a.Reprefill) + a.Straggler); math.Abs(a.Preemption) <= dust {
			dropPreemptionDust(&a)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil // no finished request: nil, as an un-presized result would be
	}
	return out
}

// groupByRequest groups a span stream by request without copying a
// span: idx holds the indices of the request-scoped spans as one
// contiguous run per request — runs in ascending original-tag order,
// each run in stream order — and request k's run is
// idx[bounds[k]:bounds[k+1]]. It is a counting sort over the requests:
// original tags index a slot table directly when they are dense (request
// tags are stream positions), and through a sorted table of the distinct
// tags otherwise. Its allocations are a fixed handful of slices.
func groupByRequest(spans []Span) (idx, bounds []int) {
	n, lo, hi := 0, 0, 0 // scoped spans, their original-tag range
	for i := range spans {
		if !spans[i].Kind.requestScoped() {
			continue
		}
		t := origTag(spans[i].Tag)
		if n == 0 || t < lo {
			lo = t
		}
		hi = max(hi, t)
		n++
	}
	var tags []int // sorted distinct original tags, when too sparse to index
	if n > 0 && hi-lo >= 4*n {
		tags = make([]int, 0, n)
		for i := range spans {
			if spans[i].Kind.requestScoped() {
				tags = append(tags, origTag(spans[i].Tag))
			}
		}
		slices.Sort(tags)
		tags = slices.Compact(tags)
	}
	slot := func(s *Span) int {
		t := origTag(s.Tag)
		if tags == nil {
			return t - lo
		}
		k, _ := slices.BinarySearch(tags, t)
		return k
	}
	slots := hi - lo + 1
	if tags != nil {
		slots = len(tags)
	}
	next := make([]int, slots+1) // slot k's count at next[k+1], then its next index at next[k]
	for i := range spans {
		if spans[i].Kind.requestScoped() {
			next[slot(&spans[i])+1]++
		}
	}
	bounds = make([]int, 0, min(slots, n)+1)
	for k := 0; k < slots; k++ {
		if next[k+1] > 0 {
			bounds = append(bounds, next[k])
		}
		next[k+1] += next[k]
	}
	bounds = append(bounds, n)
	idx = make([]int, n)
	for i := range spans {
		if spans[i].Kind.requestScoped() {
			k := slot(&spans[i])
			idx[next[k]] = i
			next[k]++
		}
	}
	return idx, bounds
}

// ComponentSum folds the serial components in the canonical
// left-to-right order used by CheckSums.
func (a RequestAttribution) ComponentSum() float64 {
	return (((a.Queue + a.Service) + a.Reprefill) + a.Straggler) + a.Preemption
}

// clockDust bounds the float rounding one attribution inherits from the
// virtual clock: a straggler or preemption component this close to zero
// is no straggler or preemption. The components are differences and
// sums of the request's clock readings — arrival, the queue's end, each
// slice's end — and of the slices' nominal times; each rounds by at most
// half an ulp of the latest reading, so two ulps per slice plus four
// cover them.
func clockDust(a *RequestAttribution) float64 {
	t := max(math.Abs(a.Arrival), math.Abs(a.Finish))
	return float64(2*a.Slices+4) * (math.Nextafter(t, math.Inf(1)) - t)
}

// dropPreemptionDust sets a Preemption residual that is only clock
// rounding to exactly 0 while keeping the CheckSums identity: the
// residual is dropped when the other components already sum to Wall
// within 1 ulp, and otherwise folded into Service — the slices' time,
// where the clock's rounding accrued, and positive for any request that
// ran a slice, so no structurally-zero component picks up dust. A residual
// neither placement absorbs stays as it is.
func dropPreemptionDust(a *RequestAttribution) {
	p, svc := a.Preemption, a.Service
	a.Preemption = 0
	if sumsToWall(a) {
		return
	}
	if a.Service = svc + p; !sumsToWall(a) {
		a.Service, a.Preemption = svc, p
	}
}

// sumsToWall reports whether a's components sum to its wall latency
// within 1 ulp of Wall.
func sumsToWall(a *RequestAttribution) bool {
	tol := math.Nextafter(math.Abs(a.Wall), math.Inf(1)) - math.Abs(a.Wall)
	return math.Abs(a.ComponentSum()-a.Wall) <= tol
}

// CheckSums verifies the attribution identity — components sum to the
// measured wall latency within 1 ulp of Wall — for every record,
// returning the first violation.
func CheckSums(attrs []RequestAttribution) error {
	for _, a := range attrs {
		if !sumsToWall(&a) {
			return fmt.Errorf("obs: tag %d: components sum to %v but wall is %v (diff %v > 1 ulp)",
				a.Tag, a.ComponentSum(), a.Wall, math.Abs(a.ComponentSum()-a.Wall))
		}
	}
	return nil
}

// Summarize rolls per-request attributions into fleet totals.
func Summarize(attrs []RequestAttribution) metrics.AttributionStats {
	var st metrics.AttributionStats
	for _, a := range attrs {
		st.Requests++
		if a.Hedged {
			st.Hedged++
		}
		st.Wall += a.Wall
		st.Queue += a.Queue
		st.Service += a.Service
		st.Reprefill += a.Reprefill
		st.Straggler += a.Straggler
		st.Preemption += a.Preemption
		st.HedgeWaste += a.HedgeWaste
		st.LostWork += a.LostWork
		st.Slices += a.Slices
		st.Preemptions += a.Preemptions
		st.Requeues += a.Requeues
	}
	return st
}
