package obs

import (
	"cmp"
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
// Wall). HedgeWaste and LostWork are device-time side channels — work
// burned by a hedge loser or lost to a fail-stop — that overlap the
// request's wall interval rather than extending it, so they sit outside
// the serial sum.
type RequestAttribution struct {
	Tag    int // original request tag (hedge twins fold into it)
	Device int // device that produced the winning finish

	Arrival float64 // first appearance anywhere in the fleet
	Finish  float64 // winning completion instant
	Wall    float64 // Finish - Arrival

	Queue      float64 // arrival -> first slice on the serving device
	Service    float64 // nominal solver time across serving slices
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
		a.Straggler = a.Straggler - a.Service - a.Reprefill
		// Preemption is the closing residual of the left-to-right sum,
		// which pins the CheckSums identity to within 1 ulp of Wall.
		a.Preemption = a.Wall - (((a.Queue + a.Service) + a.Reprefill) + a.Straggler)
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
// idx[bounds[k]:bounds[k+1]]. It is a counting sort over the requests,
// so its cost is linear in the spans and its allocations are a fixed
// handful of slices plus one map entry per request.
func groupByRequest(spans []Span) (idx, bounds []int) {
	group := make([]int, len(spans)) // span -> request number, -1 when not request-scoped
	number := make(map[int]int)      // original tag -> request number, by first appearance
	var tags, sizes []int            // per request number
	for i := range spans {
		if !spans[i].Kind.requestScoped() {
			group[i] = -1
			continue
		}
		o := origTag(spans[i].Tag)
		g, ok := number[o]
		if !ok {
			g = len(tags)
			number[o] = g
			tags = append(tags, o)
			sizes = append(sizes, 0)
		}
		group[i] = g
		sizes[g]++
	}
	byTag := make([]int, len(tags)) // request numbers in ascending tag order
	for g := range byTag {
		byTag[g] = g
	}
	slices.SortFunc(byTag, func(a, b int) int { return cmp.Compare(tags[a], tags[b]) })
	bounds = make([]int, 0, len(tags)+1)
	next := make([]int, len(tags)) // where request g's next index goes
	total := 0
	for _, g := range byTag {
		bounds = append(bounds, total)
		next[g] = total
		total += sizes[g]
	}
	bounds = append(bounds, total)
	idx = make([]int, total)
	for i, g := range group {
		if g >= 0 {
			idx[next[g]] = i
			next[g]++
		}
	}
	return idx, bounds
}

// ComponentSum folds the serial components in the canonical
// left-to-right order used by CheckSums.
func (a RequestAttribution) ComponentSum() float64 {
	return (((a.Queue + a.Service) + a.Reprefill) + a.Straggler) + a.Preemption
}

// CheckSums verifies the attribution identity — components sum to the
// measured wall latency within 1 ulp of Wall — for every record,
// returning the first violation.
func CheckSums(attrs []RequestAttribution) error {
	for _, a := range attrs {
		sum := a.ComponentSum()
		tol := math.Nextafter(math.Abs(a.Wall), math.Inf(1)) - math.Abs(a.Wall)
		if diff := math.Abs(sum - a.Wall); diff > tol {
			return fmt.Errorf("obs: tag %d: components sum to %v but wall is %v (diff %v > 1 ulp %v)",
				a.Tag, sum, a.Wall, diff, tol)
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
