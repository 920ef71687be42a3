package cluster

// Event plumbing of the fleet core: the global event-kind ordering, a
// stable min-heap of pending arrivals, a pre-sorted fail-stop schedule,
// the hedge-cancellation queue, and an indexed min-heap of device wake
// times. Together they let the fleet loop touch only the devices an
// event concerns — O(log n) dispatch per event — instead of re-scanning
// and re-stepping all n devices per event.

import (
	"container/heap"
	"sort"
)

// Event kinds at one instant resolve in a fixed priority:
//
//	join < fail < cancel < tick < arrival
//
// A join makes the device routable before anything else sees the fleet;
// failures beat cancellations (cancelling work on a failed device is a
// no-op — the fail-stop already withdrew it); hedge cancellations free
// capacity before control ticks observe load and before same-instant
// arrivals route; and control ticks observe and actuate before the
// arrivals of the same instant are routed.
const (
	evJoin = iota
	evFail
	evCancel
	evTick
	evArrival
)

// cancelEvent is one scheduled fleet-level cancellation: at the instant
// a hedged request's first copy completed, the losing copy (tag) on dev
// is released. Cancels are consumed in insertion order — the fleet's
// completion order — so equal seeds give bit-identical cancellation
// sequences.
type cancelEvent struct {
	at  float64
	dev int
	tag int
}

// arrivalHeap orders pending requests by arrival time, breaking ties by
// insertion sequence so equal-time arrivals pop in insertion order —
// exactly the stable order of the sorted-slice queue it replaces.
type arrivalHeap []pendingReq

func (h arrivalHeap) Len() int { return len(h) }
func (h arrivalHeap) Less(i, j int) bool {
	if h[i].req.Arrival != h[j].req.Arrival {
		return h[i].req.Arrival < h[j].req.Arrival
	}
	return h[i].seq < h[j].seq
}
func (h arrivalHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *arrivalHeap) Push(x any)   { *h = append(*h, x.(pendingReq)) }
func (h *arrivalHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// failEvent is one scheduled device fail-stop.
type failEvent struct {
	at  float64
	dev int
}

// failSchedule returns the fleet's fail-stop events ordered by time,
// ties by device index — the order the old per-event O(n) scan produced,
// computed once.
func failSchedule(devs []*device) []failEvent {
	var out []failEvent
	for i, d := range devs {
		if d.spec.FailAt > 0 {
			out = append(out, failEvent{at: d.spec.FailAt, dev: i})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].at != out[j].at {
			return out[i].at < out[j].at
		}
		return out[i].dev < out[j].dev
	})
	return out
}

// wakeHeap is an indexed min-heap of device wake times: the earliest
// horizon at which each device's loop would make progress. Devices with
// nothing to do are absent. pos tracks each device's heap position so
// updates are O(log n).
type wakeHeap struct {
	items []wakeItem
	pos   []int // device index -> heap position, -1 when absent
}

type wakeItem struct {
	dev int
	at  float64
}

func newWakeHeap(n int) *wakeHeap {
	w := &wakeHeap{pos: make([]int, n)}
	for i := range w.pos {
		w.pos[i] = -1
	}
	return w
}

func (w *wakeHeap) Len() int { return len(w.items) }
func (w *wakeHeap) Less(i, j int) bool {
	if w.items[i].at != w.items[j].at {
		return w.items[i].at < w.items[j].at
	}
	return w.items[i].dev < w.items[j].dev
}
func (w *wakeHeap) Swap(i, j int) {
	w.items[i], w.items[j] = w.items[j], w.items[i]
	w.pos[w.items[i].dev] = i
	w.pos[w.items[j].dev] = j
}
func (w *wakeHeap) Push(x any) {
	it := x.(wakeItem)
	w.pos[it.dev] = len(w.items)
	w.items = append(w.items, it)
}
func (w *wakeHeap) Pop() any {
	it := w.items[len(w.items)-1]
	w.items = w.items[:len(w.items)-1]
	w.pos[it.dev] = -1
	return it
}

// grow extends the heap's device-index space by n devices (warm-pool
// joins): the new devices start absent.
func (w *wakeHeap) grow(n int) {
	for i := 0; i < n; i++ {
		w.pos = append(w.pos, -1)
	}
}

// update sets (or inserts) the device's wake time.
func (w *wakeHeap) update(dev int, at float64) {
	if p := w.pos[dev]; p >= 0 {
		if w.items[p].at == at {
			return
		}
		w.items[p].at = at
		heap.Fix(w, p)
		return
	}
	heap.Push(w, wakeItem{dev: dev, at: at})
}

// remove deletes the device from the heap if present.
func (w *wakeHeap) remove(dev int) {
	if p := w.pos[dev]; p >= 0 {
		heap.Remove(w, p)
	}
}

// min returns the earliest wake time in the heap.
func (w *wakeHeap) min() (float64, bool) {
	if len(w.items) == 0 {
		return 0, false
	}
	return w.items[0].at, true
}

// popDue appends to buf the indices of every device whose wake time is
// within the horizon (horizon < 0 means no bound, i.e. all devices in
// the heap), removing them from the heap, and returns buf sorted by
// device index — the deterministic stepping order of a collect pass.
func (w *wakeHeap) popDue(horizon float64, buf []int) []int {
	for w.Len() > 0 && (horizon < 0 || w.items[0].at <= horizon) {
		buf = append(buf, heap.Pop(w).(wakeItem).dev)
	}
	sort.Ints(buf)
	return buf
}
