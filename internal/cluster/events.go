package cluster

// Event plumbing of the fleet core: the global event-kind ordering, a
// pre-sorted fail-stop schedule, the hedge-cancellation queue, and an
// indexed min-heap of device wake times. Together they let the fleet loop touch only the devices an
// event concerns — O(log n) dispatch per event — instead of re-scanning
// and re-stepping all n devices per event.

import "sort"

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
// updates are O(log n). The heap is ordered by (at, dev) and written over
// its own item slice, so no operation boxes an item or allocates once
// items has grown to the fleet's size.
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

func (w *wakeHeap) less(i, j int) bool {
	if w.items[i].at != w.items[j].at {
		return w.items[i].at < w.items[j].at
	}
	return w.items[i].dev < w.items[j].dev
}

func (w *wakeHeap) swap(i, j int) {
	w.items[i], w.items[j] = w.items[j], w.items[i]
	w.pos[w.items[i].dev] = i
	w.pos[w.items[j].dev] = j
}

// up moves the item at position j toward the root until its parent is
// not later.
func (w *wakeHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !w.less(j, i) {
			break
		}
		w.swap(i, j)
		j = i
	}
}

// down moves the item at position i toward the leaves until neither
// child is earlier, and reports whether it moved.
func (w *wakeHeap) down(i int) bool {
	i0, n := i, len(w.items)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && w.less(j2, j) {
			j = j2
		}
		if !w.less(j, i) {
			break
		}
		w.swap(i, j)
		i = j
	}
	return i > i0
}

// fix restores the heap order after the item at position p changed.
func (w *wakeHeap) fix(p int) {
	if !w.down(p) {
		w.up(p)
	}
}

// removeAt deletes the item at heap position p and returns its device.
func (w *wakeHeap) removeAt(p int) int {
	last := len(w.items) - 1
	if p != last {
		w.swap(p, last)
	}
	dev := w.items[last].dev
	w.pos[dev] = -1
	w.items = w.items[:last]
	if p != last {
		w.fix(p)
	}
	return dev
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
		w.fix(p)
		return
	}
	w.pos[dev] = len(w.items)
	w.items = append(w.items, wakeItem{dev: dev, at: at})
	w.up(len(w.items) - 1)
}

// remove deletes the device from the heap if present.
func (w *wakeHeap) remove(dev int) {
	if p := w.pos[dev]; p >= 0 {
		w.removeAt(p)
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
	for len(w.items) > 0 && (horizon < 0 || w.items[0].at <= horizon) {
		buf = append(buf, w.removeAt(0))
	}
	sort.Ints(buf)
	return buf
}
