package cluster

import (
	"math/rand"
	"slices"
	"testing"
)

// TestWakeHeapMatchesMap drives the wake heap through random updates,
// removals, joins (grow) and pops against a plain map of device wake
// times. Wake times are drawn from a few values so they tie, and pops
// use bounded and unbounded (-1) horizons. After every pop the popped set
// must equal the map's due devices, in device-index order; after every
// operation pos must agree with items, items must hold the heap order
// and min must equal the map's earliest wake time. Reproduce a failure
// with -quick.seed.
func TestWakeHeapMatchesMap(t *testing.T) {
	t.Logf("quick.seed=%d", *quickSeed)
	rnd := rand.New(rand.NewSource(int64(*quickSeed)))
	wakeAt := func() float64 { return float64(rnd.Intn(6)) / 2 }
	for trial := 0; trial < 200; trial++ {
		n := 1 + rnd.Intn(10)
		w := newWakeHeap(n)
		want := map[int]float64{}
		var buf []int
		for op := 0; op < 200; op++ {
			switch k := rnd.Intn(10); {
			case k < 5:
				dev, at := rnd.Intn(n), wakeAt()
				w.update(dev, at)
				want[dev] = at
			case k < 7:
				dev := rnd.Intn(n)
				w.remove(dev)
				delete(want, dev)
			case k < 8:
				j := 1 + rnd.Intn(2)
				w.grow(j)
				n += j
			default:
				horizon := -1.0
				if rnd.Intn(3) > 0 {
					horizon = wakeAt()
				}
				var due []int
				for dev, at := range want {
					if horizon < 0 || at <= horizon {
						due = append(due, dev)
						delete(want, dev)
					}
				}
				slices.Sort(due)
				buf = w.popDue(horizon, buf[:0])
				if !slices.Equal(buf, due) {
					t.Fatalf("trial %d op %d: popDue(%v) = %v, want %v", trial, op, horizon, buf, due)
				}
			}
			checkWakeHeap(t, w, want, n)
		}
	}
}

// checkWakeHeap requires the heap to index exactly the map's devices at
// the map's wake times, pos to agree with items, items to hold the heap
// order, and min to return the earliest wake time.
func checkWakeHeap(t *testing.T, w *wakeHeap, want map[int]float64, n int) {
	t.Helper()
	if len(w.pos) != n {
		t.Fatalf("pos covers %d devices, want %d", len(w.pos), n)
	}
	if len(w.items) != len(want) {
		t.Fatalf("heap holds %d devices, map %d", len(w.items), len(want))
	}
	for i, it := range w.items {
		if w.pos[it.dev] != i {
			t.Fatalf("items[%d] is device %d, but pos says %d", i, it.dev, w.pos[it.dev])
		}
		if at, ok := want[it.dev]; !ok || at != it.at {
			t.Fatalf("device %d wakes at %v in the heap, map has (%v, %v)", it.dev, it.at, at, ok)
		}
		if i > 0 && w.less(i, (i-1)/2) {
			t.Fatalf("items[%d] precedes its parent: heap order broken", i)
		}
	}
	for dev, p := range w.pos {
		if _, ok := want[dev]; ok != (p >= 0) {
			t.Fatalf("device %d: pos %d, in map %v", dev, p, ok)
		}
	}
	first, ok := w.min()
	if ok != (len(want) > 0) {
		t.Fatalf("min reports %v with %d devices", ok, len(want))
	}
	for _, at := range want {
		if at < first {
			t.Fatalf("min = %v, but a device wakes at %v", first, at)
		}
	}
}
