package core

// The loop's arrival queue: a long-lived loop fed one arrival at a time
// (a fleet device's) keeps only its unadmitted arrivals, inserts after
// equal arrivals once the admitted prefix is gone, and keeps no
// withdrawn request reachable from the slots it vacates.

import (
	"slices"
	"testing"

	"fasttts/internal/memplane"
	"fasttts/internal/rng"
	"fasttts/internal/workload"
)

// vacatedSlotsClear reports whether every slot of the queue's backing
// array past its length is zeroed, so no request that left the queue is
// still reachable through it.
func vacatedSlotsClear(l *Loop) bool {
	for _, q := range l.queue[len(l.queue):cap(l.queue)] {
		if q.Problem != nil || q.Strategy.On() {
			return false
		}
	}
	return true
}

// TestArrivalQueueStaysBounded pushes a 10k-request stream into one loop
// in blocks of 16 future arrivals, stepping halfway into each block
// before pushing the next. The queue's capacity must follow the peak
// unadmitted count (times append's doubling), not the stream length:
// before the admitted prefix was dropped on Push, it grew to the whole
// stream.
func TestArrivalQueueStaysBounded(t *testing.T) {
	const n, block = 10000, 16
	srv, err := NewServer(cotConfig(t, 42))
	if err != nil {
		t.Fatal(err)
	}
	ds := workload.NewDataset(workload.MATH500, rng.New(7))
	times := workload.PoissonArrivals(n, 2, rng.New(11).Child("arrivals"))
	l := srv.NewLoop(nil)
	var buf []ServedResult
	served, peak := 0, 0
	for lo := 0; lo < n; lo += block {
		hi := min(lo+block, n)
		for i := lo; i < hi; i++ {
			l.Push(Request{Problem: ds.Problems[i%len(ds.Problems)], Arrival: times[i], Tag: i})
			peak = max(peak, l.Queued())
			if !vacatedSlotsClear(l) {
				t.Fatalf("push %d: a slot past the queue's length still holds a request", i)
			}
		}
		buf, err = l.StepTo(times[(lo+hi)/2], buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		served += len(buf)
	}
	buf, err = l.StepTo(NoHorizon, buf[:0])
	if err != nil {
		t.Fatal(err)
	}
	if served += len(buf); served != n {
		t.Fatalf("served %d of %d requests", served, n)
	}
	if c := cap(l.queue); c > 2*peak {
		t.Errorf("queue capacity %d after a %d-request stream, want at most 2x the peak unadmitted count %d", c, n, peak)
	}
	t.Logf("peak unadmitted %d, queue capacity %d", peak, cap(l.queue))
}

// TestInsertAfterCompaction: once a Push has dropped the admitted
// prefix, a new arrival still lands after every queued arrival with an
// equal time, so equal arrivals keep their push order.
func TestInsertAfterCompaction(t *testing.T) {
	// Tags 0 and 1 arrive at 0 and are served by time 50; 2..4 wait.
	arrivals := []float64{0, 0, 100, 100, 200}
	for _, tc := range []struct {
		name string
		at   float64
		want []int // queued tags after the push, in queue order
	}{
		{"before the head", 50, []int{9, 2, 3, 4}},
		{"after equal arrivals", 100, []int{2, 3, 9, 4}},
		{"after the equal tail", 200, []int{2, 3, 4, 9}},
		{"past the tail", 300, []int{2, 3, 4, 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l := cancelLoop(t, 0, memplane.Config{})
			p := workload.NewDataset(workload.MATH500, rng.New(7)).Problems[0]
			for tag, at := range arrivals {
				l.Push(Request{Problem: p, Arrival: at, Tag: tag})
			}
			res, err := l.StepTo(50, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 2 || l.next != 2 {
				t.Fatalf("stepped to 50: served %d, admitted prefix %d; want 2 and 2", len(res), l.next)
			}
			l.Push(Request{Problem: p, Arrival: tc.at, Tag: 9})
			if l.next != 0 {
				t.Fatalf("Push kept an admitted prefix of %d", l.next)
			}
			var got []int
			for _, q := range l.queue {
				got = append(got, q.Tag)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("queue tags %v, want %v", got, tc.want)
			}
			if !vacatedSlotsClear(l) {
				t.Error("a slot past the compacted queue still holds a request")
			}
		})
	}
}

// TestWithdrawnRequestsUnreachable: a queued request removed by Cancel,
// and every request Fail withdraws, leaves the loop's queue entirely —
// no slot of its backing array keeps the problem or strategy reachable.
func TestWithdrawnRequestsUnreachable(t *testing.T) {
	l := cancelLoop(t, 6, memplane.Config{})
	if _, err := l.StepTo(1.5, nil); err != nil {
		t.Fatal(err)
	}
	if started, ok := l.Cancel(3); started || !ok {
		t.Fatalf("Cancel(queued) = (%v, %v), want (false, true)", started, ok)
	}
	if !vacatedSlotsClear(l) {
		t.Error("Cancel left the withdrawn request in a slot past the queue's length")
	}
	if l.Queued() == 0 {
		t.Fatal("test loop should still hold queued arrivals")
	}
	out := l.Fail()
	if len(out) == 0 {
		t.Fatal("Fail withdrew nothing")
	}
	if len(l.queue) != 0 || !vacatedSlotsClear(l) {
		t.Errorf("failed loop's queue holds %d requests or keeps withdrawn ones past its length", len(l.queue))
	}
}
