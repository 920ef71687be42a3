package core

// The loop keeps each live session's policy view current instead of
// rebuilding every view per slice: admission appends a view, a slice
// refreshes the picked session's, and release deletes it at the same
// index. These tests hold the kept views equal to a fresh projection of
// every live session after every call that can move them.

import (
	"fmt"
	"testing"

	"fasttts/internal/rng"
	"fasttts/internal/sched"
	"fasttts/internal/search"
	"fasttts/internal/workload"
)

// viewsCurrent reports the first kept view that differs from a fresh
// projection of its session, or a length mismatch; "" when all agree.
func viewsCurrent(l *Loop) string {
	if len(l.views) != len(l.sessions) {
		return fmt.Sprintf("%d views for %d live sessions", len(l.views), len(l.sessions))
	}
	for i, c := range l.sessions {
		if want := l.s.viewOf(c); l.views[i] != want {
			return fmt.Sprintf("view %d is %+v, session projects to %+v", i, l.views[i], want)
		}
	}
	return ""
}

// TestLoopViewsStayCurrent drives one loop per policy — fcfs, sjf,
// priority and deadline, each bare and behind an admission limit — with a
// random interleaving of pushes (random priorities and deadlines),
// StepTo at random horizons, cancellations of queued and live requests,
// and an occasional fail-stop (after which a fresh loop takes over), and
// checks the kept views after every call. Beam search at width 4 runs a
// request over several slices, so a live session's view changes between
// picks.
func TestLoopViewsStayCurrent(t *testing.T) {
	pol, err := search.New(search.BeamSearch, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t, pol, FastTTSOptions())
	probs := workload.NewDataset(workload.MATH500, rng.New(7)).Problems
	for _, inner := range []sched.ServePolicy{sched.FCFS{}, sched.SJF{}, sched.Priority{}, sched.Deadline{}} {
		for _, limit := range []int{0, 3} {
			var p sched.ServePolicy = inner
			if limit > 0 {
				p = sched.AdmissionLimit{Inner: inner, MaxInFlight: limit}
			}
			t.Run(p.Name(), func(t *testing.T) {
				srv, err := NewServerWithPolicy(cfg, p)
				if err != nil {
					t.Fatal(err)
				}
				r := rng.New(uint64(len(p.Name()))).Child("views/" + p.Name())
				l := srv.NewLoop(nil)
				var buf []ServedResult
				tag, steps, startedCancels, otherCancels := 0, 0, 0, 0
				for op := 0; op < 400; op++ {
					var call string
					switch k := r.IntN(20); {
					case k < 7:
						rq := Request{
							Problem:  probs[r.IntN(len(probs))],
							Arrival:  l.Now() + 2*r.Float64(),
							Priority: r.IntN(3),
							Tag:      tag,
						}
						if r.IntN(2) == 0 {
							rq.Deadline = rq.Arrival + 1 + 20*r.Float64()
						}
						tag++
						l.Push(rq)
						call = fmt.Sprintf("Push(tag %d)", rq.Tag)
					case k < 16:
						h := l.Now() + 3*r.Float64()
						before := l.busy
						if buf, err = l.StepTo(h, buf[:0]); err != nil {
							t.Fatal(err)
						}
						if l.busy > before {
							steps++
						}
						call = fmt.Sprintf("StepTo(%v)", h)
					case k < 19:
						var tags []int
						for _, c := range l.sessions {
							tags = append(tags, c.req.Tag)
						}
						for _, q := range l.queue[l.next:] {
							tags = append(tags, q.Tag)
						}
						if len(tags) == 0 {
							continue
						}
						victim := tags[r.IntN(len(tags))]
						if started, _ := l.Cancel(victim); started {
							startedCancels++
						} else {
							otherCancels++
						}
						call = fmt.Sprintf("Cancel(%d)", victim)
					default:
						l.Fail()
						if msg := viewsCurrent(l); msg != "" {
							t.Fatalf("op %d, after Fail: %s", op, msg)
						}
						l = srv.NewLoop(nil)
						continue
					}
					if msg := viewsCurrent(l); msg != "" {
						t.Fatalf("op %d, after %s: %s", op, call, msg)
					}
				}
				t.Logf("%d stepping calls; cancelled %d started and %d unstarted requests", steps, startedCancels, otherCancels)
				if steps == 0 || startedCancels == 0 || otherCancels == 0 {
					t.Fatal("the stream never refreshed a view, or never cancelled a started or an unstarted request")
				}
			})
		}
	}
}
