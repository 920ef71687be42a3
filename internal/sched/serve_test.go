package sched

import (
	"flag"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// The serve-policy property tests are randomized. Override the seed from
// the command line to reproduce a failure:
//
//	go test ./internal/sched -serve.seed=12345
var serveSeed = flag.Int("serve.seed", int(time.Now().UnixNano())%100000, "seed for serve-policy property tests")

// qc builds the testing/quick configuration from -serve.seed.
func qc(t *testing.T) *quick.Config {
	t.Helper()
	t.Logf("serve.seed=%d", *serveSeed)
	return &quick.Config{
		MaxCount: 250,
		Rand:     rand.New(rand.NewSource(int64(*serveSeed))),
	}
}

// requestSet generates a non-empty batch of runnable requests.
type requestSet []ServeRequest

func (requestSet) Generate(r *rand.Rand, _ int) reflect.Value {
	n := 1 + r.Intn(20)
	rs := make(requestSet, n)
	for i := range rs {
		rs[i] = ServeRequest{
			ID:            i,
			Arrival:       float64(r.Intn(40)), // coarse grid to exercise ties
			Priority:      r.Intn(4) - 1,
			RemainingWork: float64(1 + r.Intn(8)),
			Started:       r.Intn(2) == 0,
			WorkDone:      r.Float64() * 10,
		}
		if r.Intn(2) == 0 {
			rs[i].Deadline = float64(1 + r.Intn(50))
		}
	}
	return reflect.ValueOf(rs)
}

// allPolicies are the built-in ordering disciplines.
func allPolicies() []ServePolicy {
	return []ServePolicy{FCFS{}, SJF{}, Priority{}, Deadline{},
		AdmissionLimit{Inner: SJF{}, MaxInFlight: 4}}
}

// TestPickInRangeAndDeterministic: every policy returns a valid index and
// is a pure function of its inputs.
func TestPickInRangeAndDeterministic(t *testing.T) {
	for _, pol := range allPolicies() {
		prop := func(rs requestSet, now float64) bool {
			i := pol.Pick(rs, now)
			return i >= 0 && i < len(rs) && pol.Pick(rs, now) == i
		}
		if err := quick.Check(prop, qc(t)); err != nil {
			t.Errorf("%s: %v", pol.Name(), err)
		}
	}
}

// TestFCFSPicksEarliestArrival: no other request arrived strictly before
// the picked one (ties broken by stream ID).
func TestFCFSPicksEarliestArrival(t *testing.T) {
	prop := func(rs requestSet) bool {
		p := rs[FCFS{}.Pick(rs, 0)]
		for _, r := range rs {
			if earlier(r, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, qc(t)); err != nil {
		t.Error(err)
	}
}

// TestSJFPicksShortestRemaining: no other request has strictly less
// estimated remaining work; equal-work ties fall back to arrival order.
func TestSJFPicksShortestRemaining(t *testing.T) {
	prop := func(rs requestSet) bool {
		p := rs[SJF{}.Pick(rs, 0)]
		for _, r := range rs {
			if r.RemainingWork < p.RemainingWork {
				return false
			}
			if r.RemainingWork == p.RemainingWork && earlier(r, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, qc(t)); err != nil {
		t.Error(err)
	}
}

// TestPriorityPicksHighest: nothing outranks the pick; within the level,
// FCFS.
func TestPriorityPicksHighest(t *testing.T) {
	prop := func(rs requestSet) bool {
		p := rs[Priority{}.Pick(rs, 0)]
		for _, r := range rs {
			if r.Priority > p.Priority {
				return false
			}
			if r.Priority == p.Priority && earlier(r, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, qc(t)); err != nil {
		t.Error(err)
	}
}

// TestDeadlinePicksEDF: the picked request's deadline is no later than
// any other deadlined request's, and deadlined requests always outrank
// deadline-free ones.
func TestDeadlinePicksEDF(t *testing.T) {
	prop := func(rs requestSet) bool {
		p := rs[Deadline{}.Pick(rs, 0)]
		for _, r := range rs {
			if deadlineBefore(r, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, qc(t)); err != nil {
		t.Error(err)
	}
}

// TestAdmissionLimit: rejects exactly when the in-flight population is at
// the cap, and delegates ordering to the inner policy.
func TestAdmissionLimit(t *testing.T) {
	inner := SJF{}
	pol := AdmissionLimit{Inner: inner, MaxInFlight: 3}
	prop := func(rs requestSet, inFlight uint8) bool {
		n := int(inFlight % 8)
		admit := pol.Admit(rs[0], 0, n)
		if admit != (n < 3) {
			return false
		}
		return pol.Pick(rs, 0) == inner.Pick(rs, 0)
	}
	if err := quick.Check(prop, qc(t)); err != nil {
		t.Error(err)
	}
	if got := pol.Name(); got != "sjf+limit3" {
		t.Errorf("Name() = %q, want the inner policy's name and the cap, %q", got, "sjf+limit3")
	}
}

func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{
		"":             "fcfs",
		"fcfs":         "fcfs",
		"SJF":          "sjf",
		"first-finish": "sjf",
		"priority":     "priority",
		"deadline":     "deadline",
		"edf":          "deadline",
	} {
		pol, err := PolicyByName(name)
		if err != nil {
			t.Errorf("PolicyByName(%q): %v", name, err)
			continue
		}
		if pol.Name() != want {
			t.Errorf("PolicyByName(%q) = %s, want %s", name, pol.Name(), want)
		}
	}
	if _, err := PolicyByName("lifo"); err == nil {
		t.Error("PolicyByName(lifo) did not fail")
	}
}
