package sched

// This file implements serving-level scheduling: pluggable admission and
// device-slice ordering policies for the multi-tenant serving engine. The
// §4.1.2 two-phase preemptible scheduler of the paper is the FCFS special
// case; the other policies generalize it to the shortest-job
// (First-Finish style, arXiv:2505.18149), strict-priority, and
// deadline-SLO disciplines that heavy multi-user edge traffic calls for.

import (
	"fmt"
	"strings"
)

// ServeRequest is a policy's read-only view of one admitted request.
type ServeRequest struct {
	// ID is the request's position in the submitted stream (stable
	// tie-breaker).
	ID int
	// Arrival is the request's arrival time on the server clock.
	Arrival float64
	// Priority orders requests under the priority policy; larger runs
	// first.
	Priority int
	// Deadline is the absolute SLO deadline on the server clock; 0 means
	// no deadline.
	Deadline float64
	// RemainingWork is the server's estimate of the request's remaining
	// service demand. Units are arbitrary but consistent across requests,
	// so policies may compare but not interpret them.
	RemainingWork float64
}

// ServePolicy decides which requests enter the system and which runnable
// request receives the next device slice. Implementations must be
// deterministic functions of their arguments — the serving engine
// guarantees bit-identical runs for equal seeds, and a policy that
// consults wall clocks, map iteration order, or racy shared state breaks
// that property even if it spawns goroutines internally.
type ServePolicy interface {
	// Name identifies the policy ("fcfs", "sjf", ...).
	Name() string
	// Admit decides whether a newly arrived request enters the system.
	// inFlight counts admitted, unfinished requests. Rejected requests are
	// reported as shed load and never served.
	Admit(r ServeRequest, now float64, inFlight int) bool
	// Pick returns the index into runnable (non-empty) of the request that
	// receives the next device slice. runnable belongs to the engine,
	// which keeps it current across slices: a policy must not modify it
	// or keep it after returning.
	Pick(runnable []ServeRequest, now float64) int
}

// FCFS serves in arrival order and admits everything: the §4.1.2
// semantics. Because the earliest-arrived unfinished request stays
// earliest until it completes, FCFS degenerates to run-to-completion and
// reproduces the sequential seed scheduler exactly.
type FCFS struct{}

func (FCFS) Name() string                          { return "fcfs" }
func (FCFS) Admit(ServeRequest, float64, int) bool { return true }
func (FCFS) Pick(rs []ServeRequest, _ float64) int {
	best := 0
	for i := 1; i < len(rs); i++ {
		if earlier(rs[i], rs[best]) {
			best = i
		}
	}
	return best
}

// SJF picks the request with the smallest estimated remaining work
// (shortest-remaining-processing-time; the First Finish Search discipline
// applied to serving). Ties fall back to arrival order.
type SJF struct{}

func (SJF) Name() string                          { return "sjf" }
func (SJF) Admit(ServeRequest, float64, int) bool { return true }
func (SJF) Pick(rs []ServeRequest, _ float64) int {
	best := 0
	for i := 1; i < len(rs); i++ {
		switch {
		case rs[i].RemainingWork < rs[best].RemainingWork:
			best = i
		case rs[i].RemainingWork == rs[best].RemainingWork && earlier(rs[i], rs[best]):
			best = i
		}
	}
	return best
}

// Priority serves the highest Priority value first, FCFS within a level.
type Priority struct{}

func (Priority) Name() string                          { return "priority" }
func (Priority) Admit(ServeRequest, float64, int) bool { return true }
func (Priority) Pick(rs []ServeRequest, _ float64) int {
	best := 0
	for i := 1; i < len(rs); i++ {
		switch {
		case rs[i].Priority > rs[best].Priority:
			best = i
		case rs[i].Priority == rs[best].Priority && earlier(rs[i], rs[best]):
			best = i
		}
	}
	return best
}

// Deadline is earliest-deadline-first: the request whose SLO deadline
// expires soonest runs next; requests without a deadline run after all
// deadlined ones, FCFS among themselves.
type Deadline struct{}

func (Deadline) Name() string                          { return "deadline" }
func (Deadline) Admit(ServeRequest, float64, int) bool { return true }
func (Deadline) Pick(rs []ServeRequest, _ float64) int {
	best := 0
	for i := 1; i < len(rs); i++ {
		if deadlineBefore(rs[i], rs[best]) {
			best = i
		}
	}
	return best
}

func deadlineBefore(a, b ServeRequest) bool {
	switch {
	case a.Deadline > 0 && b.Deadline > 0:
		if a.Deadline != b.Deadline {
			return a.Deadline < b.Deadline
		}
		return earlier(a, b)
	case a.Deadline > 0:
		return true
	case b.Deadline > 0:
		return false
	default:
		return earlier(a, b)
	}
}

// AdmissionLimit wraps a policy with a load-shedding admission rule:
// arrivals beyond MaxInFlight admitted, unfinished requests are rejected.
// Ordering is delegated to Inner.
type AdmissionLimit struct {
	Inner       ServePolicy
	MaxInFlight int
}

func (p AdmissionLimit) Name() string {
	return fmt.Sprintf("%s+limit%d", p.Inner.Name(), p.MaxInFlight)
}

func (p AdmissionLimit) Admit(r ServeRequest, now float64, inFlight int) bool {
	if p.MaxInFlight > 0 && inFlight >= p.MaxInFlight {
		return false
	}
	return p.Inner.Admit(r, now, inFlight)
}

func (p AdmissionLimit) Pick(rs []ServeRequest, now float64) int {
	return p.Inner.Pick(rs, now)
}

// earlier is the shared FCFS tie-break: arrival time, then stream ID.
func earlier(a, b ServeRequest) bool {
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	return a.ID < b.ID
}

// PolicyByName resolves a serving policy from its CLI/config name:
// "fcfs", "sjf", "priority", or "deadline".
func PolicyByName(name string) (ServePolicy, error) {
	switch strings.ToLower(name) {
	case "", "fcfs":
		return FCFS{}, nil
	case "sjf", "first-finish":
		return SJF{}, nil
	case "priority":
		return Priority{}, nil
	case "deadline", "edf":
		return Deadline{}, nil
	}
	return nil, fmt.Errorf("sched: unknown serve policy %q (want fcfs, sjf, priority, or deadline)", name)
}
