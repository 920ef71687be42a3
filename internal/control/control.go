// Package control is the elastic control plane of the fleet simulator: a
// deterministic, virtual-clock feedback loop that observes fleet signals
// at a fixed control interval and actuates two knobs —
//
//   - horizontal: add devices from a warm pool (with a prefill/warm-up
//     delay before the new device becomes routable) or drain-and-remove
//     devices (route away, let in-flight work finish);
//   - vertical: a compute-budget governor that degrades per-request
//     search budget (effective NumBeams) under pressure and restores it
//     when load clears.
//
// A Controller is a pure function of the observed Signals plus its own
// private deterministic random stream: equal seeds give bit-identical
// action sequences, which is what lets controller-driven fleet runs slot
// into the golden-trace regression harness. Controllers may carry
// internal state (hysteresis counters, PID integrals) but must not
// consult wall clocks, map iteration order, or any other source of
// nondeterminism.
//
// The built-in policies (see ByName):
//
//	static     never acts — the fixed-fleet baseline
//	threshold  hysteresis scaling on queue delay and utilization
//	pid        PID-style tracking of a queue-delay setpoint
//	budget     vertical-only compute-budget governor
//
// The fleet calls a controller at each control tick, after stepping every
// device due by the tick, and accumulates the window aggregates feeding
// Signals in its deterministic completion order — so equal seeds give
// bit-identical Signals and action logs. Controllers are never called
// concurrently.
package control

import (
	"fmt"
	"strings"

	"fasttts/internal/rng"
)

// Signals is the controller's observation of fleet state at one control
// tick. Window quantities cover the interval since the previous tick.
type Signals struct {
	// Now is the fleet virtual time of this tick; Interval is the control
	// period (Now advances by Interval between ticks).
	Now, Interval float64
	// Routable counts devices accepting new requests (alive, warmed up,
	// not draining); Warming counts devices still in their warm-up delay;
	// WarmAvailable counts warm-pool slots a ScaleUp could still claim.
	Routable, Warming, WarmAvailable int
	// MinDevices / MaxDevices bound the actuation range: the fleet never
	// drains below MinDevices routable nor grows Routable+Warming beyond
	// MaxDevices.
	MinDevices, MaxDevices int
	// Pending is the fleet's outstanding population (admitted unfinished
	// plus queued, summed over routable devices); OutstandingWork is the
	// matching remaining-demand estimate in token units.
	Pending         int
	OutstandingWork float64
	// Utilization is the window's busy fraction: device busy-seconds
	// accrued during the window divided by Interval x Routable (clamped
	// to [0, 1]; 0 on the first tick of an idle fleet).
	Utilization float64
	// Arrivals and Completions count requests routed / finished during
	// the window; QueueDelay is the mean queueing delay of the window's
	// completions (0 when none completed).
	Arrivals, Completions int
	QueueDelay            float64
	// SLOAttainment is the fraction of the window's completions that met
	// the fleet SLO target (1 when no target is set or nothing completed).
	SLOAttainment float64
	// Tier is the current budget-degradation tier (0 = full search
	// budget); MaxTier is the deepest tier the governor may set.
	Tier, MaxTier int
}

// Verb is an actuation kind.
type Verb string

const (
	// ScaleUp claims warm-pool slots: N devices begin warming up and
	// become routable after the fleet's warm-up delay.
	ScaleUp Verb = "scale-up"
	// ScaleDown drains N devices: they stop receiving new requests,
	// finish their in-flight and queued work, and leave the fleet.
	ScaleDown Verb = "scale-down"
	// SetTier moves the compute-budget governor to tier N: new requests
	// are served with their search width halved N times (floored at the
	// policy's branch factor). Tier 0 restores the full budget.
	SetTier Verb = "set-tier"
)

// Action is one actuation decision returned by a controller.
type Action struct {
	Verb Verb
	// N is the device count for ScaleUp/ScaleDown and the target tier for
	// SetTier.
	N int
}

// Record is one applied (or clamped) action in a fleet's action log. The
// log is a deterministic function of the run seed, so equal seeds give
// bit-identical logs — the property the regression tests pin.
type Record struct {
	// Time is the control tick the action was decided at.
	Time float64
	Verb Verb
	// N is the requested magnitude; Applied is what the fleet actually
	// actuated after clamping to warm-pool capacity and the device
	// bounds (Applied <= N for scaling verbs; Applied is the resulting
	// tier for SetTier).
	N, Applied int
	// Devices lists the fleet indexes the action touched (joined or
	// draining devices); nil for SetTier.
	Devices []int
}

// String renders a record for logs and CLI output.
func (r Record) String() string {
	if r.Verb == SetTier {
		return fmt.Sprintf("t=%.1f %s %d", r.Time, r.Verb, r.Applied)
	}
	return fmt.Sprintf("t=%.1f %s %d/%d %v", r.Time, r.Verb, r.Applied, r.N, r.Devices)
}

// Controller decides actuations from observed fleet signals.
type Controller interface {
	// Name identifies the policy ("static", "threshold", ...).
	Name() string
	// Decide returns the actions for this tick (nil/empty = hold). r is
	// the controller's private deterministic random stream; Decide must
	// be deterministic given its call sequence and r.
	Decide(sig Signals, r *rng.Stream) []Action
}

// ByName resolves a fresh controller from its CLI/config name: "static",
// "threshold", "pid", or "budget". It returns an error — never panics —
// on unknown names; the empty name selects static.
func ByName(name string) (Controller, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "static", "none":
		return Static{}, nil
	case "threshold":
		return NewThreshold(), nil
	case "pid":
		return NewPID(), nil
	case "budget":
		return NewBudget(), nil
	}
	return nil, fmt.Errorf("control: unknown controller %q (want one of %s)",
		name, strings.Join(Names(), ", "))
}

// Names lists the built-in controller names in display order.
func Names() []string {
	return []string{"static", "threshold", "pid", "budget"}
}
