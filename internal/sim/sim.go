// Package sim provides the discrete virtual clock the serving simulation
// runs on. All latencies in the system are charged to a Clock; nothing
// ever sleeps, so experiments that model minutes of GPU time run in
// milliseconds and are perfectly reproducible.
package sim

import "fmt"

// Clock is a monotonically advancing virtual clock. The zero value is a
// clock at time zero, ready to use.
type Clock struct {
	now float64
}

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Advance moves the clock forward by dt seconds and returns the new time.
// It panics on negative dt — time never flows backwards in the simulator,
// and a negative charge always indicates a cost-model bug.
func (c *Clock) Advance(dt float64) float64 {
	if dt < 0 {
		panic(fmt.Sprintf("sim: negative time advance %g", dt))
	}
	c.now += dt
	return c.now
}

// AdvanceTo moves the clock forward to t: the commit of a caller that
// summed a stretch of charges from Now itself, so the clock reads what as
// many Advance calls would have left. It panics if t is before Now, for
// the same reason Advance panics on a negative dt.
func (c *Clock) AdvanceTo(t float64) {
	if t < c.now {
		panic(fmt.Sprintf("sim: clock moved back from %g to %g", c.now, t))
	}
	c.now = t
}

// Reset rewinds the clock to zero (between independent experiments).
func (c *Clock) Reset() { c.now = 0 }
