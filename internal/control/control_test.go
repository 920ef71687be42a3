package control

import (
	"strings"
	"testing"

	"fasttts/internal/rng"
)

func r() *rng.Stream { return rng.New(1).Child("test") }

// base is a healthy mid-load observation: no policy should act on it.
func base() Signals {
	return Signals{
		Interval: 15,
		Routable: 3, WarmAvailable: 2,
		MinDevices: 1, MaxDevices: 6,
		Pending: 2, Utilization: 0.6,
		QueueDelay: 2, SLOAttainment: 1,
		MaxTier: 2,
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if c.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, c.Name())
		}
	}
	if c, err := ByName(""); err != nil || c.Name() != "static" {
		t.Errorf("empty name: got %v, %v; want static", c, err)
	}
	if c, err := ByName("  Threshold "); err != nil || c.Name() != "threshold" {
		t.Errorf("case/space-insensitive lookup failed: %v, %v", c, err)
	}
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown controller") {
		t.Errorf("unknown name: err = %v, want descriptive error", err)
	}
}

func TestStaticNeverActs(t *testing.T) {
	c := Static{}
	sig := base()
	sig.QueueDelay, sig.Utilization, sig.Pending = 500, 1, 100
	for i := 0; i < 10; i++ {
		if acts := c.Decide(sig, r()); len(acts) != 0 {
			t.Fatalf("static acted: %v", acts)
		}
	}
}

func TestThresholdScalesUpOnHighDelay(t *testing.T) {
	c := NewThreshold()
	sig := base()
	sig.QueueDelay = c.HighDelay + 1
	acts := c.Decide(sig, r())
	if len(acts) != 1 || acts[0].Verb != ScaleUp || acts[0].N != 1 {
		t.Fatalf("got %v, want one ScaleUp", acts)
	}
	// Cooldown: the immediately following ticks hold even under pressure.
	for i := 0; i < c.Cooldown; i++ {
		if acts := c.Decide(sig, r()); len(acts) != 0 {
			t.Fatalf("tick %d during cooldown acted: %v", i, acts)
		}
	}
	if acts := c.Decide(sig, r()); len(acts) != 1 {
		t.Fatalf("post-cooldown tick did not act: %v", acts)
	}
}

func TestThresholdRespectsWarmPoolAndMax(t *testing.T) {
	c := NewThreshold()
	sig := base()
	sig.QueueDelay = c.HighDelay + 1
	sig.WarmAvailable = 0
	if acts := c.Decide(sig, r()); len(acts) != 0 {
		t.Fatalf("scaled up with an empty warm pool: %v", acts)
	}
	sig.WarmAvailable = 2
	sig.Routable, sig.MaxDevices = 6, 6
	if acts := c.Decide(sig, r()); len(acts) != 0 {
		t.Fatalf("scaled up past MaxDevices: %v", acts)
	}
}

func TestThresholdScalesDownWhenIdle(t *testing.T) {
	c := NewThreshold()
	sig := base()
	sig.Utilization, sig.QueueDelay, sig.Pending = 0.1, 0, 0
	acts := c.Decide(sig, r())
	if len(acts) != 1 || acts[0].Verb != ScaleDown {
		t.Fatalf("got %v, want one ScaleDown", acts)
	}
	// Never below MinDevices.
	c = NewThreshold()
	sig.Routable, sig.MinDevices = 1, 1
	if acts := c.Decide(sig, r()); len(acts) != 0 {
		t.Fatalf("drained below MinDevices: %v", acts)
	}
}

func TestPIDTracksSetpoint(t *testing.T) {
	c := NewPID()
	sig := base()
	sig.QueueDelay = c.Target + 20
	acts := c.Decide(sig, r())
	if len(acts) != 1 || acts[0].Verb != ScaleUp {
		t.Fatalf("far above setpoint: got %v, want ScaleUp", acts)
	}
	// Sustained idleness eventually unwinds the integral into scale-down.
	sig.QueueDelay, sig.Utilization, sig.Pending = 0, 0.05, 0
	var sawDown bool
	for i := 0; i < 50; i++ {
		for _, a := range c.Decide(sig, r()) {
			if a.Verb == ScaleDown {
				sawDown = true
			}
			if a.Verb == ScaleUp {
				t.Fatalf("tick %d scaled up while idle", i)
			}
		}
	}
	if !sawDown {
		t.Fatal("PID never scaled down after load cleared (integral windup?)")
	}
	// At the setpoint with no history, it holds.
	c = NewPID()
	sig = base()
	sig.QueueDelay = c.Target
	if acts := c.Decide(sig, r()); len(acts) != 0 {
		t.Fatalf("acted at the setpoint: %v", acts)
	}
}

func TestBudgetGovernorHysteresis(t *testing.T) {
	c := NewBudget()
	sig := base()
	sig.QueueDelay = c.Degrade + 1
	acts := c.Decide(sig, r())
	if len(acts) != 1 || acts[0].Verb != SetTier || acts[0].N != 1 {
		t.Fatalf("got %v, want SetTier 1", acts)
	}
	sig.Tier = 1
	if acts := c.Decide(sig, r()); len(acts) != 1 || acts[0].N != 2 {
		t.Fatalf("second overloaded tick: got %v, want SetTier 2", acts)
	}
	sig.Tier = sig.MaxTier
	if acts := c.Decide(sig, r()); len(acts) != 0 {
		t.Fatalf("degraded past MaxTier: %v", acts)
	}
	// Inside the hysteresis band: hold.
	sig.QueueDelay = (c.Degrade + c.Restore) / 2
	if acts := c.Decide(sig, r()); len(acts) != 0 {
		t.Fatalf("acted inside the hysteresis band: %v", acts)
	}
	// Load cleared: the restore waits for Calm consecutive calm ticks —
	// one quiet window mid-storm must not refill the budget.
	sig.QueueDelay, sig.Pending = 0, 0
	for i := 1; i < c.Calm; i++ {
		if acts := c.Decide(sig, r()); len(acts) != 0 {
			t.Fatalf("restored after %d calm ticks, want %d: %v", i, c.Calm, acts)
		}
	}
	if acts := c.Decide(sig, r()); len(acts) != 1 || acts[0].N != sig.MaxTier-1 {
		t.Fatalf("restore: got %v, want SetTier %d", acts, sig.MaxTier-1)
	}
	// A storm tick resets the calm streak.
	sig.QueueDelay = c.Degrade + 1
	sig.Tier = sig.MaxTier
	if acts := c.Decide(sig, r()); len(acts) != 0 {
		t.Fatalf("acted at MaxTier: %v", acts)
	}
	sig.QueueDelay, sig.Tier = 0, 1
	if acts := c.Decide(sig, r()); len(acts) != 0 {
		t.Fatalf("restored on the first calm tick after a storm tick: %v", acts)
	}
	// Never acts on membership.
	for tier := 0; tier <= sig.MaxTier; tier++ {
		sig := base()
		sig.Tier = tier
		sig.QueueDelay = 100
		for _, a := range c.Decide(sig, r()) {
			if a.Verb != SetTier {
				t.Fatalf("budget governor emitted %v", a)
			}
		}
	}
}

func TestControllersDeterministic(t *testing.T) {
	// Equal signal sequences give equal action sequences.
	sigs := make([]Signals, 20)
	for i := range sigs {
		s := base()
		s.QueueDelay = float64((i * 7) % 23)
		s.Utilization = float64((i*13)%10) / 10
		s.Pending = (i * 3) % 11
		s.Tier = i % 3
		sigs[i] = s
	}
	for _, name := range Names() {
		a, _ := ByName(name)
		b, _ := ByName(name)
		ra, rb := rng.New(9).Child("ctl"), rng.New(9).Child("ctl")
		for i, s := range sigs {
			av, bv := a.Decide(s, ra), b.Decide(s, rb)
			if len(av) != len(bv) {
				t.Fatalf("%s tick %d: %v vs %v", name, i, av, bv)
			}
			for j := range av {
				if av[j] != bv[j] {
					t.Fatalf("%s tick %d action %d: %v vs %v", name, i, j, av[j], bv[j])
				}
			}
		}
	}
}

func TestRecordString(t *testing.T) {
	r1 := Record{Time: 30, Action: string(ScaleUp), Requested: 2, Applied: 1, Devices: []int{4}}
	if s := r1.String(); !strings.Contains(s, "scale-up") || !strings.Contains(s, "1/2") {
		t.Errorf("Record.String() = %q", s)
	}
	r2 := Record{Time: 45, Action: string(SetTier), Requested: 1, Applied: 1}
	if s := r2.String(); !strings.Contains(s, "set-tier 1") {
		t.Errorf("Record.String() = %q", s)
	}
}
