package search

import (
	"strings"
	"testing"
)

// strategyCases is the ParseStrategy table; FuzzParseStrategy seeds its
// corpus with the same specs.
var strategyCases = []struct {
	spec    string
	want    string // expected Name(); "" means the zero value (strategies off)
	wantErr string // substring of the expected error; "" means success
}{
	{spec: "", want: ""},
	{spec: "full-beam", want: "full-beam"},
	{spec: "FULL-BEAM", want: "full-beam"},
	{spec: " first-finish ", want: "first-finish"},
	{spec: "first-finish:4", want: "first-finish:4"},
	{spec: "first-finish:1", want: "first-finish:1"},
	{spec: "deadline", want: "deadline"},
	{spec: "hedged", want: "hedged"},
	{spec: "first-finish:0", wantErr: "k >= 1"},
	{spec: "first-finish:-3", wantErr: "k >= 1"},
	{spec: "first-finish:x", wantErr: "not an integer"},
	{spec: "hedged:2", wantErr: "takes no parameter"},
	{spec: "deadline:5", wantErr: "takes no parameter"},
	{spec: "hedged:", wantErr: "empty parameter"},
	{spec: "deadline:", wantErr: "empty parameter"},
	{spec: "first-finish:", wantErr: "empty parameter"},
	{spec: "first-finish: ", wantErr: "empty parameter"},
	{spec: ":", wantErr: "empty parameter"},
	{spec: "warp-speed", wantErr: "unknown strategy"},
}

func TestParseStrategy(t *testing.T) {
	for _, c := range strategyCases {
		s, err := ParseStrategy(c.spec)
		if c.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("ParseStrategy(%q) error = %v, want substring %q", c.spec, err, c.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseStrategy(%q): %v", c.spec, err)
			continue
		}
		if s.On() != (c.want != "") || s.Name() != c.want {
			t.Errorf("ParseStrategy(%q) = %q (on %v), want %q", c.spec, s.Name(), s.On(), c.want)
		}
	}
}

// FuzzParseStrategy: parsing never panics, and an accepted spec
// re-parses from its canonical Name to an equal value.
func FuzzParseStrategy(f *testing.F) {
	for _, c := range strategyCases {
		f.Add(c.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseStrategy(spec)
		if err != nil {
			if s != (Strategy{}) {
				t.Errorf("ParseStrategy(%q) failed but returned %q", spec, s.Name())
			}
			return
		}
		again, err := ParseStrategy(s.Name())
		if err != nil || again != s {
			t.Errorf("ParseStrategy(%q) = %q, which re-parses to (%q, %v)", spec, s.Name(), again.Name(), err)
		}
	})
}

func TestStrategyHooks(t *testing.T) {
	for _, s := range []Strategy{{}, Strategy{kind: fullBeam}} {
		if s.Satisfied(3) || s.CutAtDeadline() || s.Hedged() {
			t.Errorf("%q must never stop early, cut, or hedge", s.Name())
		}
		if s.ChainWidth(8) != 8 {
			t.Errorf("%q must keep the configured width", s.Name())
		}
	}
	if (Strategy{}).On() || !(Strategy{kind: fullBeam}).On() {
		t.Error("only the zero value is off")
	}

	ff := FirstFinish(0)
	if ff.Satisfied(0) {
		t.Error("first-finish with no finished path must not be satisfied")
	}
	if !ff.Satisfied(1) {
		t.Error("first-finish must stop on the first finished path")
	}
	if ff.ChainWidth(8) != 8 {
		t.Error("first-finish with k=0 must launch the configured width")
	}
	if FirstFinish(4).ChainWidth(8) != 4 {
		t.Error("first-finish:4 must cap the launch width at 4 chains")
	}
	if FirstFinish(16).ChainWidth(8) != 8 {
		t.Error("first-finish must never widen the search beyond the policy")
	}

	deadline, hedge := Strategy{kind: deadlineCut}, Strategy{kind: hedged}
	if !deadline.CutAtDeadline() || deadline.Hedged() {
		t.Error("deadline must cut at the deadline and not hedge")
	}
	if !hedge.Hedged() || hedge.Satisfied(1) || hedge.CutAtDeadline() {
		t.Error("hedged must replicate at the fleet level with full-beam solver semantics")
	}
}

func TestStrategyNamesRoundTrip(t *testing.T) {
	for _, name := range StrategyNames() {
		s, err := ParseStrategy(name)
		if err != nil {
			t.Fatalf("ParseStrategy(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("ParseStrategy(%q).Name() = %q", name, s.Name())
		}
	}
}

func TestDegradedStrategy(t *testing.T) {
	if DegradedStrategy(Strategy{}, 2).On() {
		t.Error("the strategy knob must stay off when no base strategy is configured")
	}
	hedge := Strategy{kind: hedged}
	if got := DegradedStrategy(hedge, 0); got != hedge {
		t.Errorf("tier 0 must keep the configured strategy, got %q", got.Name())
	}
	if got := DegradedStrategy(Strategy{kind: fullBeam}, 1); got != FirstFinish(0) {
		t.Errorf("tier 1 must degrade to first-finish, got %q", got.Name())
	}
	if got := DegradedStrategy(hedge, 2); got != FirstFinish(0) {
		t.Errorf("deep tiers must degrade hedging to first-finish, got %q", got.Name())
	}
}
