package core

import (
	"math"
	"strings"
	"testing"

	"fasttts/internal/search"
)

// TestRunLawsFire makes each per-request and per-run law fire on a
// hand-broken result and checks that the error names it; sound results
// pass, including SpecRetained above SpecTokens (retained tokens are
// counted once per adopting beam) and Abandoned under first-finish and
// deadline.
func TestRunLawsFire(t *testing.T) {
	served := func(edit func(*ServedResult)) *ServedResult {
		sv := &ServedResult{Result: &Result{TokensDecoded: 100, SpecTokens: 40, SpecRetained: 10},
			Arrival: 1, Start: 2, Finish: 3, Tag: 7}
		edit(sv)
		return sv
	}
	full := mustStrategy("full-beam")
	for _, tc := range []struct {
		name string
		err  error
		law  string // "" for no violation
	}{
		{"sound", checkServed(served(func(*ServedResult) {}), full), ""},
		{"instant request", checkServed(served(func(sv *ServedResult) { sv.Start, sv.Finish = 1, 1 }), full), ""},
		{"retained past spec", checkServed(served(func(sv *ServedResult) { sv.SpecRetained = 60 }), full), ""},
		{"first-finish abandons", checkServed(served(func(sv *ServedResult) { sv.Abandoned = 3 }), search.FirstFinish(2)), ""},
		{"deadline abandons", checkServed(served(func(sv *ServedResult) { sv.Abandoned = 3 }), mustStrategy("deadline")), ""},
		{"start before arrival", checkServed(served(func(sv *ServedResult) { sv.Start = 0.5 }), full), lawTimes},
		{"finish before start", checkServed(served(func(sv *ServedResult) { sv.Finish = 1.5 }), full), lawTimes},
		{"NaN start", checkServed(served(func(sv *ServedResult) { sv.Start = math.NaN() }), full), lawTimes},
		{"infinite finish", checkServed(served(func(sv *ServedResult) { sv.Finish = math.Inf(1) }), full), lawTimes},
		{"infinite arrival", checkServed(served(func(sv *ServedResult) { sv.Arrival = math.Inf(-1) }), full), lawTimes},
		{"spec past decoded", checkServed(served(func(sv *ServedResult) { sv.SpecTokens = 101 }), full), lawSpec},
		{"negative spec", checkServed(served(func(sv *ServedResult) { sv.SpecTokens = -1 }), full), lawSpec},
		{"negative retained", checkServed(served(func(sv *ServedResult) { sv.SpecRetained = -1 }), full), lawRetained},
		{"full-beam abandons", checkServed(served(func(sv *ServedResult) { sv.Abandoned = 1 }), full), lawAbandoned},
		{"strategies off abandon", checkServed(served(func(sv *ServedResult) { sv.Abandoned = 1 }), search.Strategy{}), lawAbandoned},
		{"hedged abandons", checkServed(served(func(sv *ServedResult) { sv.Abandoned = 1 }), mustStrategy("hedged")), lawAbandoned},
		{"one result each", checkResultCount(4, 4), ""},
		{"result lost", checkResultCount(3, 4), LawOneResult},
		{"result doubled", checkResultCount(5, 4), LawOneResult},
	} {
		switch {
		case tc.law == "" && tc.err != nil:
			t.Errorf("%s: %v", tc.name, tc.err)
		case tc.law != "" && (tc.err == nil || !strings.Contains(tc.err.Error(), tc.law)):
			t.Errorf("%s: error %v, want one naming %q", tc.name, tc.err, tc.law)
		}
	}
}
