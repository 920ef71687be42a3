package core

import (
	"fmt"
	"math"

	"fasttts/internal/search"
)

// Run laws: the accounting identities every run keeps, each checked
// where its fact is produced. A broken law is a simulator bug, never the
// caller's input, so it ends the run with an error that names the law,
// the request tag or device, and the values. A check allocates nothing
// unless its law breaks. The fleet's laws (one result per request, no
// hedge twin, busy ≤ live, plane used ≤ capacity) are in package cluster.
const (
	lawTimes     = "arrival <= start <= finish, all finite"
	lawSpec      = "0 <= spec tokens <= tokens decoded"
	lawRetained  = "spec retained >= 0"
	lawAbandoned = "beams abandoned only by an early-stopping strategy"
	// LawOneResult is shared with the fleet's outcome check.
	LawOneResult = "one result per request"
)

// checkServed checks the laws of one served request, run under strategy
// st. SpecRetained is held only to its sign: a speculated token adopted
// by several beams is counted once per beam, so it may exceed
// SpecTokens. Beams are abandoned only where the search may stop with
// beams still active: first-finish or a deadline cut.
func checkServed(sv *ServedResult, st search.Strategy) error {
	switch {
	case !(sv.Arrival <= sv.Start && sv.Start <= sv.Finish) || math.IsInf(sv.Arrival, 0) || math.IsInf(sv.Finish, 0):
		return fmt.Errorf("core: law %q broken by request tag %d: arrival %v, start %v, finish %v",
			lawTimes, sv.Tag, sv.Arrival, sv.Start, sv.Finish)
	case sv.SpecTokens < 0 || sv.SpecTokens > sv.TokensDecoded:
		return fmt.Errorf("core: law %q broken by request tag %d: spec tokens %d, tokens decoded %d",
			lawSpec, sv.Tag, sv.SpecTokens, sv.TokensDecoded)
	case sv.SpecRetained < 0:
		return fmt.Errorf("core: law %q broken by request tag %d: spec retained %d",
			lawRetained, sv.Tag, sv.SpecRetained)
	case sv.Abandoned > 0 && !st.Satisfied(1) && !st.CutAtDeadline():
		return fmt.Errorf("core: law %q broken by request tag %d: %d beams abandoned under strategy %q",
			lawAbandoned, sv.Tag, sv.Abandoned, st.Name())
	}
	return nil
}

// checkResultCount checks the end of Server.Run and RunClosedLoop: every
// request yields exactly one result, served or rejected.
func checkResultCount(results, requests int) error {
	if results != requests {
		return fmt.Errorf("core: law %q broken: %d results for %d requests", LawOneResult, results, requests)
	}
	return nil
}
