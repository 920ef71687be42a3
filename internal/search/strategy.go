package search

// Test-time-compute strategies: the layer above the search Policy that
// decides *when the search is allowed to stop* and *how the serving
// stack may replicate it*. A Policy shapes the beam tree (width, branch
// factor, selection); a Strategy shapes the latency/compute tradeoff of
// running it:
//
//	full-beam     run the policy's beam to normal termination — the
//	              legacy semantics and the default
//	first-finish  launch k parallel chains and return on the first
//	              completed one ("First Finish Search", arXiv 2505.18149)
//	deadline      cut the solve when the request's deadline passes
//	              mid-flight, returning the best path found so far
//	hedged        replicate the request to a second device and cancel
//	              the loser on first completion (fleet-level; the solver
//	              semantics are full-beam)
//
// Strategies are selected by name like routers, policies, and
// controllers, and are deliberately pure: every hook is a deterministic
// function of counts the solver already tracks, so enabling one never
// perturbs the virtual-time simulation's reproducibility.

import (
	"fmt"
	"strconv"
	"strings"
)

// Strategy is one test-time-compute strategy: a small comparable value.
// The zero value means strategies are off — the full beam runs, and the
// budget governor never swaps in first-finish — so every hook on it
// answers exactly as full-beam does; only On and Name tell the two
// apart.
type Strategy struct {
	kind strategyKind
	k    int // first-finish chain cap; 0 launches the policy's width
}

type strategyKind uint8

const (
	strategiesOff strategyKind = iota
	fullBeam
	firstFinish
	deadlineCut
	hedged
)

// strategyNames is indexed by kind; the off kind has no name.
var strategyNames = [...]string{
	fullBeam:    "full-beam",
	firstFinish: "first-finish",
	deadlineCut: "deadline",
	hedged:      "hedged",
}

// FirstFinish returns on the first completed chain. k > 0 caps the
// launch width at k chains; k <= 0 launches the policy's width.
func FirstFinish(k int) Strategy { return Strategy{kind: firstFinish, k: max(k, 0)} }

// On reports whether strategies are enabled (s is not the zero value).
func (s Strategy) On() bool { return s.kind != strategiesOff }

// Name is the CLI/config name ("full-beam", "first-finish:4", ...); ""
// for the zero value. ParseStrategy(s.Name()) == s.
func (s Strategy) Name() string {
	if s.kind == firstFinish && s.k > 0 {
		return "first-finish:" + strconv.Itoa(s.k)
	}
	return strategyNames[s.kind]
}

// Satisfied reports whether the search may stop early with the given
// finished-path count. The solver consults it after every selection
// round; only first-finish ever answers true.
func (s Strategy) Satisfied(finished int) bool {
	return s.kind == firstFinish && finished >= 1
}

// ChainWidth maps the configured search width to the width this
// strategy actually launches (first-finish:k caps it at k chains).
func (s Strategy) ChainWidth(base int) int {
	if s.kind == firstFinish && s.k > 0 && s.k < base {
		return s.k
	}
	return base
}

// CutAtDeadline reports whether the serving loop should finalize the
// solve early once the request's deadline passes mid-flight.
func (s Strategy) CutAtDeadline() bool { return s.kind == deadlineCut }

// Hedged reports whether the fleet should replicate the request to a
// second device and cancel the loser on first completion. Outside a
// fleet (single-server target) a hedged strategy degrades to full-beam
// solver semantics.
func (s Strategy) Hedged() bool { return s.kind == hedged }

// ParseStrategy resolves a strategy from its CLI/config spec: "" (the
// zero value — strategies off, the legacy path), "full-beam",
// "first-finish", "first-finish:k" (k >= 1 chains), "deadline", or
// "hedged". It returns an error — never panics — on unknown names,
// empty or invalid parameters.
func ParseStrategy(spec string) (Strategy, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	name = strings.ToLower(strings.TrimSpace(name))
	arg = strings.TrimSpace(arg)
	if hasArg && arg == "" {
		return Strategy{}, fmt.Errorf("search: strategy %q has an empty parameter", spec)
	}
	if hasArg && name != "first-finish" {
		return Strategy{}, fmt.Errorf("search: strategy %q takes no parameter (got %q)", name, arg)
	}
	if hasArg {
		k, err := strconv.Atoi(arg)
		if err != nil {
			return Strategy{}, fmt.Errorf("search: first-finish chain count %q is not an integer", arg)
		}
		if k < 1 {
			return Strategy{}, fmt.Errorf("search: first-finish needs k >= 1 chains, got %d", k)
		}
		return FirstFinish(k), nil
	}
	for kind, n := range strategyNames {
		if n == name {
			return Strategy{kind: strategyKind(kind)}, nil
		}
	}
	return Strategy{}, fmt.Errorf("search: unknown strategy %q (want %s)", spec, strings.Join(StrategyNames(), ", "))
}

// StrategyNames lists the built-in strategy names in display order.
func StrategyNames() []string { return append([]string(nil), strategyNames[fullBeam:]...) }

// DegradedStrategy maps a compute-budget tier to the strategy the fleet's
// vertical governor actuates: tier 0 keeps the deployment's configured
// strategy, and any deeper tier swaps it for first-finish — stop at the
// first completed chain, the cheapest way to keep answering under load.
// The knob is gated on strategies being enabled: with strategies off
// (the zero value) every tier keeps them off, so deployments that never
// opted into strategies reproduce their pre-strategy runs bit-identically.
func DegradedStrategy(base Strategy, tier int) Strategy {
	if !base.On() || tier <= 0 {
		return base
	}
	return FirstFinish(0)
}
