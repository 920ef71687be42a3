package sched

import (
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"fasttts/internal/rng"
)

// FuzzPolicyByName asserts the lookup is total: any input yields a policy
// or an error, never a panic, and the two outcomes are mutually
// exclusive.
func FuzzPolicyByName(f *testing.F) {
	for _, name := range []string{"", "fcfs", "sjf", "first-finish", "priority", "deadline", "edf",
		"FCFS", " sjf", "nope", "fcfs\x00", "deadline,"} {
		f.Add(name)
	}
	f.Fuzz(func(t *testing.T, name string) {
		pol, err := PolicyByName(name)
		if (pol == nil) == (err == nil) {
			t.Errorf("PolicyByName(%q) = (%v, %v): want exactly one of policy/error", name, pol, err)
		}
		if err == nil && pol.Name() == "" {
			t.Errorf("PolicyByName(%q) returned an unnamed policy", name)
		}
	})
}

// TestPolicyByNameQuick drives the lookup with arbitrary generated
// strings (quick-check style): unknown names must come back as errors
// naming the input, and case variants of known names must resolve.
func TestPolicyByNameQuick(t *testing.T) {
	total := func(name string) bool {
		pol, err := PolicyByName(name)
		if err != nil {
			return pol == nil && strings.Contains(err.Error(), "unknown serve policy")
		}
		return pol != nil
	}
	if err := quick.Check(total, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, name := range []string{"FCFS", "Sjf", "PRIORITY", "Deadline", "EDF"} {
		if _, err := PolicyByName(name); err != nil {
			t.Errorf("case variant %q did not resolve: %v", name, err)
		}
	}
}

// refPrefixAwareOrder and refPackTries are the map-based implementations
// the Scratch methods replaced, kept as the reference the reuse test
// compares against.
func refPrefixAwareOrder(paths []Path) []Path {
	rank := map[int]int{}
	for _, p := range paths {
		for _, n := range p.Lineage {
			if _, ok := rank[n.Node]; !ok {
				rank[n.Node] = len(rank)
			}
		}
	}
	out := append([]Path(nil), paths...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].Lineage, out[j].Lineage
		for k := 0; k < len(a) && k < len(b); k++ {
			if ra, rb := rank[a[k].Node], rank[b[k].Node]; ra != rb {
				return ra < rb
			}
		}
		return len(a) < len(b)
	})
	return out
}

func refPackTries(ordered []Path, capacityTokens int) []Trie {
	var tries []Trie
	var cur Trie
	nodes := map[int]bool{}
	for _, p := range ordered {
		added := 0
		for _, n := range p.Lineage {
			if !nodes[n.Node] {
				added += n.Tokens
			}
		}
		if len(cur.Paths) > 0 && cur.UniqueTokens+added > capacityTokens {
			tries = append(tries, cur)
			cur, nodes = Trie{}, map[int]bool{}
			added = p.TotalTokens()
		}
		for _, n := range p.Lineage {
			nodes[n.Node] = true
		}
		cur.Paths = append(cur.Paths, p)
		cur.UniqueTokens += added
	}
	if len(cur.Paths) > 0 {
		tries = append(tries, cur)
	}
	return tries
}

// splitTree is randomTree with some lineage refs cut in two, the way a
// beam's lineage looks after it committed part of a speculative node: the
// same node ID twice in one path.
func splitTree(r *rng.Stream, nPaths int) []Path {
	paths := randomTree(r, nPaths)
	for i := range paths {
		if r.IntN(3) > 0 {
			continue
		}
		l := paths[i].Lineage
		k := r.IntN(len(l))
		if l[k].Tokens < 2 {
			continue
		}
		cut := 1 + r.IntN(l[k].Tokens-1)
		split := append(append([]NodeRef{}, l[:k]...), NodeRef{l[k].Node, cut}, NodeRef{l[k].Node, l[k].Tokens - cut})
		paths[i].Lineage = append(split, l[k+1:]...)
	}
	r.Shuffle(len(paths), func(i, j int) { paths[i], paths[j] = paths[j], paths[i] })
	return paths
}

// TestScratchReuse drives one Scratch through inputs of differing size and
// node range — including across an epoch wrap — and demands, call after
// call, what a fresh scratch and the map-based reference return.
func TestScratchReuse(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		var s Scratch
		if seed%4 == 0 {
			s.nodes.epoch = math.MaxUint32 - 3
		}
		for round := 0; round < 12; round++ {
			paths := splitTree(r, 1+r.IntN(40))
			capacity := 60 + r.IntN(500)
			want := refPrefixAwareOrder(paths)
			got := s.PrefixAwareOrder(paths)
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(PrefixAwareOrder(paths), want) {
				t.Logf("seed %d round %d: order\n got  %v\n want %v", seed, round, got, want)
				return false
			}
			wantTries := refPackTries(want, capacity)
			gotTries := s.PackTries(got, capacity)
			if !reflect.DeepEqual(gotTries, wantTries) || !reflect.DeepEqual(PackTries(want, capacity), wantTries) {
				t.Logf("seed %d round %d: tries\n got  %v\n want %v", seed, round, gotTries, wantTries)
				return false
			}
			if EvictionCost(gotTries) != EvictionCost(wantTries) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	if len(PackTries(nil, 10)) != 0 || len(PrefixAwareOrder(nil)) != 0 {
		t.Error("empty schedule did not stay empty")
	}
}

// A solver schedules 64 beams every iteration on one Scratch: after the
// first call sized the tables, neither function may allocate.
func TestScratchAllocatesNothingWarm(t *testing.T) {
	paths := randomTree(rng.New(5), 64)
	var s Scratch
	ordered := s.PrefixAwareOrder(paths)
	s.PackTries(ordered, 400)
	if got := testing.AllocsPerRun(50, func() { ordered = s.PrefixAwareOrder(paths) }); got != 0 {
		t.Errorf("warm PrefixAwareOrder: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(50, func() { s.PackTries(ordered, 400) }); got != 0 {
		t.Errorf("warm PackTries: %v allocs, want 0", got)
	}
}
