package kvcache

import (
	"errors"
	"testing"
	"testing/quick"

	"fasttts/internal/rng"
)

func toks(vals ...int) []Token {
	out := make([]Token, len(vals))
	for i, v := range vals {
		out[i] = Token(v)
	}
	return out
}

// runsOf is the run-length form of tk, as the Acquire adapter builds it.
func runsOf(tk []Token) []Run { return appendTokens(nil, tk) }

func seqTokens(prefix []Token, n int, salt Token) []Token {
	out := append([]Token(nil), prefix...)
	for i := 0; i < n; i++ {
		out = append(out, salt*1000+Token(i))
	}
	return out
}

func mustAcquire(t *testing.T, c *Cache, tk []Token) (*Seq, int, int) {
	t.Helper()
	s, hit, miss, err := c.Acquire(tk)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	return s, hit, miss
}

func TestAcquireMissThenHit(t *testing.T) {
	c := New(1<<20, 16)
	tk := toks(1, 2, 3, 4, 5)
	s1, hit, miss := mustAcquire(t, c, tk)
	if hit != 0 || miss != 5 {
		t.Fatalf("first acquire hit=%d miss=%d, want 0/5", hit, miss)
	}
	_, hit, miss = mustAcquire(t, c, tk)
	if hit != 5 || miss != 0 {
		t.Fatalf("second acquire hit=%d miss=%d, want 5/0", hit, miss)
	}
	if s1.Len() != 5 {
		t.Errorf("Len = %d", s1.Len())
	}
}

func TestPrefixSharingUsesUniqueTokens(t *testing.T) {
	c := New(1<<20, 16)
	mustAcquire(t, c, toks(1, 2, 3, 4))
	_, hit, miss := mustAcquire(t, c, toks(1, 2, 3, 9, 10))
	if hit != 3 || miss != 2 {
		t.Fatalf("hit=%d miss=%d, want 3/2", hit, miss)
	}
	if got := c.UsedTokens(); got != 6 {
		t.Errorf("UsedTokens = %d, want 6 (4 + 2 unique)", got)
	}
}

func TestSplitPreservesLookups(t *testing.T) {
	c := New(1<<20, 16)
	mustAcquire(t, c, toks(1, 2, 3, 4, 5, 6))
	// Acquiring a strict prefix forces a split.
	_, hit, miss := mustAcquire(t, c, toks(1, 2, 3))
	if hit != 3 || miss != 0 {
		t.Fatalf("prefix acquire hit=%d miss=%d, want 3/0", hit, miss)
	}
	if got := c.LongestCachedPrefix(runsOf(toks(1, 2, 3, 4, 5, 6))); got != 6 {
		t.Errorf("full sequence prefix after split = %d, want 6", got)
	}
	if got := c.UsedTokens(); got != 6 {
		t.Errorf("UsedTokens = %d, want 6", got)
	}
}

func TestDivergenceMidSpan(t *testing.T) {
	c := New(1<<20, 16)
	mustAcquire(t, c, toks(1, 2, 3, 4))
	_, hit, miss := mustAcquire(t, c, toks(1, 2, 9))
	if hit != 2 || miss != 1 {
		t.Fatalf("hit=%d miss=%d, want 2/1", hit, miss)
	}
	if got := c.LongestCachedPrefix(runsOf(toks(1, 2, 3, 4))); got != 4 {
		t.Errorf("original sequence damaged by split: prefix=%d", got)
	}
	if got := c.LongestCachedPrefix(runsOf(toks(1, 2, 9))); got != 3 {
		t.Errorf("diverged sequence prefix=%d", got)
	}
}

func TestExtendInPlace(t *testing.T) {
	c := New(1<<20, 16)
	s, _, _ := mustAcquire(t, c, toks(1, 2))
	if _, _, err := c.Extend(s, runsOf(toks(3, 4))); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d, want 4", s.Len())
	}
	if got := c.LongestCachedPrefix(runsOf(toks(1, 2, 3, 4))); got != 4 {
		t.Errorf("prefix after extend = %d", got)
	}
}

func TestExtendAfterForkCreatesChild(t *testing.T) {
	c := New(1<<20, 16)
	s, _, _ := mustAcquire(t, c, toks(1, 2))
	f, err := c.Fork(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Extend(s, runsOf(toks(3))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Extend(f, runsOf(toks(7))); err != nil {
		t.Fatal(err)
	}
	if got := c.LongestCachedPrefix(runsOf(toks(1, 2, 3))); got != 3 {
		t.Errorf("branch A prefix = %d", got)
	}
	if got := c.LongestCachedPrefix(runsOf(toks(1, 2, 7))); got != 3 {
		t.Errorf("branch B prefix = %d", got)
	}
	if got := c.UsedTokens(); got != 4 {
		t.Errorf("UsedTokens = %d, want 4 (2 shared + 1 + 1)", got)
	}
}

func TestForkSharesMemory(t *testing.T) {
	c := New(1<<20, 16)
	s, _, _ := mustAcquire(t, c, toks(1, 2, 3))
	before := c.UsedTokens()
	f, err := c.Fork(s)
	if err != nil {
		t.Fatal(err)
	}
	if c.UsedTokens() != before {
		t.Errorf("fork changed usage: %d -> %d", before, c.UsedTokens())
	}
	if f.Len() != 3 {
		t.Errorf("fork Len = %d", f.Len())
	}
}

func TestEvictionFreesUnpinnedLRU(t *testing.T) {
	// Capacity for 10 tokens.
	c := New(10*16, 16)
	a, _, _ := mustAcquire(t, c, seqTokens(nil, 5, 1))
	c.Release(a)
	b, _, _ := mustAcquire(t, c, seqTokens(nil, 5, 2))
	_ = b
	// Third sequence forces eviction of the released first one.
	_, _, miss := mustAcquire(t, c, seqTokens(nil, 5, 3))
	if miss != 5 {
		t.Fatalf("miss = %d", miss)
	}
	if got := c.LongestCachedPrefix(runsOf(seqTokens(nil, 5, 1))); got != 0 {
		t.Errorf("evicted sequence still cached: prefix=%d", got)
	}
	if c.Stats().EvictedTokens != 5 {
		t.Errorf("EvictedTokens = %d, want 5", c.Stats().EvictedTokens)
	}
}

func TestPinnedNeverEvicted(t *testing.T) {
	c := New(10*16, 16)
	mustAcquire(t, c, seqTokens(nil, 6, 1)) // pinned, never released
	_, _, _, err := c.Acquire(seqTokens(nil, 6, 2))
	if err == nil {
		t.Fatal("expected failure: pinned entries should not be evicted")
	}
	if got := c.LongestCachedPrefix(runsOf(seqTokens(nil, 6, 1))); got != 6 {
		t.Errorf("pinned sequence evicted: prefix=%d", got)
	}
}

func TestSequenceLargerThanCapacity(t *testing.T) {
	c := New(4*16, 16)
	_, _, _, err := c.Acquire(seqTokens(nil, 5, 1))
	if err != ErrTooLarge {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	s, _, _ := mustAcquire(t, c, seqTokens(nil, 2, 1))
	if _, _, err := c.Extend(s, runsOf(seqTokens(nil, 3, 9))); err != ErrTooLarge {
		t.Fatalf("Extend err = %v, want ErrTooLarge", err)
	}
}

func TestLRUOrder(t *testing.T) {
	c := New(12*16, 16)
	a, _, _ := mustAcquire(t, c, seqTokens(nil, 4, 1))
	b, _, _ := mustAcquire(t, c, seqTokens(nil, 4, 2))
	c.Release(a)
	c.Release(b)
	// Touch a by re-acquiring and releasing: b becomes LRU.
	a2, hit, _ := mustAcquire(t, c, seqTokens(nil, 4, 1))
	if hit != 4 {
		t.Fatalf("re-acquire hit=%d", hit)
	}
	c.Release(a2)
	mustAcquire(t, c, seqTokens(nil, 8, 3)) // needs 8, evicts exactly one seq
	if got := c.LongestCachedPrefix(runsOf(seqTokens(nil, 4, 2))); got != 0 {
		t.Errorf("LRU (b) not evicted: prefix=%d", got)
	}
	if got := c.LongestCachedPrefix(runsOf(seqTokens(nil, 4, 1))); got != 4 {
		t.Errorf("MRU (a) evicted: prefix=%d", got)
	}
}

func TestReleaseIdempotent(t *testing.T) {
	c := New(1<<20, 16)
	s, _, _ := mustAcquire(t, c, toks(1, 2))
	c.Release(s)
	c.Release(s) // second release must not underflow refcounts
	if _, _, _, err := c.Acquire(toks(1, 2)); err != nil {
		t.Fatalf("cache corrupted after double release: %v", err)
	}
}

func TestExtendReleasedFails(t *testing.T) {
	c := New(1<<20, 16)
	s, _, _ := mustAcquire(t, c, toks(1))
	c.Release(s)
	if _, _, err := c.Extend(s, runsOf(toks(2))); err == nil {
		t.Error("Extend on released sequence should fail")
	}
	if _, err := c.Fork(s); err == nil {
		t.Error("Fork of released sequence should fail")
	}
}

func TestEvictAll(t *testing.T) {
	c := New(1<<20, 16)
	a, _, _ := mustAcquire(t, c, seqTokens(nil, 5, 1))
	mustAcquire(t, c, seqTokens(nil, 3, 2)) // stays pinned
	c.Release(a)
	dropped := c.EvictAll()
	if dropped != 5 {
		t.Errorf("EvictAll dropped %d, want 5", dropped)
	}
	if c.UsedTokens() != 3 {
		t.Errorf("UsedTokens = %d, want 3", c.UsedTokens())
	}
}

func TestResizeShrinkEvicts(t *testing.T) {
	c := New(1<<20, 16)
	a, _, _ := mustAcquire(t, c, seqTokens(nil, 10, 1))
	c.Release(a)
	if err := c.Resize(5 * 16); err != nil {
		t.Fatal(err)
	}
	if c.UsedTokens() > 5 {
		t.Errorf("UsedTokens = %d after shrink to 5", c.UsedTokens())
	}
	// Shrinking below pinned content fails.
	b, _, _ := mustAcquire(t, c, seqTokens(nil, 4, 2))
	_ = b
	if err := c.Resize(2 * 16); err == nil {
		t.Error("Resize below pinned size should fail")
	}
}

func TestNodeCount(t *testing.T) {
	c := New(1<<20, 16)
	if c.NodeCount() != 0 {
		t.Fatalf("empty NodeCount = %d", c.NodeCount())
	}
	s, _, _ := mustAcquire(t, c, toks(1, 2, 3))
	if c.NodeCount() != 1 {
		t.Errorf("one-seq NodeCount = %d, want 1", c.NodeCount())
	}
	f, _ := c.Fork(s)
	if _, _, err := c.Extend(s, runsOf(toks(4))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Extend(f, runsOf(toks(5))); err != nil {
		t.Fatal(err)
	}
	if c.NodeCount() != 3 {
		t.Errorf("branched NodeCount = %d, want 3", c.NodeCount())
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := New(1<<20, 16)
	mustAcquire(t, c, toks(1, 2, 3))
	mustAcquire(t, c, toks(1, 2, 3, 4))
	st := c.Stats()
	if st.HitTokens != 3 || st.MissTokens != 4 {
		t.Errorf("stats = %+v", st)
	}
}

// Property: for any interleaving of acquires/releases over a genealogy of
// sequences, invariants hold: used tokens never exceed capacity, acquired
// sequences are always fully resident, and hit+miss == len(seq).
func TestPropertyInvariants(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := New(200*16, 16)
		type live struct {
			seq *Seq
			tk  []Token
		}
		var lives []live
		genealogies := [][]Token{seqTokens(nil, 3, 1), seqTokens(nil, 3, 2)}
		for op := 0; op < 120; op++ {
			switch r.IntN(4) {
			case 0: // acquire an existing genealogy or an extension of one
				base := genealogies[r.IntN(len(genealogies))]
				tk := seqTokens(base, r.IntN(5), Token(r.IntN(40)+3))
				if len(tk) > 200 {
					continue
				}
				s, hit, miss, err := c.Acquire(tk)
				if errors.Is(err, ErrPinned) {
					continue // legitimate: live sequences hold all memory
				}
				if err != nil {
					return false
				}
				if hit+miss != len(tk) {
					return false
				}
				if c.LongestCachedPrefix(runsOf(tk)) != len(tk) {
					return false
				}
				lives = append(lives, live{s, tk})
				if len(genealogies) < 24 {
					genealogies = append(genealogies, tk)
				}
			case 1: // release
				if len(lives) == 0 {
					continue
				}
				i := r.IntN(len(lives))
				c.Release(lives[i].seq)
				lives = append(lives[:i], lives[i+1:]...)
			case 2: // extend a live seq
				if len(lives) == 0 {
					continue
				}
				i := r.IntN(len(lives))
				add := seqTokens(nil, r.IntN(4)+1, Token(r.IntN(1000)+50))
				if lives[i].seq.Len()+len(add) > 200 {
					continue
				}
				if _, _, err := c.Extend(lives[i].seq, runsOf(add)); err != nil {
					if errors.Is(err, ErrPinned) {
						continue
					}
					return false
				}
				lives[i].tk = append(lives[i].tk, add...)
			case 3: // fork a live seq
				if len(lives) == 0 {
					continue
				}
				i := r.IntN(len(lives))
				fk, err := c.Fork(lives[i].seq)
				if err != nil {
					return false
				}
				lives = append(lives, live{fk, append([]Token(nil), lives[i].tk...)})
			}
			if c.UsedTokens() > c.CapacityTokens() {
				return false
			}
			// Every live sequence must remain fully resident.
			for _, l := range lives {
				if c.LongestCachedPrefix(runsOf(l.tk)) != len(l.tk) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: total used tokens equals the number of unique tokens across
// all resident sequences (perfect prefix dedup).
func TestPropertyDedup(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		c := New(1<<30, 16)
		// Build a random genealogy tree of sequences.
		paths := [][]Token{seqTokens(nil, 4, 1)}
		if _, _, _, err := c.Acquire(paths[0]); err != nil {
			return false
		}
		for i := 0; i < 30; i++ {
			parent := paths[r.IntN(len(paths))]
			child := seqTokens(parent, r.IntN(6)+1, Token(i+10))
			if _, _, _, err := c.Acquire(child); err != nil {
				return false
			}
			paths = append(paths, child)
		}
		// Count unique tokens via a prefix set.
		unique := map[string]bool{}
		for _, p := range paths {
			for i := range p {
				key := ""
				for _, tk := range p[:i+1] {
					key += string(rune(tk)) + ","
				}
				unique[key] = true
			}
		}
		return c.UsedTokens() == int64(len(unique))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAcquireSharedPrefix(b *testing.B) {
	c := New(1<<30, 16)
	base := seqTokens(nil, 512, 1)
	c.Acquire(base)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tk := seqTokens(base, 8, Token(i%1000)+2)
		s, _, _, err := c.Acquire(tk)
		if err != nil {
			b.Fatal(err)
		}
		c.Release(s)
	}
}

// BenchmarkAcquireLongPrompt is the few-shot regime: a 4800-token prompt
// shared by 8 beams, each carrying its own 150-token step, re-acquired and
// released every iteration as the solver's execTrie does.
func BenchmarkAcquireLongPrompt(b *testing.B) {
	c := New(1<<30, 16)
	paths := make([][]Run, 8)
	for i := range paths {
		paths[i] = []Run{{First: 0, N: 4800}, {First: Token(i+1) << 12, N: 150}}
		if _, _, _, err := c.AcquireRuns(paths[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range paths {
			s, _, miss, err := c.AcquireRuns(p)
			if err != nil || miss != 0 {
				b.Fatalf("miss=%d err=%v", miss, err)
			}
			c.Release(s)
		}
	}
}

// The hot operations allocate only the handle they return: no per-call
// path copy, owner map or scratch slice.
func TestAllocsPerOperation(t *testing.T) {
	c := New(1<<30, 16)
	path := []Run{{First: 0, N: 4800}, {First: 1 << 12, N: 150}}
	held, _, _, err := c.AcquireRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	tokens := expand(path)
	c.Acquire(tokens) // sizes the adapter's reusable run buffer
	var own, own2 Seq // caller-owned handle storage
	branch := []Run{{First: 0, N: 4800}, {First: 9 << 12, N: 40}, {First: 7 << 12, N: 40}}
	half := []Run{{First: 0, N: 4800}, {First: 9 << 12, N: 20}}
	for _, tc := range []struct {
		name string
		want float64
		op   func()
	}{
		{"AcquireRuns of a resident path", 1, func() {
			s, _, _, _ := c.AcquireRuns(path)
			c.Release(s)
		}},
		{"Acquire of a resident path", 1, func() {
			s, _, _, _ := c.Acquire(tokens)
			c.Release(s)
		}},
		{"Fork", 1, func() {
			f, _ := c.Fork(held)
			c.Release(f)
		}},
		{"LongestCachedPrefix", 0, func() { c.LongestCachedPrefix(path) }},
		{"AcquireInto of a resident path", 0, func() {
			c.AcquireInto(&own, path)
			c.Release(&own)
		}},
		{"ForkInto", 0, func() {
			c.ForkInto(&own, held)
			c.Release(&own)
		}},
		// Steady state under eviction: the nodes of the evicted branch, with
		// their span and children storage, serve the next insert.
		{"AcquireInto, split, extend and evict", 0, func() {
			c.AcquireInto(&own, branch)
			c.Extend(&own, branch[:1])
			c.AcquireInto(&own2, half) // splits the branch node
			c.Release(&own)
			c.Release(&own2)
			c.EvictAll()
		}},
	} {
		if got := testing.AllocsPerRun(100, tc.op); got != tc.want {
			t.Errorf("%s: %v allocs, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBlockedAllocationRoundsUp(t *testing.T) {
	c := NewBlocked(1<<20, 16, 16)
	mustAcquire(t, c, seqTokens(nil, 5, 1)) // 5 tokens -> 1 block of 16
	if got := c.UsedTokens(); got != 16 {
		t.Errorf("UsedTokens = %d, want 16 (one block)", got)
	}
	mustAcquire(t, c, seqTokens(nil, 17, 2)) // 17 tokens -> 2 blocks
	if got := c.UsedTokens(); got != 16+32 {
		t.Errorf("UsedTokens = %d, want 48", got)
	}
}

func TestBlockedExtendInPlaceDelta(t *testing.T) {
	c := NewBlocked(1<<20, 16, 16)
	s, _, _ := mustAcquire(t, c, seqTokens(nil, 10, 1))
	if got := c.UsedTokens(); got != 16 {
		t.Fatalf("UsedTokens = %d", got)
	}
	// Extending 10 -> 14 stays within the first block.
	if _, _, err := c.Extend(s, runsOf(seqTokens(nil, 4, 9))); err != nil {
		t.Fatal(err)
	}
	if got := c.UsedTokens(); got != 16 {
		t.Errorf("UsedTokens = %d after in-block extend, want 16", got)
	}
	// Crossing the boundary allocates another block.
	if _, _, err := c.Extend(s, runsOf(seqTokens(nil, 4, 8))); err != nil {
		t.Fatal(err)
	}
	if got := c.UsedTokens(); got != 32 {
		t.Errorf("UsedTokens = %d after boundary cross, want 32", got)
	}
}

func TestBlockedSplitFragmentation(t *testing.T) {
	c := NewBlocked(1<<20, 16, 16)
	mustAcquire(t, c, seqTokens(nil, 16, 1)) // exactly 1 block
	before := c.UsedTokens()
	// Acquiring a strict 5-token prefix splits the node into 5 + 11,
	// occupying two blocks.
	mustAcquire(t, c, seqTokens(nil, 5, 1))
	if got := c.UsedTokens(); got != before+16 {
		t.Errorf("UsedTokens = %d after split, want %d", got, before+16)
	}
}

func TestBlockedCapacityPressure(t *testing.T) {
	// Capacity of 4 blocks; each tiny sequence wastes most of a block,
	// so only 4 fit despite the logical tokens being far fewer.
	c := NewBlocked(4*16*16, 16, 16)
	for i := 0; i < 4; i++ {
		s, _, _ := mustAcquire(t, c, seqTokens(nil, 2, Token(i+1)))
		_ = s
	}
	if _, _, _, err := c.Acquire(seqTokens(nil, 2, 99)); err == nil {
		t.Error("5th tiny sequence should not fit in 4 fragmented blocks")
	}
}

func TestBlockedVsExactFragmentation(t *testing.T) {
	// Property: for the same content, block-rounded usage >= exact usage,
	// within one block per node.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		exact := New(1<<30, 16)
		blocked := NewBlocked(1<<30, 16, 64)
		paths := [][]Token{seqTokens(nil, 4, 1)}
		for i := 0; i < 20; i++ {
			parent := paths[r.IntN(len(paths))]
			child := seqTokens(parent, r.IntN(80)+1, Token(i+10))
			if _, _, _, err := exact.Acquire(child); err != nil {
				return false
			}
			if _, _, _, err := blocked.Acquire(child); err != nil {
				return false
			}
			paths = append(paths, child)
		}
		if blocked.UsedTokens() < exact.UsedTokens() {
			return false
		}
		// Fragmentation bounded by one block per node.
		limit := exact.UsedTokens() + int64(blocked.NodeCount())*64
		return blocked.UsedTokens() <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// LongestCachedPrefix is a pure read: probing with a query that diverges
// mid-span must not split nodes or otherwise mutate the tree.
func TestLongestCachedPrefixDoesNotMutate(t *testing.T) {
	c := New(1<<20, 16)
	mustAcquire(t, c, toks(1, 2, 3, 4, 5, 6))
	nodes := c.NodeCount()
	used := c.UsedTokens()
	if got := c.LongestCachedPrefix(runsOf(toks(1, 2, 3))); got != 3 {
		t.Fatalf("prefix = %d", got)
	}
	if got := c.LongestCachedPrefix(runsOf(toks(1, 2, 9))); got != 2 {
		t.Fatalf("diverging prefix = %d", got)
	}
	if c.NodeCount() != nodes || c.UsedTokens() != used {
		t.Errorf("read-only lookup mutated the tree: nodes %d->%d used %d->%d",
			nodes, c.NodeCount(), used, c.UsedTokens())
	}
}

func TestFreeTokens(t *testing.T) {
	c := New(10*16, 16)
	if got := c.FreeTokens(); got != 10 {
		t.Fatalf("FreeTokens = %d", got)
	}
	mustAcquire(t, c, seqTokens(nil, 4, 1))
	if got := c.FreeTokens(); got != 6 {
		t.Errorf("FreeTokens = %d, want 6", got)
	}
}

func TestPinnedTokens(t *testing.T) {
	c := New(1<<20, 16)
	a, _, _ := mustAcquire(t, c, seqTokens(nil, 5, 1))
	mustAcquire(t, c, seqTokens(nil, 3, 2))
	if got := c.PinnedTokens(); got != 8 {
		t.Errorf("PinnedTokens = %d, want 8", got)
	}
	c.Release(a)
	if got := c.PinnedTokens(); got != 3 {
		t.Errorf("PinnedTokens after release = %d, want 3", got)
	}
}
