package kvcache

import (
	"errors"
	"testing"
	"testing/quick"

	"fasttts/internal/rng"
)

func TestDropEvictsUnsharedTail(t *testing.T) {
	c := New(1<<20, 16)
	s, _, _ := mustAcquire(t, c, toks(1, 2, 3))
	if _, _, err := c.Extend(s, runsOf(toks(4, 5))); err != nil {
		t.Fatal(err)
	}
	c.Drop(s)
	if got := c.UsedTokens(); got != 0 {
		t.Errorf("UsedTokens = %d after Drop of sole sequence, want 0", got)
	}
	if got := c.LongestCachedPrefix(runsOf(toks(1, 2, 3, 4, 5))); got != 0 {
		t.Errorf("dropped sequence still resident: prefix=%d", got)
	}
}

func TestDropKeepsSharedAncestors(t *testing.T) {
	c := New(1<<20, 16)
	prompt, _, _ := mustAcquire(t, c, toks(1, 2, 3))
	decode, err := c.Fork(prompt)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Extend(decode, runsOf(toks(8, 9))); err != nil {
		t.Fatal(err)
	}
	c.Drop(decode)
	// The decode suffix is gone, the prompt path (still pinned) is intact.
	if got := c.LongestCachedPrefix(runsOf(toks(1, 2, 3, 8, 9))); got != 3 {
		t.Errorf("prefix after Drop = %d, want 3 (suffix evicted)", got)
	}
	if got := c.UsedTokens(); got != 3 {
		t.Errorf("UsedTokens = %d, want 3", got)
	}
	// Dropping again is a no-op, and the prompt handle still works.
	c.Drop(decode)
	if _, _, err := c.Extend(prompt, runsOf(toks(4))); err != nil {
		t.Fatal(err)
	}
}

func TestDropKeepsBranchedChildren(t *testing.T) {
	c := New(1<<20, 16)
	s, _, _ := mustAcquire(t, c, toks(1, 2))
	other, _, _ := mustAcquire(t, c, toks(1, 2, 7))
	c.Release(other)
	// s's leaf path (1,2) has a child (7): Drop must stop at the branch.
	c.Drop(s)
	if got := c.LongestCachedPrefix(runsOf(toks(1, 2, 7))); got != 3 {
		t.Errorf("sibling branch evicted by Drop: prefix=%d", got)
	}
}

// Property sweep (satellite): under randomized acquire / extend / fork /
// release / drop / evict-pressure sequences at token-granular allocation,
//
//  1. conservation — every token ever inserted is either still resident
//     or was counted evicted: UsedTokens == MissTokens - EvictedTokens;
//  2. pinning safety — live (unreleased) sequences stay fully resident,
//     so neither eviction pressure, EvictAll, nor Drop of other handles
//     ever touches a pinned path;
//  3. ref-count safety — once every handle is released, EvictAll drains
//     the cache to exactly zero used tokens (no leaked pins, no
//     double-free under Drop/Release interleavings).
func TestPropertyConservationAndPinning(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		// Small capacity so eviction pressure is constant.
		c := New(64*16, 16)
		type live struct {
			seq *Seq
			tk  []Token
		}
		var lives []live
		check := func() bool {
			if c.UsedTokens() != c.stats.MissTokens-c.stats.EvictedTokens {
				return false
			}
			if c.UsedTokens() > c.CapacityTokens() || c.UsedTokens() < 0 {
				return false
			}
			for _, l := range lives {
				if c.LongestCachedPrefix(runsOf(l.tk)) != len(l.tk) {
					return false
				}
			}
			return true
		}
		for op := 0; op < 150; op++ {
			switch r.IntN(6) {
			case 0: // acquire
				tk := seqTokens(nil, r.IntN(20)+1, Token(r.IntN(8)+1))
				s, hit, miss, err := c.Acquire(tk)
				if errors.Is(err, ErrPinned) {
					continue
				}
				if err != nil {
					return false
				}
				if hit+miss != len(tk) {
					return false
				}
				lives = append(lives, live{s, tk})
			case 1: // extend
				if len(lives) == 0 {
					continue
				}
				i := r.IntN(len(lives))
				add := seqTokens(nil, r.IntN(6)+1, Token(r.IntN(500)+100))
				if lives[i].seq.length+len(add) > 60 {
					continue
				}
				if _, _, err := c.Extend(lives[i].seq, runsOf(add)); err != nil {
					if errors.Is(err, ErrPinned) || errors.Is(err, ErrTooLarge) {
						continue
					}
					return false
				}
				lives[i].tk = append(lives[i].tk, add...)
			case 2: // fork
				if len(lives) == 0 || len(lives) > 16 {
					continue
				}
				i := r.IntN(len(lives))
				fk, err := c.Fork(lives[i].seq)
				if err != nil {
					return false
				}
				lives = append(lives, live{fk, append([]Token(nil), lives[i].tk...)})
			case 3: // release (leaves content resident but evictable)
				if len(lives) == 0 {
					continue
				}
				i := r.IntN(len(lives))
				c.Release(lives[i].seq)
				lives = append(lives[:i], lives[i+1:]...)
			case 4: // drop (release + evict the unshared tail)
				if len(lives) == 0 {
					continue
				}
				i := r.IntN(len(lives))
				c.Drop(lives[i].seq)
				lives = append(lives[:i], lives[i+1:]...)
			case 5: // external eviction pressure
				c.EvictAll()
			}
			if !check() {
				return false
			}
		}
		for _, l := range lives {
			c.Release(l.seq)
		}
		lives = nil
		c.EvictAll()
		return check() && c.UsedTokens() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
