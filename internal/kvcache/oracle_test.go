package kvcache

import (
	"container/heap"
	"errors"
	"flag"
	"fmt"
	"testing"
	"time"

	"fasttts/internal/rng"
)

// The differential oracle: the token-by-token radix tree this package
// used before paths became run-length (one map probe and one comparison
// per token, spans stored as []Token), kept verbatim — minus the
// accessors no test reads — as a test-only reference.
// TestDifferentialOracle drives it and Cache with the same random
// operation sequences and demands equal observable state after every
// operation. Reproduce a failure with
//
//	go test ./internal/kvcache -run DifferentialOracle -quick.seed=<n> [-quick.maxitems=<ops>]
var (
	quickSeed     = flag.Int("quick.seed", int(time.Now().UnixNano())%100000, "seed for the differential oracle test")
	quickMaxItems = flag.Int("quick.maxitems", 400, "operations per differential case")
)

// expand is the token-by-token form of runs.
func expand(runs []Run) []Token {
	var out []Token
	for _, r := range runs {
		for j := 0; j < r.N; j++ {
			out = append(out, r.First+Token(j))
		}
	}
	return out
}

// errKind folds an error to what callers can distinguish.
func errKind(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, ErrTooLarge):
		return "too-large"
	case errors.Is(err, ErrPinned):
		return "pinned"
	}
	return "other"
}

// diffPair is one cache under test beside its oracle, with the live
// handles of both kept index-aligned.
type diffPair struct {
	c     *Cache
	o     *oracle
	block int
	seqs  []*Seq
	oseqs []*oseq
	paths [][]Run // path of each live handle
	pool  [][]Run // every path ever used, to draw shared prefixes from
	spare []*Seq  // released handles, refilled through AcquireInto/ForkInto
}

// handle returns storage for a caller-owned handle: a released one when
// there is any, so reuse of handle storage is exercised, else a zero Seq.
func (d *diffPair) handle() *Seq {
	if k := len(d.spare) - 1; k >= 0 {
		s := d.spare[k]
		d.spare = d.spare[:k]
		return s
	}
	return new(Seq)
}

// state is everything the issue's equality covers.
func (d *diffPair) state() (got, want string) {
	f := func(capTok, used int64, st Stats, nodes int, pinned int64) string {
		return fmt.Sprintf("cap=%d used=%d stats=%+v nodes=%d pinned=%d", capTok, used, st, nodes, pinned)
	}
	return f(d.c.CapacityTokens(), d.c.UsedTokens(), d.c.Stats(), d.c.NodeCount(), d.c.PinnedTokens()),
		f(d.o.CapacityTokens(), d.o.UsedTokens(), d.o.Stats(), d.o.NodeCount(), d.o.PinnedTokens())
}

// streamIDs are the stream ids randPath draws bases from beside its low
// values: small ids, the ids where a 16-bit packing into 32-bit tokens hit
// its tag bit (2^15) or wrapped (2^16), an id's top bit and the largest id.
var streamIDs = []uint32{0, 1, 7, 1 << 15, 1 << 16, 1 << 31, 1<<32 - 1}

// randPath draws a path of 1–6 runs over a small set of value streams (low
// values, or Stream(id) bases as production makes them), usually grown from
// a prefix of an earlier path cut at an arbitrary token (mid-run
// truncation); the tail then either diverges onto other streams (mid-run
// divergence) or continues the cut run's own values as separate runs, so
// equal paths arrive cut into runs differently.
func (d *diffPair) randPath(r *rng.Stream) []Run {
	var path []Run
	if len(d.pool) > 0 && r.IntN(5) > 0 {
		src := d.pool[r.IntN(len(d.pool))]
		keep := r.IntN(Len(src) + 1)
		for _, run := range src {
			if keep <= 0 {
				break
			}
			run.N = min(run.N, keep)
			keep -= run.N
			path = append(path, run)
		}
	}
	for n := r.IntN(4); n > 0 || len(path) == 0; n-- {
		run := Run{First: Token(r.IntN(6)<<10 | r.IntN(3)*40), N: r.IntN(60) + 1}
		if r.IntN(2) == 0 {
			run.First = Stream(streamIDs[r.IntN(len(streamIDs))]) + Token(r.IntN(3)*40)
		}
		if k := len(path); k > 0 && r.IntN(3) == 0 {
			run.First = path[k-1].First + Token(path[k-1].N) // contiguous, yet its own run
		}
		if r.IntN(8) == 0 {
			path = append(path, Run{First: run.First, N: 0}) // empty runs are legal and inert
		}
		path = append(path, run)
		if len(path) >= 6 {
			break
		}
	}
	d.pool = append(d.pool, path)
	if len(d.pool) > 32 {
		d.pool = d.pool[1:]
	}
	return path
}

func (d *diffPair) drop(i int) {
	d.spare = append(d.spare, d.seqs[i])
	last := len(d.seqs) - 1
	d.seqs[i], d.oseqs[i], d.paths[i] = d.seqs[last], d.oseqs[last], d.paths[last]
	d.seqs, d.oseqs, d.paths = d.seqs[:last], d.oseqs[:last], d.paths[:last]
}

// step applies one random operation to both trees and returns a
// description plus the two results to compare.
func (d *diffPair) step(r *rng.Stream) (op, got, want string) {
	res := func(hit, miss int, err error) string {
		return fmt.Sprintf("hit=%d miss=%d err=%s", hit, miss, errKind(err))
	}
	pick := func() int { return r.IntN(len(d.seqs)) }
	if r.IntN(80) == 0 {
		// A reset cache must be indistinguishable from a new one: the
		// oracle is simply rebuilt. Every handle dies with the reset.
		bytes := int64(r.IntN(400)+60) * 16
		d.c.Reset(bytes)
		d.o = newOracleBlocked(bytes, 16, d.block)
		d.seqs, d.oseqs, d.paths, d.spare = nil, nil, nil, nil
		return fmt.Sprintf("reset %d", bytes), "", ""
	}
	switch k := r.IntN(16); {
	case k < 4 || len(d.seqs) == 0:
		p := d.randPath(r)
		os, ohit, omiss, oerr := d.o.Acquire(expand(p))
		s, hit, miss, err := d.c.AcquireRuns(p)
		switch r.IntN(4) {
		case 0: // the token-slice adapter must agree too
			if err == nil {
				d.c.Release(s)
				d.o.Release(os)
			}
			os, ohit, omiss, oerr = d.o.Acquire(expand(p))
			s, hit, miss, err = d.c.Acquire(expand(p))
		case 1: // and so must a caller-owned handle
			if err == nil {
				d.c.Release(s)
				d.o.Release(os)
			}
			os, ohit, omiss, oerr = d.o.Acquire(expand(p))
			s = d.handle()
			hit, miss, err = d.c.AcquireInto(s, p)
		}
		if err == nil && oerr == nil {
			d.seqs, d.oseqs, d.paths = append(d.seqs, s), append(d.oseqs, os), append(d.paths, p)
		}
		return fmt.Sprintf("acquire %v", p), res(hit, miss, err), res(ohit, omiss, oerr)
	case k < 7:
		i := pick()
		p := d.randPath(r)
		// Mostly extend by the tail of a path that shares this handle's
		// prefix, so Extend's walk finds cached continuations to hit.
		if full := d.paths[i]; r.IntN(2) == 0 {
			p = p[:1+r.IntN(len(p))]
		} else if src := d.pool[r.IntN(len(d.pool))]; Len(src) > Len(full) {
			q := newCursor(src)
			q.match(full)
			if rest := q.rest(nil); len(rest) > 0 {
				p = rest
			}
		}
		hit, miss, err := d.c.Extend(d.seqs[i], p)
		ohit, omiss, oerr := d.o.Extend(d.oseqs[i], expand(p))
		if err == nil && oerr == nil {
			d.paths[i] = append(append([]Run(nil), d.paths[i]...), p...)
			d.pool = append(d.pool, d.paths[i])
		}
		return fmt.Sprintf("extend #%d by %v", i, p), res(hit, miss, err), res(ohit, omiss, oerr)
	case k < 9:
		i := pick()
		var s *Seq
		var err error
		if r.IntN(2) == 0 {
			s, err = d.c.Fork(d.seqs[i])
		} else {
			s = d.handle()
			err = d.c.ForkInto(s, d.seqs[i])
		}
		os, oerr := d.o.Fork(d.oseqs[i])
		if err == nil && oerr == nil {
			d.seqs, d.oseqs, d.paths = append(d.seqs, s), append(d.oseqs, os), append(d.paths, d.paths[i])
		}
		return fmt.Sprintf("fork #%d", i), errKind(err), errKind(oerr)
	case k < 11:
		i := pick()
		d.c.Release(d.seqs[i])
		d.o.Release(d.oseqs[i])
		d.drop(i)
		return fmt.Sprintf("release #%d", i), "", ""
	case k < 13:
		i := pick()
		d.c.Drop(d.seqs[i])
		d.o.Drop(d.oseqs[i])
		d.drop(i)
		return fmt.Sprintf("drop #%d", i), "", ""
	case k < 14:
		bytes := int64(r.IntN(500)+20) * 16
		return fmt.Sprintf("resize %d", bytes), errKind(d.c.Resize(bytes)), errKind(d.o.Resize(bytes))
	case k < 15:
		return "evict-all", fmt.Sprint(d.c.EvictAll()), fmt.Sprint(d.o.EvictAll())
	default:
		p := d.randPath(r)
		return fmt.Sprintf("longest-prefix %v", p),
			fmt.Sprint(d.c.LongestCachedPrefix(p)), fmt.Sprint(d.o.LongestCachedPrefix(expand(p)))
	}
}

func TestDifferentialOracle(t *testing.T) {
	t.Logf("quick.seed=%d quick.maxitems=%d", *quickSeed, *quickMaxItems)
	root := rng.New(uint64(*quickSeed))
	for cse := 0; cse < 60; cse++ {
		r := root.ChildN("case", cse)
		block := []int{1, 1, 4, 16}[cse%4] // exact and blocked allocation
		capacity := int64(r.IntN(400)+60) * 16
		d := &diffPair{
			c:     NewBlocked(capacity, 16, block),
			o:     newOracleBlocked(capacity, 16, block),
			block: block,
		}
		for i := 0; i < *quickMaxItems; i++ {
			op, got, want := d.step(r)
			if got != want {
				t.Fatalf("case %d (block %d) op %d %s: got %s, oracle %s", cse, block, i, op, got, want)
			}
			if got, want := d.state(); got != want {
				t.Fatalf("case %d (block %d) after op %d %s:\n got    %s\n oracle %s", cse, block, i, op, got, want)
			}
			for j, s := range d.seqs {
				if s.length != d.oseqs[j].Len() {
					t.Fatalf("case %d after op %d %s: handle %d spans %d tokens, oracle %d", cse, i, op, j, s.length, d.oseqs[j].Len())
				}
			}
		}
	}
}

// TestEvictHeapMatchesContainerHeap drives the typed eviction heap and
// container/heap (through the oracle's heap type) with the same random
// push / remove / pop sequences over lastUsed values drawn from a handful,
// so most comparisons tie, and demands the same array after every
// operation. TestDifferentialOracle cannot reach a tie: the nodes sharing a
// lastUsed value always lie on one root-to-leaf path — an operation stamps
// one path, and a split suffix inherits the stamp as a child of its prefix
// — so at most one of them is an evictable leaf at a time. The heap is held
// to container/heap's sift order directly instead.
func TestEvictHeapMatchesContainerHeap(t *testing.T) {
	t.Logf("quick.seed=%d", *quickSeed)
	r := rng.New(uint64(*quickSeed)).Child("evict-heap")
	for cse := 0; cse < 200; cse++ {
		var h evictHeap
		var oh oracleHeap
		id := map[*node]int{}
		oid := map[*onode]int{}
		for op := 0; op < 200; op++ {
			switch k := r.IntN(5); {
			case k < 3 || len(h) == 0:
				used := uint64(r.IntN(4))
				n, o := &node{lastUsed: used, heapIdx: -1}, &onode{lastUsed: used, heapIdx: -1}
				id[n], oid[o] = op, op
				h.push(n)
				heap.Push(&oh, o)
			case k < 4:
				i := r.IntN(len(h))
				if a, b := id[h.remove(i)], oid[heap.Remove(&oh, i).(*onode)]; a != b {
					t.Fatalf("case %d op %d: remove(%d) took #%d, container/heap #%d", cse, op, i, a, b)
				}
			default:
				if a, b := id[h.remove(0)], oid[heap.Pop(&oh).(*onode)]; a != b {
					t.Fatalf("case %d op %d: pop took #%d, container/heap #%d", cse, op, a, b)
				}
			}
			if len(h) != len(oh) {
				t.Fatalf("case %d op %d: %d nodes, container/heap %d", cse, op, len(h), len(oh))
			}
			for i := range h {
				if id[h[i]] != oid[oh[i]] || h[i].heapIdx != i {
					t.Fatalf("case %d op %d: slot %d holds #%d (index %d), container/heap #%d", cse, op, i, id[h[i]], h[i].heapIdx, oid[oh[i]])
				}
			}
		}
	}
}

// --- the reference implementation (the pre-run-length kvcache.go) ---

type onode struct {
	parent   *onode
	children map[Token]*onode
	tokens   []Token
	refs     int // live sequences whose pinned path passes through here
	owners   map[*oseq]struct{}
	lastUsed uint64 // LRU clock value
	heapIdx  int    // index in the eviction heap, -1 if absent
}

func (n *onode) evictable() bool {
	return n.refs == 0 && len(n.children) == 0 && n.parent != nil
}

// oseq is a handle to an acquired sequence. While held, the sequence's
// entire path is pinned in cache. Release the handle to make it evictable.
type oseq struct {
	leaf     *onode
	length   int // tokens along the path
	released bool
}

// Len returns the number of tokens the sequence currently spans.
func (s *oseq) Len() int { return s.length }

// Cache is a prefix-sharing KV cache with a fixed byte capacity.
//
// Storage is allocated in blocks of blockTokens tokens (1 = exact
// token-granular allocation): every tree onode occupies
// ceil(len/blockTokens)·blockTokens token slots, modeling the paged
// allocator's internal fragmentation. Larger blocks reduce allocator
// metadata in a real system but waste capacity at onode boundaries —
// the trade-off the block-size ablation measures.
type oracle struct {
	bytesPerToken int64
	capacity      int64
	blockTokens   int
	root          *onode
	usedTokens    int64 // allocated token slots (block-rounded)
	clock         uint64
	oracleHeap    oracleHeap
	stats         Stats
}

// newOracleBlocked returns a reference cache whose storage is allocated
// in blocks of blockTokens tokens.
func newOracleBlocked(capacityBytes, bytesPerToken int64, blockTokens int) *oracle {
	if bytesPerToken <= 0 {
		panic("kvcache: bytesPerToken must be positive")
	}
	if blockTokens < 1 {
		panic("kvcache: blockTokens must be >= 1")
	}
	return &oracle{
		bytesPerToken: bytesPerToken,
		capacity:      capacityBytes,
		blockTokens:   blockTokens,
		root:          &onode{children: map[Token]*onode{}, heapIdx: -1},
	}
}

// blockCost returns the allocated token slots for n logical tokens.
func (c *oracle) blockCost(n int) int64 {
	b := int64(c.blockTokens)
	return (int64(n) + b - 1) / b * b
}

// CapacityTokens returns the maximum number of tokens the cache can hold.
func (c *oracle) CapacityTokens() int64 { return c.capacity / c.bytesPerToken }

// UsedTokens returns the tokens currently resident.
func (c *oracle) UsedTokens() int64 { return c.usedTokens }

// PinnedTokens returns the tokens pinned by live sequences.
func (c *oracle) PinnedTokens() int64 {
	var pinned int64
	var walk func(*onode)
	walk = func(n *onode) {
		if n.refs > 0 && n.parent != nil {
			pinned += int64(len(n.tokens))
		}
		for _, ch := range n.children {
			walk(ch)
		}
	}
	walk(c.root)
	return pinned
}

// Stats returns a snapshot of the activity counters.
func (c *oracle) Stats() Stats { return c.stats }

// NodeCount returns the number of radix-tree nodes (excluding the root).
// This is the "Nodes(T)" quantity in the paper's eviction cost model §4.2.
func (c *oracle) NodeCount() int {
	count := -1 // exclude root
	var walk func(*onode)
	walk = func(n *onode) {
		count++
		for _, ch := range n.children {
			walk(ch)
		}
	}
	walk(c.root)
	return count
}

// Fits reports whether a sequence of n tokens could ever reside fully in
// the cache.
func (c *oracle) Fits(n int) bool { return int64(n) <= c.CapacityTokens() }

// walk descends from start matching tokens, splitting a onode if the match
// ends mid-span, and returns the deepest fully matched onode together with
// the number of matched tokens. It never allocates capacity.
func (c *oracle) walk(start *onode, tokens []Token) (*onode, int) {
	n := start
	matched := 0
	for matched < len(tokens) {
		child, ok := n.children[tokens[matched]]
		if !ok {
			break
		}
		span := child.tokens
		k := 0
		for k < len(span) && matched+k < len(tokens) && span[k] == tokens[matched+k] {
			k++
		}
		if k < len(span) {
			// Query exhausted mid-span or diverged: split so the matched
			// part becomes its own onode boundary.
			c.split(child, k)
		}
		n = child
		matched += k
		if k < len(span) {
			break
		}
	}
	return n, matched
}

// Acquire pins the given token sequence in the cache, inserting any suffix
// not already present and evicting unreferenced entries if needed. It
// returns the handle plus the number of tokens that were already cached
// (hit) and newly inserted (miss — these must be recomputed/prefilled by
// the engine). Acquire fails with ErrTooLarge if the sequence alone
// exceeds capacity, or ErrPinned if live sequences occupy all memory.
func (c *oracle) Acquire(tokens []Token) (seq *oseq, hit, miss int, err error) {
	if !c.Fits(len(tokens)) {
		return nil, 0, 0, ErrTooLarge
	}
	c.clock++
	n, matched := c.walk(c.root, tokens)
	hit = matched
	miss = len(tokens) - matched
	// Pin the matched path before evicting so eviction cannot free it.
	c.pinSegment(n, nil)
	if miss > 0 {
		if err := c.ensure(c.blockCost(miss)); err != nil {
			c.unpinSegment(n, nil)
			return nil, 0, 0, err
		}
		n = c.attachChild(n, tokens[matched:])
	}
	s := &oseq{leaf: n, length: len(tokens)}
	c.addOwner(n, s)
	c.stats.HitTokens += int64(hit)
	c.stats.MissTokens += int64(miss)
	return s, hit, miss, nil
}

// Extend appends tokens to an acquired sequence. Tokens already cached
// below the sequence's current leaf (another beam may have decoded the
// same continuation) count as hits; the remainder is inserted.
func (c *oracle) Extend(s *oseq, tokens []Token) (hit, miss int, err error) {
	if s.released {
		return 0, 0, errors.New("kvcache: extend on released sequence")
	}
	if len(tokens) == 0 {
		return 0, 0, nil
	}
	if !c.Fits(s.length + len(tokens)) {
		return 0, 0, ErrTooLarge
	}
	c.clock++
	start := s.leaf
	// Fast path: sole owner of a childless leaf extends in place.
	if start.refs == 1 && len(start.children) == 0 && start.parent != nil {
		delta := c.blockCost(len(start.tokens)+len(tokens)) - c.blockCost(len(start.tokens))
		if err := c.ensure(delta); err != nil {
			return 0, 0, err
		}
		start.tokens = append(start.tokens, tokens...)
		start.lastUsed = c.clock
		c.usedTokens += delta
		c.stats.MissTokens += int64(len(tokens))
		s.length += len(tokens)
		return 0, len(tokens), nil
	}
	n, matched := c.walk(start, tokens)
	hit = matched
	miss = len(tokens) - matched
	c.pinSegment(n, start)
	if miss > 0 {
		if err := c.ensure(c.blockCost(miss)); err != nil {
			c.unpinSegment(n, start)
			return 0, 0, err
		}
		n = c.attachChild(n, tokens[matched:])
	}
	c.removeOwner(start, s)
	s.leaf = n
	s.length += len(tokens)
	c.addOwner(n, s)
	c.stats.HitTokens += int64(hit)
	c.stats.MissTokens += int64(miss)
	return hit, miss, nil
}

// Fork returns a second pinned handle to the same sequence path. Beam
// branching uses this: the duplicate shares every cached token with the
// original at zero memory cost.
func (c *oracle) Fork(s *oseq) (*oseq, error) {
	if s.released {
		return nil, errors.New("kvcache: fork of released sequence")
	}
	c.clock++
	c.pinSegment(s.leaf, nil)
	f := &oseq{leaf: s.leaf, length: s.length}
	c.addOwner(s.leaf, f)
	return f, nil
}

// Release unpins a sequence. Its nodes stay cached until evicted.
func (c *oracle) Release(s *oseq) {
	if s.released {
		return
	}
	s.released = true
	c.removeOwner(s.leaf, s)
	c.unpinSegment(s.leaf, nil)
}

// Drop releases a sequence and immediately evicts the now-unreferenced
// tail of its path — the nodes no other sequence pins and no child
// extends. Unlike Release (which leaves the path resident for future
// prefix hits), Drop is for state known to be garbage, e.g. per-beam
// decode suffixes after a request completes: keeping them would only
// displace reusable prompt prefixes. Shared ancestors (pinned by other
// sequences or carrying other children) stay cached.
func (c *oracle) Drop(s *oseq) {
	if s.released {
		return
	}
	leaf := s.leaf
	c.Release(s)
	for n := leaf; n != nil && n.evictable(); {
		parent := n.parent
		c.unqueue(n)
		c.evict(n)
		n = parent
	}
}

// LongestCachedPrefix returns how many leading tokens of the given
// sequence are currently resident (pinned or not). It never mutates the
// tree.
func (c *oracle) LongestCachedPrefix(tokens []Token) int {
	n := c.root
	matched := 0
	for matched < len(tokens) {
		child, ok := n.children[tokens[matched]]
		if !ok {
			return matched
		}
		span := child.tokens
		k := 0
		for k < len(span) && matched+k < len(tokens) && span[k] == tokens[matched+k] {
			k++
		}
		matched += k
		if k < len(span) {
			return matched
		}
		n = child
	}
	return matched
}

// EvictAll drops every unreferenced onode (used when a model's cache is
// offloaded to host memory, §4.3.2). It returns the number of tokens
// dropped.
func (c *oracle) EvictAll() int64 {
	var dropped int64
	for {
		leaf := c.popEvictable()
		if leaf == nil {
			return dropped
		}
		dropped += int64(len(leaf.tokens))
		c.evict(leaf)
	}
}

// Resize changes the capacity. Shrinking evicts unreferenced entries as
// needed and fails if pinned sequences exceed the new capacity.
func (c *oracle) Resize(capacityBytes int64) error {
	old := c.capacity
	c.capacity = capacityBytes
	if err := c.ensure(0); err != nil {
		c.capacity = old
		return err
	}
	return nil
}

// --- internals ---

// attachChild creates a pinned (refs=1) child of n holding tokens.
func (c *oracle) attachChild(n *onode, tokens []Token) *onode {
	child := &onode{
		parent:   n,
		children: map[Token]*onode{},
		tokens:   append([]Token(nil), tokens...),
		refs:     1,
		lastUsed: c.clock,
		heapIdx:  -1,
	}
	n.children[tokens[0]] = child
	c.unqueue(n) // n gained a child; no longer an evictable leaf
	c.usedTokens += c.blockCost(len(tokens))
	return child
}

// pinSegment increments refs from n up to (but excluding) stop. A nil
// stop pins through the root.
func (c *oracle) pinSegment(n, stop *onode) {
	for p := n; p != nil && p != stop; p = p.parent {
		p.refs++
		p.lastUsed = c.clock
		c.unqueue(p)
	}
}

// unpinSegment decrements refs from n up to (but excluding) stop.
func (c *oracle) unpinSegment(n, stop *onode) {
	for p := n; p != nil && p != stop; p = p.parent {
		p.refs--
		if p.evictable() {
			c.enqueue(p)
		}
	}
}

func (c *oracle) addOwner(n *onode, s *oseq) {
	if n.owners == nil {
		n.owners = map[*oseq]struct{}{}
	}
	n.owners[s] = struct{}{}
}

func (c *oracle) removeOwner(n *onode, s *oseq) {
	delete(n.owners, s)
}

// split divides n's token span at k: n keeps tokens[:k] and a new child
// inherits tokens[k:], n's children, refs, and — crucially — n's owner
// handles. Every live sequence whose path covered n's full span must now
// terminate at (or pass through) the suffix onode. No live path can end
// strictly inside a span: onode boundaries are created at every historical
// acquire point and nodes are never merged.
func (c *oracle) split(n *onode, k int) {
	if k <= 0 || k >= len(n.tokens) {
		return
	}
	suffix := &onode{
		parent:   n,
		children: n.children,
		tokens:   append([]Token(nil), n.tokens[k:]...),
		refs:     n.refs,
		owners:   n.owners,
		lastUsed: n.lastUsed,
		heapIdx:  -1,
	}
	for _, ch := range suffix.children {
		ch.parent = suffix
	}
	for s := range suffix.owners {
		s.leaf = suffix
	}
	whole := c.blockCost(len(n.tokens))
	n.tokens = append([]Token(nil), n.tokens[:k]...)
	n.children = map[Token]*onode{suffix.tokens[0]: suffix}
	n.owners = nil
	// Block rounding: two nodes may occupy more slots than one did.
	c.usedTokens += c.blockCost(k) + c.blockCost(len(suffix.tokens)) - whole
	c.unqueue(n) // n now has a child; cannot be an evictable leaf
	if suffix.evictable() {
		c.enqueue(suffix)
	}
}

// ensure evicts unreferenced LRU leaves until needTokens more tokens fit.
func (c *oracle) ensure(needTokens int64) error {
	capTok := c.CapacityTokens()
	for c.usedTokens+needTokens > capTok {
		leaf := c.popEvictable()
		if leaf == nil {
			return fmt.Errorf("%w: need %d tokens, used %d of %d",
				ErrPinned, needTokens, c.usedTokens, capTok)
		}
		c.evict(leaf)
	}
	return nil
}

// evict removes a single evictable leaf from the tree.
func (c *oracle) evict(n *onode) {
	parent := n.parent
	delete(parent.children, n.tokens[0])
	c.usedTokens -= c.blockCost(len(n.tokens))
	c.stats.EvictedTokens += int64(len(n.tokens))
	n.parent = nil
	if parent.evictable() {
		c.enqueue(parent)
	}
}

// --- eviction heap (min-heap by lastUsed, lazy removal) ---

type oracleHeap []*onode

func (h oracleHeap) Len() int           { return len(h) }
func (h oracleHeap) Less(i, j int) bool { return h[i].lastUsed < h[j].lastUsed }
func (h oracleHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *oracleHeap) Push(x any)        { n := x.(*onode); n.heapIdx = len(*h); *h = append(*h, n) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := old[len(old)-1]
	old[len(old)-1] = nil
	n.heapIdx = -1
	*h = old[:len(old)-1]
	return n
}

func (c *oracle) enqueue(n *onode) {
	if n.heapIdx >= 0 || !n.evictable() {
		return
	}
	heap.Push(&c.oracleHeap, n)
}

func (c *oracle) unqueue(n *onode) {
	if n.heapIdx < 0 {
		return
	}
	heap.Remove(&c.oracleHeap, n.heapIdx)
}

func (c *oracle) popEvictable() *onode {
	for c.oracleHeap.Len() > 0 {
		n := heap.Pop(&c.oracleHeap).(*onode)
		if n.evictable() && n.parent != nil {
			return n
		}
	}
	return nil
}
