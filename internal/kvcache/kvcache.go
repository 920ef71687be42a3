// Package kvcache implements a paged KV cache with a radix-tree prefix
// index, reference counting, and LRU eviction — the memory substrate the
// paper's serving engines run on (paper §2.3, §3.2.2, Fig 8).
//
// Sequences that share a token prefix (beams spawned from the same parent)
// share the corresponding tree nodes physically, so the capacity cost of a
// reasoning tree is the number of *unique* tokens, not the sum of path
// lengths. Eviction removes least-recently-used unreferenced subtrees;
// a sequence whose cached prefix was evicted must be recomputed (re-
// prefilled), which is exactly the cost Dynamic Prefix-Aware Scheduling
// minimizes.
//
// Token identity layout. The simulator never invents arbitrary token
// values: every producer (a reasoning-tree node in internal/core, a prompt
// or decode stream in internal/memplane) numbers its tokens consecutively
// from a base, so a path is a handful of arithmetic runs. Paths therefore
// enter and live in the tree in run-length form ([]Run), and matching,
// splitting and extending are done in token counts over runs: an Acquire
// costs O(runs on the path), not O(tokens), while node boundaries — and
// with them every hit, miss and eviction number — are exactly those of a
// token-by-token radix tree (oracle_test.go holds one and checks).
//
// Storage and lifetimes. A node keeps its children in a slice of (first
// span token, child) pairs sorted by that token and binary-searched —
// siblings never share a first token; fan-out is the search's branching
// factor nearly everywhere (one child fits inline) and the number of
// resident prompts under the root; and a slice keeps its backing array when
// the node is recycled, which a map cannot. Nothing depends on the order
// beyond the search: children are otherwise only summed over and
// re-parented wholesale. Nodes a cache evicts or sheds on Reset go onto its
// free list with their span and children storage and are handed out again by
// the next insert, so a cache in steady state allocates nothing. A Seq
// handle's storage belongs to the caller: AcquireRuns and Fork allocate one,
// AcquireInto and ForkInto fill one the caller supplies (a released or zero
// Seq) and allocate nothing. A handle is valid from a successful acquire
// until Release/Drop, or until the cache's Reset, which invalidates every
// handle — live or released — at once.
package kvcache

import (
	"errors"
	"fmt"
	"slices"
)

// Token is a synthetic token identifier. The simulator derives token
// values deterministically from beam genealogy, so equal prefixes imply
// equal token sequences.
type Token uint32

// Run is N consecutive token values First, First+1, …, First+N-1 (modulo
// 2^32). A path is a []Run; how a path is cut into runs carries no meaning,
// only the token values it expands to do. Runs with N <= 0 are empty.
type Run struct {
	First Token
	N     int
}

// Len returns the number of tokens runs expands to.
func Len(runs []Run) int {
	n := 0
	for _, r := range runs {
		if r.N > 0 {
			n += r.N
		}
	}
	return n
}

// appendRun appends r to dst, merging it into dst's last run when it
// continues that run's values and dropping it when empty.
func appendRun(dst []Run, r Run) []Run {
	if r.N <= 0 {
		return dst
	}
	if k := len(dst) - 1; k >= 0 && dst[k].First+Token(dst[k].N) == r.First {
		dst[k].N += r.N
		return dst
	}
	return append(dst, r)
}

// appendTokens run-compresses tokens onto dst.
func appendTokens(dst []Run, tokens []Token) []Run {
	for i := 0; i < len(tokens); {
		j := i + 1
		for j < len(tokens) && tokens[j] == tokens[j-1]+1 {
			j++
		}
		dst = appendRun(dst, Run{First: tokens[i], N: j - i})
		i = j
	}
	return dst
}

// cursor reads a path by token count. It always rests on a non-empty run
// or at the end.
type cursor struct {
	runs []Run
	i    int // current run
	off  int // tokens of runs[i] already consumed
}

func newCursor(runs []Run) cursor {
	q := cursor{runs: runs}
	q.settle()
	return q
}

func (q *cursor) settle() {
	for q.i < len(q.runs) && q.off >= q.runs[q.i].N {
		q.i++
		q.off = 0
	}
}

func (q *cursor) done() bool { return q.i == len(q.runs) }

// next is the token under the cursor; the cursor must not be done.
func (q *cursor) next() Token { return q.runs[q.i].First + Token(q.off) }

// match consumes the longest common prefix of span and the remaining path
// and returns its token count. Each step compares one value and skips to
// the nearer run end, so the cost is the number of run boundaries crossed.
func (q *cursor) match(span []Run) int {
	k := 0
	for _, r := range span {
		v, left := r.First, r.N
		for left > 0 {
			if q.done() || q.next() != v {
				return k
			}
			step := min(left, q.runs[q.i].N-q.off)
			k += step
			v += Token(step)
			left -= step
			q.off += step
			q.settle()
		}
	}
	return k
}

// rest appends the unconsumed part of the path to dst.
func (q *cursor) rest(dst []Run) []Run {
	if q.done() {
		return dst
	}
	dst = appendRun(dst, Run{First: q.next(), N: q.runs[q.i].N - q.off})
	for _, r := range q.runs[q.i+1:] {
		dst = appendRun(dst, r)
	}
	return dst
}

// Stats accumulates cache activity counters.
type Stats struct {
	HitTokens     int64 // tokens found cached on acquire/extend
	MissTokens    int64 // tokens newly inserted
	EvictedTokens int64 // tokens evicted under pressure
	Evictions     int64 // eviction operations (nodes removed)
}

type node struct {
	parent   *node
	children []childRef  // sorted by first; starts out backed by kid
	kid      [1]childRef // inline storage for the common single child
	span     []Run       // merged runs; starts out backed by one
	one      [1]Run      // inline storage for the common single-run span
	length   int         // tokens in span
	refs     int         // live sequences whose pinned path passes through here
	owners   *Seq        // handles ending here, linked through Seq.next
	lastUsed uint64      // LRU clock value
	heapIdx  int         // index in the eviction heap, -1 if absent
}

// childRef files a child under the first token of its span, held beside the
// pointer so a lookup stays inside one contiguous array.
type childRef struct {
	first Token
	n     *node
}

// find returns where the child filed under first is, or would go, in
// n.children, and whether it is there. Written out because every step of
// every walk comes through here: slices.BinarySearchFunc's comparator calls
// made a resident AcquireInto a quarter slower.
func (n *node) find(first Token) (int, bool) {
	lo, hi := 0, len(n.children)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); n.children[mid].first < first {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.children) && n.children[lo].first == first
}

// child returns the child whose span starts with first, or nil.
func (n *node) child(first Token) *node {
	if i, ok := n.find(first); ok {
		return n.children[i].n
	}
	return nil
}

func (n *node) evictable() bool {
	return n.refs == 0 && len(n.children) == 0 && n.parent != nil
}

// Seq is a handle to an acquired sequence. While held, the sequence's
// entire path is pinned in cache. Release the handle to make it evictable.
// A Seq must not be copied while live: the tree links handles by address.
type Seq struct {
	leaf       *node
	length     int // tokens along the path
	released   bool
	prev, next *Seq // neighbours in leaf's owner list
}

// Len returns the number of tokens the sequence currently spans.
func (s *Seq) Len() int { return s.length }

// Cache is a prefix-sharing KV cache with a fixed byte capacity.
//
// Storage is allocated in blocks of blockTokens tokens (1 = exact
// token-granular allocation): every tree node occupies
// ceil(len/blockTokens)·blockTokens token slots, modeling the paged
// allocator's internal fragmentation. Larger blocks reduce allocator
// metadata in a real system but waste capacity at node boundaries —
// the trade-off the block-size ablation measures.
type Cache struct {
	bytesPerToken int64
	capacity      int64
	blockTokens   int
	root          *node
	usedTokens    int64 // allocated token slots (block-rounded)
	clock         uint64
	evictHeap     evictHeap
	stats         Stats
	scratch       []Run   // Acquire's run-compressed argument, reused
	free          []*node // evicted and reset nodes awaiting reuse, storage attached
}

// ErrTooLarge is returned when a single sequence cannot fit in the cache
// even after evicting everything else.
var ErrTooLarge = errors.New("kvcache: sequence exceeds cache capacity")

// ErrPinned is returned when an operation needs memory but every resident
// entry is pinned by live sequences.
var ErrPinned = errors.New("kvcache: insufficient memory, all entries pinned")

// New returns a cache that stores KV entries of bytesPerToken bytes each
// within capacityBytes of device memory, with exact (token-granular)
// allocation.
func New(capacityBytes, bytesPerToken int64) *Cache {
	return NewBlocked(capacityBytes, bytesPerToken, 1)
}

// NewBlocked returns a cache whose storage is allocated in blocks of
// blockTokens tokens (vLLM-style paging).
func NewBlocked(capacityBytes, bytesPerToken int64, blockTokens int) *Cache {
	if bytesPerToken <= 0 {
		panic("kvcache: bytesPerToken must be positive")
	}
	if blockTokens < 1 {
		panic("kvcache: blockTokens must be >= 1")
	}
	c := &Cache{
		bytesPerToken: bytesPerToken,
		capacity:      capacityBytes,
		blockTokens:   blockTokens,
	}
	c.root = c.newNode()
	return c
}

// blockCost returns the allocated token slots for n logical tokens.
func (c *Cache) blockCost(n int) int64 {
	b := int64(c.blockTokens)
	return (int64(n) + b - 1) / b * b
}

// CapacityTokens returns the maximum number of tokens the cache can hold.
func (c *Cache) CapacityTokens() int64 { return c.capacity / c.bytesPerToken }

// UsedBytes returns the bytes currently occupied.
func (c *Cache) UsedBytes() int64 { return c.usedTokens * c.bytesPerToken }

// UsedTokens returns the tokens currently resident.
func (c *Cache) UsedTokens() int64 { return c.usedTokens }

// FreeTokens returns capacity not currently occupied (ignoring what could
// be evicted). Opportunistic writers (speculative KV) use this to avoid
// evicting useful entries.
func (c *Cache) FreeTokens() int64 { return c.CapacityTokens() - c.usedTokens }

// PinnedTokens returns the tokens pinned by live sequences.
func (c *Cache) PinnedTokens() int64 {
	var pinned int64
	var walk func(*node)
	walk = func(n *node) {
		if n.refs > 0 && n.parent != nil {
			pinned += int64(n.length)
		}
		for _, ch := range n.children {
			walk(ch.n)
		}
	}
	walk(c.root)
	return pinned
}

// Stats returns a snapshot of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// NodeCount returns the number of radix-tree nodes (excluding the root).
// This is the "Nodes(T)" quantity in the paper's eviction cost model §4.2.
func (c *Cache) NodeCount() int {
	count := -1 // exclude root
	var walk func(*node)
	walk = func(n *node) {
		count++
		for _, ch := range n.children {
			walk(ch.n)
		}
	}
	walk(c.root)
	return count
}

// Fits reports whether a sequence of n tokens could ever reside fully in
// the cache.
func (c *Cache) Fits(n int) bool { return int64(n) <= c.CapacityTokens() }

// walk descends from start along the path under q, splitting a node if
// the match ends mid-span, and returns the deepest fully matched node
// together with the number of matched tokens, leaving q on the first
// unmatched token. It never allocates capacity.
func (c *Cache) walk(start *node, q *cursor) (*node, int) {
	n := start
	matched := 0
	for !q.done() {
		child := n.child(q.next())
		if child == nil {
			break
		}
		k := q.match(child.span)
		n = child
		matched += k
		if k < child.length {
			// Query exhausted mid-span or diverged: split so the matched
			// part becomes its own node boundary.
			c.split(child, k)
			break
		}
	}
	return n, matched
}

// Acquire is AcquireRuns for a path given token by token.
func (c *Cache) Acquire(tokens []Token) (seq *Seq, hit, miss int, err error) {
	c.scratch = appendTokens(c.scratch[:0], tokens)
	return c.AcquireRuns(c.scratch)
}

// AcquireRuns pins the given path in the cache, inserting any suffix not
// already present and evicting unreferenced entries if needed. It returns
// the handle plus the number of tokens that were already cached (hit) and
// newly inserted (miss — these must be recomputed/prefilled by the
// engine). It fails with ErrTooLarge if the sequence alone exceeds
// capacity, or ErrPinned if live sequences occupy all memory. The cache
// keeps no reference to runs.
func (c *Cache) AcquireRuns(runs []Run) (seq *Seq, hit, miss int, err error) {
	n, hit, miss, err := c.acquire(runs)
	if err != nil {
		return nil, 0, 0, err
	}
	seq = &Seq{}
	c.bind(seq, n, hit+miss)
	return seq, hit, miss, nil
}

// AcquireInto is AcquireRuns with the handle's storage supplied by the
// caller: s must be a zero or released Seq, and is left untouched on error.
func (c *Cache) AcquireInto(s *Seq, runs []Run) (hit, miss int, err error) {
	if s.live() {
		return 0, 0, errLiveHandle
	}
	n, hit, miss, err := c.acquire(runs)
	if err != nil {
		return 0, 0, err
	}
	c.bind(s, n, hit+miss)
	return hit, miss, nil
}

var errLiveHandle = errors.New("kvcache: acquire into a live sequence handle")

func (s *Seq) live() bool { return s.leaf != nil && !s.released }

// bind makes s the handle of the pinned path ending at leaf.
func (c *Cache) bind(s *Seq, leaf *node, length int) {
	*s = Seq{leaf: leaf, length: length}
	c.addOwner(leaf, s)
}

// acquire pins the path and returns its leaf.
func (c *Cache) acquire(runs []Run) (leaf *node, hit, miss int, err error) {
	total := Len(runs)
	if !c.Fits(total) {
		return nil, 0, 0, ErrTooLarge
	}
	c.clock++
	q := newCursor(runs)
	n, matched := c.walk(c.root, &q)
	hit = matched
	miss = total - matched
	// Pin the matched path before evicting so eviction cannot free it.
	c.pinSegment(n, nil)
	if miss > 0 {
		if err := c.ensure(c.blockCost(miss)); err != nil {
			c.unpinSegment(n, nil)
			return nil, 0, 0, err
		}
		n = c.attachChild(n, &q, miss)
	}
	c.stats.HitTokens += int64(hit)
	c.stats.MissTokens += int64(miss)
	return n, hit, miss, nil
}

// Extend appends a path to an acquired sequence. Tokens already cached
// below the sequence's current leaf (another beam may have decoded the
// same continuation) count as hits; the remainder is inserted.
func (c *Cache) Extend(s *Seq, runs []Run) (hit, miss int, err error) {
	if s.released {
		return 0, 0, errors.New("kvcache: extend on released sequence")
	}
	total := Len(runs)
	if total == 0 {
		return 0, 0, nil
	}
	if !c.Fits(s.length + total) {
		return 0, 0, ErrTooLarge
	}
	c.clock++
	start := s.leaf
	// Fast path: sole owner of a childless leaf extends in place.
	if start.refs == 1 && len(start.children) == 0 && start.parent != nil {
		delta := c.blockCost(start.length+total) - c.blockCost(start.length)
		if err := c.ensure(delta); err != nil {
			return 0, 0, err
		}
		for _, r := range runs {
			start.span = appendRun(start.span, r)
		}
		start.length += total
		start.lastUsed = c.clock
		c.usedTokens += delta
		c.stats.MissTokens += int64(total)
		s.length += total
		return 0, total, nil
	}
	q := newCursor(runs)
	n, matched := c.walk(start, &q)
	hit = matched
	miss = total - matched
	c.pinSegment(n, start)
	if miss > 0 {
		if err := c.ensure(c.blockCost(miss)); err != nil {
			c.unpinSegment(n, start)
			return 0, 0, err
		}
		n = c.attachChild(n, &q, miss)
	}
	c.removeOwner(start, s)
	s.leaf = n
	s.length += total
	c.addOwner(n, s)
	c.stats.HitTokens += int64(hit)
	c.stats.MissTokens += int64(miss)
	return hit, miss, nil
}

// Fork returns a second pinned handle to the same sequence path. Beam
// branching uses this: the duplicate shares every cached token with the
// original at zero memory cost.
func (c *Cache) Fork(s *Seq) (*Seq, error) {
	f := &Seq{}
	if err := c.ForkInto(f, s); err != nil {
		return nil, err
	}
	return f, nil
}

// ForkInto is Fork with the new handle's storage supplied by the caller:
// dst must be a zero or released Seq, and is left untouched on error.
func (c *Cache) ForkInto(dst, s *Seq) error {
	if s.released {
		return errors.New("kvcache: fork of released sequence")
	}
	if dst.live() {
		return errLiveHandle
	}
	c.clock++
	c.pinSegment(s.leaf, nil)
	c.bind(dst, s.leaf, s.length)
	return nil
}

// Release unpins a sequence. Its nodes stay cached until evicted.
func (c *Cache) Release(s *Seq) {
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
func (c *Cache) Drop(s *Seq) {
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

// LongestCachedPrefix returns how many leading tokens of the given path
// are currently resident (pinned or not). It never mutates the tree.
func (c *Cache) LongestCachedPrefix(runs []Run) int {
	q := newCursor(runs)
	n := c.root
	matched := 0
	for !q.done() {
		child := n.child(q.next())
		if child == nil {
			break
		}
		k := q.match(child.span)
		matched += k
		if k < child.length {
			break
		}
		n = child
	}
	return matched
}

// EvictAll drops every unreferenced node (used when a model's cache is
// offloaded to host memory, §4.3.2). It returns the number of tokens
// dropped.
func (c *Cache) EvictAll() int64 {
	var dropped int64
	for {
		leaf := c.popEvictable()
		if leaf == nil {
			return dropped
		}
		dropped += int64(leaf.length)
		c.evict(leaf)
	}
}

// Resize changes the capacity. Shrinking evicts unreferenced entries as
// needed and fails if pinned sequences exceed the new capacity.
func (c *Cache) Resize(capacityBytes int64) error {
	old := c.capacity
	c.capacity = capacityBytes
	if err := c.ensure(0); err != nil {
		c.capacity = old
		return err
	}
	return nil
}

// Reset returns the cache to its just-constructed state at the given
// capacity — empty tree, LRU clock, eviction heap, usage and Stats all zero,
// so every later operation answers exactly as on a New cache — while keeping
// every node's storage for reuse. All outstanding handles become invalid.
func (c *Cache) Reset(capacityBytes int64) {
	// Breadth-first, with the free list's tail as the queue.
	i := len(c.free)
	c.free = c.root.shed(c.free)
	for ; i < len(c.free); i++ {
		c.free = c.free[i].shed(c.free)
	}
	clear(c.evictHeap)
	*c = Cache{
		bytesPerToken: c.bytesPerToken,
		capacity:      capacityBytes,
		blockTokens:   c.blockTokens,
		root:          c.root,
		evictHeap:     c.evictHeap[:0],
		scratch:       c.scratch,
		free:          c.free,
	}
	c.root.refs, c.root.owners, c.root.lastUsed = 0, nil, 0
}

// shed moves n's children onto dst, leaving n childless.
func (n *node) shed(dst []*node) []*node {
	for _, ch := range n.children {
		dst = append(dst, ch.n)
	}
	clear(n.children)
	n.children = n.children[:0]
	return dst
}

// --- internals ---

// newNode returns a blank node, recycled if one is free. Its span and
// children are empty but keep whatever capacity they grew to.
func (c *Cache) newNode() *node {
	k := len(c.free) - 1
	if k < 0 {
		n := &node{heapIdx: -1}
		n.children, n.span = n.kid[:0], n.one[:0]
		return n
	}
	n := c.free[k]
	c.free[k] = nil
	c.free = c.free[:k]
	*n = node{children: n.children[:0], span: n.span[:0], heapIdx: -1}
	return n
}

// attachChild creates a pinned (refs=1) child of n holding the length
// tokens q has left.
func (c *Cache) attachChild(n *node, q *cursor, length int) *node {
	child := c.newNode()
	child.parent, child.length, child.refs, child.lastUsed = n, length, 1, c.clock
	child.span = q.rest(child.span)
	n.link(child)
	c.unqueue(n) // n gained a child; no longer an evictable leaf
	c.usedTokens += c.blockCost(length)
	return child
}

// link files child under its first span token.
func (n *node) link(child *node) {
	first := child.span[0].First
	i, _ := n.find(first)
	n.children = slices.Insert(n.children, i, childRef{first: first, n: child})
}

// unlink removes child from n's children.
func (n *node) unlink(child *node) {
	if i, ok := n.find(child.span[0].First); ok {
		n.children = slices.Delete(n.children, i, i+1)
	}
}

// pinSegment increments refs from n up to (but excluding) stop. A nil
// stop pins through the root.
func (c *Cache) pinSegment(n, stop *node) {
	for p := n; p != nil && p != stop; p = p.parent {
		p.refs++
		p.lastUsed = c.clock
		c.unqueue(p)
	}
}

// unpinSegment decrements refs from n up to (but excluding) stop.
func (c *Cache) unpinSegment(n, stop *node) {
	for p := n; p != nil && p != stop; p = p.parent {
		p.refs--
		if p.evictable() {
			c.enqueue(p)
		}
	}
}

func (c *Cache) addOwner(n *node, s *Seq) {
	s.prev, s.next = nil, n.owners
	if n.owners != nil {
		n.owners.prev = s
	}
	n.owners = s
}

func (c *Cache) removeOwner(n *node, s *Seq) {
	if s.prev != nil {
		s.prev.next = s.next
	} else {
		n.owners = s.next
	}
	if s.next != nil {
		s.next.prev = s.prev
	}
	s.prev, s.next = nil, nil
}

// split divides n's span at token count k: n keeps the first k tokens and
// a new child inherits the rest, n's children, refs, and — crucially — n's
// owner handles. Every live sequence whose path covered n's full span must
// now terminate at (or pass through) the suffix node. No live path can end
// strictly inside a span: node boundaries are created at every historical
// acquire point and nodes are never merged.
func (c *Cache) split(n *node, k int) {
	if k <= 0 || k >= n.length {
		return
	}
	suffix := c.newNode()
	suffix.parent, suffix.length, suffix.refs = n, n.length-k, n.refs
	suffix.owners, suffix.lastUsed = n.owners, n.lastUsed
	// Copied, not handed over: a node's children storage (inline or grown)
	// stays its own for as long as the node is recycled.
	suffix.children = append(suffix.children, n.children...)
	// Find the run holding token k; off is how much of it stays with n.
	i, off := 0, k
	for off >= n.span[i].N {
		off -= n.span[i].N
		i++
	}
	suffix.span = append(suffix.span, n.span[i:]...)
	suffix.span[0].First += Token(off)
	suffix.span[0].N -= off
	if off > 0 {
		n.span[i].N = off
		i++
	}
	n.span = n.span[:i]
	for _, ch := range suffix.children {
		ch.n.parent = suffix
	}
	for s := suffix.owners; s != nil; s = s.next {
		s.leaf = suffix
	}
	whole := c.blockCost(n.length)
	n.length = k
	clear(n.children)
	n.children = n.children[:0]
	n.link(suffix)
	n.owners = nil
	// Block rounding: two nodes may occupy more slots than one did.
	c.usedTokens += c.blockCost(k) + c.blockCost(suffix.length) - whole
	c.unqueue(n) // n now has a child; cannot be an evictable leaf
	if suffix.evictable() {
		c.enqueue(suffix)
	}
}

// ensure evicts unreferenced LRU leaves until needTokens more tokens fit.
func (c *Cache) ensure(needTokens int64) error {
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
func (c *Cache) evict(n *node) {
	parent := n.parent
	parent.unlink(n)
	c.usedTokens -= c.blockCost(n.length)
	c.stats.EvictedTokens += int64(n.length)
	c.stats.Evictions++
	n.parent = nil
	c.free = append(c.free, n)
	if parent.evictable() {
		c.enqueue(parent)
	}
}

// --- eviction heap (min-heap by lastUsed, lazy removal) ---

// evictHeap is a binary min-heap of evictable leaves by lastUsed; a node
// records its own index. push and remove are container/heap's Push and
// Remove written out for *node — the same sift steps making the same
// comparisons — so leaves that tie on lastUsed leave in container/heap's
// order (TestEvictHeapMatchesContainerHeap holds the two equal).
type evictHeap []*node

func (h evictHeap) less(i, j int) bool { return h[i].lastUsed < h[j].lastUsed }

func (h evictHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}

func (h *evictHeap) push(n *node) {
	n.heapIdx = len(*h)
	*h = append(*h, n)
	h.up(n.heapIdx)
}

// remove takes out and returns the node at index i; remove(0) is
// container/heap's Pop.
func (h *evictHeap) remove(i int) *node {
	old := *h
	last := len(old) - 1
	if last != i {
		old.swap(i, last)
		if !old.down(i, last) {
			old.up(i)
		}
	}
	n := old[last]
	old[last] = nil
	n.heapIdx = -1
	*h = old[:last]
	return n
}

func (h evictHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

// down sifts index i0 down within h[:n] and reports whether it moved.
func (h evictHeap) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
}

func (c *Cache) enqueue(n *node) {
	if n.heapIdx >= 0 || !n.evictable() {
		return
	}
	c.evictHeap.push(n)
}

func (c *Cache) unqueue(n *node) {
	if n.heapIdx < 0 {
		return
	}
	c.evictHeap.remove(n.heapIdx)
}

func (c *Cache) popEvictable() *node {
	for len(c.evictHeap) > 0 {
		n := c.evictHeap.remove(0)
		if n.evictable() && n.parent != nil {
			return n
		}
	}
	return nil
}
