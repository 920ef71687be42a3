// Package rng provides deterministic, splittable random number streams.
//
// Every stochastic component of the simulator draws from a Stream derived
// from a single root seed and a label path (for example
// "problem/aime24/7/beam/3"). Two runs with the same root seed therefore
// produce bit-identical results, and changing the sampling order in one
// component cannot perturb another — a property the algorithmic-equivalence
// tests rely on.
//
// A Stream is single-owner mutable state: it is not safe for concurrent
// use, and its outputs depend on the call sequence. Each device loop owns
// its private streams, derived once at construction; fleet-global
// streams (the router's, the controller's) are advanced only by the
// deterministic event order.
package rng

import (
	"math"
	"math/rand/v2"
	"strconv"
)

// FNV-1a 64-bit constants (hash/fnv), inlined so stream derivation needs
// no hasher allocation and no materialized path strings: because FNV-1a
// consumes bytes sequentially, each stream carries its hash state and a
// child extends it with just the separator and label bytes — the exact
// hash the old full-path rehash produced, at O(label) cost.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 {
	return (h ^ uint64(b)) * fnvPrime64
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// Stream is a deterministic random stream. The zero value is not usable;
// construct streams with New, Make, or a derivation method. A Stream is a
// plain value: owners that recycle their storage (a search beam keeps three)
// hold it by value and re-derive in place with Derive/DeriveN, which seed
// exactly as Child/ChildN do. Copying a Stream forks its state; derived
// streams keep a pointer to their parent only for Path.
type Stream struct {
	seed  uint64
	hash  uint64  // FNV-1a state over seed bytes + label path
	label string  // this stream's own path segment ("" for the root)
	up    *Stream // parent, for lazy Path reconstruction
	pcg   rand.PCG
}

// rand views the stream's generator state as a *rand.Rand. The Rand is a
// one-word wrapper that never escapes the calling method, so building it per
// draw costs nothing and keeps Stream free of self-referential pointers.
func (s *Stream) rand() *rand.Rand { return rand.New(&s.pcg) }

// New returns the root stream for the given seed.
func New(seed uint64) *Stream {
	s := Make(seed)
	return &s
}

// Make is New returning the stream by value.
func Make(seed uint64) Stream {
	h := uint64(fnvOffset64)
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(seed>>(8*i)))
	}
	return fromState(seed, h, "", nil)
}

// fromState finishes a derivation: h is the FNV-1a state over the seed
// bytes and full label path. A second, independent word is drawn for the
// PCG state by extending the hash with a fixed suffix.
func fromState(seed, h uint64, label string, up *Stream) Stream {
	s1 := h
	s2 := fnvByte(fnvByte(fnvByte(fnvByte(h, 0x9e), 0x37), 0x79), 0xb9)
	return Stream{seed: seed, hash: h, label: label, up: up, pcg: *rand.NewPCG(s1, s2)}
}

// Child derives an independent stream for the given label. Children with
// distinct labels are statistically independent; the same label always
// yields the same stream regardless of how many values the parent has
// consumed.
func (s *Stream) Child(label string) *Stream {
	c := s.Derive(label)
	return &c
}

// Derive is Child returning the stream by value.
func (s *Stream) Derive(label string) Stream {
	return fromState(s.seed, fnvString(fnvByte(s.hash, '/'), label), label, s)
}

// ChildN is Child(label + "/" + decimal n) without building the label
// string — the spelling of the hot indexed derivations (per-problem,
// per-beam, per-request streams).
func (s *Stream) ChildN(label string, n int) *Stream {
	c := s.DeriveN(label, n)
	return &c
}

// DeriveN is ChildN returning the stream by value.
func (s *Stream) DeriveN(label string, n int) Stream {
	h := fnvString(fnvByte(s.hash, '/'), label)
	h = fnvByte(h, '/')
	var buf [20]byte
	for _, b := range strconv.AppendInt(buf[:0], int64(n), 10) {
		h = fnvByte(h, b)
	}
	return fromState(s.seed, h, label, s)
}

// Path returns the label path of the stream (for diagnostics). It is
// reconstructed lazily from the parent chain; indexed segments from
// ChildN omit the index.
func (s *Stream) Path() string {
	if s.up == nil {
		return s.label
	}
	return s.up.Path() + "/" + s.label
}

// Float64 returns a uniform value in [0, 1).
func (s *Stream) Float64() float64 { return s.rand().Float64() }

// IntN returns a uniform value in [0, n). It panics if n <= 0.
func (s *Stream) IntN(n int) int { return s.rand().IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Stream) Uint64() uint64 { return s.rand().Uint64() }

// Norm returns a normally distributed value with the given mean and
// standard deviation.
func (s *Stream) Norm(mean, stddev float64) float64 {
	return mean + stddev*s.rand().NormFloat64()
}

// LogNormal returns a lognormally distributed value: exp(N(mu, sigma)).
// mu and sigma are the parameters of the underlying normal.
func (s *Stream) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Norm(mu, sigma))
}

// NormClamped returns a normal sample clamped into [lo, hi].
func (s *Stream) NormClamped(mean, stddev, lo, hi float64) float64 {
	v := s.Norm(mean, stddev)
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate). It panics if rate <= 0.
func (s *Stream) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: non-positive exponential rate")
	}
	return -math.Log(1-s.rand().Float64()) / rate
}

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool { return s.rand().Float64() < p }

// Perm returns a pseudo-random permutation of [0, n).
func (s *Stream) Perm(n int) []int { return s.rand().Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (s *Stream) Shuffle(n int, swap func(i, j int)) { s.rand().Shuffle(n, swap) }

// ZipfTable draws Zipf-ish samples over [0, n): index k with probability
// proportional to 1/(k+1)^a. Used to scatter wrong answers so that
// majority voting is meaningful. The table holds the running sums of the
// weights, built once, so a draw costs one Float64 and a binary search
// instead of n math.Pow calls. A table is immutable and may be shared.
type ZipfTable struct {
	cum []float64 // cum[k] = Σ_{j≤k} 1/(j+1)^a, summed in ascending j
}

// NewZipfTable builds the table for support n and exponent a. The sums are
// accumulated in the order an inverse-CDF walk would accumulate them, so
// every draw equals that walk's bit for bit.
func NewZipfTable(n int, a float64) *ZipfTable {
	t := &ZipfTable{}
	if n <= 1 {
		return t
	}
	t.cum = make([]float64, n)
	acc := 0.0
	for k := range t.cum {
		acc += 1 / math.Pow(float64(k+1), a)
		t.cum[k] = acc
	}
	return t
}

// Draw returns the first k with u < cum[k], u = s.Float64()·cum[n-1], or
// n-1 when rounding leaves no such k. A support of at most one point
// returns 0 without consuming a draw.
func (t *ZipfTable) Draw(s *Stream) int {
	n := len(t.cum)
	if n == 0 {
		return 0
	}
	u := s.Float64() * t.cum[n-1]
	// The sums never decrease, so u < cum[k] is monotone in k.
	lo, hi := 0, n
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); u < t.cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return min(lo, n-1)
}
