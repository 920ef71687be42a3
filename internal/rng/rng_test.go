package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42).Child("x").Child("y")
	b := New(42).Child("x").Child("y")
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestChildIndependentOfParentConsumption(t *testing.T) {
	p1 := New(7)
	p2 := New(7)
	for i := 0; i < 50; i++ {
		p2.Float64() // consume from one parent only
	}
	c1 := p1.Child("leaf")
	c2 := p2.Child("leaf")
	for i := 0; i < 20; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("child stream depends on parent consumption")
		}
	}
}

func TestDistinctLabelsDistinctStreams(t *testing.T) {
	root := New(1)
	a := root.Child("a")
	b := root.Child("b")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams for distinct labels look identical (%d/64 collisions)", same)
	}
}

func TestDistinctSeedsDistinctStreams(t *testing.T) {
	if New(1).Uint64() == New(2).Uint64() {
		t.Fatal("different seeds produced the same first draw")
	}
}

func TestFloat64Range(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 50; i++ {
			v := s.Float64()
			if v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormMoments(t *testing.T) {
	s := New(3)
	const n = 20000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Norm(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumsq/n - mean*mean)
	if math.Abs(mean-5) > 0.1 {
		t.Errorf("mean = %.3f, want ~5", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Errorf("std = %.3f, want ~2", std)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(4)
	for i := 0; i < 1000; i++ {
		if v := s.LogNormal(3, 1); v <= 0 {
			t.Fatalf("lognormal sample %v not positive", v)
		}
	}
}

func TestNormClamped(t *testing.T) {
	s := New(5)
	for i := 0; i < 1000; i++ {
		v := s.NormClamped(0.5, 10, 0, 1)
		if v < 0 || v > 1 {
			t.Fatalf("clamped value %v outside [0,1]", v)
		}
	}
}

func TestZipfBounds(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		for n := 1; n <= 10; n++ {
			k := NewZipfTable(n, 1.2).Draw(s)
			if k < 0 || k >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfSkewsLow(t *testing.T) {
	s := New(6)
	counts := make([]int, 8)
	z := NewZipfTable(8, 1.5)
	for i := 0; i < 8000; i++ {
		counts[z.Draw(s)]++
	}
	if counts[0] <= counts[7] {
		t.Errorf("zipf not skewed: counts[0]=%d counts[7]=%d", counts[0], counts[7])
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(8)
	p := s.Perm(10)
	seen := make([]bool, 10)
	for _, v := range p {
		if v < 0 || v >= 10 || seen[v] {
			t.Fatalf("invalid permutation %v", p)
		}
		seen[v] = true
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(9)
	hits := 0
	for i := 0; i < 10000; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / 10000
	if p < 0.27 || p > 0.33 {
		t.Errorf("Bool(0.3) frequency %.3f", p)
	}
}

func TestPathLabel(t *testing.T) {
	s := New(1).Child("a").Child("b")
	if got := s.Path(); got != "/a/b" {
		t.Errorf("Path() = %q, want %q", got, "/a/b")
	}
}

// zipfTwoPass is the inverse-CDF walk the table replaces, kept as the
// reference: every 1/(k+1)^a evaluated once for the total and again for
// the running sum, on every draw.
func zipfTwoPass(s *Stream, n int, a float64) int {
	if n <= 1 {
		return 0
	}
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), a)
	}
	u := s.Float64() * total
	acc := 0.0
	for k := 0; k < n; k++ {
		acc += 1 / math.Pow(float64(k+1), a)
		if u < acc {
			return k
		}
	}
	return n - 1
}

// ZipfTable.Draw must reproduce the two-pass walk draw for draw — every
// wrong answer of every golden comes out of it — and consume the stream
// exactly as the walk does (none at all for n <= 1), without allocating.
func TestZipfMatchesTwoPass(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 19, 39, 249, 300} {
		for _, a := range []float64{0.8, 1.2} {
			z := NewZipfTable(n, a)
			got, want := New(11).ChildN("zipf", n), New(11).ChildN("zipf", n)
			for i := 0; i < 10000; i++ {
				if g, w := z.Draw(got), zipfTwoPass(want, n, a); g != w {
					t.Fatalf("n=%d a=%g draw %d: Draw = %d, two-pass = %d", n, a, i, g, w)
				}
			}
			if got.Uint64() != want.Uint64() {
				t.Fatalf("n=%d a=%g: the streams drifted apart", n, a)
			}
			if allocs := testing.AllocsPerRun(100, func() { z.Draw(got) }); allocs != 0 {
				t.Errorf("n=%d a=%g: Draw allocates %v times, want 0", n, a, allocs)
			}
		}
	}
}

// Value derivations seed exactly as the pointer ones, and a derivation is a
// single allocation (the Stream itself) or none.
func TestDeriveMatchesChild(t *testing.T) {
	root := New(42)
	byValue := Make(42)
	pairs := []struct {
		name string
		p    *Stream
		v    Stream
	}{
		{"root", root, byValue},
		{"child", root.Child("order"), byValue.Derive("order")},
		{"childN", root.ChildN("beam", 1234), byValue.DeriveN("beam", 1234)},
	}
	for _, pr := range pairs {
		for i := 0; i < 64; i++ {
			if a, b := pr.p.Uint64(), pr.v.Uint64(); a != b {
				t.Fatalf("%s draw %d: pointer %d, value %d", pr.name, i, a, b)
			}
		}
		if pr.p.Path() != pr.v.Path() {
			t.Errorf("%s: Path %q vs %q", pr.name, pr.p.Path(), pr.v.Path())
		}
	}
}

func TestAllocsPerDerivation(t *testing.T) {
	root := New(1)
	var sink *Stream
	v := root.Derive("v")
	z := NewZipfTable(39, 0.8)
	var f float64
	for _, tc := range []struct {
		name string
		want float64
		fn   func()
	}{
		{"Child", 1, func() { sink = root.Child("a") }},
		{"ChildN", 1, func() { sink = root.ChildN("beam", 17) }},
		{"DeriveN", 0, func() { v = root.DeriveN("beam", 17) }},
		{"draws", 0, func() { f = v.Float64() + v.Norm(0, 1) + float64(v.IntN(9)+z.Draw(&v)) }},
	} {
		if got := testing.AllocsPerRun(100, tc.fn); got != tc.want {
			t.Errorf("%s: %v allocs, want %v", tc.name, got, tc.want)
		}
	}
	_, _ = sink, f
}
