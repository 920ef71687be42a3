package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPreciseGoodput(t *testing.T) {
	paths := []PathResult{
		{Tokens: 100, CompletedAt: 10},
		{Tokens: 300, CompletedAt: 30},
	}
	// avg tokens = 200, avg completion = 20 → 10 tokens/s.
	if got := PreciseGoodput(paths); math.Abs(got-10) > 1e-12 {
		t.Errorf("goodput = %v, want 10", got)
	}
	if got := PreciseGoodput([]PathResult(nil)); got != 0 {
		t.Errorf("empty goodput = %v", got)
	}
	if got := PreciseGoodput([]PathResult{{Tokens: 5, CompletedAt: 0}}); got != 0 {
		t.Errorf("zero-time goodput = %v", got)
	}
}

// The metric's robustness property from §6.1: duplicating every beam
// (branch copies) leaves goodput unchanged.
func TestGoodputRobustToCopies(t *testing.T) {
	f := func(tok uint8, at uint8) bool {
		p := PathResult{Tokens: int(tok) + 1, CompletedAt: float64(at) + 1}
		one := PreciseGoodput([]PathResult{p})
		many := PreciseGoodput([]PathResult{p, p, p, p})
		return math.Abs(one-many) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A single slow straggler moves the average, not the whole metric —
// unlike a max-based latency metric.
func TestGoodputStragglerRobust(t *testing.T) {
	base := []PathResult{{Tokens: 100, CompletedAt: 10}, {Tokens: 100, CompletedAt: 10}}
	withStraggler := append(append([]PathResult(nil), base...), PathResult{Tokens: 100, CompletedAt: 100})
	g1 := PreciseGoodput(base)
	g2 := PreciseGoodput(withStraggler)
	if g2 >= g1 {
		t.Errorf("straggler should lower goodput: %v -> %v", g1, g2)
	}
	if g2 < g1/5 {
		t.Errorf("single straggler collapsed the metric: %v -> %v", g1, g2)
	}
}

func TestTop1MajorityWins(t *testing.T) {
	paths := []PathResult{
		{Answer: 0}, {Answer: 0}, {Answer: 0},
		{Answer: 3}, {Answer: 3}, {Answer: 7},
	}
	if !Top1Correct(paths) {
		t.Error("correct answer with most votes should win")
	}
	wrong := []PathResult{
		{Answer: 0}, {Answer: 3}, {Answer: 3},
	}
	if Top1Correct(wrong) {
		t.Error("minority correct answer should lose")
	}
	if Top1Correct(nil) {
		t.Error("empty vote should not be correct")
	}
}

func TestTop1TieBreaksByScore(t *testing.T) {
	paths := []PathResult{
		{Answer: 0, Score: 0.9}, {Answer: 0, Score: 0.8},
		{Answer: 5, Score: 0.3}, {Answer: 5, Score: 0.2},
	}
	if !Top1Correct(paths) {
		t.Error("score-weighted tie break should favor the correct answer")
	}
	paths2 := []PathResult{
		{Answer: 0, Score: 0.1}, {Answer: 0, Score: 0.1},
		{Answer: 5, Score: 0.9}, {Answer: 5, Score: 0.9},
	}
	if Top1Correct(paths2) {
		t.Error("higher-scored wrong answer should win the tie")
	}
}

func TestPassAtN(t *testing.T) {
	paths := []PathResult{
		{Answer: 4, Score: 0.9},
		{Answer: 2, Score: 0.8},
		{Answer: 0, Score: 0.5}, // correct, ranked 3rd
		{Answer: 6, Score: 0.3},
	}
	if PassAtN(paths, 2) {
		t.Error("pass@2 should miss the 3rd-ranked correct answer")
	}
	if !PassAtN(paths, 3) {
		t.Error("pass@3 should find it")
	}
	if !PassAtN(paths, 100) {
		t.Error("n beyond len should clamp")
	}
	if PassAtN(paths, 0) || PassAtN(nil, 5) {
		t.Error("degenerate inputs should fail")
	}
}

func TestPassAtNMonotone(t *testing.T) {
	f := func(raw []byte) bool {
		var paths []PathResult
		for i, b := range raw {
			paths = append(paths, PathResult{Answer: int(b % 7), Score: float64(b) / 255, Tokens: i})
		}
		prev := false
		for n := 1; n <= len(paths); n++ {
			cur := PassAtN(paths, n)
			if prev && !cur {
				return false // pass@N must be monotone in N
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAccuracy(t *testing.T) {
	if got := Accuracy([]bool{true, false, true, true}); got != 75 {
		t.Errorf("accuracy = %v", got)
	}
	if got := Accuracy(nil); got != 0 {
		t.Errorf("empty accuracy = %v", got)
	}
}

func TestMeanAndGeoMean(t *testing.T) {
	if got := Mean([]float64{2, 4}); got != 3 {
		t.Errorf("mean = %v", got)
	}
	if got := GeoMean([]float64{1, 4}); got != 2 {
		t.Errorf("geomean = %v", got)
	}
	if got := GeoMean([]float64{2, -1}); got != 0 {
		t.Errorf("geomean with negative = %v", got)
	}
	if Mean(nil) != 0 || GeoMean(nil) != 0 {
		t.Error("empty means should be 0")
	}
}
