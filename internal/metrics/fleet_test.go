package metrics

import (
	"math"
	"testing"
)

func TestCoefficientOfVariation(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"zero mean", []float64{0, 0}, 0},
		{"uniform", []float64{3, 3, 3, 3}, 0},
		// mean 2, population variance ((1)^2+(1)^2)/2 = 1 → CV 0.5.
		{"two-point", []float64{1, 3}, 0.5},
		// Squares of 1e160 overflow and sums of 1e308 do: the ratio is
		// taken again over the values scaled down (it read +Inf, and NaN).
		{"huge squares", []float64{1e160, 3e160}, 0.5},
		{"huge sum", []float64{1e308, 1.5e308, 1.5e308, 1e308}, 0.2},
		{"one straggler", []float64{1, 1e160, 1}, math.Sqrt2},
	}
	for _, c := range cases {
		if got := CoefficientOfVariation(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: CV = %v, want %v", c.name, got, c.want)
		}
	}
}
