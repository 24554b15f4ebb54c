package stats

import (
	"math"
	"testing"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("Summarize = %+v", s)
	}
	want := math.Sqrt((2.25 + 0.25 + 0.25 + 2.25) / 3)
	if math.Abs(s.StdDev-want) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", s.StdDev, want)
	}
	if z := Summarize(nil); z.N != 0 {
		t.Fatal("empty sample must yield zero Summary")
	}
	one := Summarize([]float64{7})
	if one.StdDev != 0 || one.Mean != 7 {
		t.Fatalf("single sample: %+v", one)
	}
}

func TestLeastSquaresPerfectLine(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{5, 7, 9, 11} // y = 3 + 2x
	f := LeastSquares(xs, ys)
	if math.Abs(f.Slope-2) > 1e-9 || math.Abs(f.Intercept-3) > 1e-9 {
		t.Fatalf("fit = %v", f)
	}
	if math.Abs(f.R2-1) > 1e-9 {
		t.Fatalf("R² = %v, want 1", f.R2)
	}
	if f.String() == "" {
		t.Fatal("String must render")
	}
}

func TestLeastSquaresDegenerateX(t *testing.T) {
	f := LeastSquares([]float64{2, 2, 2}, []float64{1, 2, 3})
	if f.Slope != 0 || f.Intercept != 2 {
		t.Fatalf("degenerate fit = %v", f)
	}
}

func TestLeastSquaresPanicsOnBadInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic on mismatched input")
		}
	}()
	LeastSquares([]float64{1}, []float64{1, 2})
}

func TestClassifyGrowthLogarithmic(t *testing.T) {
	ns := []int{2, 4, 8, 16, 32, 64, 128}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = 3 + 8*math.Log2(float64(n)) // like group-update
	}
	g, logFit, _ := ClassifyGrowth(ns, ys)
	if g != GrowthLogarithmic {
		t.Fatalf("growth = %v, want logarithmic", g)
	}
	if math.Abs(logFit.Slope-8) > 1e-6 {
		t.Fatalf("log slope = %v", logFit.Slope)
	}
}

func TestClassifyGrowthLinear(t *testing.T) {
	ns := []int{2, 4, 8, 16, 32, 64, 128}
	ys := make([]float64, len(ns))
	for i, n := range ns {
		ys[i] = 7 + 2*float64(n) // like herlihy
	}
	g, _, linFit := ClassifyGrowth(ns, ys)
	if g != GrowthLinear {
		t.Fatalf("growth = %v, want linear", g)
	}
	if math.Abs(linFit.Slope-2) > 1e-6 {
		t.Fatalf("lin slope = %v", linFit.Slope)
	}
}

func TestClassifyGrowthConstant(t *testing.T) {
	ns := []int{2, 4, 8, 16}
	ys := []float64{5, 5, 5, 5}
	g, _, _ := ClassifyGrowth(ns, ys)
	if g != GrowthConstant {
		t.Fatalf("growth = %v, want constant", g)
	}
}

func TestClassifyGrowthNoisyLog(t *testing.T) {
	// Small integer noise (step counts are integers) must not flip the
	// verdict.
	ns := []int{4, 8, 16, 32, 64, 128, 256}
	ys := []float64{19, 27, 34, 44, 51, 60, 67}
	g, _, _ := ClassifyGrowth(ns, ys)
	if g != GrowthLogarithmic {
		t.Fatalf("growth = %v, want logarithmic", g)
	}
}

func TestClassifyGrowthPanicsOnFewPoints(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("must panic on < 3 points")
		}
	}()
	ClassifyGrowth([]int{1, 2}, []float64{1, 2})
}

func TestLog2(t *testing.T) {
	if Log2(8) != 3 {
		t.Fatal("Log2(8) != 3")
	}
}

// TestSummarizePercentiles pins the nearest-rank Median/P95 definition:
// rank ⌈p/100·N⌉ of the sorted sample, always an observed value.
func TestSummarizePercentiles(t *testing.T) {
	cases := []struct {
		name        string
		xs          []float64
		median, p95 float64
	}{
		{"N=1", []float64{42}, 42, 42},
		{"N=2 even", []float64{10, 20}, 10, 20},
		{"N=3 odd", []float64{30, 10, 20}, 20, 30},
		{"N=4 even", []float64{4, 1, 3, 2}, 2, 4},
		{"N=5 odd", []float64{5, 1, 4, 2, 3}, 3, 5},
		{"N=20", func() []float64 {
			xs := make([]float64, 20)
			for i := range xs {
				xs[i] = float64(20 - i) // 20..1, unsorted
			}
			return xs
		}(), 10, 19},
		{"N=100", func() []float64 {
			xs := make([]float64, 100)
			for i := range xs {
				xs[i] = float64(i + 1)
			}
			return xs
		}(), 50, 95},
		{"ties", []float64{7, 7, 7, 7}, 7, 7},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			in := append([]float64(nil), c.xs...)
			s := Summarize(in)
			if s.Median != c.median || s.P95 != c.p95 {
				t.Fatalf("Summarize(%v): median=%v p95=%v, want %v/%v", c.xs, s.Median, s.P95, c.median, c.p95)
			}
			for i := range in {
				if in[i] != c.xs[i] {
					t.Fatalf("input mutated at %d: %v != %v", i, in, c.xs)
				}
			}
		})
	}
}

func TestPercentileBadInputPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		fn   func()
	}{
		{"empty", func() { percentile(nil, 50) }},
		{"p=0", func() { percentile([]float64{1}, 0) }},
		{"p>100", func() { percentile([]float64{1}, 101) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			c.fn()
		})
	}
}
