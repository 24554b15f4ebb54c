// Package stats provides the small statistical toolkit the experiment
// harness uses: summary statistics, least-squares fits, and a growth-shape
// classifier that distinguishes logarithmic from linear step-complexity
// curves (the shapes Theorem 6.1 and the Group-Update/Herlihy comparison
// predict).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the usual summary statistics of a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	// Median and P95 are nearest-rank percentiles: the value at rank
	// ⌈p/100·N⌉ of the sorted sample, always an observed sample point,
	// never an interpolation.
	Median float64
	P95    float64
}

// Summarize computes summary statistics; it returns a zero Summary for an
// empty sample. The input is never mutated.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	sum := 0.0
	for _, x := range xs {
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Median = percentile(sorted, 50)
	s.P95 = percentile(sorted, 95)
	return s
}

// percentile returns the nearest-rank p-th percentile of an already-sorted
// sample: the element at rank ⌈p/100·N⌉ (1-based), which lies in [1, N]
// for p in (0, 100]. It panics on an empty sample or p outside (0, 100] —
// harness bugs, not runtime conditions.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 || p <= 0 || p > 100 {
		panic(fmt.Sprintf("stats: bad percentile input (N=%d, p=%v)", len(sorted), p))
	}
	return sorted[int(math.Ceil(p/100*float64(len(sorted))))-1]
}

// Fit is a least-squares line y ≈ Intercept + Slope·f(x) with its
// coefficient of determination.
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// String renders the fit.
func (f Fit) String() string {
	return fmt.Sprintf("y = %.3f + %.3f·x (R² = %.4f)", f.Intercept, f.Slope, f.R2)
}

// LeastSquares fits y ≈ a + b·x. It panics if the slices differ in length
// or have fewer than two points — a harness bug, not a runtime condition.
func LeastSquares(xs, ys []float64) Fit {
	if len(xs) != len(ys) || len(xs) < 2 {
		panic(fmt.Sprintf("stats: bad fit input (%d xs, %d ys)", len(xs), len(ys)))
	}
	n := float64(len(xs))
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return Fit{Intercept: sy / n, R2: 0}
	}
	b := (n*sxy - sx*sy) / den
	a := (sy - b*sx) / n
	// R².
	meanY := sy / n
	var ssRes, ssTot float64
	for i := range xs {
		pred := a + b*xs[i]
		ssRes += (ys[i] - pred) * (ys[i] - pred)
		ssTot += (ys[i] - meanY) * (ys[i] - meanY)
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return Fit{Slope: b, Intercept: a, R2: r2}
}

// Log2 returns log₂ x.
func Log2(x float64) float64 { return math.Log2(x) }

// Growth labels the shape of a complexity curve.
type Growth string

// The growth shapes the harness distinguishes.
const (
	GrowthConstant    Growth = "constant"
	GrowthLogarithmic Growth = "logarithmic"
	GrowthLinear      Growth = "linear"
)

// ClassifyGrowth decides whether ys grows constantly, logarithmically, or
// linearly in ns by comparing least-squares fits of y against log₂ n and
// against n. ns must be increasing with at least three points spanning a
// factor ≥ 4.
func ClassifyGrowth(ns []int, ys []float64) (Growth, Fit, Fit) {
	if len(ns) < 3 {
		panic("stats: ClassifyGrowth needs at least 3 points")
	}
	logxs := make([]float64, len(ns))
	xs := make([]float64, len(ns))
	for i, n := range ns {
		logxs[i] = math.Log2(float64(n))
		xs[i] = float64(n)
	}
	logFit := LeastSquares(logxs, ys)
	linFit := LeastSquares(xs, ys)

	// Constant: the whole range moves by less than one step or by < 10%.
	s := Summarize(ys)
	if s.Max-s.Min < 1 || (s.Min > 0 && s.Max/s.Min < 1.1) {
		return GrowthConstant, logFit, linFit
	}
	// Otherwise pick the better-explaining model. A logarithmic curve fit
	// against n has visibly concave residuals (lower R²), and vice versa.
	if logFit.R2 >= linFit.R2 {
		return GrowthLogarithmic, logFit, linFit
	}
	return GrowthLinear, logFit, linFit
}
