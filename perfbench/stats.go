package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the fewest samples a percentile must have beyond it before
// the benchmark reports it: a p90 of 50 samples rests on five values, and
// one scheduler hiccup moves it.
const minBeyond = 10

// Percentile is one latency percentile together with the sample count it
// was computed from.
type Percentile struct {
	Value   float64
	Samples int
}

// percentile returns the p-th percentile of xs (linear interpolation
// between closest ranks, the same rule as Python's
// statistics.quantiles(method="inclusive")). It refuses a percentile with
// fewer than minBeyond samples above it.
func percentile(xs []float64, p float64) (Percentile, error) {
	n := len(xs)
	if beyond := int(math.Floor(float64(n) * (100 - p) / 100)); beyond < minBeyond {
		return Percentile{}, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Percentile{Value: quantileSorted(s, p/100), Samples: n}, nil
}

// quantileSorted interpolates the q-quantile (0 ≤ q ≤ 1) of sorted s.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// median returns the median of xs, with no sample-count requirement: it
// summarizes repeated set-ups and per-kind span times, not a latency tail.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quartiles returns the first quartile, median and third quartile of xs
// as Python's statistics.quantiles(xs, n=4) gives them (its default
// "exclusive" method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	at := func(i int) float64 { // exclusive method: m = n+1, j clamped to [1, n-1]
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}
