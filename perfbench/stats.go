package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or NaN for an empty slice.
func median(xs []float64) float64 {
	return percentile(xs, 0.5)
}

// percentile returns the p-quantile (0 <= p <= 1) of xs by linear
// interpolation between the two closest ranks: rank h = (n-1)p, so p = 0 is
// the minimum, p = 1 the maximum and p = 0.5 the median. NaN for an empty
// slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	if p <= 0 {
		return s[0]
	}
	if p >= 1 {
		return s[len(s)-1]
	}
	h := float64(len(s)-1) * p
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first, second and third quartile of xs exactly as
// Python's statistics.quantiles(xs, n=4) computes them (its default
// "exclusive" method), which is how bounds in BENCHMARK.json are judged. A
// single value is its own quartiles; an empty slice gives NaNs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		nan := math.NaN()
		return nan, nan, nan
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// relIQR returns the distance between the first and third quartile of xs as
// a share of their median: the spread the benchmark's bounds are set against.
func relIQR(xs []float64) float64 {
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// composedTime sums, piece by piece, the median over repetitions of each
// piece's time: reps[k][j] is piece j's time in repetition k, and every
// repetition runs the same pieces of work. Interference that slows fewer
// than half the repetitions of a piece drops out of that piece's median,
// while a change in the cost of any piece moves the sum.
func composedTime(reps [][]float64) float64 {
	if len(reps) == 0 {
		return math.NaN()
	}
	var sum float64
	col := make([]float64, len(reps))
	for j := range reps[0] {
		for k, r := range reps {
			col[k] = r[j]
		}
		sum += median(col)
	}
	return sum
}
