package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {0.25, 20}, {0.4, 29}, {0.5, 35}, {0.99, 49.6}, {1, 50},
	}
	for _, c := range cases {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one value = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no values should be NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

// The expected quartiles are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{2, 4, 4, 5, 7, 9, 12}, 4, 5, 9},
		{[]float64{0.91, 0.95, 0.93, 0.90, 0.97, 0.92}, 0.9075, 0.925, 0.955},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if q1, q2, q3 := quartiles([]float64{4}); q1 != 4 || q2 != 4 || q3 != 4 {
		t.Errorf("quartiles of one value = %v %v %v, want 4 4 4", q1, q2, q3)
	}
}

func TestRelIQR(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := relIQR(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("relIQR = %v, want %v", got, want)
	}
	if got := relIQR([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("relIQR of identical values = %v, want 0", got)
	}
}

func TestComposedTime(t *testing.T) {
	// Three repetitions of three pieces; the third repetition's second piece
	// was hit by interference and drops out of that piece's median.
	reps := [][]float64{
		{1, 10, 100},
		{2, 11, 101},
		{3, 50, 99},
	}
	if got, want := composedTime(reps), 2.0+11+100; got != want {
		t.Errorf("composedTime = %v, want %v", got, want)
	}
	// A change to one piece's cost in every repetition moves the sum by it.
	for _, r := range reps {
		r[0] += 5
	}
	if got, want := composedTime(reps), 7.0+11+100; got != want {
		t.Errorf("composedTime after a slower piece = %v, want %v", got, want)
	}
	if !math.IsNaN(composedTime(nil)) {
		t.Error("composedTime of no repetitions should be NaN")
	}
}
