package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The expected cut points are what Python's statistics.quantiles(xs, n=4)
// prints for the same lists.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{7}, 7, 7, 7},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, 2, 8, 32},
		{nil, 0, 0, 0},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); !near(m, c.q2) {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("quartiles reordered its input: %v", xs)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // 100 … 1
	}
	for p, want := range map[float64]float64{50: 50, 90: 90, 95: 95, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
}

// A percentile is reported only when at least ten samples lie beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{
		5: 0, 49: 0, // nine beyond the 80th
		50: 80, 99: 80, // 99: nine beyond the 90th
		100: 90, 180: 90, 199: 90, // 199: nine beyond the 95th
		200: 95, 240: 95, 999: 95,
		1000: 99,
	} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
		if p := tailPercentile(n); p > 0 && samplesBeyond(n, p) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", n, p, samplesBeyond(n, p))
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 240)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := summarize(xs)
	if s.N != 240 || !near(s.Median, 120.5) || s.TailP != 95 || s.Tail != 228 {
		t.Errorf("summarize(1..240) = %+v", s)
	}
	if s := summarize([]float64{1, 2, 3}); s.TailP != 0 || s.Tail != 0 {
		t.Errorf("three samples got a tail: %+v", s)
	}
}
