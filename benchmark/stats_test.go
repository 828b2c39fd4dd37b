package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0.5, 50}, {0.9, 90}, {0.99, 100}, {0.1, 10}, {0.05, 10}, {1, 100}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10 x10, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(empty) = %d, want 0", got)
	}
	if got := percentile([]int64{7}, 0.999); got != 7 {
		t.Errorf("percentile(single) = %d, want 7", got)
	}
}

// The expected values are what Python prints for
// statistics.quantiles(xs, n=4), the acceptance driver's definition.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{5, 3, 1, 4, 2}, 1.5, 3, 4.5}, // order does not matter
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{2, 4, 4, 5, 100, 7, 6}, 4, 5, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q2-c.q2) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedianOfWindowsIgnoresOneHiccup(t *testing.T) {
	// Four windows near 7 ms and one at 228 ms: pooled, the hiccup would set
	// a tail percentile; as a median of windows it does not move the number.
	s := summarize([]float64{7.1, 6.9, 228, 7.0, 7.2}, []int{1000, 1000, 1000, 1000, 1000})
	if s.Median != 7.1 {
		t.Errorf("median of windows = %v, want 7.1", s.Median)
	}
	if s.Windows != 5 || s.Samples != 1000 {
		t.Errorf("windows, samples = %d, %d, want 5, 1000", s.Windows, s.Samples)
	}
	if s.IQR <= 0 {
		t.Errorf("IQR = %v, want > 0", s.IQR)
	}
}

func TestRelSpreadIsIQROverMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := relSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("relSpread = %v, want %v", got, want)
	}
	if got := relSpread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("relSpread of zeros = %v, want 0", got)
	}
}

func TestRobustIsTheMeanOfTheMiddleHalf(t *testing.T) {
	// Twelve slices: a quarter frozen, a quarter in the quick pattern, the
	// rest split over two steady patterns. The middle half is the steady ones.
	xs := []float64{130, 10, 160, 128, 132, 20, 161, 130, 128, 15, 159, 132}
	s := robust(xs)
	if want := (128 + 128 + 130 + 130 + 132 + 132) / 6.0; math.Abs(s.Mid-want) > 1e-9 {
		t.Errorf("interquartile mean = %v, want %v", s.Mid, want)
	}
	if s.Windows != 12 || s.Median != 130 || s.IQR <= 0 {
		t.Errorf("summary = %+v", s)
	}
	// Too few readings to have quarters: the plain mean.
	if got := robust([]float64{4, 5, 9}).Mid; got != 6 {
		t.Errorf("of three = %v, want their mean, 6", got)
	}
	if got := robust(nil); got != (summary{}) {
		t.Errorf("of none = %+v, want the zero summary", got)
	}
}
