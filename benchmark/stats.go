package main

import (
	"math"
	"sort"
)

// percentile returns the p-quantile (0 < p ≤ 1) of an ascending slice by
// nearest rank: the smallest value with at least p of the samples at or
// below it. It reports 0 for an empty slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// quartiles returns the first, second and third quartile of xs the way
// Python's statistics.quantiles(xs, n=4) does (exclusive method), so the
// spreads printed here are the ones the acceptance driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summary is one metric over a phase's windows: the median of the
// per-window values, their interquartile range, and how many windows and
// samples stand behind it. Pooling the windows instead would let a single
// machine hiccup set the number.
type summary struct {
	Median  float64
	Mid     float64 // robust only: the interquartile mean
	IQR     float64
	Windows int
	Samples int // samples in the median window's neighbourhood: the per-window mean count
}

func summarize(perWindow []float64, samplesPerWindow []int) summary {
	if len(perWindow) == 0 {
		return summary{}
	}
	q1, q2, q3 := quartiles(perWindow)
	total := 0
	for _, n := range samplesPerWindow {
		total += n
	}
	s := summary{Median: q2, IQR: q3 - q1, Windows: len(perWindow)}
	if len(samplesPerWindow) > 0 {
		s.Samples = total / len(samplesPerWindow)
	}
	return s
}

// relSpread is the interquartile range of xs as a share of their median:
// the run-to-run spread the acceptance driver holds against each bound.
func relSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// robust summarises a speed read once per slice: the mean of the middle half
// of the readings (the interquartile mean), with their interquartile range
// beside it. The readings of a run are not one cloud. The same code settles
// into one of a few steady patterns for a second or two at a time (a window-1
// round trip on one processor read 7.9, 8.9 or 9.9 µs for twenty slices in a
// row; a closed loop 130k or 160k requests a second), and now and then the
// host takes the processor away for a second. A median sits on whichever
// pattern holds just over half the slices and jumps a tenth when the shares
// tip; a mean follows every freeze. The middle half's mean moves smoothly with
// the shares and ignores a quarter of outliers on either side.
func robust(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q1, med, q3 := quartiles(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return summary{Median: med, Mid: sum / float64(hi-lo), IQR: q3 - q1, Windows: len(s)}
}
