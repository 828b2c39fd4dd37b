// Package sketch provides the mergeable, serializable summaries the request
// analytics plane ships in-band: a fixed-grid histogram for latency quantiles
// and a space-saving summary for heavy-hitter topics. Both are memory-bounded
// independent of stream length, both merge across nodes — the property that
// lets the telemetry aggregator fold per-node summaries into cluster-wide
// per-topic quantiles and top-k without ever seeing a raw sample — and both
// encode to a compact, length-checked binary form for telemetry reports.
package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The grid is read straight off a float64's bits: a value's bucket is its
// exponent and the top subBits bits of its mantissa, 32 linear sub-buckets an
// octave over [2⁻¹⁰, 2³⁰) — sub-microsecond to days in the milliseconds every
// latency here is measured in. A bucket is at most 2⁻⁵ of its lower edge
// wide, so a quantile is within 3.125 % of an exact order statistic wherever
// that statistic is on the grid. These are constants, not options: the same
// grid on every node is what makes Merge an addition.
const (
	subBits   = 5
	histShift = 52 - subBits
	histBase  = (1023 - 10) << subBits // bits>>histShift of 2⁻¹⁰

	// NumBuckets is the grid's size: 40 octaves.
	NumBuckets = 40 << subBits

	// nonFinite is the exponent of NaN and ±Inf.
	nonFinite = 0x7FF << 52

	// histMagic versions the binary encoding.
	histMagic = 0xB5
)

// Hist is the tree's one quantile estimator (obs.Histogram, reqlog's
// per-topic aggregates and the aggregator's cluster merge all hold it): it
// counts a stream into the fixed grid and keeps the stream's exact extremes.
// Everything below the grid — zero and negatives included — lands in the first
// bucket, everything at or past its end in the last. The zero value is empty
// and holds no pointers. Not safe for concurrent use (callers lock).
type Hist struct {
	counts   [NumBuckets]uint64
	n        uint64
	min, max float64
}

// bucket is the grid index of the finite value with these bits. The shift is
// arithmetic, so a set sign bit lands below the grid rather than past it.
func bucket(bits uint64) int {
	return max(0, min(NumBuckets-1, int(int64(bits)>>histShift)-histBase))
}

// edge is bucket i's lower bound; edge(i+1) is its upper.
func edge(i int) float64 {
	return math.Float64frombits(uint64(i+histBase) << histShift)
}

// Add folds one sample in and reports whether it did: not a NaN or ±Inf.
func (h *Hist) Add(v float64) bool {
	bits := math.Float64bits(v)
	if bits&nonFinite == nonFinite {
		return false
	}
	h.counts[bucket(bits)]++
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if h.n == 0 || v > h.max {
		h.max = v
	}
	h.n++
	return true
}

// Merge adds other's counts to h's; other is unchanged. The result is the
// histogram of the two streams concatenated, whatever the order of merges.
func (h *Hist) Merge(other *Hist) {
	if other == nil || other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.n == 0 || other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	lo, hi := other.span()
	for i := lo; i <= hi; i++ {
		h.counts[i] += other.counts[i]
	}
}

// Count is the number of samples folded in.
func (h *Hist) Count() uint64 { return h.n }

// Min and Max are the exact stream extremes (0 on an empty histogram).
func (h *Hist) Min() float64 { return h.min }
func (h *Hist) Max() float64 { return h.max }

// span is the range of buckets that can be non-empty: the extremes' own.
func (h *Hist) span() (lo, hi int) {
	return bucket(math.Float64bits(h.min)), bucket(math.Float64bits(h.max))
}

// Quantile estimates the q-th quantile: the bucket holding the smallest
// sample whose cumulative count reaches q·Count, interpolated linearly by the
// rank's place among the bucket's samples and clamped to the exact extremes.
// q <= 0 is Min, q >= 1 is Max, and an empty histogram answers 0.
func (h *Hist) Quantile(q float64) float64 {
	switch {
	case h.n == 0:
		return 0
	case q <= 0:
		return h.min
	case q >= 1:
		return h.max
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	var seen uint64
	lo, hi := h.span()
	for i := lo; i <= hi; i++ {
		c := h.counts[i]
		if seen+c < rank {
			seen += c
			continue
		}
		frac := (float64(rank-seen) - 0.5) / float64(c)
		v := edge(i) + (edge(i+1)-edge(i))*frac
		return math.Max(h.min, math.Min(h.max, v))
	}
	return h.max
}

// AppendBinary appends the histogram's binary encoding to dst: magic, min and
// max (big-endian float bits), the number of non-empty buckets, then for each
// in index order its distance from the one before (from -1) and its count.
func (h *Hist) AppendBinary(dst []byte) []byte {
	dst = append(dst, histMagic)
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(h.min))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(h.max))
	lo, hi := h.span()
	used := 0
	for i := lo; i <= hi; i++ {
		if h.counts[i] != 0 {
			used++
		}
	}
	dst = binary.AppendUvarint(dst, uint64(used))
	prev := -1
	for i := lo; i <= hi; i++ {
		if c := h.counts[i]; c != 0 {
			dst = binary.AppendUvarint(dst, uint64(i-prev))
			dst = binary.AppendUvarint(dst, c)
			prev = i
		}
	}
	return dst
}

// DecodeHist parses an AppendBinary encoding, validating every length, index,
// count and both extremes against untrusted input (fuzzed by FuzzSketchDecode).
func DecodeHist(data []byte) (*Hist, error) {
	if len(data) < 1+2*8+1 || data[0] != histMagic {
		return nil, fmt.Errorf("sketch: hist truncated or bad magic (%d bytes)", len(data))
	}
	minBits, maxBits := binary.BigEndian.Uint64(data[1:]), binary.BigEndian.Uint64(data[9:])
	rest, short := data[17:], false
	uvarint := func() uint64 {
		v, n := binary.Uvarint(rest)
		if n <= 0 { // truncated, or past 64 bits
			short = true
			return 0
		}
		rest = rest[n:]
		return v
	}
	used := uvarint() // not trusted for more than a loop bound: nothing is sized by it
	h := &Hist{min: math.Float64frombits(minBits), max: math.Float64frombits(maxBits)}
	first, last := -1, -1
	for k := uint64(0); k < used; k++ {
		gap, c := uvarint(), uvarint()
		// In order and on the grid; counted, and the total still fits.
		if short || gap == 0 || gap > uint64(NumBuckets-1-last) || c == 0 || h.n+c < h.n {
			return nil, fmt.Errorf("sketch: hist entry %d invalid: gap %d after bucket %d, count %d", k, gap, last, c)
		}
		last += int(gap)
		if k == 0 {
			first = last
		}
		h.counts[last] = c
		h.n += c
	}
	if short || len(rest) != 0 {
		return nil, fmt.Errorf("sketch: hist truncated or %d trailing bytes", len(rest))
	}
	// An empty histogram's extremes are zero, as AppendBinary writes them;
	// otherwise they are finite, ordered and in the outermost buckets in use.
	ok := minBits|maxBits == 0
	if used > 0 {
		ok = minBits&nonFinite != nonFinite && maxBits&nonFinite != nonFinite &&
			h.min <= h.max && bucket(minBits) == first && bucket(maxBits) == last
	}
	if !ok {
		return nil, fmt.Errorf("sketch: hist extremes %v/%v do not bound buckets %d..%d", h.min, h.max, first, last)
	}
	return h, nil
}
