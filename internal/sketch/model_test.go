package sketch

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// The model a Hist is checked against is the stream itself: every sample it
// was given, sorted. modelBucket places a sample on the grid by arithmetic
// rather than by the float's bits, so the two agree only if both are right.
func modelBucket(v float64) int {
	if v < 1.0/1024 {
		return 0
	}
	if v >= 1<<30 {
		return NumBuckets - 1
	}
	frac, exp := math.Frexp(v) // v = frac·2^exp, frac in [½, 1)
	return (exp-1+10)*32 + int((2*frac-1)*32)
}

// modelValue draws a sample from three input bytes. The low four bits of the
// first pick a class: the values a bucket function gets wrong first, then
// ordinary in-grid values at sixteen places in any bucket.
func modelValue(b1, b2, b3 byte) float64 {
	wide := int(b2)<<8 | int(b3)
	switch b1 & 15 {
	case 0:
		return 0
	case 1:
		return -(float64(b2) + 1) / 4
	case 2: // subnormal
		return math.Float64frombits(uint64(wide) + 1)
	case 3: // an exact power of two, 2⁻¹² … 2³¹
		return math.Ldexp(1, int(b2)%44-12)
	case 4: // a bucket edge (the grid's two ends included), or one ulp either side
		e := edge(wide % (NumBuckets + 1))
		switch (b1 >> 4) % 3 {
		case 1:
			return math.Nextafter(e, 0)
		case 2:
			return math.Nextafter(e, math.Inf(1))
		}
		return e
	case 5: // positive, below the grid
		return float64(wide+1) / (1 << 27)
	case 6: // at or past its end
		return (1 << 30) * float64(wide+1)
	case 7:
		return math.NaN()
	case 8:
		return math.Inf(1)
	case 9:
		return math.Inf(-1)
	case 10:
		return math.Copysign(math.MaxFloat64, float64(b2)-128)
	case 11:
		return math.Copysign(0, -1)
	}
	i := wide % NumBuckets
	return edge(i) + (edge(i+1)-edge(i))*float64(b1>>4)/16
}

var modelQuantiles = []float64{0, .01, .5, .9, .99, .999, 1}

// checkAgainstModel holds h to the sorted samples it was built from: exact
// count and extremes, the same bucket counts, and every quantile inside the
// closed bucket that holds the order statistic it estimates — so within 1/32
// of it wherever that statistic is on the grid.
func checkAgainstModel(t *testing.T, h *Hist, sorted []float64) {
	t.Helper()
	n := len(sorted)
	if h.Count() != uint64(n) {
		t.Fatalf("Count = %d, model has %d", h.Count(), n)
	}
	if n == 0 {
		if *h != (Hist{}) || h.Quantile(0.5) != 0 {
			t.Fatalf("empty histogram is not the zero value: min %v max %v", h.Min(), h.Max())
		}
		return
	}
	if h.Min() != sorted[0] || h.Max() != sorted[n-1] {
		t.Fatalf("extremes [%v, %v], model [%v, %v]", h.Min(), h.Max(), sorted[0], sorted[n-1])
	}
	var want [NumBuckets]uint64
	for _, v := range sorted {
		want[modelBucket(v)]++
	}
	if h.counts != want {
		for i := range want {
			if h.counts[i] != want[i] {
				t.Fatalf("bucket %d [%v, %v) holds %d, model %d", i, edge(i), edge(i+1), h.counts[i], want[i])
			}
		}
	}
	for _, q := range modelQuantiles {
		exact := orderStat(sorted, q)
		b := modelBucket(exact)
		lo, hi := edge(b), edge(b+1)
		if b == 0 {
			lo = math.Inf(-1)
		}
		if b == NumBuckets-1 {
			hi = math.Inf(1)
		}
		got := h.Quantile(q)
		if !(got >= lo && got <= hi && got >= sorted[0] && got <= sorted[n-1]) {
			t.Fatalf("Quantile(%v) = %v, outside bucket %d [%v, %v] of order statistic %v (n=%d, extremes [%v, %v])",
				q, got, b, lo, hi, exact, n, sorted[0], sorted[n-1])
		}
		if exact >= edge(0) && exact < edge(NumBuckets) && math.Abs(got-exact) > exact/32 {
			t.Fatalf("Quantile(%v) = %v, more than 1/32 from %v", q, got, exact)
		}
	}
}

const (
	modelHists   = 3
	modelOpBytes = 4
)

// runHistOps decodes data into operations on a few histograms — add a value,
// merge one into another, replace one by its decoded encoding — plays them
// into Hists and into sorted sample lists, and compares after each.
func runHistOps(t *testing.T, data []byte) {
	var hs [modelHists]*Hist
	var ms [modelHists][]float64
	for i := range hs {
		hs[i] = new(Hist)
	}
	for ops := data; len(ops) >= modelOpBytes; ops = ops[modelOpBytes:] {
		dst, src := int(ops[0]>>3&3)%modelHists, int(ops[0]>>5)%modelHists
		switch ops[0] & 7 {
		case 5: // merge src into dst (src may be dst), and the other way round
			forward, backward := *hs[dst], *hs[src]
			forward.Merge(hs[src])
			backward.Merge(hs[dst])
			if forward != backward {
				t.Fatalf("merge order matters: %d into %d differs from %d into %d", src, dst, dst, src)
			}
			if dst != src {
				checkAgainstModel(t, hs[src], ms[src]) // the argument is unchanged
			}
			*hs[dst] = forward
			merged := append(append([]float64(nil), ms[dst]...), ms[src]...)
			sort.Float64s(merged)
			ms[dst] = merged
		case 6: // encode → decode → replace
			back, err := DecodeHist(hs[dst].AppendBinary(nil))
			if err != nil {
				t.Fatalf("decode of an encoded histogram: %v", err)
			}
			if *back != *hs[dst] {
				t.Fatalf("decode(encode(h)) differs from h")
			}
			hs[dst] = back
		default:
			v := modelValue(ops[1], ops[2], ops[3])
			finite := !math.IsNaN(v) && !math.IsInf(v, 0)
			if counted := hs[dst].Add(v); counted != finite {
				t.Fatalf("Add(%v) reported %v", v, counted)
			}
			if finite {
				at := sort.SearchFloat64s(ms[dst], v)
				ms[dst] = append(ms[dst], 0)
				copy(ms[dst][at+1:], ms[dst][at:])
				ms[dst][at] = v
			}
		}
		checkAgainstModel(t, hs[dst], ms[dst])
	}
}

// FuzzHistMatchesModel model-checks Hist. The seed corpus is in testdata/fuzz.
func FuzzHistMatchesModel(f *testing.F) {
	f.Add([]byte{0, 4, 1, 112, 5 | 1<<3, 0, 0, 0, 6 | 1<<3, 0, 0, 0})
	f.Fuzz(runHistOps)
}

// TestHistMatchesModelProperty runs the same check over seeded random
// operation lists, so a plain `go test` covers what the fuzzer explores.
func TestHistMatchesModelProperty(t *testing.T) {
	sequences := 3000
	if testing.Short() {
		sequences = 300
	}
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < sequences; i++ {
		data := make([]byte, modelOpBytes*rng.Intn(120))
		rng.Read(data)
		// A third of the lists add only ordinary values to one neighbourhood
		// of the grid, so buckets hold many samples and interpolation inside
		// them is what the quantile checks see.
		if i%3 == 0 {
			for j := 0; j+modelOpBytes <= len(data); j += modelOpBytes {
				data[j+1] |= 15
				data[j+2] = 2
			}
		}
		runHistOps(t, data)
	}
}
