package sketch

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// orderStat is the order statistic Quantile estimates: the smallest sample
// whose cumulative count reaches q·n.
func orderStat(sorted []float64, q float64) float64 {
	k := int(math.Ceil(q * float64(len(sorted))))
	if k < 1 {
		k = 1
	}
	return sorted[k-1]
}

// lognormal draws a heavy-tailed latency-like sample.
func lognormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(mu + sigma*rng.NormFloat64())
}

func TestHistQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Hist
	const n = 200_000
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := lognormal(rng, 3, 1) // median ~20, long right tail
		samples = append(samples, v)
		h.Add(v)
	}
	sort.Float64s(samples)
	if got := h.Count(); got != n {
		t.Fatalf("Count = %v, want %d", got, n)
	}
	// The bound is the grid's, the same at every quantile: one bucket.
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := orderStat(samples, q)
		est := h.Quantile(q)
		if relErr := math.Abs(est-exact) / exact; relErr > 1.0/32 {
			t.Errorf("q=%v: estimate %.2f vs exact %.2f (rel err %.2f%%)", q, est, exact, 100*relErr)
		}
	}
	if h.Quantile(0) != samples[0] || h.Quantile(1) != samples[n-1] {
		t.Errorf("extreme quantiles: got [%v, %v], want [%v, %v]",
			h.Quantile(0), h.Quantile(1), samples[0], samples[n-1])
	}
}

func TestHistMergeMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var parts [4]Hist
	var direct Hist // every sample added to one histogram
	for i := range parts {
		for j := 0; j < 20_000; j++ {
			// Each node sees a different latency regime — the situation
			// cluster merging exists for.
			v := lognormal(rng, 2+float64(i), 0.7)
			parts[i].Add(v)
			direct.Add(v)
		}
	}
	var forward, backward Hist
	for i := range parts {
		forward.Merge(&parts[i])
		backward.Merge(&parts[len(parts)-1-i])
	}
	if forward != direct || backward != direct {
		t.Fatal("merged histograms differ from the histogram of the union stream")
	}
	forward.Merge(nil)
	forward.Merge(new(Hist))
	if forward != direct {
		t.Fatal("merging nil or an empty histogram changed the state")
	}
}

func TestHistEmptyAndSingle(t *testing.T) {
	var h Hist
	if h.Quantile(0.5) != 0 || h.Min() != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Errorf("empty histogram: quantile %v, min %v, max %v, count %d, want zeros",
			h.Quantile(0.5), h.Min(), h.Max(), h.Count())
	}
	h.Add(42)
	for _, q := range []float64{0, 0.5, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Errorf("single-sample quantile(%v) = %v, want 42", q, got)
		}
	}
	// Invalid samples are ignored, not folded in.
	h.Add(math.NaN())
	h.Add(math.Inf(1))
	h.Add(math.Inf(-1))
	if got := h.Count(); got != 1 {
		t.Errorf("Count after invalid adds = %v, want 1", got)
	}
}

// TestQuantileBucketInterpolation pins the grid and the bucket→quantile math
// by hand. An octave [2ᵉ, 2ᵉ⁺¹) is 32 buckets 2ᵉ/32 wide; rank k = ⌈q·n⌉ falls
// in a bucket [lo, hi) holding c samples after `seen` earlier ones, and the
// estimate is lo + (hi-lo)·(k-seen-½)/c, clamped to the exact [min, max].
func TestQuantileBucketInterpolation(t *testing.T) {
	if NumBuckets != 1280 || edge(0) != 1.0/1024 || edge(NumBuckets) != 1<<30 {
		t.Fatalf("grid: %d buckets over [%v, %v)", NumBuckets, edge(0), edge(NumBuckets))
	}
	for _, c := range []struct {
		v      float64
		lo, hi float64
	}{
		{4, 4, 4.125},                          // a power of two opens its octave
		{math.Nextafter(4, 0), 3.9375, 4},      // and one ulp below closes the last
		{4.125, 4.125, 4.25},                   // a sub-bucket edge belongs to the bucket above
		{math.Nextafter(4.125, 0), 4, 4.125},   //
		{1.0 / 1024, 1.0 / 1024, 33.0 / 32768}, // the grid's first bucket
		{0, 1.0 / 1024, 33.0 / 32768},          // which everything below shares
		{-7, 1.0 / 1024, 33.0 / 32768},
		{5e-324, 1.0 / 1024, 33.0 / 32768},
		{math.Nextafter(1<<30, 0), (1 << 30) - (1 << 24), 1 << 30}, // its last
		{1 << 30, (1 << 30) - (1 << 24), 1 << 30},                  // which everything past shares
		{math.MaxFloat64, (1 << 30) - (1 << 24), 1 << 30},
	} {
		i := bucket(math.Float64bits(c.v))
		if edge(i) != c.lo || edge(i+1) != c.hi {
			t.Errorf("%v is in bucket %d [%v, %v), want [%v, %v)", c.v, i, edge(i), edge(i+1), c.lo, c.hi)
		}
	}

	var h Hist
	for i := 0; i < 4; i++ {
		h.Add(3.05) // bucket [3, 3.0625)
	}
	for i := 0; i < 4; i++ {
		h.Add(12.2) // bucket [12, 12.25)
	}
	for _, c := range []struct{ q, want float64 }{
		{0.10, 3.05},          // k=1 → 3 + .0625·(½/4) = 3.0078125, clamped up to min
		{0.50, 3.0546875},     // k=4 → 3 + .0625·(3½/4)
		{0.51, 12.03125},      // k=5, seen 4 → 12 + .25·(½/4)
		{0.75, 12.09375},      // k=6 → 12 + .25·(1½/4)
		{0.99, 12.2},          // k=8 → 12 + .25·(3½/4) = 12.21875, clamped down to max
		{0, 3.05}, {-1, 3.05}, // q ≤ 0 is the minimum
		{1, 12.2}, {1.5, 12.2}, // q ≥ 1 the maximum
	} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := new(Hist).Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile(0.5) = %v, want 0", got)
	}
}

func TestHistBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var h Hist
	for i := 0; i < 10_000; i++ {
		h.Add(lognormal(rng, 3, 1))
	}
	h.Add(-1)   // below the grid
	h.Add(1e12) // and past it
	data := h.AppendBinary(nil)
	back, err := DecodeHist(data)
	if err != nil {
		t.Fatalf("DecodeHist: %v", err)
	}
	if *back != h {
		t.Fatalf("round trip changed the histogram: count %d min %v max %v, want %d %v %v",
			back.Count(), back.Min(), back.Max(), h.Count(), h.Min(), h.Max())
	}
	if len(data) > 2048 {
		t.Errorf("10k lognormal samples encode to %d bytes, want under 2 KB", len(data))
	}
	// Encoding an empty histogram round-trips too (a node with no traffic).
	empty, err := DecodeHist(new(Hist).AppendBinary(nil))
	if err != nil {
		t.Fatalf("decode empty: %v", err)
	}
	if *empty != (Hist{}) {
		t.Errorf("empty round trip: count %d min %v max %v", empty.Count(), empty.Min(), empty.Max())
	}
}

// rawHist lays out an encoding by hand: the extremes, then (gap, count) pairs.
func rawHist(min, max float64, pairs ...uint64) []byte {
	b := []byte{histMagic}
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(min))
	b = binary.BigEndian.AppendUint64(b, math.Float64bits(max))
	b = binary.AppendUvarint(b, uint64(len(pairs)/2))
	for _, v := range pairs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func ones(n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

func TestHistDecodeRejectsCorruption(t *testing.T) {
	// 3 and 5 are in buckets 368 and 392: 11½ and 12¼ octaves above 2⁻¹⁰.
	const b3, b5 = 368, 392
	good := rawHist(3, 5, b3+1, 2, b5-b3, 1)
	var want Hist
	want.Add(3)
	want.Add(3)
	want.Add(5)
	if h, err := DecodeHist(good); err != nil || *h != want {
		t.Fatalf("hand-laid encoding: %v", err)
	}
	if h, err := DecodeHist(rawHist(edge(0), edge(NumBuckets-1), ones(2*NumBuckets)...)); err != nil || h.Count() != NumBuckets {
		t.Fatalf("every bucket once: %v", err)
	}
	overlong := append(append([]byte(nil), good[:17]...), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02)
	oldDigest := append([]byte{0xD1}, make([]byte, 28)...) // an empty t-digest of the format this replaced
	cases := map[string][]byte{
		"empty":                    {},
		"bad magic":                append([]byte{0xFF}, good[1:]...),
		"old t-digest magic":       oldDigest,
		"truncated":                good[:len(good)-1],
		"truncated in the header":  good[:12],
		"trailing":                 append(append([]byte(nil), good...), 0),
		"count bomb":               append(binary.AppendUvarint(append([]byte(nil), good[:17]...), 1<<40), good[18:]...),
		"more entries than grid":   rawHist(edge(0), edge(NumBuckets-1), append(ones(2*NumBuckets), 1, 1)...),
		"more buckets than pairs":  func() []byte { b := append([]byte(nil), good...); b[17] = 3; return b }(),
		"zero count":               rawHist(3, 5, b3+1, 0, b5-b3, 1),
		"index out of order":       rawHist(3, 5, b3+1, 2, 0, 1),
		"index off the grid":       rawHist(3, 5, b3+1, 2, NumBuckets-b3, 1),
		"gap overflows an int":     rawHist(3, 5, b3+1, 2, math.MaxUint64, 1),
		"total overflows":          rawHist(3, 5, b3+1, math.MaxUint64, b5-b3, 1),
		"uvarint overflows":        overlong,
		"NaN min":                  rawHist(math.NaN(), 5, b3+1, 2, b5-b3, 1),
		"infinite max":             rawHist(3, math.Inf(1), b3+1, 2, NumBuckets-1-b3, 1),
		"inverted extremes":        rawHist(3.05, 3.01, b3+1, 2),
		"min outside its bucket":   rawHist(2.9, 5, b3+1, 2, b5-b3, 1),
		"max outside its bucket":   rawHist(3, 5.2, b3+1, 2, b5-b3, 1),
		"empty with extremes":      rawHist(1, 1),
		"empty with negative zero": rawHist(math.Copysign(0, -1), 0),
	}
	for name, data := range cases {
		if _, err := DecodeHist(data); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

func TestHistAddAllocFree(t *testing.T) {
	h := new(Hist)
	i := 0
	if avg := testing.AllocsPerRun(10_000, func() {
		h.Add(float64(i%1000) + 0.5)
		i++
	}); avg != 0 {
		t.Errorf("Add allocates %.3f allocs/op, want 0", avg)
	}
}

// BenchmarkHistAdd feeds latencies in no order, which is what a request path
// produces and what a sorting estimator pays most for.
func BenchmarkHistAdd(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, 8192)
	for i := range vals {
		vals[i] = lognormal(rng, 3, 1)
	}
	h := new(Hist)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Add(vals[i&8191])
	}
}

func TestTopKHotKeyAlwaysRanksFirst(t *testing.T) {
	tk := NewTopK(8)
	rng := rand.New(rand.NewSource(5))
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p"}
	for i := 0; i < 100_000; i++ {
		// "hot" gets ~30% of the stream; the rest spread over 16 cold keys.
		if rng.Intn(10) < 3 {
			tk.Offer("hot", 1)
		} else {
			tk.Offer(keys[rng.Intn(len(keys))], 1)
		}
	}
	top := tk.Top(3)
	if len(top) == 0 || top[0].Key != "hot" {
		t.Fatalf("Top(3) = %+v, want hot first", top)
	}
	// Space-saving guarantee: the estimate brackets the true count.
	if top[0].Count < 25_000 || top[0].Count-top[0].Err > 35_000 {
		t.Errorf("hot estimate %d (err %d) outside plausible range", top[0].Count, top[0].Err)
	}
	if tk.Total() != 100_000 {
		t.Errorf("Total = %d, want 100000", tk.Total())
	}
}

func TestTopKMerge(t *testing.T) {
	a, b := NewTopK(8), NewTopK(8)
	for i := 0; i < 600; i++ {
		a.Offer("hot", 1)
	}
	for i := 0; i < 500; i++ {
		b.Offer("hot", 1)
		b.Offer("warm", 1)
	}
	a.Offer("only-a", 10)
	a.Merge(b)
	if got := a.Total(); got != 600+500+500+10 {
		t.Fatalf("merged Total = %d", got)
	}
	top := a.Top(0)
	if top[0].Key != "hot" || top[0].Count != 1100 {
		t.Fatalf("merged top = %+v, want hot=1100", top[0])
	}
	found := map[string]uint64{}
	for _, e := range top {
		found[e.Key] = e.Count
	}
	if found["warm"] != 500 || found["only-a"] != 10 {
		t.Errorf("merged entries = %v", found)
	}
}

func TestTopKOfferAllocFree(t *testing.T) {
	tk := NewTopK(16)
	keys := []string{"q/a", "q/b", "q/c", "q/d"}
	for _, k := range keys {
		tk.Offer(k, 1)
	}
	i := 0
	if avg := testing.AllocsPerRun(10_000, func() {
		tk.Offer(keys[i%len(keys)], 1)
		i++
	}); avg != 0 {
		t.Errorf("steady-state Offer allocates %.3f allocs/op, want 0", avg)
	}
}

func TestTopKBinaryRoundTrip(t *testing.T) {
	tk := NewTopK(8)
	tk.Offer("alpha", 100)
	tk.Offer("beta", 50)
	tk.Offer("gamma", 25)
	data := tk.AppendBinary(nil)
	back, err := DecodeTopK(data)
	if err != nil {
		t.Fatalf("DecodeTopK: %v", err)
	}
	if back.Total() != tk.Total() || back.Len() != tk.Len() {
		t.Fatalf("round trip total/len: %d/%d vs %d/%d", back.Total(), back.Len(), tk.Total(), tk.Len())
	}
	want, got := tk.Top(0), back.Top(0)
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("entry %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}

func TestTopKDecodeRejectsCorruption(t *testing.T) {
	tk := NewTopK(4)
	tk.Offer("x", 3)
	tk.Offer("y", 2)
	good := tk.AppendBinary(nil)
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": append([]byte{0}, good[1:]...),
		"truncated": good[:len(good)-1],
		"trailing":  append(append([]byte(nil), good...), 1, 2, 3),
		"cap zero":  func() []byte { b := append([]byte(nil), good...); b[1], b[2], b[3], b[4] = 0, 0, 0, 0; return b }(),
	}
	for name, data := range cases {
		if _, err := DecodeTopK(data); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}
