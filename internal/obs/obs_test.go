package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, each = 16, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				// Shared instrument fetched by name every time: exercises the
				// registry's read path under contention too.
				r.Counter("c").Inc(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
}

// Every metered request bumps counters: an increment must not allocate.
func TestCounterIncZeroAlloc(t *testing.T) {
	c := NewRegistry().Counter("c")
	if allocs := testing.AllocsPerRun(200, func() { c.Inc(1) }); allocs != 0 {
		t.Fatalf("Counter.Inc allocates %.1f objects, want 0", allocs)
	}
}

func TestGaugeConcurrentAdd(t *testing.T) {
	r := NewRegistry()
	const workers, each = 8, 500
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				r.Gauge("g").Add(0.5)
			}
		}()
	}
	wg.Wait()
	if got, want := r.Gauge("g").Value(), float64(workers*each)*0.5; got != want {
		t.Fatalf("gauge = %v, want %v", got, want)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers, each = 8, 400
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				r.Histogram("h").Observe(float64(i + 1))
			}
		}(i)
	}
	wg.Wait()
	s := r.Histogram("h").Summary()
	if s.Count != workers*each {
		t.Fatalf("count = %d, want %d", s.Count, workers*each)
	}
	if s.Min != 1 || s.Max != workers {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Mean < 1 || s.Mean > workers {
		t.Fatalf("mean = %v out of range", s.Mean)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i))
	}
	s := h.Summary()
	// The exact order statistics are 500 and 990; the grid's bound is 1/32.
	if math.Abs(s.P50-500) > 500.0/32 {
		t.Fatalf("p50 = %v, want within 3.125%% of 500", s.P50)
	}
	if math.Abs(s.P99-990) > 990.0/32 {
		t.Fatalf("p99 = %v, want within 3.125%% of 990", s.P99)
	}
	if s.Min != 1 || s.Max != 1000 {
		t.Fatalf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc(3)
	r.Gauge("b").Set(1.25)
	r.Histogram("c").Observe(4)
	r.Histogram("c").Observe(8)

	s1, s2 := r.Snapshot(), r.Snapshot()
	j1, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := json.Marshal(s2)
	if err != nil {
		t.Fatal(err)
	}
	if string(j1) != string(j2) {
		t.Fatalf("snapshots differ:\n%s\n%s", j1, j2)
	}
	if s1.Counters["a"] != 3 || s1.Gauges["b"] != 1.25 || s1.Histograms["c"].Count != 2 {
		t.Fatalf("snapshot = %+v", s1)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Inc(10)
	r.Histogram("lat").Observe(1)
	before := r.Snapshot()

	r.Counter("x").Inc(5)
	r.Counter("fresh").Inc(2) // appears only after the first snapshot
	r.Histogram("lat").Observe(2)
	r.Histogram("lat").Observe(3)

	d := r.Snapshot().Diff(before)
	if d.Counters["x"] != 5 {
		t.Fatalf("x delta = %d", d.Counters["x"])
	}
	if d.Counters["fresh"] != 2 {
		t.Fatalf("fresh delta = %d", d.Counters["fresh"])
	}
	if d.Histograms["lat"].Count != 2 {
		t.Fatalf("lat count delta = %d", d.Histograms["lat"].Count)
	}
}

func TestConcurrentSnapshotWhileWriting(t *testing.T) {
	r := NewRegistry()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				r.Counter(fmt.Sprintf("c%d", i%2)).Inc(1)
				r.Histogram("h").Observe(float64(j % 10))
				r.Gauge("g").Add(1)
			}
		}(i)
	}
	for i := 0; i < 50; i++ {
		snap := r.Snapshot()
		if snap.Counters["c0"] < 0 {
			t.Fatal("negative counter")
		}
	}
	close(stop)
	wg.Wait()
}

// TestNilRegistryCountsNowhere: a component built without a registry gets
// nil instruments, and every method on them is a no-op that reads zero.
func TestNilRegistryCountsNowhere(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("c"), r.Gauge("g"), r.Histogram("h")
	if c != nil || g != nil || h != nil {
		t.Fatal("a nil registry should hand out nil instruments")
	}
	c.Inc(1)
	g.Set(2)
	g.Add(3)
	h.Observe(4)
	if c.Value() != 0 || g.Value() != 0 || h.Summary() != (Summary{}) {
		t.Fatal("nil instruments should read zero")
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 || s.Counters == nil {
		t.Fatalf("nil registry snapshot = %+v, want empty maps", s)
	}
}

// TestQuantileFidelity holds Summary's quantiles to the bound sketch.Hist is
// built to, against exact order statistics of a heavy-tailed latency stream:
// every /metrics and telemetry p50/p95/p99 is one of these.
func TestQuantileFidelity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 100_000
	var h Histogram
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := math.Exp(3 + 1*rng.NormFloat64()) // lognormal, median ~20ms
		samples = append(samples, v)
		h.Observe(v)
	}
	sort.Float64s(samples)
	s := h.Summary()
	for _, tc := range []struct {
		q, got float64
	}{{0.50, s.P50}, {0.95, s.P95}, {0.99, s.P99}} {
		exact := samples[int(math.Ceil(tc.q*n))-1]
		relErr := math.Abs(tc.got-exact) / exact
		t.Logf("q=%.2f exact=%.3f summary=%.3f (%.3f%%)", tc.q, exact, tc.got, 100*relErr)
		if relErr > 1.0/32 {
			t.Errorf("q=%v: %.3f is %.2f%% from the exact %.3f, bound 3.125%%", tc.q, tc.got, 100*relErr, exact)
		}
	}
	if s.Count != n || s.Min != samples[0] || s.Max != samples[n-1] {
		t.Errorf("count/min/max = %d/%v/%v, want %d/%v/%v", s.Count, s.Min, s.Max, n, samples[0], samples[n-1])
	}
}

// TestHistogramEmptyAndNonFinite: an empty histogram summarises to zeros, so
// ±Inf never reaches a JSON encoder, and an observation sketch.Hist would not
// count does not reach the sums either.
func TestHistogramEmptyAndNonFinite(t *testing.T) {
	var h Histogram
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	if s := h.Summary(); s != (Summary{}) {
		t.Fatalf("summary of no finite observations = %+v, want zeros", s)
	}
	h.Observe(2)
	h.Observe(math.NaN())
	h.Observe(4)
	if s := h.Summary(); s.Count != 2 || s.Mean != 3 || s.StdDev != 1 || s.Min != 2 || s.Max != 4 {
		t.Fatalf("summary = %+v, want count 2, mean 3, stddev 1, extremes 2 and 4", s)
	}
}

// TestSnapshotJSONQuantileKeys pins the /metrics JSON contract: every
// histogram serialises with lowercase p50/p95/p99 keys.
func TestSnapshotJSONQuantileKeys(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Histograms map[string]map[string]float64 `json:"histograms"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	lat := doc.Histograms["latency"]
	if lat == nil {
		t.Fatalf("no latency histogram in snapshot: %s", data)
	}
	for _, key := range []string{"count", "mean", "min", "max", "p50", "p95", "p99", "stddev"} {
		if _, ok := lat[key]; !ok {
			t.Errorf("snapshot histogram JSON missing key %q: %s", key, data)
		}
	}
	if lat["p50"] > lat["p95"] || lat["p95"] > lat["p99"] {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v", lat["p50"], lat["p95"], lat["p99"])
	}
}

func TestSnapshotRate(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Inc(100)
	r.Counter("errs").Inc(5)
	r.Gauge("depth").Set(3)
	prev := r.Snapshot()
	r.Counter("reqs").Inc(40)
	r.Counter("errs").Inc(1)
	diff := r.Snapshot().Diff(prev)

	rates := diff.Rate(2 * time.Second)
	if got := rates["reqs"]; got != 20 {
		t.Errorf("reqs rate = %v, want 20 (40 over 2s)", got)
	}
	if got := rates["errs"]; got != 0.5 {
		t.Errorf("errs rate = %v, want 0.5", got)
	}
	if _, ok := rates["depth"]; ok {
		t.Error("gauges must not appear in counter rates")
	}

	// Zero or negative elapsed means no rate claims at all, not Inf.
	if got := diff.Rate(0); len(got) != 0 {
		t.Errorf("rate over zero elapsed = %v, want empty", got)
	}
	if got := diff.Rate(-time.Second); len(got) != 0 {
		t.Errorf("rate over negative elapsed = %v, want empty", got)
	}
}

func TestRuntimeGauges(t *testing.T) {
	r := NewRegistry()
	update := RuntimeGauges(r)

	check := func() map[string]float64 {
		t.Helper()
		g := r.Snapshot().Gauges
		if g[GaugeGoroutines] < 1 {
			t.Errorf("%s = %v, want >= 1", GaugeGoroutines, g[GaugeGoroutines])
		}
		if g[GaugeHeapBytes] <= 0 {
			t.Errorf("%s = %v, want > 0", GaugeHeapBytes, g[GaugeHeapBytes])
		}
		if g[GaugeGCPauseMS] < 0 {
			t.Errorf("%s = %v, want >= 0", GaugeGCPauseMS, g[GaugeGCPauseMS])
		}
		return g
	}
	check() // RuntimeGauges samples once at registration

	// Spin up goroutines and resample: the gauge must move with the runtime.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); <-stop }()
	}
	update()
	after := check()
	close(stop)
	wg.Wait()
	if after[GaugeGoroutines] < 11 {
		t.Errorf("goroutine gauge = %v after spawning 10, want >= 11", after[GaugeGoroutines])
	}
}

// A registry has one runtime sampler however many callers ask for it — a
// node refreshing on its renewal tick and a web bridge refreshing per
// /metrics request share it — and it may be called from both at once.
func TestRuntimeGaugesOneSamplerPerRegistry(t *testing.T) {
	r := NewRegistry()
	updates := []func(){RuntimeGauges(r), RuntimeGauges(r)}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(update func()) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				update()
			}
		}(updates[i%2])
	}
	wg.Wait()
	if g := r.Snapshot().Gauges[GaugeGoroutines]; g < 1 {
		t.Errorf("%s = %v, want >= 1", GaugeGoroutines, g)
	}
}
